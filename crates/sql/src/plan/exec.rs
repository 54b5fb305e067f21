//! The scalar kernel of the plan executor.
//!
//! Plans run batch-at-a-time in [`super::vexec`]; what lives here is the
//! part of that executor that is inherently per-row: the execution
//! environment (parameters + evaluated subquery slots), single-row
//! evaluation of a bound [`PExpr`] (index probe keys, `VALUES` rows,
//! UPDATE…FROM / MERGE residuals and assignments), and the
//! post-pipeline stages over materialized rows (HAVING → ORDER BY →
//! projection → DISTINCT → TOP/LIMIT).

use super::{PExpr, SelectPlan};
use crate::ast::{BinaryOp, UnaryOp};
use crate::error::{Result, SqlError};
use crate::exec::eval::{arith, truthy};
use fempath_storage::{encode_key, Value};
use std::collections::HashSet;
use std::rc::Rc;

/// Per-execution context: the parameter list and the evaluated subquery
/// slots.
pub(crate) struct Env<'a> {
    pub(crate) params: &'a [Value],
    pub(crate) subs: Vec<SubResult>,
}

/// Result of one subquery slot for the current execution.
pub(crate) enum SubResult {
    Scalar(Value),
    /// Sorted, deduplicated, NULL-free list + "the subquery produced a
    /// NULL" flag (three-valued `[NOT] IN`, see
    /// [`crate::exec::eval::in_list_result`]).
    List(Rc<Vec<Value>>, bool),
    Exists(bool),
}

/// Evaluates a plan expression against a row.
pub(crate) fn eval_px(e: &PExpr, row: &[Value], env: &Env<'_>) -> Result<Value> {
    Ok(match e {
        PExpr::Const(v) => v.clone(),
        PExpr::Param(i) => env.params.get(*i).cloned().ok_or(SqlError::ParamCount {
            expected: i + 1,
            got: env.params.len(),
        })?,
        PExpr::Col(i) => row[*i].clone(),
        PExpr::Unary { op, e } => {
            let v = eval_px(e, row, env)?;
            match op {
                UnaryOp::Neg => match v {
                    Value::Int(i) => Value::Int(-i),
                    Value::Float(f) => Value::Float(-f),
                    Value::Null => Value::Null,
                    Value::Text(_) => return Err(SqlError::Eval("cannot negate text".into())),
                },
                UnaryOp::Not => match v {
                    Value::Null => Value::Null,
                    other => Value::Int(i64::from(!truthy(&other))),
                },
            }
        }
        PExpr::Binary { l, op, r } => {
            match op {
                BinaryOp::And => {
                    let lv = eval_px(l, row, env)?;
                    if !lv.is_null() && !truthy(&lv) {
                        return Ok(Value::Int(0));
                    }
                    let rv = eval_px(r, row, env)?;
                    if !rv.is_null() && !truthy(&rv) {
                        return Ok(Value::Int(0));
                    }
                    if lv.is_null() || rv.is_null() {
                        return Ok(Value::Null);
                    }
                    return Ok(Value::Int(1));
                }
                BinaryOp::Or => {
                    let lv = eval_px(l, row, env)?;
                    if truthy(&lv) {
                        return Ok(Value::Int(1));
                    }
                    let rv = eval_px(r, row, env)?;
                    if truthy(&rv) {
                        return Ok(Value::Int(1));
                    }
                    if lv.is_null() || rv.is_null() {
                        return Ok(Value::Null);
                    }
                    return Ok(Value::Int(0));
                }
                _ => {}
            }
            let lv = eval_px(l, row, env)?;
            let rv = eval_px(r, row, env)?;
            match op {
                BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
                    arith(*op, lv, rv)?
                }
                BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq => {
                    if lv.is_null() || rv.is_null() {
                        Value::Null
                    } else {
                        let ord = lv.total_cmp(&rv);
                        let b = match op {
                            BinaryOp::Eq => ord.is_eq(),
                            BinaryOp::NotEq => ord.is_ne(),
                            BinaryOp::Lt => ord.is_lt(),
                            BinaryOp::LtEq => ord.is_le(),
                            BinaryOp::Gt => ord.is_gt(),
                            BinaryOp::GtEq => ord.is_ge(),
                            _ => unreachable!(),
                        };
                        Value::Int(i64::from(b))
                    }
                }
                BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
            }
        }
        PExpr::IsNull { e, negated } => {
            let v = eval_px(e, row, env)?;
            Value::Int(i64::from(v.is_null() != *negated))
        }
        PExpr::Sub(i) => match &env.subs[*i] {
            SubResult::Scalar(v) => v.clone(),
            _ => unreachable!("slot kind fixed at plan time"),
        },
        PExpr::InSub { e, sub, negated } => {
            let v = eval_px(e, row, env)?;
            let SubResult::List(list, has_null) = &env.subs[*sub] else {
                unreachable!("slot kind fixed at plan time")
            };
            crate::exec::eval::in_list_result(&v, list, *has_null, *negated)
        }
        PExpr::ExistsSub { sub, negated } => {
            let SubResult::Exists(exists) = &env.subs[*sub] else {
                unreachable!("slot kind fixed at plan time")
            };
            Value::Int(i64::from(*exists != *negated))
        }
    })
}

/// True when every predicate holds for the row.
pub(crate) fn passes(preds: &[PExpr], row: &[Value], env: &Env<'_>) -> Result<bool> {
    for p in preds {
        if !truthy(&eval_px(p, row, env)?) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Safety valve against runaway cross joins.
pub(crate) const LOOP_JOIN_ROW_CAP: u64 = 50_000_000;

/// Shared post-pipeline stages over materialized rows:
/// HAVING → ORDER BY → projection → DISTINCT → TOP/LIMIT.
pub(crate) fn post_process(
    mut rows: Vec<Vec<Value>>,
    plan: &SelectPlan,
    env: &Env<'_>,
) -> Result<Vec<Vec<Value>>> {
    if let Some(h) = &plan.having {
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            if truthy(&eval_px(h, &row, env)?) {
                kept.push(row);
            }
        }
        rows = kept;
    }
    if !plan.order_by.is_empty() {
        let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(rows.len());
        for row in rows {
            let mut keys = Vec::with_capacity(plan.order_by.len());
            for (e, _) in &plan.order_by {
                keys.push(eval_px(e, &row, env)?);
            }
            keyed.push((keys, row));
        }
        keyed.sort_by(|(a, _), (b, _)| {
            for (i, (_, asc)) in plan.order_by.iter().enumerate() {
                let ord = a[i].total_cmp(&b[i]);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        rows = keyed.into_iter().map(|(_, r)| r).collect();
    }
    // A zero cap excludes every row *before* projection: no excluded
    // row's output expressions may be evaluated (`… ORDER BY x LIMIT 0`
    // with `1/0` in the select list returns empty instead of erroring),
    // matching the interpreter and the fully-streaming branch.
    if plan.cap == Some(0) {
        rows.clear();
    }
    // A projection that returns each row as it is (a scalar aggregate's
    // slots, in order) leaves the rows in place.
    let identity = rows.iter().all(|r| r.len() == plan.items.len())
        && plan
            .items
            .iter()
            .enumerate()
            .all(|(i, p)| matches!(p, PExpr::Col(c) if *c == i));
    let mut out = rows;
    if !identity {
        for row in &mut out {
            let mut o = Vec::with_capacity(plan.items.len());
            for p in &plan.items {
                o.push(eval_px(p, row, env)?);
            }
            *row = o;
        }
    }
    if plan.distinct {
        let mut seen = HashSet::new();
        out.retain(|r| seen.insert(encode_key(r).unwrap_or_default()));
    }
    if let Some(cap) = plan.cap {
        out.truncate(cap as usize);
    }
    Ok(out)
}
