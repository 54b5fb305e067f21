//! GROUP BY / aggregate execution.
//!
//! The input relation is folded into one row per group: group-key columns
//! first, aggregate results after. Projection/HAVING expressions are then
//! rewritten to reference those slots through the synthetic `#agg` binding.

use super::eval::{bind_expr, eval, BExpr, ExecCtx, HashKey, Schema, SchemaCol};
use super::select::OutItem;
use super::Relation;
use crate::ast::{AggFunc, Expr, Select};
use crate::error::{Result, SqlError};
use fempath_storage::Value;
use std::collections::HashMap;

/// Running state of one aggregate over one group.
pub(crate) enum AggState {
    Count(i64),
    SumInt {
        acc: i64,
        any: bool,
        float: f64,
        is_float: bool,
    },
    Min(Option<Value>),
    Max(Option<Value>),
    Avg {
        sum: f64,
        n: i64,
    },
}

impl AggState {
    pub(crate) fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::SumInt {
                acc: 0,
                any: false,
                float: 0.0,
                is_float: false,
            },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
        }
    }

    /// Feeds one input value. `None` means `COUNT(*)` (count the row).
    pub(crate) fn update(&mut self, v: Option<Value>) -> Result<()> {
        match self {
            AggState::Count(n) => {
                match v {
                    None => *n += 1,        // COUNT(*)
                    Some(Value::Null) => {} // COUNT(expr) skips NULL
                    Some(_) => *n += 1,
                }
            }
            AggState::SumInt {
                acc,
                any,
                float,
                is_float,
            } => match v {
                Some(Value::Int(i)) => {
                    *acc = acc.wrapping_add(i);
                    *float += i as f64;
                    *any = true;
                }
                Some(Value::Float(f)) => {
                    *float += f;
                    *is_float = true;
                    *any = true;
                }
                Some(Value::Null) | None => {}
                Some(other) => {
                    return Err(SqlError::Eval(format!("cannot SUM {other:?}")));
                }
            },
            AggState::Min(cur) => {
                if let Some(v) = v {
                    if !v.is_null() && cur.as_ref().is_none_or(|c| v.total_cmp(c).is_lt()) {
                        *cur = Some(v);
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(v) = v {
                    if !v.is_null() && cur.as_ref().is_none_or(|c| v.total_cmp(c).is_gt()) {
                        *cur = Some(v);
                    }
                }
            }
            AggState::Avg { sum, n } => match v {
                Some(Value::Int(i)) => {
                    *sum += i as f64;
                    *n += 1;
                }
                Some(Value::Float(f)) => {
                    *sum += f;
                    *n += 1;
                }
                Some(Value::Null) | None => {}
                Some(other) => {
                    return Err(SqlError::Eval(format!("cannot AVG {other:?}")));
                }
            },
        }
        Ok(())
    }

    /// Feeds one non-NULL integer — [`AggState::update`] of
    /// `Some(Value::Int(x))` without building the value.
    pub(crate) fn update_int(&mut self, x: i64) {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::SumInt {
                acc, any, float, ..
            } => {
                *acc = acc.wrapping_add(x);
                *float += x as f64;
                *any = true;
            }
            AggState::Min(cur) => match cur {
                Some(Value::Int(c)) => *c = (*c).min(x),
                Some(c) if Value::Int(x).total_cmp(c).is_ge() => {}
                _ => *cur = Some(Value::Int(x)),
            },
            AggState::Max(cur) => match cur {
                Some(Value::Int(c)) => *c = (*c).max(x),
                Some(c) if Value::Int(x).total_cmp(c).is_le() => {}
                _ => *cur = Some(Value::Int(x)),
            },
            AggState::Avg { sum, n } => {
                *sum += x as f64;
                *n += 1;
            }
        }
    }

    /// Feeds `n` argument-less rows at once — the `COUNT(*)` batch path
    /// (equivalent to `n` calls of `update(None)`, which only the Count
    /// state reacts to).
    pub(crate) fn update_star(&mut self, n: i64) {
        if let AggState::Count(c) = self {
            *c += n;
        }
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::SumInt {
                acc,
                any,
                float,
                is_float,
            } => {
                if !any {
                    Value::Null
                } else if is_float {
                    Value::Float(float)
                } else {
                    Value::Int(acc)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
        }
    }
}

/// Collects the distinct aggregate calls appearing in an expression.
pub(crate) fn collect_aggs(expr: &Expr, out: &mut Vec<(AggFunc, Option<Expr>)>) {
    match expr {
        Expr::Aggregate { func, arg } => {
            let spec = (*func, arg.as_deref().cloned());
            if !out.contains(&spec) {
                out.push(spec);
            }
        }
        Expr::Unary { expr, .. } => collect_aggs(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_aggs(left, out);
            collect_aggs(right, out);
        }
        Expr::IsNull { expr, .. } => collect_aggs(expr, out),
        _ => {}
    }
}

/// Rewrites an expression over the post-aggregation schema: group
/// expressions become `#agg.g{i}`, aggregate calls become `#agg.a{j}`.
pub(crate) fn rewrite(
    expr: &Expr,
    group_by: &[Expr],
    aggs: &[(AggFunc, Option<Expr>)],
) -> Result<Expr> {
    if let Some(i) = group_by.iter().position(|g| g == expr) {
        return Ok(Expr::Column {
            table: Some("#agg".into()),
            name: format!("g{i}"),
        });
    }
    if let Expr::Aggregate { func, arg } = expr {
        let spec = (*func, arg.as_deref().cloned());
        let j = aggs.iter().position(|s| s == &spec).ok_or_else(|| {
            SqlError::Bind("aggregate expression missing from the collected specs".into())
        })?;
        return Ok(Expr::Column {
            table: Some("#agg".into()),
            name: format!("a{j}"),
        });
    }
    Ok(match expr {
        Expr::Column { table, name } => {
            return Err(SqlError::Bind(format!(
                "column {}{name} must appear in GROUP BY or inside an aggregate",
                table.as_ref().map(|t| format!("{t}.")).unwrap_or_default()
            )))
        }
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rewrite(expr, group_by, aggs)?),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(rewrite(left, group_by, aggs)?),
            op: *op,
            right: Box::new(rewrite(right, group_by, aggs)?),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rewrite(expr, group_by, aggs)?),
            negated: *negated,
        },
        other => other.clone(),
    })
}

/// Output of [`run_group_by`]: the grouped relation plus the rewritten
/// projection items, HAVING clause and ORDER BY keys, all of which now
/// reference the grouped schema.
pub type GroupByOutput = (
    Relation,
    Vec<OutItem>,
    Option<Expr>,
    Vec<crate::ast::OrderKey>,
);

/// Runs grouping + aggregation.
pub fn run_group_by(
    ctx: &mut ExecCtx<'_>,
    rel: Relation,
    sel: &Select,
    items: Vec<OutItem>,
    having: Option<Expr>,
    order_by: Vec<crate::ast::OrderKey>,
) -> Result<GroupByOutput> {
    // Window functions may not be mixed with aggregation in this engine.
    if items.iter().any(|i| i.expr.contains_window()) {
        return Err(SqlError::Bind(
            "window functions cannot be combined with GROUP BY/aggregates".into(),
        ));
    }

    let group_bexprs: Vec<BExpr> = sel
        .group_by
        .iter()
        .map(|g| bind_expr(ctx, &rel.schema, g))
        .collect::<Result<_>>()?;

    let mut agg_specs: Vec<(AggFunc, Option<Expr>)> = Vec::new();
    for item in &items {
        collect_aggs(&item.expr, &mut agg_specs);
    }
    if let Some(h) = &having {
        collect_aggs(h, &mut agg_specs);
    }
    for k in &order_by {
        collect_aggs(&k.expr, &mut agg_specs);
    }
    let agg_args: Vec<Option<BExpr>> = agg_specs
        .iter()
        .map(|(_, arg)| {
            arg.as_ref()
                .map(|a| bind_expr(ctx, &rel.schema, a))
                .transpose()
        })
        .collect::<Result<_>>()?;

    // Group rows (insertion-ordered for deterministic output). The common
    // single-integer group key (e.g. the batched-FEM per-qid statistics)
    // hashes the integer directly instead of allocating an encoded key.
    let mut order: Vec<HashKey> = Vec::new();
    let mut groups: HashMap<HashKey, (Vec<Value>, Vec<AggState>)> = HashMap::new();
    for row in &rel.rows {
        let mut key_vals = Vec::with_capacity(group_bexprs.len());
        for g in &group_bexprs {
            key_vals.push(eval(g, row)?);
        }
        let key = HashKey::from_values(&key_vals);
        let entry = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            (
                key_vals,
                agg_specs.iter().map(|(f, _)| AggState::new(*f)).collect(),
            )
        });
        for (state, arg) in entry.1.iter_mut().zip(&agg_args) {
            let v = match arg {
                Some(a) => Some(eval(a, row)?),
                None => None,
            };
            state.update(v)?;
        }
    }
    // Scalar aggregate over an empty input still yields one row.
    if groups.is_empty() && sel.group_by.is_empty() {
        let key = HashKey::Bytes(Vec::new());
        order.push(key.clone());
        groups.insert(
            key,
            (
                Vec::new(),
                agg_specs.iter().map(|(f, _)| AggState::new(*f)).collect(),
            ),
        );
    }

    // Output relation under the synthetic `#agg` binding.
    let mut cols = Vec::new();
    for i in 0..group_bexprs.len() {
        cols.push(SchemaCol {
            binding: Some("#agg".into()),
            name: format!("g{i}"),
        });
    }
    for j in 0..agg_specs.len() {
        cols.push(SchemaCol {
            binding: Some("#agg".into()),
            name: format!("a{j}"),
        });
    }
    let mut rows = Vec::with_capacity(order.len());
    for key in order {
        let (mut key_vals, states) = groups.remove(&key).ok_or_else(|| {
            SqlError::Eval("group key vanished between collection and output".into())
        })?;
        for s in states {
            key_vals.push(s.finish());
        }
        rows.push(key_vals);
    }

    let new_items = items
        .into_iter()
        .map(|i| {
            Ok(OutItem {
                name: i.name,
                expr: rewrite(&i.expr, &sel.group_by, &agg_specs)?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let new_having = having
        .map(|h| rewrite(&h, &sel.group_by, &agg_specs))
        .transpose()?;
    // ORDER BY keys that reference output aliases stay as-is (resolved
    // against the items later); everything else goes through the rewrite.
    let new_order: Vec<crate::ast::OrderKey> = order_by
        .into_iter()
        .map(|k| {
            let is_alias_ref = matches!(
                &k.expr,
                Expr::Column { table: None, name }
                    if new_items.iter().any(|i| i.name.eq_ignore_ascii_case(name))
            );
            if is_alias_ref {
                Ok(k)
            } else {
                Ok(crate::ast::OrderKey {
                    expr: rewrite(&k.expr, &sel.group_by, &agg_specs)?,
                    asc: k.asc,
                })
            }
        })
        .collect::<Result<_>>()?;

    Ok((
        Relation {
            schema: Schema { cols },
            rows,
        },
        new_items,
        new_having,
        new_order,
    ))
}
