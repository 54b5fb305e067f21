//! Aggregation kernels: the running state of one aggregate over one
//! group, and the rewrite that turns projection/HAVING/ORDER BY
//! expressions into references to the grouped row. A grouped row holds
//! the group-key columns first (`#agg.g{i}`) and the aggregate results
//! after (`#agg.a{j}`).

use crate::ast::{AggFunc, Expr};
use crate::error::{Result, SqlError};
use fempath_storage::Value;

/// Running state of one aggregate over one group.
pub enum AggState {
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
    /// The empty state of `func`.
    pub fn new(func: AggFunc) -> AggState {
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
    pub fn update(&mut self, v: Option<Value>) -> Result<()> {
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

    /// The aggregate's result: NULL for SUM/MIN/MAX/AVG over no
    /// non-NULL input, 0 for COUNT.
    pub fn finish(self) -> Value {
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
pub fn collect_aggs(expr: &Expr, out: &mut Vec<(AggFunc, Option<Expr>)>) {
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
pub fn rewrite(expr: &Expr, group_by: &[Expr], aggs: &[(AggFunc, Option<Expr>)]) -> Result<Expr> {
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
