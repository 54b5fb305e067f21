//! Window-function kernels (`ROW_NUMBER`, `RANK` over partitions).
//!
//! This is the SQL:2003 feature the paper leans on (§2.2/§3.3): one window
//! pass replaces the aggregate-plus-self-join of the traditional
//! formulation, keeping non-aggregate columns (the parent `p2s`) available
//! next to the per-partition minimum. A window call is rewritten into a
//! reference to its computed column (`#win.w{i}`), and
//! [`window_values`] numbers the rows.

use crate::ast::{Expr, WindowFunc};
use crate::error::{Result, SqlError};
use fempath_storage::Value;

/// One distinct window specification found in the projection.
#[derive(PartialEq, Clone, Debug)]
pub struct WinSpec {
    /// The numbering function.
    pub func: WindowFunc,
    /// `PARTITION BY` expressions.
    pub partition_by: Vec<Expr>,
    /// `ORDER BY` keys within a partition.
    pub order_by: Vec<crate::ast::OrderKey>,
}

/// Collects the distinct window calls appearing in an expression.
pub fn collect_windows(expr: &Expr, out: &mut Vec<WinSpec>) {
    match expr {
        Expr::Window {
            func,
            partition_by,
            order_by,
        } => {
            let spec = WinSpec {
                func: *func,
                partition_by: partition_by.clone(),
                order_by: order_by.clone(),
            };
            if !out.contains(&spec) {
                out.push(spec);
            }
        }
        Expr::Unary { expr, .. } => collect_windows(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_windows(left, out);
            collect_windows(right, out);
        }
        Expr::IsNull { expr, .. } => collect_windows(expr, out),
        _ => {}
    }
}

/// Rewrites every window call in `expr` into a reference to its column,
/// `#win.w{i}` for the `i`-th of `specs`.
pub fn rewrite(expr: &Expr, specs: &[WinSpec]) -> Result<Expr> {
    Ok(match expr {
        Expr::Window {
            func,
            partition_by,
            order_by,
        } => {
            let spec = WinSpec {
                func: *func,
                partition_by: partition_by.clone(),
                order_by: order_by.clone(),
            };
            let i = specs.iter().position(|s| s == &spec).ok_or_else(|| {
                SqlError::Bind("window expression missing from the collected specs".into())
            })?;
            Expr::Column {
                table: Some("#win".into()),
                name: format!("w{i}"),
            }
        }
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rewrite(expr, specs)?),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(rewrite(left, specs)?),
            op: *op,
            right: Box::new(rewrite(right, specs)?),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rewrite(expr, specs)?),
            negated: *negated,
        },
        other => other.clone(),
    })
}

/// Computes one window function's per-row values from pre-evaluated
/// `(partition values, order values, original row index)` triples.
/// Shared by the vectorized executor and the reference interpreter so
/// the two cannot drift: partitions compare value-wise with a type tag
/// before the value (Int(1) and Float(1.0) stay distinct, matching
/// GROUP BY), `dirs` gives each order key's direction.
pub fn window_values(
    mut keyed: Vec<(Vec<Value>, Vec<Value>, usize)>,
    dirs: &[bool],
    func: WindowFunc,
) -> Vec<Value> {
    fn type_rank(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Text(_) => 3,
        }
    }
    let cmp_part = |a: &[Value], b: &[Value]| {
        for (x, y) in a.iter().zip(b) {
            let ord = type_rank(x).cmp(&type_rank(y)).then_with(|| x.total_cmp(y));
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    };
    keyed.sort_by(|a, b| {
        cmp_part(&a.0, &b.0).then_with(|| {
            for (i, asc) in dirs.iter().enumerate() {
                let ord = a.1[i].total_cmp(&b.1[i]);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        })
    });

    let mut values = vec![Value::Null; keyed.len()];
    let mut prev_part: Option<&[Value]> = None;
    let mut row_num = 0i64;
    let mut rank = 0i64;
    let mut prev_order: Option<&[Value]> = None;
    for (pkey, ovals, idx) in &keyed {
        let same = prev_part.is_some_and(|pp| cmp_part(pp, pkey).is_eq());
        if !same {
            row_num = 0;
            rank = 0;
            prev_order = None;
            prev_part = Some(pkey.as_slice());
        }
        row_num += 1;
        let tied = prev_order.is_some_and(|po| {
            po.len() == ovals.len()
                && po
                    .iter()
                    .zip(ovals.iter())
                    .all(|(a, b)| a.total_cmp(b).is_eq())
        });
        if !tied {
            rank = row_num;
        }
        prev_order = Some(ovals.as_slice());
        values[*idx] = Value::Int(match func {
            WindowFunc::RowNumber => row_num,
            WindowFunc::Rank => rank,
        });
    }
    values
}
