//! Bound expressions and their evaluation.
//!
//! Binding resolves column names to positions in a [`Schema`], substitutes
//! `?` parameters, and *pre-evaluates uncorrelated subqueries* (scalar, IN,
//! EXISTS) to constants — every subquery the paper's SQL uses is
//! uncorrelated, and pre-evaluation gives them the same
//! "evaluate-once-per-statement" cost profile a real optimizer would.

use fempath_sql::ast::{BinaryOp, Expr, UnaryOp};
use fempath_sql::catalog::Catalog;
use fempath_sql::plan::scope::Schema;
use fempath_sql::plan::value::{arith, in_list_result, truthy};
use fempath_sql::{Result, SqlError};
use fempath_storage::{BufferPool, Value};
use std::rc::Rc;

/// A fully bound, directly evaluable expression.
#[derive(Debug, Clone)]
pub enum BExpr {
    Const(Value),
    Col(usize),
    Unary {
        op: UnaryOp,
        e: Box<BExpr>,
    },
    Binary {
        l: Box<BExpr>,
        op: BinaryOp,
        r: Box<BExpr>,
    },
    IsNull {
        e: Box<BExpr>,
        negated: bool,
    },
    /// `expr [NOT] IN (…)` against a pre-evaluated, sorted value list.
    /// NULLs are stripped from the list into `has_null`, which drives the
    /// three-valued result: `x NOT IN (…, NULL)` is never true.
    InList {
        e: Box<BExpr>,
        list: Rc<Vec<Value>>,
        has_null: bool,
        negated: bool,
    },
}

/// Everything binding/execution needs. `pool` is the buffer pool, `catalog`
/// resolves tables/views, `params` backs `?` placeholders.
pub struct ExecCtx<'a> {
    pub pool: &'a mut BufferPool,
    pub catalog: &'a Catalog,
    pub params: &'a [Value],
}

impl<'a> ExecCtx<'a> {
    pub fn param(&self, i: usize) -> Result<Value> {
        self.params.get(i).cloned().ok_or(SqlError::ParamCount {
            expected: i + 1,
            got: self.params.len(),
        })
    }
}

/// Binds `expr` against `schema`, running subqueries through `ctx`.
pub fn bind_expr(ctx: &mut ExecCtx<'_>, schema: &Schema, expr: &Expr) -> Result<BExpr> {
    Ok(match expr {
        Expr::Literal(v) => BExpr::Const(v.clone()),
        Expr::Param(i) => BExpr::Const(ctx.param(*i)?),
        Expr::Column { table, name } => BExpr::Col(schema.resolve(table.as_deref(), name)?),
        Expr::Unary { op, expr } => BExpr::Unary {
            op: *op,
            e: Box::new(bind_expr(ctx, schema, expr)?),
        },
        Expr::Binary { left, op, right } => BExpr::Binary {
            l: Box::new(bind_expr(ctx, schema, left)?),
            op: *op,
            r: Box::new(bind_expr(ctx, schema, right)?),
        },
        Expr::IsNull { expr, negated } => BExpr::IsNull {
            e: Box::new(bind_expr(ctx, schema, expr)?),
            negated: *negated,
        },
        Expr::Subquery(q) => {
            let rel = super::select::execute_select(ctx, q)?;
            if rel.rows.len() > 1 {
                return Err(SqlError::Eval(
                    "scalar subquery returned more than one row".into(),
                ));
            }
            if let Some(row) = rel.rows.first() {
                if row.len() != 1 {
                    return Err(SqlError::Eval(
                        "scalar subquery must return exactly one column".into(),
                    ));
                }
                BExpr::Const(row[0].clone())
            } else {
                BExpr::Const(Value::Null)
            }
        }
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => {
            let rel = super::select::execute_select(ctx, query)?;
            let mut list: Vec<Value> = rel
                .rows
                .into_iter()
                .map(|mut r| {
                    if r.len() != 1 {
                        return Err(SqlError::Eval(
                            "IN subquery must return exactly one column".into(),
                        ));
                    }
                    r.pop()
                        .ok_or_else(|| SqlError::Eval("IN subquery returned an empty row".into()))
                })
                .collect::<Result<_>>()?;
            // SQL three-valued logic: NULLs in the list never *match*, but
            // their presence means a non-matching probe compares UNKNOWN —
            // strip them into a flag instead of sorting them as values.
            let n = list.len();
            list.retain(|v| !v.is_null());
            let has_null = list.len() != n;
            list.sort_by(|a, b| a.total_cmp(b));
            list.dedup();
            BExpr::InList {
                e: Box::new(bind_expr(ctx, schema, expr)?),
                list: Rc::new(list),
                has_null,
                negated: *negated,
            }
        }
        Expr::Exists { query, negated } => {
            let rel = super::select::execute_select(ctx, query)?;
            let exists = !rel.rows.is_empty();
            BExpr::Const(Value::Int(i64::from(exists != *negated)))
        }
        Expr::Aggregate { .. } => {
            return Err(SqlError::Bind(
                "aggregate function not allowed in this context".into(),
            ))
        }
        Expr::Window { .. } => {
            return Err(SqlError::Bind(
                "window function not allowed in this context".into(),
            ))
        }
    })
}

/// Evaluates a bound expression against a row.
pub fn eval(e: &BExpr, row: &[Value]) -> Result<Value> {
    Ok(match e {
        BExpr::Const(v) => v.clone(),
        BExpr::Col(i) => row[*i].clone(),
        BExpr::Unary { op, e } => {
            let v = eval(e, row)?;
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
        BExpr::Binary { l, op, r } => {
            // Short-circuit logic operators.
            match op {
                BinaryOp::And => {
                    let lv = eval(l, row)?;
                    if !lv.is_null() && !truthy(&lv) {
                        return Ok(Value::Int(0));
                    }
                    let rv = eval(r, row)?;
                    if !rv.is_null() && !truthy(&rv) {
                        return Ok(Value::Int(0));
                    }
                    if lv.is_null() || rv.is_null() {
                        return Ok(Value::Null);
                    }
                    return Ok(Value::Int(1));
                }
                BinaryOp::Or => {
                    let lv = eval(l, row)?;
                    if truthy(&lv) {
                        return Ok(Value::Int(1));
                    }
                    let rv = eval(r, row)?;
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
            let lv = eval(l, row)?;
            let rv = eval(r, row)?;
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
        BExpr::IsNull { e, negated } => {
            let v = eval(e, row)?;
            Value::Int(i64::from(v.is_null() != *negated))
        }
        BExpr::InList {
            e,
            list,
            has_null,
            negated,
        } => {
            let v = eval(e, row)?;
            in_list_result(&v, list, *has_null, *negated)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_parts() -> (BufferPool, Catalog) {
        (BufferPool::in_memory(16), Catalog::new())
    }

    fn bind_const(expr: &Expr) -> BExpr {
        let (mut pool, catalog) = ctx_parts();
        let mut ctx = ExecCtx {
            pool: &mut pool,
            catalog: &catalog,
            params: &[],
        };
        bind_expr(&mut ctx, &Schema::empty(), expr).unwrap()
    }

    fn eval_const(sql_expr: &str) -> Value {
        // Piggyback on the parser: SELECT <expr>.
        let stmt = fempath_sql::parse_statement(&format!("SELECT {sql_expr}")).unwrap();
        let expr = match stmt {
            fempath_sql::ast::Stmt::Select(s) => match &s.items[0] {
                fempath_sql::ast::SelectItem::Expr { expr, .. } => expr.clone(),
                _ => panic!(),
            },
            _ => panic!(),
        };
        let b = bind_const(&expr);
        eval(&b, &[]).unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval_const("1 + 2 * 3"), Value::Int(7));
        assert_eq!(eval_const("(1 + 2) * 3"), Value::Int(9));
        assert_eq!(eval_const("7 / 2"), Value::Int(3));
        assert_eq!(eval_const("7.0 / 2"), Value::Float(3.5));
        assert_eq!(eval_const("7 % 3"), Value::Int(1));
        assert_eq!(eval_const("-5 + 2"), Value::Int(-3));
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(eval_const("1 < 2"), Value::Int(1));
        assert_eq!(eval_const("2 <= 1"), Value::Int(0));
        assert_eq!(eval_const("1 = 1.0"), Value::Int(1));
        assert_eq!(eval_const("1 <> 2 AND 3 > 2"), Value::Int(1));
        assert_eq!(eval_const("1 > 2 OR 0 = 1"), Value::Int(0));
        assert_eq!(eval_const("NOT 0"), Value::Int(1));
    }

    #[test]
    fn null_semantics() {
        assert_eq!(eval_const("NULL + 1"), Value::Null);
        assert_eq!(eval_const("NULL = NULL"), Value::Null);
        assert_eq!(eval_const("NULL IS NULL"), Value::Int(1));
        assert_eq!(eval_const("1 IS NOT NULL"), Value::Int(1));
        // NULL AND false = false; NULL AND true = NULL.
        assert_eq!(eval_const("NULL AND 0"), Value::Int(0));
        assert_eq!(eval_const("NULL AND 1"), Value::Null);
        assert_eq!(eval_const("NULL OR 1"), Value::Int(1));
    }

    #[test]
    fn division_by_zero_errors() {
        let stmt = fempath_sql::parse_statement("SELECT 1/0").unwrap();
        let expr = match stmt {
            fempath_sql::ast::Stmt::Select(s) => match &s.items[0] {
                fempath_sql::ast::SelectItem::Expr { expr, .. } => expr.clone(),
                _ => panic!(),
            },
            _ => panic!(),
        };
        let b = bind_const(&expr);
        assert!(eval(&b, &[]).is_err());
    }

    #[test]
    fn params_bind_as_constants() {
        let (mut pool, catalog) = ctx_parts();
        let params = vec![Value::Int(42)];
        let mut ctx = ExecCtx {
            pool: &mut pool,
            catalog: &catalog,
            params: &params,
        };
        let b = bind_expr(&mut ctx, &Schema::empty(), &Expr::Param(0)).unwrap();
        assert_eq!(eval(&b, &[]).unwrap(), Value::Int(42));
        assert!(bind_expr(&mut ctx, &Schema::empty(), &Expr::Param(1)).is_err());
    }
}
