//! Bound expressions and their evaluation.
//!
//! Binding resolves column names to positions in a [`Schema`], substitutes
//! `?` parameters, and *pre-evaluates uncorrelated subqueries* (scalar, IN,
//! EXISTS) to constants — every subquery the paper's SQL uses is
//! uncorrelated, and pre-evaluation gives them the same
//! "evaluate-once-per-statement" cost profile a real optimizer would.

use crate::ast::{BinaryOp, Expr, UnaryOp};
use crate::catalog::Catalog;
use crate::error::{Result, SqlError};
use fempath_storage::{BufferPool, Value};
use std::rc::Rc;

/// A column visible in an execution schema.
#[derive(Debug, Clone)]
pub struct SchemaCol {
    /// Binding (table alias) the column belongs to, lowercase.
    pub binding: Option<String>,
    /// Column name, original spelling.
    pub name: String,
}

/// The shape of rows flowing through an operator.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    pub cols: Vec<SchemaCol>,
}

impl Schema {
    pub fn empty() -> Schema {
        Schema::default()
    }

    /// Schema exposing `table_schema` under `binding`.
    pub fn from_table(binding: &str, table_schema: &crate::catalog::TableSchema) -> Schema {
        Schema {
            cols: table_schema
                .columns
                .iter()
                .map(|c| SchemaCol {
                    binding: Some(binding.to_ascii_lowercase()),
                    name: c.name.clone(),
                })
                .collect(),
        }
    }

    /// Concatenation (for joins).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        Schema { cols }
    }

    /// Resolves `[table.]name`, erroring on unknown or ambiguous references.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize> {
        let table = table.map(|t| t.to_ascii_lowercase());
        let mut found = None;
        for (i, c) in self.cols.iter().enumerate() {
            if !c.name.eq_ignore_ascii_case(name) {
                continue;
            }
            if let Some(t) = &table {
                if c.binding.as_deref() != Some(t.as_str()) {
                    continue;
                }
            }
            if found.is_some() {
                return Err(SqlError::Bind(format!(
                    "ambiguous column reference {}{name}",
                    table.map(|t| format!("{t}.")).unwrap_or_default()
                )));
            }
            found = Some(i);
        }
        found.ok_or_else(|| {
            SqlError::Bind(format!(
                "unknown column {}{name}",
                table.map(|t| format!("{t}.")).unwrap_or_default()
            ))
        })
    }

    /// True when the column reference resolves uniquely here.
    pub fn can_resolve(&self, table: Option<&str>, name: &str) -> bool {
        self.resolve(table, name).is_ok()
    }
}

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

impl BExpr {
    /// True when the expression references no columns (safe to evaluate
    /// against an empty row).
    pub fn is_const(&self) -> bool {
        match self {
            BExpr::Const(_) => true,
            BExpr::Col(_) => false,
            BExpr::Unary { e, .. } => e.is_const(),
            BExpr::Binary { l, r, .. } => l.is_const() && r.is_const(),
            BExpr::IsNull { e, .. } => e.is_const(),
            BExpr::InList { e, .. } => e.is_const(),
        }
    }
}

/// Hashable row-key identity shared by GROUP BY, DISTINCT and hash joins:
/// a bare integer for the common one-int-column key (no allocation), a
/// tagged byte string otherwise. Any value tuple has a key — text is
/// length-prefixed, so it may hold NUL — and two tuples share one exactly
/// when their values have the same types and the same bits (Int and Float
/// keys stay distinct, NULL equals NULL).
#[derive(Hash, PartialEq, Eq, Clone)]
pub enum HashKey {
    Int(i64),
    Bytes(Vec<u8>),
}

impl HashKey {
    /// Builds the key for one evaluated key-column tuple.
    pub fn from_values(vals: &[Value]) -> HashKey {
        if let [Value::Int(i)] = vals {
            return HashKey::Int(*i);
        }
        let mut out = Vec::with_capacity(vals.len() * 9);
        for v in vals {
            let (tag, word) = match v {
                Value::Null => (0u8, 0),
                Value::Int(i) => (1, *i as u64),
                Value::Float(f) => (2, f.to_bits()),
                Value::Text(s) => (3, s.len() as u64),
            };
            out.push(tag);
            out.extend_from_slice(&word.to_le_bytes());
            if let Value::Text(s) = v {
                out.extend_from_slice(s.as_bytes());
            }
        }
        HashKey::Bytes(out)
    }
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

/// SQL truthiness: non-zero numbers are true; NULL is not true.
pub fn truthy(v: &Value) -> bool {
    match v {
        Value::Int(i) => *i != 0,
        Value::Float(f) => *f != 0.0,
        Value::Null => false,
        Value::Text(_) => false,
    }
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

/// `[NOT] IN` result under SQL three-valued logic, shared by the
/// interpreter and the plan executor. `list` is sorted, deduplicated and
/// NULL-free; `has_null` records whether the subquery produced any NULL.
///
/// * empty list (no rows at all): `IN` is false / `NOT IN` is true, even
///   for a NULL probe;
/// * NULL probe over a non-empty list: UNKNOWN;
/// * probe found: `IN` true / `NOT IN` false;
/// * probe not found but the list had a NULL: UNKNOWN — in particular
///   `x NOT IN (…, NULL)` is never true;
/// * otherwise: `IN` false / `NOT IN` true.
pub(crate) fn in_list_result(v: &Value, list: &[Value], has_null: bool, negated: bool) -> Value {
    if list.is_empty() && !has_null {
        return Value::Int(i64::from(negated));
    }
    if v.is_null() {
        return Value::Null;
    }
    if list.binary_search_by(|x| x.total_cmp(v)).is_ok() {
        Value::Int(i64::from(!negated))
    } else if has_null {
        Value::Null
    } else {
        Value::Int(i64::from(negated))
    }
}

/// Arithmetic on two evaluated operands (shared with the plan executor).
pub(crate) fn arith(op: BinaryOp, l: Value, r: Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(match op {
            BinaryOp::Add => Value::Int(a.wrapping_add(b)),
            BinaryOp::Sub => Value::Int(a.wrapping_sub(b)),
            BinaryOp::Mul => Value::Int(a.wrapping_mul(b)),
            BinaryOp::Div => {
                if b == 0 {
                    return Err(SqlError::Eval("division by zero".into()));
                }
                Value::Int(a.wrapping_div(b))
            }
            BinaryOp::Mod => {
                if b == 0 {
                    return Err(SqlError::Eval("division by zero".into()));
                }
                Value::Int(a.wrapping_rem(b))
            }
            _ => unreachable!(),
        }),
        (l, r) => {
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(SqlError::Eval(
                        "arithmetic requires numeric operands".into(),
                    ))
                }
            };
            Ok(match op {
                BinaryOp::Add => Value::Float(a + b),
                BinaryOp::Sub => Value::Float(a - b),
                BinaryOp::Mul => Value::Float(a * b),
                BinaryOp::Div => {
                    if b == 0.0 {
                        return Err(SqlError::Eval("division by zero".into()));
                    }
                    Value::Float(a / b)
                }
                BinaryOp::Mod => {
                    if b == 0.0 {
                        return Err(SqlError::Eval("division by zero".into()));
                    }
                    Value::Float(a % b)
                }
                _ => unreachable!(),
            })
        }
    }
}

/// Splits an expression into its top-level AND conjuncts.
pub fn split_conjuncts(expr: &Expr) -> Vec<Expr> {
    match expr {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let mut out = split_conjuncts(left);
            out.extend(split_conjuncts(right));
            out
        }
        other => vec![other.clone()],
    }
}

/// True when every column reference in `expr` resolves in `schema`
/// (subqueries are opaque: they resolve independently, so they're allowed).
pub fn binds_in(expr: &Expr, schema: &Schema) -> bool {
    match expr {
        Expr::Column { table, name } => schema.can_resolve(table.as_deref(), name),
        Expr::Literal(_) | Expr::Param(_) => true,
        Expr::Unary { expr, .. } => binds_in(expr, schema),
        Expr::Binary { left, right, .. } => binds_in(left, schema) && binds_in(right, schema),
        Expr::IsNull { expr, .. } => binds_in(expr, schema),
        Expr::Subquery(_) | Expr::Exists { .. } => true,
        Expr::InSubquery { expr, .. } => binds_in(expr, schema),
        Expr::Aggregate { arg, .. } => arg.as_ref().is_none_or(|a| binds_in(a, schema)),
        Expr::Window {
            partition_by,
            order_by,
            ..
        } => {
            partition_by.iter().all(|e| binds_in(e, schema))
                && order_by.iter().all(|k| binds_in(&k.expr, schema))
        }
    }
}

/// True when `expr` references no columns at all (constant w.r.t. rows).
pub fn is_row_independent(expr: &Expr) -> bool {
    match expr {
        Expr::Column { .. } => false,
        Expr::Literal(_) | Expr::Param(_) => true,
        Expr::Unary { expr, .. } => is_row_independent(expr),
        Expr::Binary { left, right, .. } => is_row_independent(left) && is_row_independent(right),
        Expr::IsNull { expr, .. } => is_row_independent(expr),
        Expr::Subquery(_) | Expr::Exists { .. } => true,
        Expr::InSubquery { expr, .. } => is_row_independent(expr),
        Expr::Aggregate { .. } | Expr::Window { .. } => false,
    }
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
        let stmt = crate::parser::parse_statement(&format!("SELECT {sql_expr}")).unwrap();
        let expr = match stmt {
            crate::ast::Stmt::Select(s) => match &s.items[0] {
                crate::ast::SelectItem::Expr { expr, .. } => expr.clone(),
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
        let stmt = crate::parser::parse_statement("SELECT 1/0").unwrap();
        let expr = match stmt {
            crate::ast::Stmt::Select(s) => match &s.items[0] {
                crate::ast::SelectItem::Expr { expr, .. } => expr.clone(),
                _ => panic!(),
            },
            _ => panic!(),
        };
        let b = bind_const(&expr);
        assert!(eval(&b, &[]).is_err());
    }

    #[test]
    fn schema_resolution() {
        let schema = Schema {
            cols: vec![
                SchemaCol {
                    binding: Some("q".into()),
                    name: "nid".into(),
                },
                SchemaCol {
                    binding: Some("e".into()),
                    name: "nid".into(),
                },
                SchemaCol {
                    binding: Some("e".into()),
                    name: "cost".into(),
                },
            ],
        };
        assert_eq!(schema.resolve(Some("q"), "nid").unwrap(), 0);
        assert_eq!(schema.resolve(Some("E"), "NID").unwrap(), 1);
        assert_eq!(schema.resolve(None, "cost").unwrap(), 2);
        assert!(schema.resolve(None, "nid").is_err(), "ambiguous");
        assert!(schema.resolve(None, "zzz").is_err(), "unknown");
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

    #[test]
    fn split_conjuncts_flattens_ands() {
        let stmt =
            crate::parser::parse_statement("SELECT 1 WHERE a = 1 AND b = 2 AND (c = 3 OR d = 4)")
                .unwrap();
        let filter = match stmt {
            crate::ast::Stmt::Select(s) => s.filter.unwrap(),
            _ => panic!(),
        };
        assert_eq!(split_conjuncts(&filter).len(), 3);
    }
}
