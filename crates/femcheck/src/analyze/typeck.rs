//! Expression type inference and nullability analysis for `femcheck`.
//!
//! The lattice mirrors the executors' value semantics (`plan::value`):
//! values are Int, Float, Text or NULL; `?` parameters and unresolvable
//! references type as `Any` (top) so one unknown does not cascade.
//! Nullability is inferred from the catalog (every column is nullable —
//! the engine has no NOT NULL constraint) and then *refined* by
//! null-rejecting WHERE conjuncts: a row with `x` NULL cannot survive a
//! strict predicate on `x`, so downstream expressions may treat `x` as
//! non-null. This is what lets `SELECT nid FROM T WHERE nid IS NOT NULL`
//! feed a `NOT IN` without tripping rule FC101.

use super::{Ctx, Rule};
use fempath_sql::ast::{AggFunc, BinaryOp, Expr, UnaryOp};
use fempath_sql::plan::scope::{Schema, SchemaCol};
use fempath_sql::Table;
use fempath_storage::{DataType, Value};
use std::collections::HashSet;

/// Static type of an expression, mirroring the interpreter's value kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ty {
    Int,
    Float,
    Text,
    /// The literal NULL (distinct from *nullable*: this is "always NULL").
    Null,
    /// Unknown — `?` parameters and unresolved references. Compatible with
    /// everything, so one unknown does not cascade into spurious errors.
    Any,
}

impl Ty {
    /// True when a value of this type can participate in arithmetic.
    fn arith_ok(self) -> bool {
        !matches!(self, Ty::Text)
    }

    /// Result type of `self op other` arithmetic (assuming both allowed).
    fn arith_join(self, other: Ty) -> Ty {
        match (self, other) {
            (Ty::Null, _) | (_, Ty::Null) => Ty::Null,
            (Ty::Any, _) | (_, Ty::Any) => Ty::Any,
            (Ty::Int, Ty::Int) => Ty::Int,
            _ => Ty::Float,
        }
    }

    /// True when comparing these two types is a definite kind error:
    /// Text against a number orders by the storage type tag, which is
    /// never what generated SQL means.
    pub(crate) fn cmp_mismatch(self, other: Ty) -> bool {
        matches!(
            (self, other),
            (Ty::Text, Ty::Int | Ty::Float) | (Ty::Int | Ty::Float, Ty::Text)
        )
    }
}

impl std::fmt::Display for Ty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Ty::Int => "Int",
            Ty::Float => "Float",
            Ty::Text => "Text",
            Ty::Null => "Null",
            Ty::Any => "Any",
        };
        f.write_str(s)
    }
}

/// Per-column static type information.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColTy {
    pub(crate) ty: Ty,
    pub(crate) nullable: bool,
}

/// A typed schema: the execution [`Schema`] (name resolution) plus one
/// [`ColTy`] per column.
#[derive(Debug, Clone, Default)]
pub(crate) struct TSchema {
    pub(crate) schema: Schema,
    pub(crate) cols: Vec<ColTy>,
    /// True when this schema came from an unresolvable table: column
    /// lookups silently type as `Any` instead of cascading FC002.
    pub(crate) open: bool,
}

impl TSchema {
    /// Typed schema of a base table under `binding`.
    pub(crate) fn from_table(binding: &str, table: &Table) -> TSchema {
        TSchema {
            schema: Schema::from_table(binding, &table.schema),
            cols: table
                .schema
                .columns
                .iter()
                .map(|c| ColTy {
                    ty: dtype_ty(c.dtype),
                    nullable: true,
                })
                .collect(),
            open: false,
        }
    }

    /// An "anything goes" schema standing in for an unresolvable source.
    pub(crate) fn open() -> TSchema {
        TSchema {
            open: true,
            ..TSchema::default()
        }
    }

    /// Concatenation (joins). Openness is contagious.
    pub(crate) fn concat(&self, other: &TSchema) -> TSchema {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().copied());
        TSchema {
            schema: self.schema.concat(&other.schema),
            cols,
            open: self.open || other.open,
        }
    }

    /// Re-binds every column under `alias` (derived tables and views).
    pub(crate) fn rebind(mut self, alias: &str) -> TSchema {
        let alias = alias.to_ascii_lowercase();
        for c in &mut self.schema.cols {
            c.binding = Some(alias.clone());
        }
        self
    }

    /// Appends an output column.
    pub(crate) fn push(&mut self, name: String, col: ColTy) {
        self.schema.cols.push(SchemaCol {
            binding: None,
            name,
        });
        self.cols.push(col);
    }

    /// Resolves a column reference, reporting FC002 on failure (unless the
    /// schema is open, where unknowns are expected).
    pub(crate) fn resolve(
        &self,
        cx: &mut Ctx<'_>,
        table: Option<&str>,
        name: &str,
    ) -> Option<usize> {
        match self.schema.resolve(table, name) {
            Ok(i) => Some(i),
            Err(e) => {
                if !self.open {
                    cx.diag(Rule::UnknownColumn, e.to_string());
                }
                None
            }
        }
    }
}

/// Maps a declared column type to the static lattice.
pub(crate) fn dtype_ty(dtype: DataType) -> Ty {
    match dtype {
        DataType::Int => Ty::Int,
        DataType::Float => Ty::Float,
        DataType::Text => Ty::Text,
    }
}

/// True when a value of static type `ty` may be stored into a column
/// declared `dtype` — the static shadow of `Table::coerce_column` (NULL goes
/// anywhere, Int ↔ Float coerce, Text only into Text).
pub(crate) fn storable(dtype: DataType, ty: Ty) -> bool {
    matches!(
        (dtype, ty),
        (_, Ty::Null | Ty::Any)
            | (DataType::Int | DataType::Float, Ty::Int | Ty::Float)
            | (DataType::Text, Ty::Text)
    )
}

/// Inferred facts about one expression.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExprTy {
    pub(crate) ty: Ty,
    pub(crate) nullable: bool,
    /// The expression is NULL on *every* row (e.g. `NULL + 1`): a
    /// comparison built on it can never be true (FC102).
    pub(crate) definitely_null: bool,
}

impl ExprTy {
    fn new(ty: Ty, nullable: bool) -> ExprTy {
        ExprTy {
            ty,
            nullable,
            definitely_null: false,
        }
    }

    fn int_bool(nullable: bool) -> ExprTy {
        ExprTy::new(Ty::Int, nullable)
    }
}

/// Type-checks `expr` against `ts`, emitting diagnostics into `cx`.
///
/// `grouped` is true inside a `GROUP BY` query: per-group aggregates run
/// over non-empty groups, so `MIN/MAX/SUM` are only as nullable as their
/// argument; without grouping the whole input may be empty and every
/// aggregate except `COUNT` can yield NULL.
pub(crate) fn infer(cx: &mut Ctx<'_>, ts: &TSchema, expr: &Expr, grouped: bool) -> ExprTy {
    match expr {
        Expr::Literal(v) => match v {
            Value::Null => ExprTy {
                ty: Ty::Null,
                nullable: true,
                definitely_null: true,
            },
            Value::Int(_) => ExprTy::new(Ty::Int, false),
            Value::Float(_) => ExprTy::new(Ty::Float, false),
            Value::Text(_) => ExprTy::new(Ty::Text, false),
        },
        // Parameters are assumed non-NULL: every `?` in the generated
        // corpus carries a node id, distance or bound. A NULL parameter
        // would be caught at runtime, not here.
        Expr::Param(_) => ExprTy::new(Ty::Any, false),
        Expr::Column { table, name } => match ts.resolve(cx, table.as_deref(), name) {
            Some(i) => ExprTy::new(ts.cols[i].ty, ts.cols[i].nullable),
            None => ExprTy::new(Ty::Any, true),
        },
        Expr::Unary { op, expr } => {
            let e = infer(cx, ts, expr, grouped);
            match op {
                UnaryOp::Neg => {
                    if e.ty == Ty::Text {
                        cx.diag(Rule::NonNumericArith, "cannot negate text".into());
                    }
                    ExprTy {
                        ty: if e.ty == Ty::Text { Ty::Any } else { e.ty },
                        ..e
                    }
                }
                // NOT NULL is NULL; NOT of anything else is 0/1.
                UnaryOp::Not => ExprTy { ty: Ty::Int, ..e },
            }
        }
        Expr::Binary { left, op, right } => {
            let l = infer(cx, ts, left, grouped);
            let r = infer(cx, ts, right, grouped);
            match op {
                BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
                    if !l.ty.arith_ok() || !r.ty.arith_ok() {
                        cx.diag(
                            Rule::NonNumericArith,
                            format!(
                                "arithmetic requires numeric operands, got {} and {}",
                                l.ty, r.ty
                            ),
                        );
                    }
                    ExprTy {
                        ty: l.ty.arith_join(r.ty),
                        nullable: l.nullable || r.nullable,
                        definitely_null: l.definitely_null || r.definitely_null,
                    }
                }
                BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq => {
                    if l.ty.cmp_mismatch(r.ty) {
                        cx.diag(
                            Rule::TypeMismatch,
                            format!(
                                "comparison between {} and {} orders by type tag, never by value",
                                l.ty, r.ty
                            ),
                        );
                    }
                    if l.definitely_null || r.definitely_null {
                        cx.diag(
                            Rule::AlwaysNullPredicate,
                            "comparison with an always-NULL operand is never true; use IS NULL"
                                .into(),
                        );
                    }
                    ExprTy {
                        ty: Ty::Int,
                        nullable: l.nullable || r.nullable,
                        definitely_null: l.definitely_null || r.definitely_null,
                    }
                }
                BinaryOp::And | BinaryOp::Or => ExprTy::int_bool(l.nullable || r.nullable),
            }
        }
        Expr::IsNull { .. } => {
            // Always 0/1, even on NULL input — but still typecheck inside.
            if let Expr::IsNull { expr, .. } = expr {
                infer(cx, ts, expr, grouped);
            }
            ExprTy::int_bool(false)
        }
        Expr::Subquery(q) => {
            let out = super::select::analyze_select(cx, q);
            if out.cols.len() != 1 && !out.open {
                cx.diag(
                    Rule::StatementShape,
                    format!(
                        "scalar subquery must return exactly one column, returns {}",
                        out.cols.len()
                    ),
                );
                return ExprTy::new(Ty::Any, true);
            }
            let ty = out.cols.first().map(|c| c.ty).unwrap_or(Ty::Any);
            // An empty result is NULL regardless of the column's own
            // nullability.
            ExprTy::new(ty, true)
        }
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => {
            let probe = infer(cx, ts, expr, grouped);
            let out = super::select::analyze_select(cx, query);
            if out.cols.len() != 1 && !out.open {
                cx.diag(
                    Rule::StatementShape,
                    format!(
                        "IN subquery must return exactly one column, returns {}",
                        out.cols.len()
                    ),
                );
                return ExprTy::int_bool(true);
            }
            let sub = out.cols.first().copied().unwrap_or(ColTy {
                ty: Ty::Any,
                nullable: true,
            });
            if probe.ty.cmp_mismatch(sub.ty) {
                cx.diag(
                    Rule::TypeMismatch,
                    format!(
                        "IN probe of type {} against subquery column of type {}",
                        probe.ty, sub.ty
                    ),
                );
            }
            if *negated && sub.nullable {
                cx.diag(
                    Rule::NotInNullable,
                    "NOT IN over a nullable subquery column: one NULL in the subquery makes \
                     the predicate UNKNOWN for every non-matching row — guard the subquery \
                     with IS NOT NULL"
                        .into(),
                );
            }
            ExprTy::int_bool(probe.nullable || sub.nullable)
        }
        Expr::Exists { query, .. } => {
            super::select::analyze_select(cx, query);
            ExprTy::int_bool(false)
        }
        Expr::Aggregate { func, arg } => {
            let a = arg
                .as_ref()
                .map(|a| infer(cx, ts, a, grouped))
                .unwrap_or(ExprTy::new(Ty::Int, false));
            match func {
                AggFunc::Count => ExprTy::new(Ty::Int, false),
                AggFunc::Sum | AggFunc::Avg => {
                    if a.ty == Ty::Text {
                        cx.diag(
                            Rule::NonNumericArith,
                            format!("{} requires a numeric argument, got Text", func.name()),
                        );
                    }
                    let ty = match func {
                        AggFunc::Avg => Ty::Float,
                        _ => a.ty,
                    };
                    ExprTy::new(ty, if grouped { a.nullable } else { true })
                }
                AggFunc::Min | AggFunc::Max => {
                    ExprTy::new(a.ty, if grouped { a.nullable } else { true })
                }
            }
        }
        Expr::Window {
            partition_by,
            order_by,
            ..
        } => {
            for e in partition_by {
                infer(cx, ts, e, grouped);
            }
            for k in order_by {
                infer(cx, ts, &k.expr, grouped);
            }
            // ROW_NUMBER / RANK are positive integers.
            ExprTy::new(Ty::Int, false)
        }
    }
}

/// Collects columns *null-rejected* by a WHERE conjunct into `out`: rows
/// where any such column is NULL make the conjunct evaluate to NULL or
/// false, so they cannot survive the filter. Sound under-approximation —
/// a column not collected merely stays nullable.
pub(crate) fn strict_cols(ts: &TSchema, conjunct: &Expr, out: &mut HashSet<usize>) {
    match conjunct {
        // A bare column as predicate: NULL is not truthy.
        Expr::Column { .. } => null_prop_cols(ts, conjunct, out),
        // NOT NULL and -NULL are NULL — not truthy — so the operand's
        // NULL-propagating columns are rejected.
        Expr::Unary { expr, .. } => null_prop_cols(ts, expr, out),
        Expr::Binary { left, op, right } => match op {
            // a AND b rejects what either side rejects.
            BinaryOp::And => {
                strict_cols(ts, left, out);
                strict_cols(ts, right, out);
            }
            // a OR b can be true with one side NULL: rejects nothing.
            BinaryOp::Or => {}
            // Comparisons and arithmetic evaluate to NULL whenever either
            // operand is NULL.
            _ => {
                null_prop_cols(ts, left, out);
                null_prop_cols(ts, right, out);
            }
        },
        // x IS NOT NULL rejects NULL in x; x IS NULL *keeps* it.
        Expr::IsNull { expr, negated } => {
            if *negated {
                null_prop_cols(ts, expr, out);
            }
        }
        // NULL IN (…) is NULL or false (empty list → false): rejected.
        // NULL NOT IN (empty list) is TRUE: no rejection when negated.
        Expr::InSubquery { expr, negated, .. } => {
            if !negated {
                null_prop_cols(ts, expr, out);
            }
        }
        Expr::Literal(_)
        | Expr::Param(_)
        | Expr::Subquery(_)
        | Expr::Exists { .. }
        | Expr::Aggregate { .. }
        | Expr::Window { .. } => {}
    }
}

/// Columns whose NULL forces `expr` itself to evaluate to NULL. Unlike
/// [`strict_cols`] this must hold for the expression *value*, not just its
/// truthiness — `a IS NOT NULL` rejects NULL rows as a conjunct but is
/// never NULL as a value, so it contributes nothing here.
fn null_prop_cols(ts: &TSchema, expr: &Expr, out: &mut HashSet<usize>) {
    match expr {
        Expr::Column { table, name } => {
            if let Ok(i) = ts.schema.resolve(table.as_deref(), name) {
                out.insert(i);
            }
        }
        // -NULL and NOT NULL are both NULL.
        Expr::Unary { expr, .. } => null_prop_cols(ts, expr, out),
        Expr::Binary { left, op, right } => match op {
            // AND/OR can absorb a NULL operand (NULL AND 0 = 0).
            BinaryOp::And | BinaryOp::Or => {}
            _ => {
                null_prop_cols(ts, left, out);
                null_prop_cols(ts, right, out);
            }
        },
        // IS [NOT] NULL and EXISTS always produce 0/1; IN can produce
        // false for a NULL probe over an empty list; subqueries and
        // aggregates do not depend on the outer row at all.
        Expr::IsNull { .. }
        | Expr::InSubquery { .. }
        | Expr::Exists { .. }
        | Expr::Subquery(_)
        | Expr::Literal(_)
        | Expr::Param(_)
        | Expr::Aggregate { .. }
        | Expr::Window { .. } => {}
    }
}
