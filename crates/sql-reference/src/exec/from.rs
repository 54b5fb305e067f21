//! FROM + WHERE, evaluated naively: every item is materialized whole and
//! the items are joined left to right by nested loop.

use super::eval::{bind_expr, eval, BExpr, ExecCtx};
use super::Relation;
use fempath_sql::ast::{Expr, TableRef};
use fempath_sql::plan::scope::{binds_in, split_conjuncts, Schema};
use fempath_sql::plan::value::truthy;
use fempath_sql::{Result, SqlError};
use fempath_storage::Value;

/// Builds the rows of a FROM list filtered by `filter`. Each WHERE conjunct
/// is applied, in written order, as soon as the items joined so far bind
/// it — that keeps the cross products small, and it scopes an unqualified
/// column to the first item that has it, as the planner does.
pub fn build_from(
    ctx: &mut ExecCtx<'_>,
    from: &[TableRef],
    filter: Option<&Expr>,
) -> Result<Relation> {
    let mut pending: Vec<Expr> = filter.map(split_conjuncts).unwrap_or_default();
    // `SELECT 1` reads a single empty row.
    let mut rel = Relation {
        schema: Schema::empty(),
        rows: vec![vec![]],
    };
    for tref in from {
        let right = materialize_ref(ctx, tref)?;
        let schema = rel.schema.concat(&right.schema);
        let (now, later): (Vec<Expr>, Vec<Expr>) =
            pending.into_iter().partition(|c| binds_in(c, &schema));
        pending = later;
        let preds = bind_all(ctx, &schema, &now)?;
        let mut rows = Vec::new();
        for lrow in &rel.rows {
            for rrow in &right.rows {
                let mut row = lrow.clone();
                row.extend(rrow.iter().cloned());
                if holds_all(&preds, &row)? {
                    rows.push(row);
                }
            }
        }
        rel = Relation { schema, rows };
    }
    // Conjuncts no prefix of the FROM list binds: binding them over the
    // whole row reports what they name that is missing (or they are
    // row-independent and FROM is empty).
    let preds = bind_all(ctx, &rel.schema, &pending)?;
    let mut rows = Vec::with_capacity(rel.rows.len());
    for row in rel.rows {
        if holds_all(&preds, &row)? {
            rows.push(row);
        }
    }
    rel.rows = rows;
    Ok(rel)
}

/// Binds each of `exprs` over `schema`.
pub(crate) fn bind_all(
    ctx: &mut ExecCtx<'_>,
    schema: &Schema,
    exprs: &[Expr],
) -> Result<Vec<BExpr>> {
    exprs.iter().map(|e| bind_expr(ctx, schema, e)).collect()
}

/// True when every predicate holds on `row`.
pub(crate) fn holds_all(preds: &[BExpr], row: &[Value]) -> Result<bool> {
    for p in preds {
        if !truthy(&eval(p, row)?) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Materializes a table reference with its binding applied: a base table
/// by a full scan, a view or derived table by running its query.
pub(crate) fn materialize_ref(ctx: &mut ExecCtx<'_>, tref: &TableRef) -> Result<Relation> {
    match tref {
        TableRef::Named { name, alias } => {
            let binding = alias.as_deref().unwrap_or(name);
            if ctx.catalog.has_table(name) {
                let table = ctx.catalog.table(name)?;
                let mut rows = Vec::new();
                table.scan(ctx.pool, |_, row| {
                    rows.push(row);
                    true
                })?;
                Ok(Relation {
                    schema: Schema::from_table(binding, &table.schema),
                    rows,
                })
            } else if let Some(view) = ctx.catalog.view(name) {
                let query = view.clone();
                Ok(super::select::execute_select(ctx, &query)?.rebind(binding))
            } else {
                Err(SqlError::Catalog(format!("no such table or view {name}")))
            }
        }
        TableRef::Derived {
            query,
            alias,
            columns,
        } => {
            let mut rel = super::select::execute_select(ctx, query)?;
            if let Some(cols) = columns {
                if cols.len() != rel.schema.cols.len() {
                    return Err(SqlError::Bind(format!(
                        "derived table {alias} lists {} columns but query returns {}",
                        cols.len(),
                        rel.schema.cols.len()
                    )));
                }
                for (c, name) in rel.schema.cols.iter_mut().zip(cols) {
                    c.name = name.clone();
                }
            }
            Ok(rel.rebind(alias))
        }
    }
}
