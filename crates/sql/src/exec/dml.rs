//! DML execution: INSERT, UPDATE (incl. `UPDATE … FROM`), DELETE, MERGE.
//!
//! Every statement runs in two phases: a **read phase** that evaluates
//! sources, subqueries and the matching set against the pre-statement state
//! (borrowing the catalog immutably), and a **write phase** that applies the
//! collected changes. This gives MERGE and self-referencing statements
//! (`INSERT INTO t SELECT … FROM t`) snapshot semantics.
//!
//! Targets are found by scanning: `UPDATE … FROM` and MERGE test every
//! (target, source) pair on the combined row, in source order, and the
//! first source row to match a target row wins.

use super::eval::{
    bind_expr, binds_in, eval, is_row_independent, split_conjuncts, truthy, BExpr, ExecCtx, Schema,
};
use super::from::{bind_all, materialize_ref, passes};
use crate::ast::{BinaryOp, Delete, Expr, Insert, InsertSource, Merge, Update};
use crate::catalog::{Catalog, RowLoc};
use crate::error::{Result, SqlError};
use fempath_storage::{BufferPool, Value};
use std::collections::HashSet;

/// Executes INSERT; returns the number of rows inserted.
pub fn execute_insert(
    pool: &mut BufferPool,
    catalog: &mut Catalog,
    params: &[Value],
    ins: &Insert,
) -> Result<u64> {
    // Read phase.
    let source_rows: Vec<Vec<Value>> = {
        let mut ctx = ExecCtx {
            pool,
            catalog,
            params,
        };
        match &ins.source {
            InsertSource::Values(rows) => {
                let empty = Schema::empty();
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    let mut vals = Vec::with_capacity(row.len());
                    for e in row {
                        let b = bind_expr(&mut ctx, &empty, e)?;
                        vals.push(eval(&b, &[])?);
                    }
                    out.push(vals);
                }
                out
            }
            InsertSource::Query(q) => super::select::execute_select(&mut ctx, q)?.rows,
        }
    };

    // Map listed columns to full rows.
    let table = catalog.table(&ins.table)?;
    let n_cols = table.schema.columns.len();
    let col_positions: Option<Vec<usize>> = match &ins.columns {
        Some(names) => Some(
            names
                .iter()
                .map(|n| {
                    table
                        .schema
                        .col_index(n)
                        .ok_or_else(|| SqlError::Bind(format!("no column {n} in {}", ins.table)))
                })
                .collect::<Result<_>>()?,
        ),
        None => None,
    };
    let mut full_rows = Vec::with_capacity(source_rows.len());
    for vals in source_rows {
        let row = match &col_positions {
            Some(pos) => {
                if vals.len() != pos.len() {
                    return Err(SqlError::Eval(format!(
                        "INSERT lists {} columns but supplies {} values",
                        pos.len(),
                        vals.len()
                    )));
                }
                let mut row = vec![Value::Null; n_cols];
                for (p, v) in pos.iter().zip(vals) {
                    row[*p] = v;
                }
                row
            }
            None => vals,
        };
        full_rows.push(table.coerce_row(row)?);
    }

    // Write phase.
    let table = catalog.table_mut(&ins.table)?;
    let n = full_rows.len() as u64;
    for row in full_rows {
        table.insert_row(pool, &row)?;
    }
    Ok(n)
}

/// A pending row mutation collected in the read phase.
struct PendingUpdate {
    loc: RowLoc,
    old_row: Vec<Value>,
    new_row: Vec<Value>,
}

/// A target row an UPDATE rewrites — locator and stored row — with the
/// row its assignments read: the target row itself, or the target row
/// followed by the source row it matched.
type UpdateMatch = (RowLoc, Vec<Value>, Vec<Value>);

/// Every row of `table` with its locator, in scan order.
fn scan_rows(ctx: &mut ExecCtx<'_>, table: &str) -> Result<Vec<(RowLoc, Vec<Value>)>> {
    let mut rows = Vec::new();
    ctx.catalog.table(table)?.scan(ctx.pool, |loc, row| {
        rows.push((loc, row));
        true
    })?;
    Ok(rows)
}

/// The rows of `table` that `filter` (bound over `schema`) keeps.
fn matching_rows(
    ctx: &mut ExecCtx<'_>,
    table: &str,
    schema: &Schema,
    filter: Option<&Expr>,
) -> Result<Vec<(RowLoc, Vec<Value>)>> {
    let pred = filter.map(|f| bind_expr(ctx, schema, f)).transpose()?;
    let mut out = Vec::new();
    for (loc, row) in scan_rows(ctx, table)? {
        if passes(pred.as_slice(), &row)? {
            out.push((loc, row));
        }
    }
    Ok(out)
}

/// Refuses an `UPDATE … FROM` / MERGE condition with no
/// `target.col = source-expr` equality among its conjuncts — the planner
/// serves those statements by probing the target on such equalities and
/// refuses them the same way.
fn require_target_equality(target: &Schema, source: &Schema, conjuncts: &[Expr]) -> Result<()> {
    let probes = |col: &Expr, value: &Expr| {
        matches!(col, Expr::Column { table, name }
            if target.can_resolve(table.as_deref(), name)
                && !source.can_resolve(table.as_deref(), name))
            && (binds_in(value, source) || is_row_independent(value))
    };
    let found = conjuncts.iter().any(|c| {
        matches!(c, Expr::Binary { left, op: BinaryOp::Eq, right }
            if probes(left, right) || probes(right, left))
    });
    if found {
        Ok(())
    } else {
        Err(SqlError::Bind(
            "MERGE/UPDATE-FROM requires at least one `target.col = source-expr` equality".into(),
        ))
    }
}

/// Executes UPDATE; returns the number of rows updated.
pub fn execute_update(
    pool: &mut BufferPool,
    catalog: &mut Catalog,
    params: &[Value],
    upd: &Update,
) -> Result<u64> {
    let binding = upd.alias.as_deref().unwrap_or(&upd.table);
    let pending: Vec<PendingUpdate> = {
        let mut ctx = ExecCtx {
            pool,
            catalog,
            params,
        };
        let table = ctx.catalog.table(&upd.table)?;
        let tschema = Schema::from_table(binding, &table.schema);
        let assign_cols: Vec<usize> = upd
            .assignments
            .iter()
            .map(|(name, _)| {
                table
                    .schema
                    .col_index(name)
                    .ok_or_else(|| SqlError::Bind(format!("no column {name} in {}", upd.table)))
            })
            .collect::<Result<_>>()?;

        // Each target row to update, once.
        let (schema, matches): (Schema, Vec<UpdateMatch>) = match &upd.from {
            None => {
                let rows = matching_rows(&mut ctx, &upd.table, &tschema, upd.filter.as_ref())?;
                let matches = rows.into_iter().map(|(l, r)| (l, r.clone(), r)).collect();
                (tschema, matches)
            }
            Some(source_ref) => {
                let conjuncts: Vec<Expr> =
                    upd.filter.as_ref().map(split_conjuncts).unwrap_or_default();
                let source = materialize_ref(&mut ctx, source_ref)?;
                require_target_equality(&tschema, &source.schema, &conjuncts)?;
                let combined = tschema.concat(&source.schema);
                let preds = bind_all(&mut ctx, &combined, &conjuncts)?;
                let targets = scan_rows(&mut ctx, &upd.table)?;
                let mut touched: HashSet<RowLoc> = HashSet::new();
                let mut matches = Vec::new();
                for srow in source.rows {
                    for (loc, trow) in &targets {
                        let mut row = trow.clone();
                        row.extend(srow.iter().cloned());
                        if passes(&preds, &row)? && touched.insert(loc.clone()) {
                            matches.push((loc.clone(), trow.clone(), row));
                        }
                    }
                }
                (combined, matches)
            }
        };
        let assigns: Vec<BExpr> = upd
            .assignments
            .iter()
            .map(|(_, e)| bind_expr(&mut ctx, &schema, e))
            .collect::<Result<_>>()?;
        let mut pending = Vec::with_capacity(matches.len());
        for (loc, trow, row) in matches {
            let mut new_row = trow.clone();
            for (c, a) in assign_cols.iter().zip(&assigns) {
                new_row[*c] = eval(a, &row)?;
            }
            pending.push(PendingUpdate {
                loc,
                old_row: trow,
                new_row: ctx.catalog.table(&upd.table)?.coerce_row(new_row)?,
            });
        }
        pending
    };

    let n = pending.len() as u64;
    let table = catalog.table_mut(&upd.table)?;
    for p in pending {
        table.update_row(pool, &p.loc, &p.old_row, &p.new_row)?;
    }
    Ok(n)
}

/// Executes DELETE; returns the number of rows removed.
pub fn execute_delete(
    pool: &mut BufferPool,
    catalog: &mut Catalog,
    params: &[Value],
    del: &Delete,
) -> Result<u64> {
    let matches = {
        let mut ctx = ExecCtx {
            pool,
            catalog,
            params,
        };
        let schema = Schema::from_table(&del.table, &ctx.catalog.table(&del.table)?.schema);
        matching_rows(&mut ctx, &del.table, &schema, del.filter.as_ref())?
    };
    let n = matches.len() as u64;
    let table = catalog.table_mut(&del.table)?;
    for (loc, row) in matches {
        table.delete_row(pool, &loc, &row)?;
    }
    Ok(n)
}

/// Executes MERGE; returns updates + inserts (the paper reads this
/// "affected tuples" count from SQLCA to steer its iterations).
pub fn execute_merge(
    pool: &mut BufferPool,
    catalog: &mut Catalog,
    params: &[Value],
    m: &Merge,
) -> Result<u64> {
    let target_binding = m.target_alias.as_deref().unwrap_or(&m.target);
    let (pending_updates, pending_inserts) = {
        let mut ctx = ExecCtx {
            pool,
            catalog,
            params,
        };
        let source = materialize_ref(&mut ctx, &m.source)?;
        let table = ctx.catalog.table(&m.target)?;
        let tschema = Schema::from_table(target_binding, &table.schema);
        let combined = tschema.concat(&source.schema);

        let on_conjuncts = split_conjuncts(&m.on);
        require_target_equality(&tschema, &source.schema, &on_conjuncts)?;
        let on = bind_all(&mut ctx, &combined, &on_conjuncts)?;

        // Bind WHEN MATCHED parts over the combined schema.
        let matched = m
            .when_matched
            .as_ref()
            .map(|wm| {
                let cond = wm
                    .condition
                    .as_ref()
                    .map(|c| bind_expr(&mut ctx, &combined, c))
                    .transpose()?;
                let cols: Vec<usize> = wm
                    .assignments
                    .iter()
                    .map(|(name, _)| {
                        ctx.catalog
                            .table(&m.target)?
                            .schema
                            .col_index(name)
                            .ok_or_else(|| {
                                SqlError::Bind(format!("no column {name} in {}", m.target))
                            })
                    })
                    .collect::<Result<_>>()?;
                let exprs: Vec<BExpr> = wm
                    .assignments
                    .iter()
                    .map(|(_, e)| bind_expr(&mut ctx, &combined, e))
                    .collect::<Result<_>>()?;
                Ok::<_, SqlError>((cond, cols, exprs))
            })
            .transpose()?;

        // Bind WHEN NOT MATCHED over the source schema alone.
        let not_matched = m
            .when_not_matched
            .as_ref()
            .map(|wi| {
                let cols: Vec<usize> = wi
                    .columns
                    .iter()
                    .map(|name| {
                        ctx.catalog
                            .table(&m.target)?
                            .schema
                            .col_index(name)
                            .ok_or_else(|| {
                                SqlError::Bind(format!("no column {name} in {}", m.target))
                            })
                    })
                    .collect::<Result<_>>()?;
                let exprs: Vec<BExpr> = wi
                    .values
                    .iter()
                    .map(|e| bind_expr(&mut ctx, &source.schema, e))
                    .collect::<Result<_>>()?;
                if cols.len() != exprs.len() {
                    return Err(SqlError::Eval(
                        "MERGE INSERT column/value count mismatch".into(),
                    ));
                }
                Ok::<_, SqlError>((cols, exprs))
            })
            .transpose()?;

        let n_cols = ctx.catalog.table(&m.target)?.schema.columns.len();
        let mut updates: Vec<PendingUpdate> = Vec::new();
        let mut inserts: Vec<Vec<Value>> = Vec::new();
        let mut touched: HashSet<RowLoc> = HashSet::new();

        let targets = scan_rows(&mut ctx, &m.target)?;
        for srow in &source.rows {
            let mut any_match = false;
            for (loc, trow) in &targets {
                let mut combined_row = trow.clone();
                combined_row.extend(srow.iter().cloned());
                if !passes(&on, &combined_row)? {
                    continue;
                }
                any_match = true;
                if let Some((cond, cols, exprs)) = &matched {
                    let applies = match cond {
                        Some(c) => truthy(&eval(c, &combined_row)?),
                        None => true,
                    };
                    if applies && touched.insert(loc.clone()) {
                        let mut new_row = trow.clone();
                        for (c, e) in cols.iter().zip(exprs) {
                            new_row[*c] = eval(e, &combined_row)?;
                        }
                        let table = ctx.catalog.table(&m.target)?;
                        updates.push(PendingUpdate {
                            loc: loc.clone(),
                            old_row: trow.clone(),
                            new_row: table.coerce_row(new_row)?,
                        });
                    }
                }
            }
            if !any_match {
                if let Some((cols, exprs)) = &not_matched {
                    let mut row = vec![Value::Null; n_cols];
                    for (c, e) in cols.iter().zip(exprs) {
                        row[*c] = eval(e, srow)?;
                    }
                    let table = ctx.catalog.table(&m.target)?;
                    inserts.push(table.coerce_row(row)?);
                }
            }
        }
        (updates, inserts)
    };

    let n = (pending_updates.len() + pending_inserts.len()) as u64;
    let table = catalog.table_mut(&m.target)?;
    for p in pending_updates {
        table.update_row(pool, &p.loc, &p.old_row, &p.new_row)?;
    }
    for row in pending_inserts {
        table.insert_row(pool, &row)?;
    }
    Ok(n)
}
