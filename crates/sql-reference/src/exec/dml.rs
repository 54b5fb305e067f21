//! DML execution: INSERT, UPDATE (incl. `UPDATE … FROM`), DELETE, MERGE.
//!
//! Every statement runs in two phases: a **read phase** that evaluates
//! sources, subqueries and the matching set against the pre-statement state
//! (borrowing the catalog immutably), and a **write phase** that applies the
//! collected changes. This gives MERGE and self-referencing statements
//! (`INSERT INTO t SELECT … FROM t`) snapshot semantics.
//!
//! The write phase is the executor's: the collected rows, locators and
//! assigned values go to [`Table::insert_chunk`], [`Table::update_rows`]
//! and [`Table::delete_rows`], placed and coerced by the same
//! `Table::insert_source` / `Table::coerce_column`. What this module
//! adds is the naive read phase, the differential oracle.
//!
//! Targets are found by scanning: `UPDATE … FROM` and MERGE test every
//! (target, source) pair on the combined row, in source order, and the
//! first source row to match a target row wins.

use super::eval::{bind_expr, eval, BExpr, ExecCtx};
use super::from::{bind_all, holds_all, materialize_ref};
use fempath_sql::ast::{BinaryOp, Delete, Expr, Insert, InsertSource, Merge, Update};
use fempath_sql::catalog::{BatchLocs, Catalog, RowLoc, Table};
use fempath_sql::plan::scope::{binds_in, is_row_independent, split_conjuncts, Schema};
use fempath_sql::plan::value::truthy;
use fempath_sql::{Result, SqlError};
use fempath_storage::{BufferPool, Chunk, Column, Value};
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

    // Place the listed columns and coerce, as the executor does.
    let table = catalog.table(&ins.table)?;
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
    let cols = col_positions.as_deref();
    let rows = table.insert_source(table.source_chunk(source_rows, cols)?, cols)?;

    // Write phase.
    catalog
        .table_mut(&ins.table)?
        .insert_chunk(pool, &rows, None)
}

/// One statement's row updates in the form [`Table::update_rows`] takes:
/// each target row's locator and stored row, and the new value of every
/// assigned column.
struct PendingUpdates {
    locs: BatchLocs,
    old: Chunk,
    vals: Vec<Column>,
}

impl PendingUpdates {
    fn new(assigned: usize) -> Self {
        PendingUpdates {
            locs: BatchLocs::default(),
            old: Chunk::new(),
            vals: (0..assigned).map(|_| Column::new_int()).collect(),
        }
    }

    /// Queues the target row `trow` at `loc` with its assigned values.
    fn push(&mut self, loc: &RowLoc, trow: &[Value], new_vals: Vec<Value>) {
        self.locs.push(loc);
        self.old.push_row(trow);
        for (col, v) in self.vals.iter_mut().zip(new_vals) {
            col.push(v);
        }
    }

    /// Write phase: coerces the new values and applies them to
    /// `assign_cols`; returns the number of rows updated.
    fn apply(self, pool: &mut BufferPool, table: &mut Table, assign_cols: &[usize]) -> Result<u64> {
        let vals: Vec<Column> = self
            .vals
            .into_iter()
            .zip(assign_cols)
            .map(|(col, &c)| table.coerce_column(c, col))
            .collect::<Result<_>>()?;
        let mode = table.update_mode(assign_cols);
        table.update_rows(pool, &self.locs, assign_cols, &vals, &self.old, mode)
    }
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
        if holds_all(pred.as_slice(), &row)? {
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
    let (assign_cols, pending) = {
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
                        if holds_all(&preds, &row)? && touched.insert(loc.clone()) {
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
        let mut pending = PendingUpdates::new(assign_cols.len());
        for (loc, trow, row) in matches {
            let vals = assigns
                .iter()
                .map(|a| eval(a, &row))
                .collect::<Result<_>>()?;
            pending.push(&loc, &trow, vals);
        }
        (assign_cols, pending)
    };
    pending.apply(pool, catalog.table_mut(&upd.table)?, &assign_cols)
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
    let mut locs = BatchLocs::default();
    let mut rows = Chunk::new();
    for (loc, row) in &matches {
        locs.push(loc);
        rows.push_row(row);
    }
    catalog
        .table_mut(&del.table)?
        .delete_rows(pool, &locs, &rows)?;
    Ok(matches.len() as u64)
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
    let (assign_cols, updates, inserts) = {
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

        let table = ctx.catalog.table(&m.target)?;
        let n_cols = table.schema.columns.len();
        let assign_cols = matched
            .as_ref()
            .map_or(Vec::new(), |(_, cols, _)| cols.clone());
        let mut updates = PendingUpdates::new(assign_cols.len());
        let mut inserts = Chunk::with_width(n_cols);
        let mut touched: HashSet<RowLoc> = HashSet::new();

        let targets = scan_rows(&mut ctx, &m.target)?;
        for srow in &source.rows {
            let mut any_match = false;
            for (loc, trow) in &targets {
                let mut combined_row = trow.clone();
                combined_row.extend(srow.iter().cloned());
                if !holds_all(&on, &combined_row)? {
                    continue;
                }
                any_match = true;
                if let Some((cond, _, exprs)) = &matched {
                    let applies = match cond {
                        Some(c) => truthy(&eval(c, &combined_row)?),
                        None => true,
                    };
                    if applies && touched.insert(loc.clone()) {
                        let vals = exprs
                            .iter()
                            .map(|e| eval(e, &combined_row))
                            .collect::<Result<_>>()?;
                        updates.push(loc, trow, vals);
                    }
                }
            }
            if !any_match {
                if let Some((cols, exprs)) = &not_matched {
                    let mut row = vec![Value::Null; n_cols];
                    for (c, e) in cols.iter().zip(exprs) {
                        row[*c] = eval(e, srow)?;
                    }
                    inserts.push_row(&row);
                }
            }
        }
        (assign_cols, updates, table.coerce_chunk(inserts)?)
    };

    let table = catalog.table_mut(&m.target)?;
    let updated = updates.apply(pool, table, &assign_cols)?;
    Ok(updated + table.insert_chunk(pool, &inserts, None)?)
}
