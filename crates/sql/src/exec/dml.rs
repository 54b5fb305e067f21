//! DML execution: INSERT, UPDATE (incl. `UPDATE … FROM`), DELETE, MERGE,
//! TRUNCATE.
//!
//! Every statement runs in two phases: a **read phase** that evaluates
//! sources, subqueries and the matching set against the pre-statement state
//! (borrowing the catalog immutably), and a **write phase** that applies the
//! collected changes. This gives MERGE and self-referencing statements
//! (`INSERT INTO t SELECT … FROM t`) snapshot semantics.

use super::eval::{
    bind_expr, binds_in, eval, is_row_independent, max_bound_col, split_conjuncts, truthy, BExpr,
    ExecCtx, Schema,
};
use crate::ast::{BinaryOp, Delete, Expr, Insert, InsertSource, Merge, TableRef, Update};
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

        match &upd.from {
            None => {
                // Plain UPDATE: match rows, then compute assignments.
                let pred = upd
                    .filter
                    .as_ref()
                    .map(|f| bind_expr(&mut ctx, &tschema, f))
                    .transpose()?;
                let assigns: Vec<BExpr> = upd
                    .assignments
                    .iter()
                    .map(|(_, e)| bind_expr(&mut ctx, &tschema, e))
                    .collect::<Result<_>>()?;
                let mut out = Vec::new();
                let mut eval_err = None;
                let table = ctx.catalog.table(&upd.table)?;
                table.scan(ctx.pool, |loc, row| {
                    let keep = match &pred {
                        Some(p) => match eval(p, &row) {
                            Ok(v) => truthy(&v),
                            Err(e) => {
                                eval_err = Some(e);
                                return false;
                            }
                        },
                        None => true,
                    };
                    if keep {
                        out.push((loc, row));
                    }
                    true
                })?;
                if let Some(e) = eval_err {
                    return Err(e);
                }
                let mut pending = Vec::with_capacity(out.len());
                for (loc, row) in out {
                    let mut new_row = row.clone();
                    for (c, a) in assign_cols.iter().zip(&assigns) {
                        new_row[*c] = eval(a, &row)?;
                    }
                    let table = ctx.catalog.table(&upd.table)?;
                    let new_row = table.coerce_row(new_row)?;
                    pending.push(PendingUpdate {
                        loc,
                        old_row: row,
                        new_row,
                    });
                }
                pending
            }
            Some(source_ref) => {
                // UPDATE … FROM: join the target with the source. Source
                // rows are pre-filtered with the source-only conjuncts
                // (skipping their probes entirely), and target-only
                // residuals are checked on the bare target row before the
                // combined row is built — the hot batched-FEM statements
                // reject most rows on those cheap paths.
                let mut conjuncts: Vec<Expr> =
                    upd.filter.as_ref().map(split_conjuncts).unwrap_or_default();
                let source =
                    materialize_ref_filtered(&mut ctx, source_ref, &tschema, &mut conjuncts)?;
                let combined = tschema.concat(&source.schema);
                let (probe_cols, probe_exprs, residual) = equi_probe_plan(
                    &mut ctx,
                    &upd.table,
                    &tschema,
                    &source.schema,
                    &combined,
                    &conjuncts,
                )?;
                let target_width = tschema.cols.len();
                let (target_residual, mixed_residual): (Vec<BExpr>, Vec<BExpr>) = residual
                    .into_iter()
                    .partition(|p| max_bound_col(p).is_none_or(|c| c < target_width));
                let assigns: Vec<BExpr> = upd
                    .assignments
                    .iter()
                    .map(|(_, e)| bind_expr(&mut ctx, &combined, e))
                    .collect::<Result<_>>()?;

                let mut pending: Vec<PendingUpdate> = Vec::new();
                let mut touched: HashSet<RowLoc> = HashSet::new();
                for srow in &source.rows {
                    let matches =
                        probe_target(&mut ctx, &upd.table, &probe_cols, &probe_exprs, srow)?;
                    'target: for (loc, trow) in matches {
                        for p in &target_residual {
                            if !truthy(&eval(p, &trow)?) {
                                continue 'target;
                            }
                        }
                        let mut combined_row = trow.clone();
                        combined_row.extend(srow.iter().cloned());
                        for p in &mixed_residual {
                            if !truthy(&eval(p, &combined_row)?) {
                                continue 'target;
                            }
                        }
                        if !touched.insert(loc.clone()) {
                            continue;
                        }
                        let mut new_row = trow.clone();
                        for (c, a) in assign_cols.iter().zip(&assigns) {
                            new_row[*c] = eval(a, &combined_row)?;
                        }
                        let table = ctx.catalog.table(&upd.table)?;
                        let new_row = table.coerce_row(new_row)?;
                        pending.push(PendingUpdate {
                            loc,
                            old_row: trow,
                            new_row,
                        });
                    }
                }
                pending
            }
        }
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
    let matches: Vec<(RowLoc, Vec<Value>)> = {
        let mut ctx = ExecCtx {
            pool,
            catalog,
            params,
        };
        let table = ctx.catalog.table(&del.table)?;
        let schema = Schema::from_table(&del.table, &table.schema);
        let pred = del
            .filter
            .as_ref()
            .map(|f| bind_expr(&mut ctx, &schema, f))
            .transpose()?;
        let mut out = Vec::new();
        let mut eval_err = None;
        let table = ctx.catalog.table(&del.table)?;
        table.scan(ctx.pool, |loc, row| {
            let keep = match &pred {
                Some(p) => match eval(p, &row) {
                    Ok(v) => truthy(&v),
                    Err(e) => {
                        eval_err = Some(e);
                        return false;
                    }
                },
                None => true,
            };
            if keep {
                out.push((loc, row));
            }
            true
        })?;
        if let Some(e) = eval_err {
            return Err(e);
        }
        out
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
        let (probe_cols, probe_exprs, residual) = equi_probe_plan(
            &mut ctx,
            &m.target,
            &tschema,
            &source.schema,
            &combined,
            &on_conjuncts,
        )?;

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

        for srow in &source.rows {
            let matches = probe_target(&mut ctx, &m.target, &probe_cols, &probe_exprs, srow)?;
            let mut any_match = false;
            for (loc, trow) in matches {
                let mut combined_row = trow.clone();
                combined_row.extend(srow.iter().cloned());
                let mut pass = true;
                for p in &residual {
                    if !truthy(&eval(p, &combined_row)?) {
                        pass = false;
                        break;
                    }
                }
                if !pass {
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
                        let new_row = table.coerce_row(new_row)?;
                        updates.push(PendingUpdate {
                            loc,
                            old_row: trow,
                            new_row,
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

/// Like [`materialize_ref`], but additionally consumes the conjuncts that
/// bind entirely in the source schema, filtering the materialized rows with
/// them up front — every dropped source row saves its target probes and
/// combined-row work downstream. Conjuncts that *also* resolve in the
/// target schema (unqualified names present on both sides) are left alone,
/// so they still bind over the combined schema exactly as before.
fn materialize_ref_filtered(
    ctx: &mut ExecCtx<'_>,
    tref: &TableRef,
    target: &Schema,
    conjuncts: &mut Vec<Expr>,
) -> Result<super::Relation> {
    let mut rel = materialize_ref(ctx, tref)?;
    let mine_idx: Vec<usize> = conjuncts
        .iter()
        .enumerate()
        .filter(|(_, c)| binds_in(c, &rel.schema) && !binds_in(c, target))
        .map(|(i, _)| i)
        .collect();
    if mine_idx.is_empty() {
        return Ok(rel);
    }
    let preds: Vec<BExpr> = mine_idx
        .iter()
        .map(|&i| bind_expr(ctx, &rel.schema, &conjuncts[i]))
        .collect::<Result<_>>()?;
    let mut rows = Vec::with_capacity(rel.rows.len());
    'row: for row in rel.rows {
        for p in &preds {
            if !truthy(&eval(p, &row)?) {
                continue 'row;
            }
        }
        rows.push(row);
    }
    rel.rows = rows;
    let mut keep = Vec::with_capacity(conjuncts.len());
    for (i, c) in conjuncts.drain(..).enumerate() {
        if !mine_idx.contains(&i) {
            keep.push(c);
        }
    }
    *conjuncts = keep;
    Ok(rel)
}

/// Materializes a table reference (base table, view, or derived query) with
/// its binding applied.
fn materialize_ref(ctx: &mut ExecCtx<'_>, tref: &TableRef) -> Result<super::Relation> {
    match tref {
        TableRef::Named { name, alias } => {
            let binding = alias.as_deref().unwrap_or(name);
            if ctx.catalog.has_table(name) {
                let table = ctx.catalog.table(name)?;
                let schema = Schema::from_table(binding, &table.schema);
                let mut rows = Vec::new();
                let table = ctx.catalog.table(name)?;
                table.scan(ctx.pool, |_, row| {
                    rows.push(row);
                    true
                })?;
                Ok(super::Relation { schema, rows })
            } else if let Some(view) = ctx.catalog.view(name) {
                let query = view.clone();
                let rel = super::select::execute_select(ctx, &query)?;
                Ok(rel.rebind(binding))
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

/// From join conjuncts, extracts equalities `target.col = <source expr>`
/// usable to probe the target, plus residual predicates over the combined
/// schema.
///
/// When the target has an index (clustered or secondary), the probe set is
/// trimmed to the longest equality-covered index prefix so every probe is
/// an index lookup; leftover equalities join the residual filter. Without a
/// usable index all equalities probe together (a filtered scan).
fn equi_probe_plan(
    ctx: &mut ExecCtx<'_>,
    target_table: &str,
    target: &Schema,
    source: &Schema,
    combined: &Schema,
    conjuncts: &[Expr],
) -> Result<(Vec<usize>, Vec<BExpr>, Vec<BExpr>)> {
    // Candidate equalities: (target col, source-side AST, whole conjunct).
    let mut cands: Vec<(usize, &Expr)> = Vec::new();
    let mut cand_conjunct: Vec<usize> = Vec::new();
    let mut residual_ast: Vec<&Expr> = Vec::new();
    for (ci, c) in conjuncts.iter().enumerate() {
        let mut used = false;
        if let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = c
        {
            for (tcol_side, sexpr_side) in [(left, right), (right, left)] {
                if let Expr::Column { table, name } = tcol_side.as_ref() {
                    if target.can_resolve(table.as_deref(), name)
                        && !source.can_resolve(table.as_deref(), name)
                        && (binds_in(sexpr_side, source) || is_row_independent(sexpr_side))
                    {
                        let col = target.resolve(table.as_deref(), name)?;
                        cands.push((col, sexpr_side.as_ref()));
                        cand_conjunct.push(ci);
                        used = true;
                        break;
                    }
                }
            }
        }
        if !used {
            residual_ast.push(c);
        }
    }
    if cands.is_empty() {
        return Err(SqlError::Bind(
            "MERGE/UPDATE-FROM requires at least one `target.col = source-expr` equality".into(),
        ));
    }

    // Prefer the longest index prefix covered by the candidates.
    let cand_cols: Vec<usize> = cands.iter().map(|(c, _)| *c).collect();
    let chosen = ctx
        .catalog
        .table(target_table)?
        .longest_prefix(&cand_cols)
        .unwrap_or_else(|| (0..cands.len()).collect()); // default: all

    let mut probe_cols = Vec::with_capacity(chosen.len());
    let mut probe_exprs = Vec::with_capacity(chosen.len());
    for &i in &chosen {
        probe_cols.push(cands[i].0);
        probe_exprs.push(bind_expr(ctx, source, cands[i].1)?);
    }
    let mut residual = Vec::new();
    for (i, &ci) in cand_conjunct.iter().enumerate() {
        if !chosen.contains(&i) {
            residual.push(bind_expr(ctx, combined, &conjuncts[ci])?);
        }
    }
    for c in residual_ast {
        residual.push(bind_expr(ctx, combined, c)?);
    }
    Ok((probe_cols, probe_exprs, residual))
}

/// Finds target rows matching the probe key computed from one source row.
fn probe_target(
    ctx: &mut ExecCtx<'_>,
    target_table: &str,
    probe_cols: &[usize],
    probe_exprs: &[BExpr],
    srow: &[Value],
) -> Result<Vec<(RowLoc, Vec<Value>)>> {
    let mut keys = Vec::with_capacity(probe_exprs.len());
    for e in probe_exprs {
        let v = eval(e, srow)?;
        if v.is_null() {
            return Ok(Vec::new()); // NULL never matches
        }
        keys.push(v);
    }
    let table = ctx.catalog.table(target_table)?;
    let mut out = Vec::new();
    table.lookup_eq(ctx.pool, probe_cols, &keys, |loc, row| {
        out.push((loc, row));
        true
    })?;
    Ok(out)
}
