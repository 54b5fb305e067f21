//! FROM-clause planning: access paths and join strategies.

use super::eval::{
    bind_expr, binds_in, eval, is_row_independent, split_conjuncts, truthy, BExpr, ExecCtx,
    HashKey, Schema,
};
use super::Relation;
use crate::ast::{BinaryOp, Expr, TableRef};
use crate::error::{Result, SqlError};
use fempath_storage::Value;
use std::collections::HashMap;

/// Builds the row stream for a FROM list, consuming every conjunct of the
/// WHERE clause (pushdown, join conditions, then a final residual filter).
pub fn build_from(
    ctx: &mut ExecCtx<'_>,
    from: &[TableRef],
    filter: Option<&Expr>,
) -> Result<Relation> {
    let mut conjuncts: Vec<Expr> = filter.map(split_conjuncts).unwrap_or_default();

    let mut rel = if from.is_empty() {
        // `SELECT 1` — a single empty row.
        Relation {
            schema: Schema::empty(),
            rows: vec![vec![]],
        }
    } else {
        let mut acc = base_relation(ctx, &from[0], &mut conjuncts)?;
        for tref in &from[1..] {
            acc = join(ctx, acc, tref, &mut conjuncts)?;
        }
        acc
    };

    // Residual filter: everything not consumed by access paths or joins.
    if !conjuncts.is_empty() {
        let preds: Vec<BExpr> = conjuncts
            .iter()
            .map(|c| bind_expr(ctx, &rel.schema, c))
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
    }
    Ok(rel)
}

/// What a table reference resolves to before any rows are produced.
enum Source {
    /// A base table in the catalog.
    Table { name: String, binding: String },
    /// Already-materialized rows (derived tables and views).
    Mat(Relation),
}

fn resolve_source(ctx: &mut ExecCtx<'_>, tref: &TableRef) -> Result<Source> {
    match tref {
        TableRef::Named { name, alias } => {
            let binding = alias.as_deref().unwrap_or(name).to_string();
            if ctx.catalog.has_table(name) {
                return Ok(Source::Table {
                    name: name.clone(),
                    binding,
                });
            }
            if let Some(view) = ctx.catalog.view(name) {
                let query = view.clone();
                let rel = super::select::execute_select(ctx, &query)?;
                return Ok(Source::Mat(rel.rebind(&binding)));
            }
            Err(SqlError::Catalog(format!("no such table or view {name}")))
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
            Ok(Source::Mat(rel.rebind(alias)))
        }
    }
}

/// Index-usable equality: `col = <row-independent expr>` over one binding.
pub(crate) struct EqPred {
    pub(crate) col: usize,
    pub(crate) value_expr: Expr,
    /// Position in the conjunct list (for consumption).
    pub(crate) conjunct_idx: usize,
}

/// Finds equalities `schema-col = constant-ish` among conjuncts that bind
/// entirely in `schema`.
pub(crate) fn find_const_equalities(schema: &Schema, conjuncts: &[Expr]) -> Vec<EqPred> {
    let mut out = Vec::new();
    for (i, c) in conjuncts.iter().enumerate() {
        let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = c
        else {
            continue;
        };
        for (col_side, val_side) in [(left, right), (right, left)] {
            if let Expr::Column { table, name } = col_side.as_ref() {
                if schema.can_resolve(table.as_deref(), name) && is_row_independent(val_side) {
                    if let Ok(col) = schema.resolve(table.as_deref(), name) {
                        out.push(EqPred {
                            col,
                            value_expr: val_side.as_ref().clone(),
                            conjunct_idx: i,
                        });
                        break;
                    }
                }
            }
        }
    }
    out
}

/// Scans a base table, consuming pushable conjuncts.
fn scan_table(
    ctx: &mut ExecCtx<'_>,
    name: &str,
    binding: &str,
    conjuncts: &mut Vec<Expr>,
) -> Result<Relation> {
    let table = ctx.catalog.table(name)?;
    let schema = Schema::from_table(binding, &table.schema);

    // Conjuncts fully resolvable against this table alone.
    let mine_idx: Vec<usize> = conjuncts
        .iter()
        .enumerate()
        .filter(|(_, c)| binds_in(c, &schema))
        .map(|(i, _)| i)
        .collect();
    let mine: Vec<Expr> = mine_idx.iter().map(|&i| conjuncts[i].clone()).collect();

    // Schema positions equal table column positions: the schema came
    // straight from the table definition.
    let eqs = find_const_equalities(&schema, &mine);
    let eq_cols: Vec<usize> = eqs.iter().map(|e| e.col).collect();

    let mut rows = Vec::new();
    match table.longest_prefix(&eq_cols) {
        Some(picks) => {
            let cols: Vec<usize> = picks.iter().map(|&p| eq_cols[p]).collect();
            let consumed_local: Vec<usize> = picks.iter().map(|&p| eqs[p].conjunct_idx).collect();
            // Key values: bind the constant sides (no columns involved).
            let mut keys = Vec::with_capacity(cols.len());
            for &p in &picks {
                let b = bind_expr(ctx, &Schema::empty(), &eqs[p].value_expr)?;
                keys.push(eval(&b, &[])?);
            }
            // Residual single-table predicates.
            let residual: Vec<BExpr> = mine
                .iter()
                .enumerate()
                .filter(|(i, _)| !consumed_local.contains(i))
                .map(|(_, c)| bind_expr(ctx, &schema, c))
                .collect::<Result<_>>()?;
            if keys.iter().any(|k| k.is_null()) {
                // `col = NULL` never matches.
            } else {
                let mut eval_err = None;
                let table = ctx.catalog.table(name)?;
                table.lookup_eq(ctx.pool, &cols, &keys, |_, row| {
                    for p in &residual {
                        match eval(p, &row) {
                            Ok(v) if truthy(&v) => {}
                            Ok(_) => return true,
                            Err(e) => {
                                eval_err = Some(e);
                                return false;
                            }
                        }
                    }
                    rows.push(row);
                    true
                })?;
                if let Some(e) = eval_err {
                    return Err(e);
                }
            }
        }
        None => {
            let preds: Vec<BExpr> = mine
                .iter()
                .map(|c| bind_expr(ctx, &schema, c))
                .collect::<Result<_>>()?;
            let mut eval_err = None;
            let table = ctx.catalog.table(name)?;
            table.scan(ctx.pool, |_, row| {
                for p in &preds {
                    match eval(p, &row) {
                        Ok(v) if truthy(&v) => {}
                        Ok(_) => return true,
                        Err(e) => {
                            eval_err = Some(e);
                            return false;
                        }
                    }
                }
                rows.push(row);
                true
            })?;
            if let Some(e) = eval_err {
                return Err(e);
            }
        }
    }
    // Remove consumed conjuncts (all of `mine` were consumed either by the
    // access path or the residual filter).
    let mut keep = Vec::with_capacity(conjuncts.len());
    for (i, c) in conjuncts.drain(..).enumerate() {
        if !mine_idx.contains(&i) {
            keep.push(c);
        }
    }
    *conjuncts = keep;

    Ok(Relation { schema, rows })
}

fn base_relation(
    ctx: &mut ExecCtx<'_>,
    tref: &TableRef,
    conjuncts: &mut Vec<Expr>,
) -> Result<Relation> {
    match resolve_source(ctx, tref)? {
        Source::Table { name, binding } => scan_table(ctx, &name, &binding, conjuncts),
        Source::Mat(mut rel) => {
            // Push single-relation predicates down onto the materialized rows.
            let mine_idx: Vec<usize> = conjuncts
                .iter()
                .enumerate()
                .filter(|(_, c)| binds_in(c, &rel.schema))
                .map(|(i, _)| i)
                .collect();
            if !mine_idx.is_empty() {
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
            }
            Ok(rel)
        }
    }
}

/// An equi-join pair: left-side expression = right-side column.
pub(crate) struct JoinPair {
    pub(crate) left_expr: Expr,
    pub(crate) right_col: usize,
    pub(crate) conjunct_idx: usize,
}

/// Finds `left-expr = right-col` equalities across the two schemas.
pub(crate) fn find_join_pairs(left: &Schema, right: &Schema, conjuncts: &[Expr]) -> Vec<JoinPair> {
    let mut out = Vec::new();
    for (i, c) in conjuncts.iter().enumerate() {
        let Expr::Binary {
            left: a,
            op: BinaryOp::Eq,
            right: b,
        } = c
        else {
            continue;
        };
        for (lhs, rhs) in [(a, b), (b, a)] {
            if let Expr::Column { table, name } = rhs.as_ref() {
                // The column side must resolve in the right schema and NOT
                // in the left (otherwise it is not a join column).
                if right.can_resolve(table.as_deref(), name)
                    && !left.can_resolve(table.as_deref(), name)
                    && binds_in(lhs, left)
                {
                    if let Ok(col) = right.resolve(table.as_deref(), name) {
                        out.push(JoinPair {
                            left_expr: lhs.as_ref().clone(),
                            right_col: col,
                            conjunct_idx: i,
                        });
                        break;
                    }
                }
            }
        }
    }
    out
}

fn remove_conjuncts(conjuncts: &mut Vec<Expr>, consumed: &[usize]) {
    let mut keep = Vec::with_capacity(conjuncts.len());
    for (i, c) in conjuncts.drain(..).enumerate() {
        if !consumed.contains(&i) {
            keep.push(c);
        }
    }
    *conjuncts = keep;
}

/// Joins `left` with the next table reference, consuming join conjuncts.
fn join(
    ctx: &mut ExecCtx<'_>,
    left: Relation,
    tref: &TableRef,
    conjuncts: &mut Vec<Expr>,
) -> Result<Relation> {
    match resolve_source(ctx, tref)? {
        Source::Table { name, binding } => {
            let table = ctx.catalog.table(&name)?;
            let right_schema = Schema::from_table(&binding, &table.schema);
            let pairs = find_join_pairs(&left.schema, &right_schema, conjuncts);
            let pair_cols: Vec<usize> = pairs.iter().map(|p| p.right_col).collect();

            // Index nested loop when the join columns cover an index prefix.
            if let Some(picks) = table.longest_prefix(&pair_cols) {
                let path_cols: Vec<usize> = picks.iter().map(|&p| pair_cols[p]).collect();
                let key_exprs: Vec<BExpr> = picks
                    .iter()
                    .map(|&p| bind_expr(ctx, &left.schema, &pairs[p].left_expr))
                    .collect::<Result<_>>()?;
                let combined = left.schema.concat(&right_schema);
                // Residual: any other conjunct that binds in the combined
                // schema (includes leftover pairs and non-equi predicates).
                let consumed: Vec<usize> = picks.iter().map(|&p| pairs[p].conjunct_idx).collect();
                let residual_idx: Vec<usize> = conjuncts
                    .iter()
                    .enumerate()
                    .filter(|(i, c)| !consumed.contains(i) && binds_in(c, &combined))
                    .map(|(i, _)| i)
                    .collect();
                let residual: Vec<BExpr> = residual_idx
                    .iter()
                    .map(|&i| bind_expr(ctx, &combined, &conjuncts[i]))
                    .collect::<Result<_>>()?;

                let mut rows = Vec::new();
                let mut eval_err: Option<SqlError> = None;
                for lrow in &left.rows {
                    let mut keys = Vec::with_capacity(key_exprs.len());
                    let mut null_key = false;
                    for e in &key_exprs {
                        let v = eval(e, lrow)?;
                        if v.is_null() {
                            null_key = true;
                            break;
                        }
                        keys.push(v);
                    }
                    if null_key {
                        continue;
                    }
                    let table = ctx.catalog.table(&name)?;
                    table.lookup_eq(ctx.pool, &path_cols, &keys, |_, rrow| {
                        let mut combined_row = lrow.clone();
                        combined_row.extend(rrow);
                        for p in &residual {
                            match eval(p, &combined_row) {
                                Ok(v) if truthy(&v) => {}
                                Ok(_) => return true,
                                Err(e) => {
                                    eval_err = Some(e);
                                    return false;
                                }
                            }
                        }
                        rows.push(combined_row);
                        true
                    })?;
                    if let Some(e) = eval_err {
                        return Err(e);
                    }
                }
                let mut all_consumed = consumed;
                all_consumed.extend(&residual_idx);
                remove_conjuncts(conjuncts, &all_consumed);
                return Ok(Relation {
                    schema: combined,
                    rows,
                });
            }

            // No usable index: materialize and fall through to hash join.
            let mut rows = Vec::new();
            let table = ctx.catalog.table(&name)?;
            table.scan(ctx.pool, |_, row| {
                rows.push(row);
                true
            })?;
            let right = Relation {
                schema: right_schema,
                rows,
            };
            join_materialized(ctx, left, right, conjuncts)
        }
        Source::Mat(right) => join_materialized(ctx, left, right, conjuncts),
    }
}

/// Hash join (on equi-pairs) or nested loop over a materialized right side.
fn join_materialized(
    ctx: &mut ExecCtx<'_>,
    left: Relation,
    right: Relation,
    conjuncts: &mut Vec<Expr>,
) -> Result<Relation> {
    let pairs = find_join_pairs(&left.schema, &right.schema, conjuncts);
    let combined = left.schema.concat(&right.schema);
    let residual_idx: Vec<usize> = conjuncts
        .iter()
        .enumerate()
        .filter(|(i, c)| !pairs.iter().any(|p| p.conjunct_idx == *i) && binds_in(c, &combined))
        .map(|(i, _)| i)
        .collect();
    let residual: Vec<BExpr> = residual_idx
        .iter()
        .map(|&i| bind_expr(ctx, &combined, &conjuncts[i]))
        .collect::<Result<_>>()?;

    let mut rows = Vec::new();
    if pairs.is_empty() {
        // Nested-loop cross product + residual filter.
        'outer: for lrow in &left.rows {
            for rrow in &right.rows {
                let mut combined_row = lrow.clone();
                combined_row.extend(rrow.iter().cloned());
                let mut pass = true;
                for p in &residual {
                    if !truthy(&eval(p, &combined_row)?) {
                        pass = false;
                        break;
                    }
                }
                if pass {
                    rows.push(combined_row);
                }
                if rows.len() > 50_000_000 {
                    break 'outer; // safety valve against runaway cross joins
                }
            }
        }
    } else {
        // Build hash table on the right side, keyed by [`HashKey`] (a
        // single-integer join key — e.g. the batched-FEM per-qid bounds
        // join — hashes the integer directly, no allocation).
        let left_exprs: Vec<BExpr> = pairs
            .iter()
            .map(|p| bind_expr(ctx, &left.schema, &p.left_expr))
            .collect::<Result<_>>()?;
        let right_cols: Vec<usize> = pairs.iter().map(|p| p.right_col).collect();
        let mut ht: HashMap<HashKey, Vec<usize>> = HashMap::new();
        'rrow: for (i, rrow) in right.rows.iter().enumerate() {
            let mut vals = Vec::with_capacity(right_cols.len());
            for &c in &right_cols {
                if rrow[c].is_null() {
                    continue 'rrow;
                }
                vals.push(rrow[c].clone());
            }
            ht.entry(HashKey::from_values(&vals)?).or_default().push(i);
        }
        'lrow: for lrow in &left.rows {
            let mut vals: Vec<Value> = Vec::with_capacity(left_exprs.len());
            for e in &left_exprs {
                let v = eval(e, lrow)?;
                if v.is_null() {
                    continue 'lrow;
                }
                vals.push(v);
            }
            if let Some(matches) = ht.get(&HashKey::from_values(&vals)?) {
                'm: for &ri in matches {
                    let mut combined_row = lrow.clone();
                    combined_row.extend(right.rows[ri].iter().cloned());
                    for p in &residual {
                        if !truthy(&eval(p, &combined_row)?) {
                            continue 'm;
                        }
                    }
                    rows.push(combined_row);
                }
            }
        }
    }
    let mut consumed: Vec<usize> = pairs.iter().map(|p| p.conjunct_idx).collect();
    consumed.extend(&residual_idx);
    remove_conjuncts(conjuncts, &consumed);
    Ok(Relation {
        schema: combined,
        rows,
    })
}
