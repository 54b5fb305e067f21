//! Plan-shape analysis of SELECT pipelines: a side-effect-free mirror of
//! the executor's FROM planning (`exec::from`), recording one
//! [`TableAccess`] verdict per table touched instead of producing rows.
//!
//! The mirroring is intentionally exact — the same `find_const_equalities`
//! / `choose_access_path` / `find_join_pairs` helpers the executor uses
//! drive the verdicts, so the analyzer cannot drift from what actually
//! runs. Conjunct consumption follows the executor order (base pushdown,
//! then join-by-join), while *type* checking happens once at the end
//! against the combined schema, after null-rejection refinement.

use super::typeck::{infer, strict_cols, ColTy, TSchema};
use super::{AccessKind, Ctx, JoinKind, Rule, TableAccess};
use crate::ast::{Expr, Select, TableRef};
use crate::catalog::{Table, TableStorage};
use crate::exec::eval::{binds_in, split_conjuncts};
use crate::exec::from::{choose_access_path, find_const_equalities, find_join_pairs};
use crate::exec::select::expand_items;
use std::collections::HashSet;

/// Analyzes a SELECT appearing as a scalar/IN/EXISTS subquery: evaluated
/// once per statement, so its accesses are exempt from the hot-path
/// full-scan rule (FC201).
pub(crate) fn analyze_subquery(cx: &mut Ctx<'_>, sel: &Select) -> TSchema {
    cx.subquery_depth += 1;
    let out = analyze_select(cx, sel);
    cx.subquery_depth -= 1;
    out
}

/// Analyzes a SELECT, returning the typed schema of its output columns.
pub(crate) fn analyze_select(cx: &mut Ctx<'_>, sel: &Select) -> TSchema {
    let conjuncts: Vec<Expr> = sel.filter.as_ref().map(split_conjuncts).unwrap_or_default();

    // FROM: mirror the executor's consumption order for shape verdicts.
    let combined = if sel.from.is_empty() {
        TSchema::default()
    } else {
        let mut remaining = conjuncts.clone();
        let mut acc = base_ref(cx, &sel.from[0], &mut remaining);
        for tref in &sel.from[1..] {
            acc = join_ref(cx, acc, tref, &mut remaining);
        }
        acc
    };

    // Null-rejection refinement: columns no surviving row can hold NULL in.
    let mut strict = HashSet::new();
    for c in &conjuncts {
        strict_cols(&combined, c, &mut strict);
    }
    let mut ts = combined;
    for &i in &strict {
        if let Some(col) = ts.cols.get_mut(i) {
            col.nullable = false;
        }
    }

    let grouped = !sel.group_by.is_empty();

    // Type-check the full WHERE clause against the refined schema.
    for c in &conjuncts {
        infer(cx, &ts, c, false);
    }
    for g in &sel.group_by {
        infer(cx, &ts, g, false);
    }

    // Projection: expand wildcards exactly like the executor, then type
    // each output item.
    let items = match expand_items(sel, &ts.schema) {
        Ok(items) => items,
        Err(e) => {
            if !ts.open {
                cx.diag(Rule::StatementShape, e.to_string());
            }
            return TSchema::open();
        }
    };
    let mut out = TSchema {
        open: ts.open,
        ..TSchema::default()
    };
    for item in &items {
        let t = infer(cx, &ts, &item.expr, grouped);
        out.push(
            item.name.clone(),
            ColTy {
                ty: t.ty,
                nullable: t.nullable,
            },
        );
    }

    if let Some(h) = &sel.having {
        infer(cx, &ts, h, grouped);
    }

    // ORDER BY: a bare name matching an output item refers to that item
    // (alias targeting, mirroring the planner); everything else binds in
    // the pre-projection schema.
    for k in &sel.order_by {
        if let Expr::Column { table: None, name } = &k.expr {
            if items.iter().any(|i| i.name.eq_ignore_ascii_case(name)) {
                continue;
            }
        }
        infer(cx, &ts, &k.expr, grouped);
    }

    out
}

/// What a table reference statically resolves to.
enum SourceT {
    /// A base table in the catalog.
    Table { name: String, binding: String },
    /// Derived table, view, or unresolvable name — already "materialized".
    Mat(TSchema),
}

fn resolve_source(cx: &mut Ctx<'_>, tref: &TableRef) -> SourceT {
    match tref {
        TableRef::Named { name, alias } => {
            let binding = alias.as_deref().unwrap_or(name).to_string();
            if cx.catalog.has_table(name) {
                return SourceT::Table {
                    name: name.clone(),
                    binding,
                };
            }
            if let Some(view) = cx.catalog.view(name) {
                let view = view.clone();
                let out = analyze_select(cx, &view);
                return SourceT::Mat(out.rebind(&binding));
            }
            cx.diag(Rule::UnknownTable, format!("no such table or view {name}"));
            SourceT::Mat(TSchema::open())
        }
        TableRef::Derived {
            query,
            alias,
            columns,
        } => {
            let mut out = analyze_select(cx, query);
            if let Some(cols) = columns {
                if cols.len() != out.cols.len() && !out.open {
                    cx.diag(
                        Rule::StatementShape,
                        format!(
                            "derived table {alias} lists {} columns but query returns {}",
                            cols.len(),
                            out.cols.len()
                        ),
                    );
                }
                for (c, name) in out.schema.cols.iter_mut().zip(cols) {
                    c.name = name.clone();
                }
            }
            SourceT::Mat(out.rebind(alias))
        }
    }
}

/// True when the table has *any* physical access path an equality probe
/// could use (clustered/segmented key or a secondary index).
pub(crate) fn has_any_index(table: &Table) -> bool {
    table.clustered_key_cols().is_some() || !table.indexes.is_empty()
}

/// Classifies an index access on `cols`: a point lookup when the columns
/// exactly cover a unique path, a range/prefix scan otherwise.
pub(crate) fn eq_access_kind(table: &Table, cols: &[usize]) -> AccessKind {
    if let TableStorage::Clustered {
        key_cols,
        unique: true,
        ..
    } = &table.storage
    {
        if cols == key_cols.as_slice() {
            return AccessKind::IndexEq;
        }
    }
    if table
        .indexes
        .iter()
        .any(|i| i.unique && i.cols.as_slice() == cols)
    {
        return AccessKind::IndexEq;
    }
    AccessKind::IndexRange
}

fn col_names(table: &Table, cols: &[usize]) -> Vec<String> {
    cols.iter()
        .map(|&c| table.schema.columns[c].name.clone())
        .collect()
}

fn record(
    cx: &mut Ctx<'_>,
    table: &Table,
    binding: &str,
    access: AccessKind,
    join: JoinKind,
    index_cols: Vec<String>,
) {
    let in_subquery = cx.subquery_depth > 0;
    cx.accesses.push(TableAccess {
        table: table.schema.name.clone(),
        binding: binding.to_string(),
        access,
        join,
        index_cols,
        has_index: has_any_index(table),
        in_subquery,
    });
}

fn record_derived(cx: &mut Ctx<'_>, binding: &str, join: JoinKind) {
    let in_subquery = cx.subquery_depth > 0;
    cx.accesses.push(TableAccess {
        table: binding.to_string(),
        binding: binding.to_string(),
        access: AccessKind::Derived,
        join,
        index_cols: Vec::new(),
        has_index: false,
        in_subquery,
    });
}

fn remove_conjuncts(conjuncts: &mut Vec<Expr>, consumed: &[usize]) {
    let mut i = 0usize;
    conjuncts.retain(|_| {
        let keep = !consumed.contains(&i);
        i += 1;
        keep
    });
}

/// Records how the planner reads `table` as a pipeline source or plain
/// UPDATE/DELETE target (mirror of `plan::build::plan_scan_table`): an
/// index probe when the conjuncts pin an indexed prefix to row-independent
/// values, a full scan otherwise. Consumes the conjuncts that bind against
/// the table alone.
pub(crate) fn source_access(
    cx: &mut Ctx<'_>,
    table: &Table,
    binding: &str,
    ts: &TSchema,
    remaining: &mut Vec<Expr>,
) {
    let mine_idx: Vec<usize> = remaining
        .iter()
        .enumerate()
        .filter(|(_, c)| binds_in(c, &ts.schema))
        .map(|(i, _)| i)
        .collect();
    let mine: Vec<Expr> = mine_idx.iter().map(|&i| remaining[i].clone()).collect();
    let eqs = find_const_equalities(&ts.schema, &mine);
    match choose_access_path(table, &eqs) {
        Some((cols, _)) => {
            let kind = eq_access_kind(table, &cols);
            let names = col_names(table, &cols);
            record(cx, table, binding, kind, JoinKind::Source, names);
        }
        None => record(
            cx,
            table,
            binding,
            AccessKind::FullScan,
            JoinKind::Source,
            Vec::new(),
        ),
    }
    remove_conjuncts(remaining, &mine_idx);
}

/// Mirror of `exec::from::base_relation`.
fn base_ref(cx: &mut Ctx<'_>, tref: &TableRef, remaining: &mut Vec<Expr>) -> TSchema {
    match resolve_source(cx, tref) {
        SourceT::Table { name, binding } => {
            let Ok(table) = cx.catalog.table(&name) else {
                return TSchema::open();
            };
            let ts = TSchema::from_table(&binding, table);
            source_access(cx, table, &binding, &ts, remaining);
            ts
        }
        SourceT::Mat(ts) => {
            if !ts.open {
                record_derived(cx, tref.binding_name(), JoinKind::Source);
            }
            // Push single-relation predicates down (consumption only).
            let mine_idx: Vec<usize> = remaining
                .iter()
                .enumerate()
                .filter(|(_, c)| binds_in(c, &ts.schema))
                .map(|(i, _)| i)
                .collect();
            remove_conjuncts(remaining, &mine_idx);
            ts
        }
    }
}

/// Mirror of `exec::from::join`.
fn join_ref(
    cx: &mut Ctx<'_>,
    left: TSchema,
    tref: &TableRef,
    remaining: &mut Vec<Expr>,
) -> TSchema {
    match resolve_source(cx, tref) {
        SourceT::Table { name, binding } => {
            let Ok(table) = cx.catalog.table(&name) else {
                return left;
            };
            let right = TSchema::from_table(&binding, table);
            let pairs = find_join_pairs(&left.schema, &right.schema, remaining);

            // Try index nested loop: join columns must cover an index
            // prefix (clustered first, then secondaries; longest wins).
            let path = {
                let pair_cols: Vec<usize> = pairs.iter().map(|p| p.right_col).collect();
                let mut best: Option<Vec<usize>> = None;
                let mut consider = |cols: &[usize]| {
                    let mut n = 0;
                    for &c in cols {
                        if pair_cols.contains(&c) {
                            n += 1;
                        } else {
                            break;
                        }
                    }
                    if n > 0 && best.as_ref().is_none_or(|b| b.len() < n) {
                        best = Some(cols[..n].to_vec());
                    }
                };
                if let Some(key_cols) = table.clustered_key_cols() {
                    consider(key_cols);
                }
                for idx in &table.indexes {
                    consider(&idx.cols);
                }
                best
            };

            let combined = left.concat(&right);
            if let Some(path_cols) = path {
                let kind = eq_access_kind(table, &path_cols);
                let names = col_names(table, &path_cols);
                record(cx, table, &binding, kind, JoinKind::IndexNestedLoop, names);
                // Consume the used pair conjuncts plus every residual that
                // binds in the combined schema, exactly like the executor.
                let mut consumed: Vec<usize> = Vec::new();
                for &pc in &path_cols {
                    if let Some(p) = pairs
                        .iter()
                        .position(|p| p.right_col == pc && !consumed.contains(&p.conjunct_idx))
                    {
                        consumed.push(pairs[p].conjunct_idx);
                    }
                }
                let residual: Vec<usize> = remaining
                    .iter()
                    .enumerate()
                    .filter(|(i, c)| !consumed.contains(i) && binds_in(c, &combined.schema))
                    .map(|(i, _)| i)
                    .collect();
                consumed.extend(residual);
                remove_conjuncts(remaining, &consumed);
            } else {
                // No usable index: materialize the table and hash/loop join.
                let join = if pairs.is_empty() {
                    JoinKind::NestedLoop
                } else {
                    JoinKind::HashJoin
                };
                record(cx, table, &binding, AccessKind::FullScan, join, Vec::new());
                consume_materialized(&left, &right, &combined, remaining);
            }
            combined
        }
        SourceT::Mat(right) => {
            let combined = left.concat(&right);
            if !right.open {
                let pairs = find_join_pairs(&left.schema, &right.schema, remaining);
                let join = if pairs.is_empty() {
                    JoinKind::NestedLoop
                } else {
                    JoinKind::HashJoin
                };
                record_derived(cx, tref.binding_name(), join);
            }
            consume_materialized(&left, &right, &combined, remaining);
            combined
        }
    }
}

/// Mirror of `exec::from::join_materialized`'s conjunct consumption: the
/// equi-pairs plus every residual binding in the combined schema.
fn consume_materialized(
    left: &TSchema,
    right: &TSchema,
    combined: &TSchema,
    remaining: &mut Vec<Expr>,
) {
    let pairs = find_join_pairs(&left.schema, &right.schema, remaining);
    let consumed: Vec<usize> = remaining
        .iter()
        .enumerate()
        .filter(|(i, c)| {
            pairs.iter().any(|p| p.conjunct_idx == *i) || binds_in(c, &combined.schema)
        })
        .map(|(i, _)| i)
        .collect();
    remove_conjuncts(remaining, &consumed);
}

/// Typed output of a table reference used as a DML source (UPDATE … FROM /
/// MERGE USING): named tables are always scanned (`plan_source_ref`),
/// derived sources analyze recursively.
pub(crate) fn analyze_dml_source(cx: &mut Ctx<'_>, tref: &TableRef) -> TSchema {
    match resolve_source(cx, tref) {
        SourceT::Table { name, binding } => {
            let Ok(table) = cx.catalog.table(&name) else {
                return TSchema::open();
            };
            // DML sources never get an access path — the executor streams
            // the whole source (plan_source_ref).
            record(
                cx,
                table,
                &binding,
                AccessKind::FullScan,
                JoinKind::Source,
                Vec::new(),
            );
            TSchema::from_table(&binding, table)
        }
        SourceT::Mat(ts) => {
            if !ts.open {
                record_derived(cx, tref.binding_name(), JoinKind::Source);
            }
            ts
        }
    }
}

/// Mirror of `plan::build::plan_equi_probe` for UPDATE … FROM and MERGE:
/// finds `target.col = source-expr` candidates among `conjuncts`, reports
/// FC005 when none exist (the planner refuses such statements), and
/// records the probe access verdict on the target table.
pub(crate) fn analyze_equi_probe(
    cx: &mut Ctx<'_>,
    table: &Table,
    binding: &str,
    target: &TSchema,
    source: &TSchema,
    conjuncts: &[Expr],
) {
    let mut cand_cols: Vec<usize> = Vec::new();
    for c in conjuncts {
        let Expr::Binary {
            left,
            op: crate::ast::BinaryOp::Eq,
            right,
        } = c
        else {
            continue;
        };
        for (col_side, val_side) in [(left, right), (right, left)] {
            let Expr::Column { table: t, name } = col_side.as_ref() else {
                continue;
            };
            if target.schema.can_resolve(t.as_deref(), name)
                && !source.schema.can_resolve(t.as_deref(), name)
                && (binds_in(val_side, &source.schema)
                    || crate::exec::eval::is_row_independent(val_side))
            {
                if let Ok(col) = target.schema.resolve(t.as_deref(), name) {
                    if !cand_cols.contains(&col) {
                        cand_cols.push(col);
                    }
                    break;
                }
            }
        }
    }
    if cand_cols.is_empty() {
        if !target.open && !source.open {
            cx.diag(
                Rule::StatementShape,
                "MERGE/UPDATE-FROM requires at least one `target.col = source-expr` equality"
                    .into(),
            );
        }
        return;
    }
    // Longest index prefix over the candidate columns; without one the
    // probe degenerates to a per-source-row scan of the target.
    let mut best: Option<Vec<usize>> = None;
    let mut consider = |cols: &[usize]| {
        let mut n = 0;
        for &c in cols {
            if cand_cols.contains(&c) {
                n += 1;
            } else {
                break;
            }
        }
        if n > 0 && best.as_ref().is_none_or(|b| b.len() < n) {
            best = Some(cols[..n].to_vec());
        }
    };
    if let Some(key_cols) = table.clustered_key_cols() {
        consider(key_cols);
    }
    for idx in &table.indexes {
        consider(&idx.cols);
    }
    match best {
        Some(cols) => {
            let kind = eq_access_kind(table, &cols);
            let names = col_names(table, &cols);
            record(cx, table, binding, kind, JoinKind::Probe, names);
        }
        None => {
            record(
                cx,
                table,
                binding,
                AccessKind::FullScan,
                JoinKind::Probe,
                Vec::new(),
            );
        }
    }
}

/// Refines `combined` by the null-rejecting conjuncts of a DML filter and
/// type-checks every conjunct against it. Returns the refined schema so
/// assignment expressions see the same nullability.
pub(crate) fn refine_and_check(cx: &mut Ctx<'_>, combined: TSchema, conjuncts: &[Expr]) -> TSchema {
    let mut strict = HashSet::new();
    for c in conjuncts {
        strict_cols(&combined, c, &mut strict);
    }
    let mut ts = combined;
    for &i in &strict {
        if let Some(col) = ts.cols.get_mut(i) {
            col.nullable = false;
        }
    }
    for c in conjuncts {
        infer(cx, &ts, c, false);
    }
    ts
}

/// Output column type of a SELECT used as an INSERT source, with `Ty` per
/// column (helper for arity/compat checks in `analyze_insert`).
pub(crate) fn select_output(cx: &mut Ctx<'_>, sel: &Select) -> TSchema {
    analyze_select(cx, sel)
}
