//! The physical planner: AST → [`PlanKind`].
//!
//! Planning decides, **once** per statement, which access path serves each
//! table reference, which join strategy connects each pair of relations
//! and which conjunct is consumed where, producing pre-bound [`PExpr`]s
//! with fixed column offsets. Equalities are found by
//! `find_const_equalities` / `find_join_pairs` and served on the
//! prefix [`Table::longest_prefix`] picks; each index access records the
//! [`ProbePath`] that serves it, which the executor follows. The reference
//! interpreter (the `fempath-sql-reference` crate) makes none of these
//! decisions — it scans and nested-loops — so the differential tests
//! check them against an independent answer.

use super::agg::{collect_aggs, rewrite as agg_rewrite};
use super::scope::{
    binds_in, expand_items, is_row_independent, split_conjuncts, OutItem, Schema, SchemaCol,
};
use super::window::{collect_windows, rewrite as win_rewrite, WinSpec};
use super::{
    mark_pexpr_cols, AggPlan, DeletePlan, FromPlan, InputPlan, InsertPlan, InsertSourcePlan,
    JoinPlan, MergePlan, PExpr, PlanKind, ProbePlan, ReadCols, RightPlan, SelectPlan, SourcePlan,
    SubPlan, TargetPlan, UpdateKind, UpdatePlan, WindowPlan,
};
use crate::ast::{
    AggFunc, BinaryOp, Delete, Expr, Insert, InsertSource, Merge, OrderKey, Select, SelectItem,
    Stmt, TableRef, Update,
};
use crate::catalog::{Catalog, ProbePath, Table, UpdateMode};
use crate::error::{Result, SqlError};
use fempath_storage::DataType;

/// Plans one statement against the current catalog.
pub(crate) fn build_plan(catalog: &Catalog, stmt: &Stmt) -> Result<PlanKind> {
    Ok(match stmt {
        Stmt::Select(sel) => PlanKind::Select(plan_select(catalog, sel)?),
        Stmt::Insert(ins) => PlanKind::Insert(plan_insert(catalog, ins)?),
        Stmt::Update(upd) => PlanKind::Update(plan_update(catalog, upd)?),
        Stmt::Delete(del) => PlanKind::Delete(plan_delete(catalog, del)?),
        Stmt::Merge(m) => PlanKind::Merge(plan_merge(catalog, m)?),
        other => PlanKind::Ddl(other.clone()),
    })
}

/// Expression binder for one statement plan: resolves columns against a
/// schema, leaves `?` parameters as slots, and compiles subqueries into
/// [`SubPlan`]s evaluated once per execution.
struct Binder<'a> {
    catalog: &'a Catalog,
    subplans: Vec<SubPlan>,
}

impl<'a> Binder<'a> {
    fn new(catalog: &'a Catalog) -> Binder<'a> {
        Binder {
            catalog,
            subplans: Vec::new(),
        }
    }

    fn bind(&mut self, schema: &Schema, expr: &Expr) -> Result<PExpr> {
        Ok(match expr {
            Expr::Literal(v) => PExpr::Const(v.clone()),
            Expr::Param(i) => PExpr::Param(*i),
            Expr::Column { table, name } => PExpr::Col(schema.resolve(table.as_deref(), name)?),
            Expr::Unary { op, expr } => PExpr::Unary {
                op: *op,
                e: Box::new(self.bind(schema, expr)?),
            },
            Expr::Binary { left, op, right } => PExpr::Binary {
                l: Box::new(self.bind(schema, left)?),
                op: *op,
                r: Box::new(self.bind(schema, right)?),
            },
            Expr::IsNull { expr, negated } => PExpr::IsNull {
                e: Box::new(self.bind(schema, expr)?),
                negated: *negated,
            },
            Expr::Subquery(q) => {
                let sub = plan_select(self.catalog, q)?;
                self.subplans.push(SubPlan::Scalar(sub));
                PExpr::Sub(self.subplans.len() - 1)
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                let sub = plan_select(self.catalog, query)?;
                self.subplans.push(SubPlan::List(sub));
                PExpr::InSub {
                    e: Box::new(self.bind(schema, expr)?),
                    sub: self.subplans.len() - 1,
                    negated: *negated,
                }
            }
            Expr::Exists { query, negated } => {
                let sub = plan_select(self.catalog, query)?;
                self.subplans.push(SubPlan::Exists(sub));
                PExpr::ExistsSub {
                    sub: self.subplans.len() - 1,
                    negated: *negated,
                }
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

/// Index-usable equality: `col = <row-independent expr>` over one binding.
struct EqPred {
    col: usize,
    value_expr: Expr,
    /// Position in the conjunct list (for consumption).
    conjunct_idx: usize,
}

/// Finds equalities `schema-col = constant-ish` among conjuncts that bind
/// entirely in `schema`.
fn find_const_equalities(schema: &Schema, conjuncts: &[Expr]) -> Vec<EqPred> {
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

/// An equi-join pair: left-side expression = right-side column.
struct JoinPair {
    left_expr: Expr,
    right_col: usize,
    conjunct_idx: usize,
}

/// Finds `left-expr = right-col` equalities across the two schemas.
fn find_join_pairs(left: &Schema, right: &Schema, conjuncts: &[Expr]) -> Vec<JoinPair> {
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

/// Plans a full SELECT (recursively used for subqueries, derived tables
/// and views).
pub(crate) fn plan_select(catalog: &Catalog, sel: &Select) -> Result<SelectPlan> {
    let mut b = Binder::new(catalog);

    // FROM + WHERE: the streaming pipeline.
    let mut conjuncts: Vec<Expr> = sel.filter.as_ref().map(split_conjuncts).unwrap_or_default();
    let (source, mut schema) = if sel.from.is_empty() {
        (
            SourcePlan {
                input: InputPlan::Nothing,
                filter: Vec::new(),
            },
            Schema::empty(),
        )
    } else {
        plan_base(&mut b, &sel.from[0], &mut conjuncts)?
    };
    // Width of each FROM relation, in pipeline order (for `project_from`).
    let mut widths = vec![schema.cols.len()];
    let mut joins = Vec::new();
    for tref in sel.from.get(1..).unwrap_or(&[]) {
        let (jp, combined) = plan_join(&mut b, &schema, tref, &mut conjuncts)?;
        joins.push(jp);
        widths.push(combined.cols.len() - schema.cols.len());
        schema = combined;
    }
    let residual: Vec<PExpr> = conjuncts
        .iter()
        .map(|c| b.bind(&schema, c))
        .collect::<Result<_>>()?;
    let from = FromPlan {
        source,
        joins,
        residual,
    };

    // Post-pipeline stages, in SQL's order: GROUP BY | window → HAVING →
    // ORDER BY → projection → DISTINCT → TOP/LIMIT.
    let mut items: Vec<OutItem> = expand_items(sel, &schema)?;
    let needs_agg = !sel.group_by.is_empty()
        || items.iter().any(|i| i.expr.contains_aggregate())
        || sel.having.as_ref().is_some_and(|h| h.contains_aggregate());

    let mut agg = None;
    let mut windows: Vec<WindowPlan> = Vec::new();
    let mut having_ast = sel.having.clone();
    let mut post_schema = schema;
    // Rewrite context for ORDER BY keys in the aggregate case: the GROUP
    // BY expressions plus the collected aggregate specs.
    type AggRewrite = (Vec<Expr>, Vec<(AggFunc, Option<Expr>)>);
    let mut agg_rw: Option<AggRewrite> = None;

    if needs_agg {
        if items.iter().any(|i| i.expr.contains_window()) {
            return Err(SqlError::Bind(
                "window functions cannot be combined with GROUP BY/aggregates".into(),
            ));
        }
        let group: Vec<PExpr> = sel
            .group_by
            .iter()
            .map(|g| b.bind(&post_schema, g))
            .collect::<Result<_>>()?;
        let mut agg_specs: Vec<(AggFunc, Option<Expr>)> = Vec::new();
        for item in &items {
            collect_aggs(&item.expr, &mut agg_specs);
        }
        if let Some(h) = &having_ast {
            collect_aggs(h, &mut agg_specs);
        }
        for k in &sel.order_by {
            collect_aggs(&k.expr, &mut agg_specs);
        }
        let aggs: Vec<(AggFunc, Option<PExpr>)> = agg_specs
            .iter()
            .map(|(f, arg)| {
                Ok((
                    *f,
                    arg.as_ref().map(|a| b.bind(&post_schema, a)).transpose()?,
                ))
            })
            .collect::<Result<_>>()?;
        items = items
            .into_iter()
            .map(|i| {
                Ok(OutItem {
                    name: i.name,
                    expr: agg_rewrite(&i.expr, &sel.group_by, &agg_specs)?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        having_ast = having_ast
            .map(|h| agg_rewrite(&h, &sel.group_by, &agg_specs))
            .transpose()?;
        let mut cols = Vec::new();
        for i in 0..group.len() {
            cols.push(SchemaCol {
                binding: Some("#agg".into()),
                name: format!("g{i}"),
            });
        }
        for j in 0..agg_specs.len() {
            cols.push(SchemaCol {
                binding: Some("#agg".into()),
                name: format!("a{j}"),
            });
        }
        post_schema = Schema { cols };
        agg = Some(AggPlan { group, aggs });
        agg_rw = Some((sel.group_by.clone(), agg_specs));
    } else if items.iter().any(|i| i.expr.contains_window()) {
        let mut specs: Vec<WinSpec> = Vec::new();
        for item in &items {
            collect_windows(&item.expr, &mut specs);
        }
        // Each spec binds against the schema extended by the previous
        // specs' output columns, exactly as `run_windows` does.
        for (si, spec) in specs.iter().enumerate() {
            windows.push(WindowPlan {
                func: spec.func,
                partition: spec
                    .partition_by
                    .iter()
                    .map(|e| b.bind(&post_schema, e))
                    .collect::<Result<_>>()?,
                order: spec
                    .order_by
                    .iter()
                    .map(|k| Ok((b.bind(&post_schema, &k.expr)?, k.asc)))
                    .collect::<Result<_>>()?,
            });
            post_schema.cols.push(SchemaCol {
                binding: Some("#win".into()),
                name: format!("w{si}"),
            });
        }
        items = items
            .into_iter()
            .map(|i| {
                Ok(OutItem {
                    name: i.name,
                    expr: win_rewrite(&i.expr, &specs)?,
                })
            })
            .collect::<Result<_>>()?;
    }

    let having = having_ast
        .as_ref()
        .map(|h| b.bind(&post_schema, h))
        .transpose()?;

    // ORDER BY: keys may reference output aliases or input columns.
    let order_by: Vec<(PExpr, bool)> = sel
        .order_by
        .iter()
        .map(|k: &OrderKey| {
            let alias_target = match &k.expr {
                Expr::Column { table: None, name } => items
                    .iter()
                    .find(|i| i.name.eq_ignore_ascii_case(name))
                    .map(|i| i.expr.clone()),
                _ => None,
            };
            let target = match alias_target {
                Some(t) => t,
                None => match &agg_rw {
                    Some((gb, specs)) => agg_rewrite(&k.expr, gb, specs)?,
                    None => k.expr.clone(),
                },
            };
            Ok((b.bind(&post_schema, &target)?, k.asc))
        })
        .collect::<Result<_>>()?;

    let items_p: Vec<PExpr> = items
        .iter()
        .map(|i| b.bind(&post_schema, &i.expr))
        .collect::<Result<_>>()?;
    let out_names = items.into_iter().map(|i| i.name).collect();
    let cap = match (sel.top, sel.limit) {
        (Some(t), Some(l)) => Some(t.min(l)),
        (Some(t), None) => Some(t),
        (None, Some(l)) => Some(l),
        (None, None) => None,
    };

    let mut plan = SelectPlan {
        from,
        agg,
        windows,
        having,
        order_by,
        items: items_p,
        out_names,
        distinct: sel.distinct,
        cap,
        subplans: b.subplans,
    };
    project_from(catalog, &mut plan, &widths)?;
    Ok(plan)
}

/// Narrows every base-table access of `plan`'s FROM pipeline to the
/// columns the statement reads: pushed filters, join keys and residuals,
/// aggregate/window inputs and — when no aggregate re-shapes the rows —
/// HAVING, the select list and the ORDER BY keys. `widths` gives each
/// FROM relation's column count in pipeline order; access paths are
/// planned reading every column until this narrows them.
fn project_from(catalog: &Catalog, plan: &mut SelectPlan, widths: &[usize]) -> Result<()> {
    let mut used = vec![false; widths.iter().sum()];
    let mut offset = widths[0];
    for p in &plan.from.source.filter {
        mark_pexpr_cols(p, &mut used);
    }
    for (j, w) in plan.from.joins.iter().zip(&widths[1..]) {
        match j {
            JoinPlan::IndexLoop { keys, residual, .. } => {
                keys.iter()
                    .chain(residual)
                    .for_each(|e| mark_pexpr_cols(e, &mut used));
            }
            JoinPlan::Hash {
                left_keys,
                right_cols,
                residual,
                ..
            } => {
                left_keys
                    .iter()
                    .chain(residual)
                    .for_each(|e| mark_pexpr_cols(e, &mut used));
                for &c in right_cols {
                    used[offset + c] = true;
                }
            }
            JoinPlan::Loop { residual, .. } => {
                residual.iter().for_each(|e| mark_pexpr_cols(e, &mut used));
            }
        }
        offset += w;
    }
    for p in &plan.from.residual {
        mark_pexpr_cols(p, &mut used);
    }
    match &plan.agg {
        Some(agg) => {
            let args = agg.aggs.iter().filter_map(|(_, a)| a.as_ref());
            agg.group
                .iter()
                .chain(args)
                .for_each(|e| mark_pexpr_cols(e, &mut used));
        }
        // Without an aggregate the post-stages bind against the FROM
        // schema (plus window columns, which lie past `used`).
        None => {
            for w in &plan.windows {
                let order = w.order.iter().map(|(e, _)| e);
                w.partition
                    .iter()
                    .chain(order)
                    .for_each(|e| mark_pexpr_cols(e, &mut used));
            }
            let order = plan.order_by.iter().map(|(e, _)| e);
            plan.having
                .iter()
                .chain(&plan.items)
                .chain(order)
                .for_each(|e| mark_pexpr_cols(e, &mut used));
        }
    }

    let read_cols = |table: &str, range: std::ops::Range<usize>| -> Result<ReadCols> {
        Ok(ReadCols::of(&catalog.table(table)?.schema, &used[range]))
    };
    if let InputPlan::Scan { table, read, .. } | InputPlan::Lookup { table, read, .. } =
        &mut plan.from.source.input
    {
        *read = read_cols(table, 0..widths[0])?;
    }
    let mut offset = widths[0];
    for (j, w) in plan.from.joins.iter_mut().zip(&widths[1..]) {
        match j {
            JoinPlan::IndexLoop { table, read, .. }
            | JoinPlan::Hash {
                right: RightPlan::Table { name: table, read },
                ..
            }
            | JoinPlan::Loop {
                right: RightPlan::Table { name: table, read },
                ..
            } => *read = read_cols(table, offset..offset + w)?,
            JoinPlan::Hash { .. } | JoinPlan::Loop { .. } => {}
        }
        offset += w;
    }
    Ok(())
}

/// Binds and removes the conjuncts fully resolvable in `schema` (the
/// pushed-down filters of a materialized source).
fn consume_single_rel_filters(
    b: &mut Binder<'_>,
    schema: &Schema,
    conjuncts: &mut Vec<Expr>,
) -> Result<Vec<PExpr>> {
    let mine_idx: Vec<usize> = conjuncts
        .iter()
        .enumerate()
        .filter(|(_, c)| binds_in(c, schema))
        .map(|(i, _)| i)
        .collect();
    let filter: Vec<PExpr> = mine_idx
        .iter()
        .map(|&i| b.bind(schema, &conjuncts[i]))
        .collect::<Result<_>>()?;
    remove_conjuncts(conjuncts, &mine_idx);
    Ok(filter)
}

/// Plans the first FROM item: chooses the access path for a base table,
/// or compiles a view/derived table into a materialized sub-plan.
fn plan_base(
    b: &mut Binder<'_>,
    tref: &TableRef,
    conjuncts: &mut Vec<Expr>,
) -> Result<(SourcePlan, Schema)> {
    match tref {
        TableRef::Named { name, alias } => {
            let binding = alias.as_deref().unwrap_or(name).to_string();
            if b.catalog.has_table(name) {
                return plan_scan_table(b, name, &binding, conjuncts);
            }
            if let Some(view) = b.catalog.view(name) {
                let view = view.clone();
                let sub = plan_select(b.catalog, &view)?;
                let schema = sub.out_schema(&binding);
                let filter = consume_single_rel_filters(b, &schema, conjuncts)?;
                return Ok((
                    SourcePlan {
                        input: InputPlan::Derived(Box::new(sub)),
                        filter,
                    },
                    schema,
                ));
            }
            Err(SqlError::Catalog(format!("no such table or view {name}")))
        }
        TableRef::Derived {
            query,
            alias,
            columns,
        } => {
            let sub = plan_select(b.catalog, query)?;
            let mut schema = sub.out_schema(alias);
            if let Some(cols) = columns {
                if cols.len() != schema.cols.len() {
                    return Err(SqlError::Bind(format!(
                        "derived table {alias} lists {} columns but query returns {}",
                        cols.len(),
                        schema.cols.len()
                    )));
                }
                for (c, name) in schema.cols.iter_mut().zip(cols) {
                    c.name = name.clone();
                }
            }
            let filter = consume_single_rel_filters(b, &schema, conjuncts)?;
            Ok((
                SourcePlan {
                    input: InputPlan::Derived(Box::new(sub)),
                    filter,
                },
                schema,
            ))
        }
    }
}

/// Chooses the access path for one base table, consuming its pushable
/// conjuncts.
fn plan_scan_table(
    b: &mut Binder<'_>,
    name: &str,
    binding: &str,
    conjuncts: &mut Vec<Expr>,
) -> Result<(SourcePlan, Schema)> {
    let table = b.catalog.table(name)?;
    let schema = Schema::from_table(binding, &table.schema);
    let mine_idx: Vec<usize> = conjuncts
        .iter()
        .enumerate()
        .filter(|(_, c)| binds_in(c, &schema))
        .map(|(i, _)| i)
        .collect();
    let mine: Vec<Expr> = mine_idx.iter().map(|&i| conjuncts[i].clone()).collect();
    let eqs = find_const_equalities(&schema, &mine);
    let eq_cols: Vec<usize> = eqs.iter().map(|e| e.col).collect();
    let (input, filter) = match table.longest_prefix(&eq_cols) {
        Some(picks) => {
            let cols: Vec<usize> = picks.iter().map(|&p| eq_cols[p]).collect();
            let consumed_local: Vec<usize> = picks.iter().map(|&p| eqs[p].conjunct_idx).collect();
            let keys: Vec<PExpr> = picks
                .iter()
                .map(|&p| b.bind(&Schema::empty(), &eqs[p].value_expr))
                .collect::<Result<_>>()?;
            let filter: Vec<PExpr> = mine
                .iter()
                .enumerate()
                .filter(|(i, _)| !consumed_local.contains(i))
                .map(|(_, c)| b.bind(&schema, c))
                .collect::<Result<_>>()?;
            (
                InputPlan::Lookup {
                    table: name.to_string(),
                    binding: binding.to_string(),
                    path: table.probe_path(&cols),
                    cols,
                    keys,
                    read: ReadCols::all(&table.schema),
                },
                filter,
            )
        }
        None => {
            let filter: Vec<PExpr> = mine
                .iter()
                .map(|c| b.bind(&schema, c))
                .collect::<Result<_>>()?;
            (
                InputPlan::Scan {
                    table: name.to_string(),
                    binding: binding.to_string(),
                    read: ReadCols::all(&table.schema),
                },
                filter,
            )
        }
    };
    remove_conjuncts(conjuncts, &mine_idx);
    Ok((SourcePlan { input, filter }, schema))
}

/// Plans one join stage: index nested loop
/// when the inner table has a usable index on the join columns, hash join
/// otherwise, nested loop as the last resort.
fn plan_join(
    b: &mut Binder<'_>,
    left: &Schema,
    tref: &TableRef,
    conjuncts: &mut Vec<Expr>,
) -> Result<(JoinPlan, Schema)> {
    match tref {
        TableRef::Named { name, alias } => {
            let binding = alias.as_deref().unwrap_or(name).to_string();
            if b.catalog.has_table(name) {
                let table = b.catalog.table(name)?;
                let right_schema = Schema::from_table(&binding, &table.schema);
                let pairs = find_join_pairs(left, &right_schema, conjuncts);
                let pair_cols: Vec<usize> = pairs.iter().map(|p| p.right_col).collect();

                // Index nested loop on the longest index prefix the join
                // columns cover.
                if let Some(picks) = table.longest_prefix(&pair_cols) {
                    let path_cols: Vec<usize> = picks.iter().map(|&p| pair_cols[p]).collect();
                    let keys: Vec<PExpr> = picks
                        .iter()
                        .map(|&p| b.bind(left, &pairs[p].left_expr))
                        .collect::<Result<_>>()?;
                    let combined = left.concat(&right_schema);
                    let consumed: Vec<usize> =
                        picks.iter().map(|&p| pairs[p].conjunct_idx).collect();
                    let residual_idx: Vec<usize> = conjuncts
                        .iter()
                        .enumerate()
                        .filter(|(i, c)| !consumed.contains(i) && binds_in(c, &combined))
                        .map(|(i, _)| i)
                        .collect();
                    let residual: Vec<PExpr> = residual_idx
                        .iter()
                        .map(|&i| b.bind(&combined, &conjuncts[i]))
                        .collect::<Result<_>>()?;
                    let mut all_consumed = consumed;
                    all_consumed.extend(&residual_idx);
                    remove_conjuncts(conjuncts, &all_consumed);
                    return Ok((
                        JoinPlan::IndexLoop {
                            table: name.clone(),
                            binding,
                            path: table.probe_path(&path_cols),
                            path_cols,
                            keys,
                            residual,
                            read: ReadCols::all(&table.schema),
                        },
                        combined,
                    ));
                }
                return plan_join_mat(
                    b,
                    left,
                    RightPlan::Table {
                        name: name.clone(),
                        read: ReadCols::all(&table.schema),
                    },
                    right_schema,
                    conjuncts,
                );
            }
            if let Some(view) = b.catalog.view(name) {
                let view = view.clone();
                let sub = plan_select(b.catalog, &view)?;
                let right_schema = sub.out_schema(&binding);
                return plan_join_mat(
                    b,
                    left,
                    RightPlan::Derived(Box::new(sub)),
                    right_schema,
                    conjuncts,
                );
            }
            Err(SqlError::Catalog(format!("no such table or view {name}")))
        }
        TableRef::Derived {
            query,
            alias,
            columns,
        } => {
            let sub = plan_select(b.catalog, query)?;
            let mut right_schema = sub.out_schema(alias);
            if let Some(cols) = columns {
                if cols.len() != right_schema.cols.len() {
                    return Err(SqlError::Bind(format!(
                        "derived table {alias} lists {} columns but query returns {}",
                        cols.len(),
                        right_schema.cols.len()
                    )));
                }
                for (c, name) in right_schema.cols.iter_mut().zip(cols) {
                    c.name = name.clone();
                }
            }
            plan_join_mat(
                b,
                left,
                RightPlan::Derived(Box::new(sub)),
                right_schema,
                conjuncts,
            )
        }
    }
}

/// Hash join (on equi-pairs) or nested loop over a materialized right
/// side.
fn plan_join_mat(
    b: &mut Binder<'_>,
    left: &Schema,
    right: RightPlan,
    right_schema: Schema,
    conjuncts: &mut Vec<Expr>,
) -> Result<(JoinPlan, Schema)> {
    let pairs = find_join_pairs(left, &right_schema, conjuncts);
    let combined = left.concat(&right_schema);
    let residual_idx: Vec<usize> = conjuncts
        .iter()
        .enumerate()
        .filter(|(i, c)| !pairs.iter().any(|p| p.conjunct_idx == *i) && binds_in(c, &combined))
        .map(|(i, _)| i)
        .collect();
    let residual: Vec<PExpr> = residual_idx
        .iter()
        .map(|&i| b.bind(&combined, &conjuncts[i]))
        .collect::<Result<_>>()?;
    let jp = if pairs.is_empty() {
        JoinPlan::Loop { right, residual }
    } else {
        let left_keys: Vec<PExpr> = pairs
            .iter()
            .map(|p| b.bind(left, &p.left_expr))
            .collect::<Result<_>>()?;
        let right_cols: Vec<usize> = pairs.iter().map(|p| p.right_col).collect();
        JoinPlan::Hash {
            right,
            left_keys,
            right_cols,
            residual,
        }
    };
    let mut consumed: Vec<usize> = pairs.iter().map(|p| p.conjunct_idx).collect();
    consumed.extend(&residual_idx);
    remove_conjuncts(conjuncts, &consumed);
    Ok((jp, combined))
}

/// Plans a table reference used as a DML source: no access-path
/// selection, the source is materialized per execution.
fn plan_source_ref(b: &mut Binder<'_>, tref: &TableRef) -> Result<(SourcePlan, Schema)> {
    match tref {
        TableRef::Named { name, alias } => {
            let binding = alias.as_deref().unwrap_or(name);
            if b.catalog.has_table(name) {
                let table = b.catalog.table(name)?;
                let schema = Schema::from_table(binding, &table.schema);
                Ok((
                    SourcePlan {
                        input: InputPlan::Scan {
                            table: name.clone(),
                            binding: binding.to_string(),
                            read: ReadCols::all(&table.schema),
                        },
                        filter: Vec::new(),
                    },
                    schema,
                ))
            } else if let Some(view) = b.catalog.view(name) {
                let view = view.clone();
                let sub = plan_select(b.catalog, &view)?;
                let schema = sub.out_schema(binding);
                Ok((
                    SourcePlan {
                        input: InputPlan::Derived(Box::new(sub)),
                        filter: Vec::new(),
                    },
                    schema,
                ))
            } else {
                Err(SqlError::Catalog(format!("no such table or view {name}")))
            }
        }
        TableRef::Derived {
            query,
            alias,
            columns,
        } => {
            let sub = plan_select(b.catalog, query)?;
            let mut schema = sub.out_schema(alias);
            if let Some(cols) = columns {
                if cols.len() != schema.cols.len() {
                    return Err(SqlError::Bind(format!(
                        "derived table {alias} lists {} columns but query returns {}",
                        cols.len(),
                        schema.cols.len()
                    )));
                }
                for (c, name) in schema.cols.iter_mut().zip(cols) {
                    c.name = name.clone();
                }
            }
            Ok((
                SourcePlan {
                    input: InputPlan::Derived(Box::new(sub)),
                    filter: Vec::new(),
                },
                schema,
            ))
        }
    }
}

/// From join conjuncts, extracts equalities `target.col = <source expr>`
/// usable to probe the target.
/// Returns (probe columns, probe key expressions over the source row,
/// residual predicates over the combined row).
#[allow(clippy::type_complexity)]
fn plan_equi_probe(
    b: &mut Binder<'_>,
    target_table: &str,
    target: &Schema,
    source: &Schema,
    combined: &Schema,
    conjuncts: &[Expr],
) -> Result<(Vec<usize>, Vec<PExpr>, Vec<PExpr>)> {
    let mut cands: Vec<(usize, &Expr)> = Vec::new();
    let mut cand_conjunct: Vec<usize> = Vec::new();
    let mut residual_ast: Vec<&Expr> = Vec::new();
    for (ci, c) in conjuncts.iter().enumerate() {
        let mut used = false;
        if let Expr::Binary {
            left,
            op: crate::ast::BinaryOp::Eq,
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

    // Prefer the longest index prefix covered by the candidates; without
    // one, every candidate probes together (a filtered scan).
    let cand_cols: Vec<usize> = cands.iter().map(|(c, _)| *c).collect();
    let chosen = b
        .catalog
        .table(target_table)?
        .longest_prefix(&cand_cols)
        .unwrap_or_else(|| (0..cands.len()).collect());

    let mut probe_cols = Vec::with_capacity(chosen.len());
    let mut probe_keys = Vec::with_capacity(chosen.len());
    for &i in &chosen {
        probe_cols.push(cands[i].0);
        probe_keys.push(b.bind(source, cands[i].1)?);
    }
    let mut residual = Vec::new();
    for (i, &ci) in cand_conjunct.iter().enumerate() {
        if !chosen.contains(&i) {
            residual.push(b.bind(combined, &conjuncts[ci])?);
        }
    }
    for c in residual_ast {
        residual.push(b.bind(combined, c)?);
    }
    Ok((probe_cols, probe_keys, residual))
}

/// Plans how a plain UPDATE/DELETE finds its rows, with the access-path
/// choice a SELECT over the same WHERE clause gets
/// ([`plan_scan_table`]): an equality on an indexed prefix becomes an
/// index probe with the other conjuncts as residual filters, otherwise
/// the table is scanned. [`finish_target`] fixes which columns are read.
fn plan_dml_target(
    b: &mut Binder<'_>,
    table: &str,
    binding: &str,
    filter: Option<&Expr>,
) -> Result<SourcePlan> {
    let mut conjuncts: Vec<Expr> = filter.map(split_conjuncts).unwrap_or_default();
    let (target, schema) = plan_scan_table(b, table, binding, &mut conjuncts)?;
    // A conjunct left over names something outside the target: binding it
    // reports which.
    for c in &conjuncts {
        b.bind(&schema, c)?;
    }
    Ok(target)
}

/// Fixes the columns a DML target access reads: the filter's, plus the
/// `need`ed ones the write phase consumes — or, with `need` absent
/// (the write phase rewrites whole rows), every column for a lookup,
/// while a scan reads just its predicate and re-reads its matches whole.
fn finish_target(table: &Table, mut access: SourcePlan, need: Option<Vec<bool>>) -> TargetPlan {
    let whole_rows = need.is_none();
    let mut used = need.unwrap_or_else(|| vec![false; table.schema.columns.len()]);
    for p in &access.filter {
        mark_pexpr_cols(p, &mut used);
    }
    match &mut access.input {
        InputPlan::Scan { read, .. } => *read = ReadCols::of(&table.schema, &used),
        InputPlan::Lookup { read, .. } => {
            if !whole_rows {
                *read = ReadCols::of(&table.schema, &used);
            }
        }
        InputPlan::Nothing | InputPlan::Derived(_) => {
            unreachable!("DML targets are planned as base-table accesses")
        }
    }
    TargetPlan { access, whole_rows }
}

/// The target columns (`offset < width`) that `exprs`, bound over a
/// target-then-source row, read — or `None` (every column) when the write
/// phase rewrites whole rows.
fn target_reads<'e>(
    table: &Table,
    mode: UpdateMode,
    exprs: impl IntoIterator<Item = &'e PExpr>,
) -> ReadCols {
    if mode == UpdateMode::Rewrite {
        return ReadCols::all(&table.schema);
    }
    let mut used = vec![false; table.schema.columns.len()];
    for e in exprs {
        mark_pexpr_cols(e, &mut used);
    }
    ReadCols::of(&table.schema, &used)
}

/// The source columns (`offset >= target_width`) that `exprs` read.
fn source_reads<'e>(
    target_width: usize,
    source_width: usize,
    exprs: impl IntoIterator<Item = &'e PExpr>,
) -> Vec<bool> {
    let mut used = vec![false; target_width + source_width];
    for e in exprs {
        mark_pexpr_cols(e, &mut used);
    }
    used.split_off(target_width)
}

/// Plans an UPDATE (plain or `UPDATE … FROM`).
fn plan_update(catalog: &Catalog, upd: &Update) -> Result<UpdatePlan> {
    let mut b = Binder::new(catalog);
    let binding = upd.alias.as_deref().unwrap_or(&upd.table);
    let table = catalog.table(&upd.table)?;
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
    let mode = table.update_mode(&assign_cols);

    let kind = match &upd.from {
        None => {
            let access = plan_dml_target(&mut b, &upd.table, binding, upd.filter.as_ref())?;
            let assigns: Vec<PExpr> = upd
                .assignments
                .iter()
                .map(|(_, e)| b.bind(&tschema, e))
                .collect::<Result<_>>()?;
            let need = (mode == UpdateMode::InPlace).then(|| {
                let mut used = vec![false; tschema.cols.len()];
                for a in &assigns {
                    mark_pexpr_cols(a, &mut used);
                }
                used
            });
            UpdateKind::Plain {
                target: finish_target(table, access, need),
                assigns,
            }
        }
        Some(source_ref) => {
            let mut conjuncts: Vec<Expr> =
                upd.filter.as_ref().map(split_conjuncts).unwrap_or_default();
            let (mut source, source_schema) = plan_source_ref(&mut b, source_ref)?;
            // Consume source-only conjuncts as pre-probe source filters.
            let mine_idx: Vec<usize> = conjuncts
                .iter()
                .enumerate()
                .filter(|(_, c)| binds_in(c, &source_schema) && !binds_in(c, &tschema))
                .map(|(i, _)| i)
                .collect();
            source.filter = mine_idx
                .iter()
                .map(|&i| b.bind(&source_schema, &conjuncts[i]))
                .collect::<Result<_>>()?;
            remove_conjuncts(&mut conjuncts, &mine_idx);

            let combined = tschema.concat(&source_schema);
            let (probe_cols, probe_keys, residual) = plan_equi_probe(
                &mut b,
                &upd.table,
                &tschema,
                &source_schema,
                &combined,
                &conjuncts,
            )?;
            let target_width = tschema.cols.len();
            let (target_residual, mixed_residual): (Vec<PExpr>, Vec<PExpr>) = residual
                .into_iter()
                .partition(|p| super::max_pexpr_col(p).is_none_or(|c| c < target_width));
            let assigns: Vec<PExpr> = upd
                .assignments
                .iter()
                .map(|(_, e)| b.bind(&combined, e))
                .collect::<Result<_>>()?;
            let row_exprs = || {
                target_residual
                    .iter()
                    .chain(&mixed_residual)
                    .chain(&assigns)
            };
            let probe = ProbePlan {
                path: table.probe_path(&probe_cols),
                cols: probe_cols,
                keys: probe_keys,
                read: target_reads(table, mode, row_exprs()),
                source_read: source_reads(target_width, source_schema.cols.len(), row_exprs()),
            };
            UpdateKind::From {
                source,
                probe,
                target_residual,
                mixed_residual,
                assigns,
            }
        }
    };
    Ok(UpdatePlan {
        table: upd.table.clone(),
        assign_cols,
        kind,
        mode,
        subplans: b.subplans,
    })
}

/// Plans a DELETE.
fn plan_delete(catalog: &Catalog, del: &Delete) -> Result<DeletePlan> {
    let mut b = Binder::new(catalog);
    let access = plan_dml_target(&mut b, &del.table, &del.table, del.filter.as_ref())?;
    let table = catalog.table(&del.table)?;
    Ok(DeletePlan {
        table: del.table.clone(),
        target: finish_target(table, access, Some(table.indexed_cols())),
        subplans: b.subplans,
    })
}

/// Plans an INSERT (literal rows or `INSERT … SELECT`).
fn plan_insert(catalog: &Catalog, ins: &Insert) -> Result<InsertPlan> {
    let mut b = Binder::new(catalog);
    let source = match &ins.source {
        InsertSource::Values(rows) => {
            let empty = Schema::empty();
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let vals: Vec<PExpr> = row
                    .iter()
                    .map(|e| b.bind(&empty, e))
                    .collect::<Result<_>>()?;
                out.push(vals);
            }
            InsertSourcePlan::Values(out)
        }
        InsertSource::Query(q) => InsertSourcePlan::Query(Box::new(plan_select(catalog, q)?)),
    };
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
    Ok(InsertPlan {
        table: ins.table.clone(),
        col_positions,
        source,
        subplans: b.subplans,
    })
}

/// Plans a MERGE.
fn plan_merge(catalog: &Catalog, m: &Merge) -> Result<MergePlan> {
    let mut b = Binder::new(catalog);
    let target_binding = m.target_alias.as_deref().unwrap_or(&m.target);
    let (source, source_schema) = plan_source_ref(&mut b, &m.source)?;
    let table = catalog.table(&m.target)?;
    let tschema = Schema::from_table(target_binding, &table.schema);
    let combined = tschema.concat(&source_schema);

    let on_conjuncts = split_conjuncts(&m.on);
    let (probe_cols, probe_keys, residual) = plan_equi_probe(
        &mut b,
        &m.target,
        &tschema,
        &source_schema,
        &combined,
        &on_conjuncts,
    )?;

    let matched = m
        .when_matched
        .as_ref()
        .map(|wm| {
            let cond = wm
                .condition
                .as_ref()
                .map(|c| b.bind(&combined, c))
                .transpose()?;
            let cols: Vec<usize> =
                wm.assignments
                    .iter()
                    .map(|(name, _)| {
                        table.schema.col_index(name).ok_or_else(|| {
                            SqlError::Bind(format!("no column {name} in {}", m.target))
                        })
                    })
                    .collect::<Result<_>>()?;
            let exprs: Vec<PExpr> = wm
                .assignments
                .iter()
                .map(|(_, e)| b.bind(&combined, e))
                .collect::<Result<_>>()?;
            Ok::<_, SqlError>((cond, cols, exprs))
        })
        .transpose()?;

    let not_matched = m
        .when_not_matched
        .as_ref()
        .map(|wi| {
            let cols: Vec<usize> =
                wi.columns
                    .iter()
                    .map(|name| {
                        table.schema.col_index(name).ok_or_else(|| {
                            SqlError::Bind(format!("no column {name} in {}", m.target))
                        })
                    })
                    .collect::<Result<_>>()?;
            let exprs: Vec<PExpr> = wi
                .values
                .iter()
                .map(|e| b.bind(&source_schema, e))
                .collect::<Result<_>>()?;
            if cols.len() != exprs.len() {
                return Err(SqlError::Eval(
                    "MERGE INSERT column/value count mismatch".into(),
                ));
            }
            Ok::<_, SqlError>((cols, exprs))
        })
        .transpose()?;

    let (matched_cols, matched_exprs): (&[usize], Vec<&PExpr>) = match &matched {
        Some((cond, cols, exprs)) => (cols, cond.iter().chain(exprs).collect()),
        None => (&[], Vec::new()),
    };
    let mode = table.update_mode(matched_cols);
    let row_exprs = || residual.iter().chain(matched_exprs.iter().copied());
    let path = table.probe_path(&probe_cols);
    // A full-key probe of a unique index on INT columns, whose key
    // expressions are also what NOT MATCHED inserts into those columns:
    // an unmatched source row's key was just shown to be absent. That
    // holds only while "unmatched" means "no probe hit" (no ON residual
    // can reject a hit) and WHEN MATCHED cannot write a probed key.
    let hit_is_match = residual.is_empty() && mode == UpdateMode::InPlace;
    let insert_keys_probed = match (path, &not_matched) {
        (ProbePath::Secondary { index, point: true }, Some((cols, exprs))) if hit_is_match => {
            probe_cols
                .iter()
                .zip(&probe_keys)
                .all(|(pc, pk)| {
                    table.schema.columns[*pc].dtype == DataType::Int
                        && cols.iter().zip(exprs).any(|(c, e)| c == pc && e == pk)
                })
                .then_some(index)
        }
        _ => None,
    };
    let probe = ProbePlan {
        path,
        read: target_reads(table, mode, row_exprs()),
        source_read: source_reads(tschema.cols.len(), source_schema.cols.len(), row_exprs()),
        cols: probe_cols,
        keys: probe_keys,
    };

    Ok(MergePlan {
        target: m.target.clone(),
        source,
        probe,
        residual,
        matched,
        mode,
        not_matched,
        insert_keys_probed,
        subplans: b.subplans,
    })
}

/// Number of `?` parameters a statement expects (the highest ordinal + 1),
/// walking nested selects and subqueries.
pub(crate) fn count_params(stmt: &Stmt) -> usize {
    fn expr(e: &Expr, max: &mut usize) {
        match e {
            Expr::Param(i) => *max = (*max).max(i + 1),
            Expr::Literal(_) | Expr::Column { .. } => {}
            Expr::Unary { expr: e, .. } | Expr::IsNull { expr: e, .. } => expr(e, max),
            Expr::Binary { left, right, .. } => {
                expr(left, max);
                expr(right, max);
            }
            Expr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    expr(a, max);
                }
            }
            Expr::Window {
                partition_by,
                order_by,
                ..
            } => {
                for e in partition_by {
                    expr(e, max);
                }
                for k in order_by {
                    expr(&k.expr, max);
                }
            }
            Expr::Subquery(q) => select(q, max),
            Expr::InSubquery { expr: e, query, .. } => {
                expr(e, max);
                select(query, max);
            }
            Expr::Exists { query, .. } => select(query, max),
        }
    }
    fn tref(t: &TableRef, max: &mut usize) {
        if let TableRef::Derived { query, .. } = t {
            select(query, max);
        }
    }
    fn select(s: &Select, max: &mut usize) {
        for item in &s.items {
            if let SelectItem::Expr { expr: e, .. } = item {
                expr(e, max);
            }
        }
        for t in &s.from {
            tref(t, max);
        }
        if let Some(f) = &s.filter {
            expr(f, max);
        }
        for g in &s.group_by {
            expr(g, max);
        }
        if let Some(h) = &s.having {
            expr(h, max);
        }
        for k in &s.order_by {
            expr(&k.expr, max);
        }
    }
    let mut max = 0;
    match stmt {
        Stmt::Select(s) => select(s, &mut max),
        Stmt::Insert(i) => {
            match &i.source {
                InsertSource::Values(rows) => {
                    for row in rows {
                        for e in row {
                            expr(e, &mut max);
                        }
                    }
                }
                InsertSource::Query(q) => select(q, &mut max),
            };
        }
        Stmt::Update(u) => {
            for (_, e) in &u.assignments {
                expr(e, &mut max);
            }
            if let Some(f) = &u.from {
                tref(f, &mut max);
            }
            if let Some(f) = &u.filter {
                expr(f, &mut max);
            }
        }
        Stmt::Delete(d) => {
            if let Some(f) = &d.filter {
                expr(f, &mut max);
            }
        }
        Stmt::Merge(m) => {
            tref(&m.source, &mut max);
            expr(&m.on, &mut max);
            if let Some(wm) = &m.when_matched {
                if let Some(c) = &wm.condition {
                    expr(c, &mut max);
                }
                for (_, e) in &wm.assignments {
                    expr(e, &mut max);
                }
            }
            if let Some(wi) = &m.when_not_matched {
                for e in &wi.values {
                    expr(e, &mut max);
                }
            }
        }
        Stmt::Explain(inner) => max = count_params(inner),
        _ => {}
    }
    max
}
