//! GROUP BY / aggregate execution.
//!
//! The input relation is folded into one row per group: group-key columns
//! first, aggregate results after. Projection/HAVING expressions are then
//! rewritten to reference those slots through the synthetic `#agg` binding
//! (`fempath_sql::plan::agg`, the planner's rewrite).

use super::eval::{bind_expr, eval, BExpr, ExecCtx};
use super::Relation;
use fempath_sql::ast::{AggFunc, Expr, OrderKey, Select};
use fempath_sql::plan::agg::{collect_aggs, rewrite, AggState};
use fempath_sql::plan::scope::{OutItem, Schema, SchemaCol};
use fempath_sql::plan::value::HashKey;
use fempath_sql::{Result, SqlError};
use fempath_storage::Value;
use std::collections::HashMap;

/// Output of [`run_group_by`]: the grouped relation plus the rewritten
/// projection items, HAVING clause and ORDER BY keys, all of which now
/// reference the grouped schema.
pub type GroupByOutput = (Relation, Vec<OutItem>, Option<Expr>, Vec<OrderKey>);

/// Runs grouping + aggregation.
pub fn run_group_by(
    ctx: &mut ExecCtx<'_>,
    rel: Relation,
    sel: &Select,
    items: Vec<OutItem>,
    having: Option<Expr>,
    order_by: Vec<OrderKey>,
) -> Result<GroupByOutput> {
    // Window functions may not be mixed with aggregation in this engine.
    if items.iter().any(|i| i.expr.contains_window()) {
        return Err(SqlError::Bind(
            "window functions cannot be combined with GROUP BY/aggregates".into(),
        ));
    }

    let group_bexprs: Vec<BExpr> = sel
        .group_by
        .iter()
        .map(|g| bind_expr(ctx, &rel.schema, g))
        .collect::<Result<_>>()?;

    let mut agg_specs: Vec<(AggFunc, Option<Expr>)> = Vec::new();
    for item in &items {
        collect_aggs(&item.expr, &mut agg_specs);
    }
    if let Some(h) = &having {
        collect_aggs(h, &mut agg_specs);
    }
    for k in &order_by {
        collect_aggs(&k.expr, &mut agg_specs);
    }
    let agg_args: Vec<Option<BExpr>> = agg_specs
        .iter()
        .map(|(_, arg)| {
            arg.as_ref()
                .map(|a| bind_expr(ctx, &rel.schema, a))
                .transpose()
        })
        .collect::<Result<_>>()?;

    // Group rows (insertion-ordered for deterministic output). The common
    // single-integer group key (e.g. the batched-FEM per-qid statistics)
    // hashes the integer directly instead of allocating an encoded key.
    let mut order: Vec<HashKey> = Vec::new();
    let mut groups: HashMap<HashKey, (Vec<Value>, Vec<AggState>)> = HashMap::new();
    for row in &rel.rows {
        let mut key_vals = Vec::with_capacity(group_bexprs.len());
        for g in &group_bexprs {
            key_vals.push(eval(g, row)?);
        }
        let key = HashKey::from_values(&key_vals);
        let entry = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            (
                key_vals,
                agg_specs.iter().map(|(f, _)| AggState::new(*f)).collect(),
            )
        });
        for (state, arg) in entry.1.iter_mut().zip(&agg_args) {
            let v = match arg {
                Some(a) => Some(eval(a, row)?),
                None => None,
            };
            state.update(v)?;
        }
    }
    // Scalar aggregate over an empty input still yields one row.
    if groups.is_empty() && sel.group_by.is_empty() {
        let key = HashKey::Bytes(Vec::new());
        order.push(key.clone());
        groups.insert(
            key,
            (
                Vec::new(),
                agg_specs.iter().map(|(f, _)| AggState::new(*f)).collect(),
            ),
        );
    }

    // Output relation under the synthetic `#agg` binding.
    let mut cols = Vec::new();
    for i in 0..group_bexprs.len() {
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
    let mut rows = Vec::with_capacity(order.len());
    for key in order {
        let (mut key_vals, states) = groups.remove(&key).ok_or_else(|| {
            SqlError::Eval("group key vanished between collection and output".into())
        })?;
        for s in states {
            key_vals.push(s.finish());
        }
        rows.push(key_vals);
    }

    let new_items = items
        .into_iter()
        .map(|i| {
            Ok(OutItem {
                name: i.name,
                expr: rewrite(&i.expr, &sel.group_by, &agg_specs)?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let new_having = having
        .map(|h| rewrite(&h, &sel.group_by, &agg_specs))
        .transpose()?;
    // ORDER BY keys that reference output aliases stay as-is (resolved
    // against the items later); everything else goes through the rewrite.
    let new_order: Vec<OrderKey> = order_by
        .into_iter()
        .map(|k| {
            let is_alias_ref = matches!(
                &k.expr,
                Expr::Column { table: None, name }
                    if new_items.iter().any(|i| i.name.eq_ignore_ascii_case(name))
            );
            if is_alias_ref {
                Ok(k)
            } else {
                Ok(OrderKey {
                    expr: rewrite(&k.expr, &sel.group_by, &agg_specs)?,
                    asc: k.asc,
                })
            }
        })
        .collect::<Result<_>>()?;

    Ok((
        Relation {
            schema: Schema { cols },
            rows,
        },
        new_items,
        new_having,
        new_order,
    ))
}
