//! The SELECT pipeline: FROM/WHERE → GROUP BY | window → HAVING → ORDER BY
//! → projection → DISTINCT → TOP/LIMIT.

use super::eval::{bind_expr, eval, BExpr, ExecCtx};
use super::Relation;
use fempath_sql::ast::{Expr, Select};
use fempath_sql::plan::scope::{expand_items, Schema, SchemaCol};
use fempath_sql::plan::value::{truthy, HashKey};
use fempath_sql::Result;
use fempath_storage::Value;
use std::collections::HashSet;

/// Executes a SELECT, returning a relation whose schema carries the output
/// column names (bindings cleared).
pub fn execute_select(ctx: &mut ExecCtx<'_>, sel: &Select) -> Result<Relation> {
    // FROM + WHERE.
    let mut rel = super::from::build_from(ctx, &sel.from, sel.filter.as_ref())?;

    let mut items = expand_items(sel, &rel.schema)?;

    // Grouping / aggregation.
    let needs_agg = !sel.group_by.is_empty()
        || items.iter().any(|i| i.expr.contains_aggregate())
        || sel.having.as_ref().is_some_and(|h| h.contains_aggregate());
    let mut having = sel.having.clone();
    let mut order_by = sel.order_by.clone();
    if needs_agg {
        let (new_rel, new_items, new_having, new_order) =
            super::agg::run_group_by(ctx, rel, sel, items, having, order_by)?;
        rel = new_rel;
        items = new_items;
        having = new_having;
        order_by = new_order;
    } else if items.iter().any(|i| i.expr.contains_window()) {
        let (new_rel, new_items) = super::window::run_windows(ctx, rel, items)?;
        rel = new_rel;
        items = new_items;
    }

    // HAVING (post-aggregation filter).
    if let Some(h) = having {
        let pred = bind_expr(ctx, &rel.schema, &h)?;
        let mut rows = Vec::with_capacity(rel.rows.len());
        for row in rel.rows {
            if truthy(&eval(&pred, &row)?) {
                rows.push(row);
            }
        }
        rel.rows = rows;
    }

    // ORDER BY: keys may reference output aliases or input columns.
    if !order_by.is_empty() {
        let mut key_exprs: Vec<(BExpr, bool)> = Vec::with_capacity(order_by.len());
        for k in &order_by {
            let target = match &k.expr {
                Expr::Column { table: None, name } => items
                    .iter()
                    .find(|i| i.name.eq_ignore_ascii_case(name))
                    .map(|i| i.expr.clone())
                    .unwrap_or_else(|| k.expr.clone()),
                other => other.clone(),
            };
            key_exprs.push((bind_expr(ctx, &rel.schema, &target)?, k.asc));
        }
        let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(rel.rows.len());
        for row in rel.rows {
            let mut keys = Vec::with_capacity(key_exprs.len());
            for (e, _) in &key_exprs {
                keys.push(eval(e, &row)?);
            }
            keyed.push((keys, row));
        }
        keyed.sort_by(|(a, _), (b, _)| {
            for (i, (_, asc)) in key_exprs.iter().enumerate() {
                let ord = a[i].total_cmp(&b[i]);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        rel.rows = keyed.into_iter().map(|(_, r)| r).collect();
    }

    // TOP / LIMIT cap (applied after projection, but a zero cap
    // short-circuits *before* it: no row the cap excludes should have its
    // projection evaluated — `SELECT TOP 0 1/0 …` returns empty instead
    // of erroring, matching the streaming executor's early exit).
    let cap = match (sel.top, sel.limit) {
        (Some(t), Some(l)) => Some(t.min(l)),
        (Some(t), None) => Some(t),
        (None, Some(l)) => Some(l),
        (None, None) => None,
    };
    if cap == Some(0) {
        rel.rows.clear();
    }

    // Projection.
    let proj: Vec<BExpr> = items
        .iter()
        .map(|i| bind_expr(ctx, &rel.schema, &i.expr))
        .collect::<Result<_>>()?;
    let mut rows = Vec::with_capacity(rel.rows.len());
    for row in &rel.rows {
        let mut out = Vec::with_capacity(proj.len());
        for p in &proj {
            out.push(eval(p, row)?);
        }
        rows.push(out);
    }

    // DISTINCT.
    if sel.distinct {
        let mut seen = HashSet::new();
        rows.retain(|r| seen.insert(HashKey::from_values(r)));
    }

    // TOP / LIMIT.
    if let Some(cap) = cap {
        rows.truncate(cap as usize);
    }

    Ok(Relation {
        schema: Schema {
            cols: items
                .into_iter()
                .map(|i| SchemaCol {
                    binding: None,
                    name: i.name,
                })
                .collect(),
        },
        rows,
    })
}
