//! Window-function execution (`ROW_NUMBER`, `RANK` over partitions): the
//! partition and order keys are evaluated row by row here, and the
//! numbering is the engine's (`fempath_sql::plan::window`).

use super::eval::{bind_expr, eval, BExpr, ExecCtx};
use super::Relation;
use fempath_sql::plan::scope::{OutItem, SchemaCol};
use fempath_sql::plan::window::{collect_windows, rewrite, window_values};
use fempath_sql::Result;
use fempath_storage::Value;

/// Computes every window column, appends them to the relation under the
/// `#win` binding, and rewrites the projection items to reference them.
pub fn run_windows(
    ctx: &mut ExecCtx<'_>,
    mut rel: Relation,
    items: Vec<OutItem>,
) -> Result<(Relation, Vec<OutItem>)> {
    let mut specs = Vec::new();
    for item in &items {
        collect_windows(&item.expr, &mut specs);
    }

    let n = rel.rows.len();
    for (si, spec) in specs.iter().enumerate() {
        let part: Vec<BExpr> = spec
            .partition_by
            .iter()
            .map(|e| bind_expr(ctx, &rel.schema, e))
            .collect::<Result<_>>()?;
        let order: Vec<(BExpr, bool)> = spec
            .order_by
            .iter()
            .map(|k| Ok((bind_expr(ctx, &rel.schema, &k.expr)?, k.asc)))
            .collect::<Result<_>>()?;

        // (partition values, order values, original index), computed here;
        // the sorting/numbering itself is shared with the plan executor.
        let mut keyed: Vec<(Vec<Value>, Vec<Value>, usize)> = Vec::with_capacity(n);
        for (i, row) in rel.rows.iter().enumerate() {
            let mut pvals = Vec::with_capacity(part.len());
            for p in &part {
                pvals.push(eval(p, row)?);
            }
            let mut ovals = Vec::with_capacity(order.len());
            for (o, _) in &order {
                ovals.push(eval(o, row)?);
            }
            keyed.push((pvals, ovals, i));
        }
        let dirs: Vec<bool> = order.iter().map(|(_, asc)| *asc).collect();
        let values = window_values(keyed, &dirs, spec.func);

        rel.schema.cols.push(SchemaCol {
            binding: Some("#win".into()),
            name: format!("w{si}"),
        });
        for (row, v) in rel.rows.iter_mut().zip(values) {
            row.push(v);
        }
    }

    let new_items = items
        .into_iter()
        .map(|i| {
            Ok(OutItem {
                name: i.name,
                expr: rewrite(&i.expr, &specs)?,
            })
        })
        .collect::<Result<_>>()?;
    Ok((rel, new_items))
}
