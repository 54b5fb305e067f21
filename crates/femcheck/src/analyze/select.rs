//! Type analysis of SELECT pipelines: every FROM item resolves to a typed
//! schema, the schemas concatenate in FROM order, and the WHERE clause,
//! projection, HAVING and ORDER BY are checked against the result after
//! null-rejection refinement. How each table is read is not decided here:
//! those verdicts are read off the compiled plan
//! (`fempath_sql::plan::table_accesses`).

use super::typeck::{infer, strict_cols, ColTy, TSchema};
use super::{Ctx, Rule};
use fempath_sql::ast::{Expr, Select, TableRef};
use fempath_sql::plan::scope::{expand_items, split_conjuncts};
use std::collections::HashSet;

/// Analyzes a SELECT, returning the typed schema of its output columns.
pub(crate) fn analyze_select(cx: &mut Ctx<'_>, sel: &Select) -> TSchema {
    let conjuncts: Vec<Expr> = sel.filter.as_ref().map(split_conjuncts).unwrap_or_default();
    let mut combined = TSchema::default();
    for tref in &sel.from {
        combined = combined.concat(&resolve_source(cx, tref));
    }

    // Type-check the full WHERE clause against the refined schema.
    let ts = refine_and_check(cx, combined, &conjuncts);
    let grouped = !sel.group_by.is_empty();
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

/// The typed schema a FROM item or DML source (UPDATE … FROM, MERGE
/// USING) contributes: a base table's columns, or the output of a view or
/// derived table, analyzed recursively.
pub(crate) fn resolve_source(cx: &mut Ctx<'_>, tref: &TableRef) -> TSchema {
    match tref {
        TableRef::Named { name, alias } => {
            let binding = alias.as_deref().unwrap_or(name);
            if let Ok(table) = cx.catalog.table(name) {
                return TSchema::from_table(binding, table);
            }
            if let Some(view) = cx.catalog.view(name) {
                let view = view.clone();
                return analyze_select(cx, &view).rebind(binding);
            }
            cx.diag(Rule::UnknownTable, format!("no such table or view {name}"));
            TSchema::open()
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
            out.rebind(alias)
        }
    }
}

/// Refines `combined` by the null-rejecting conjuncts of a filter and
/// type-checks every conjunct against it. Returns the refined schema so
/// later expressions see the same nullability.
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
