//! Name scopes: the columns a FROM list exposes, how a `[table.]name`
//! reference resolves among them, and the WHERE-clause and projection
//! shapes the planner (and femcheck's analyzer and the reference
//! interpreter) read off the AST before binding anything.

use crate::ast::{BinaryOp, Expr, Select, SelectItem};
use crate::error::{Result, SqlError};

/// A column visible in an execution schema.
#[derive(Debug, Clone)]
pub struct SchemaCol {
    /// Binding (table alias) the column belongs to, lowercase.
    pub binding: Option<String>,
    /// Column name, original spelling.
    pub name: String,
}

/// The shape of rows flowing through an operator.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    /// The columns, in row order.
    pub cols: Vec<SchemaCol>,
}

impl Schema {
    /// The schema of a row with no columns (`SELECT` without FROM).
    pub fn empty() -> Schema {
        Schema::default()
    }

    /// Schema exposing `table_schema` under `binding`.
    pub fn from_table(binding: &str, table_schema: &crate::catalog::TableSchema) -> Schema {
        Schema {
            cols: table_schema
                .columns
                .iter()
                .map(|c| SchemaCol {
                    binding: Some(binding.to_ascii_lowercase()),
                    name: c.name.clone(),
                })
                .collect(),
        }
    }

    /// Concatenation (for joins).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        Schema { cols }
    }

    /// Resolves `[table.]name`, erroring on unknown or ambiguous references.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize> {
        let table = table.map(|t| t.to_ascii_lowercase());
        let mut found = None;
        for (i, c) in self.cols.iter().enumerate() {
            if !c.name.eq_ignore_ascii_case(name) {
                continue;
            }
            if let Some(t) = &table {
                if c.binding.as_deref() != Some(t.as_str()) {
                    continue;
                }
            }
            if found.is_some() {
                return Err(SqlError::Bind(format!(
                    "ambiguous column reference {}{name}",
                    table.map(|t| format!("{t}.")).unwrap_or_default()
                )));
            }
            found = Some(i);
        }
        found.ok_or_else(|| {
            SqlError::Bind(format!(
                "unknown column {}{name}",
                table.map(|t| format!("{t}.")).unwrap_or_default()
            ))
        })
    }

    /// True when the column reference resolves uniquely here.
    pub fn can_resolve(&self, table: Option<&str>, name: &str) -> bool {
        self.resolve(table, name).is_ok()
    }
}

/// Splits an expression into its top-level AND conjuncts.
pub fn split_conjuncts(expr: &Expr) -> Vec<Expr> {
    match expr {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let mut out = split_conjuncts(left);
            out.extend(split_conjuncts(right));
            out
        }
        other => vec![other.clone()],
    }
}

/// True when every column reference in `expr` resolves in `schema`
/// (subqueries are opaque: they resolve independently, so they're allowed).
pub fn binds_in(expr: &Expr, schema: &Schema) -> bool {
    match expr {
        Expr::Column { table, name } => schema.can_resolve(table.as_deref(), name),
        Expr::Literal(_) | Expr::Param(_) => true,
        Expr::Unary { expr, .. } => binds_in(expr, schema),
        Expr::Binary { left, right, .. } => binds_in(left, schema) && binds_in(right, schema),
        Expr::IsNull { expr, .. } => binds_in(expr, schema),
        Expr::Subquery(_) | Expr::Exists { .. } => true,
        Expr::InSubquery { expr, .. } => binds_in(expr, schema),
        Expr::Aggregate { arg, .. } => arg.as_ref().is_none_or(|a| binds_in(a, schema)),
        Expr::Window {
            partition_by,
            order_by,
            ..
        } => {
            partition_by.iter().all(|e| binds_in(e, schema))
                && order_by.iter().all(|k| binds_in(&k.expr, schema))
        }
    }
}

/// True when `expr` references no columns at all (constant w.r.t. rows).
pub fn is_row_independent(expr: &Expr) -> bool {
    match expr {
        Expr::Column { .. } => false,
        Expr::Literal(_) | Expr::Param(_) => true,
        Expr::Unary { expr, .. } => is_row_independent(expr),
        Expr::Binary { left, right, .. } => is_row_independent(left) && is_row_independent(right),
        Expr::IsNull { expr, .. } => is_row_independent(expr),
        Expr::Subquery(_) | Expr::Exists { .. } => true,
        Expr::InSubquery { expr, .. } => is_row_independent(expr),
        Expr::Aggregate { .. } | Expr::Window { .. } => false,
    }
}

/// A projection item after wildcard expansion.
#[derive(Debug, Clone)]
pub struct OutItem {
    /// Output column name: the alias, the column's name, or `colN`.
    pub name: String,
    /// The projected expression.
    pub expr: Expr,
}

/// Expands `*` / `t.*` and derives output column names.
pub fn expand_items(sel: &Select, schema: &Schema) -> Result<Vec<OutItem>> {
    let mut out = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => {
                if schema.cols.is_empty() {
                    return Err(SqlError::Bind("SELECT * with no FROM clause".into()));
                }
                for c in &schema.cols {
                    out.push(OutItem {
                        name: c.name.clone(),
                        expr: Expr::Column {
                            table: c.binding.clone(),
                            name: c.name.clone(),
                        },
                    });
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                let tl = t.to_ascii_lowercase();
                let mut any = false;
                for c in &schema.cols {
                    if c.binding.as_deref() == Some(tl.as_str()) {
                        any = true;
                        out.push(OutItem {
                            name: c.name.clone(),
                            expr: Expr::Column {
                                table: c.binding.clone(),
                                name: c.name.clone(),
                            },
                        });
                    }
                }
                if !any {
                    return Err(SqlError::Bind(format!("unknown table {t} in {t}.*")));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| match expr {
                    Expr::Column { name, .. } => name.clone(),
                    Expr::Aggregate { func, .. } => func.name().to_ascii_lowercase(),
                    _ => format!("col{}", out.len() + 1),
                });
                out.push(OutItem {
                    name,
                    expr: expr.clone(),
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_resolution() {
        let schema = Schema {
            cols: vec![
                SchemaCol {
                    binding: Some("q".into()),
                    name: "nid".into(),
                },
                SchemaCol {
                    binding: Some("e".into()),
                    name: "nid".into(),
                },
                SchemaCol {
                    binding: Some("e".into()),
                    name: "cost".into(),
                },
            ],
        };
        assert_eq!(schema.resolve(Some("q"), "nid").unwrap(), 0);
        assert_eq!(schema.resolve(Some("E"), "NID").unwrap(), 1);
        assert_eq!(schema.resolve(None, "cost").unwrap(), 2);
        assert!(schema.resolve(None, "nid").is_err(), "ambiguous");
        assert!(schema.resolve(None, "zzz").is_err(), "unknown");
    }

    #[test]
    fn split_conjuncts_flattens_ands() {
        let stmt =
            crate::parser::parse_statement("SELECT 1 WHERE a = 1 AND b = 2 AND (c = 3 OR d = 4)")
                .unwrap();
        let filter = match stmt {
            crate::ast::Stmt::Select(s) => s.filter.unwrap(),
            _ => panic!(),
        };
        assert_eq!(split_conjuncts(&filter).len(), 3);
    }
}
