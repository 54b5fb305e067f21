//! The interpreter: parse, then run SELECT and DML over whole
//! materialized relations, row by row.

mod agg;
mod dml;
mod eval;
mod from;
mod select;
mod window;

use eval::ExecCtx;
use fempath_sql::ast::Stmt;
use fempath_sql::plan::scope::Schema;
use fempath_sql::{parse_statement, Database, ExecOutcome, Result, ResultSet, SqlError};
use fempath_storage::Value;

/// A materialized intermediate or final result.
#[derive(Debug, Clone, Default)]
pub(crate) struct Relation {
    /// Column names and bindings.
    pub schema: Schema,
    /// The rows, in the order the interpreter produced them.
    pub rows: Vec<Vec<Value>>,
}

impl Relation {
    /// Re-labels every column with `binding` (used when a derived table or
    /// view gets an alias).
    pub(crate) fn rebind(mut self, binding: &str) -> Relation {
        let b = Some(binding.to_ascii_lowercase());
        for c in &mut self.schema.cols {
            c.binding = b.clone();
        }
        self
    }
}

/// Parses a statement and executes it on `db` through the interpreter —
/// no physical plan, no plan cache. SELECT and DML run here; MERGE is
/// refused, as the engine refuses it, under a dialect without it; every
/// other statement (DDL, TRUNCATE, EXPLAIN) goes to
/// [`Database::execute_params`].
pub fn execute_unplanned(db: &mut Database, sql: &str, params: &[Value]) -> Result<ExecOutcome> {
    let stmt = parse_statement(sql)?;
    let dialect = db.dialect();
    if matches!(stmt, Stmt::Merge(_)) && !dialect.supports_merge {
        return Err(SqlError::UnsupportedByDialect {
            feature: "MERGE statement".into(),
            dialect: dialect.name.to_string(),
        });
    }
    let no_rows = |n: u64| ExecOutcome {
        rows_affected: n,
        rows: None,
    };
    let (pool, catalog) = db.pool_and_catalog_mut();
    match &stmt {
        Stmt::Select(sel) => {
            let mut ctx = ExecCtx {
                pool,
                catalog,
                params,
            };
            let rel = select::execute_select(&mut ctx, sel)?;
            Ok(ExecOutcome {
                rows_affected: 0,
                rows: Some(ResultSet {
                    columns: rel.schema.cols.iter().map(|c| c.name.clone()).collect(),
                    rows: rel.rows,
                }),
            })
        }
        Stmt::Insert(ins) => Ok(no_rows(dml::execute_insert(pool, catalog, params, ins)?)),
        Stmt::Update(upd) => Ok(no_rows(dml::execute_update(pool, catalog, params, upd)?)),
        Stmt::Delete(del) => Ok(no_rows(dml::execute_delete(pool, catalog, params, del)?)),
        Stmt::Merge(m) => Ok(no_rows(dml::execute_merge(pool, catalog, params, m)?)),
        _ => db.execute_params(sql, params),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fempath_sql::Dialect;

    #[test]
    fn merge_is_refused_under_a_dialect_without_it() {
        let merge = "MERGE INTO t AS tgt USING (SELECT 1 AS k) AS s ON tgt.k = s.k \
                     WHEN NOT MATCHED THEN INSERT (k) VALUES (s.k)";
        let mut db = Database::in_memory(64).with_dialect(Dialect::POSTGRES);
        db.execute("CREATE TABLE t (k INT)").unwrap();
        let engine = db.execute(merge).unwrap_err();
        let reference = execute_unplanned(&mut db, merge, &[]).unwrap_err();
        assert!(
            matches!(reference, SqlError::UnsupportedByDialect { .. }),
            "{reference}"
        );
        assert_eq!(reference.to_string(), engine.to_string());

        let mut db = Database::in_memory(64).with_dialect(Dialect::DBMS_X);
        db.execute("CREATE TABLE t (k INT)").unwrap();
        let out = execute_unplanned(&mut db, merge, &[]).unwrap();
        assert_eq!(out.rows_affected, 1);
    }
}
