//! # fempath-sql
//!
//! A from-scratch embedded SQL engine over the `fempath-storage` layer.
//!
//! It implements the SQL surface the paper's shortest-path algorithms need —
//! and enough general DDL/DML to be useful on its own:
//!
//! * `CREATE/DROP TABLE/INDEX/VIEW`, `TRUNCATE`, clustered (index-organized)
//!   and secondary indexes, unique constraints;
//! * `SELECT` with joins (index-nested-loop / hash / nested-loop), scalar
//!   and `IN` subqueries, `GROUP BY`/`HAVING`, `ORDER BY`, `TOP`/`LIMIT`,
//!   `DISTINCT`;
//! * **window functions** (`ROW_NUMBER`, `RANK` with
//!   `OVER (PARTITION BY … ORDER BY …)`) — the SQL:2003 feature of §2.2;
//! * **`MERGE`** — the SQL:2008 feature of §2.2 — plus `UPDATE … FROM` as
//!   the traditional-SQL fallback;
//! * **prepared statements with cached physical plans**: `?` positional
//!   parameters, [`Database::prepare`](engine::Database::prepare) /
//!   [`PreparedStmt`] handles, a plan cache keyed by (SQL, catalog
//!   version), and a vectorized batch-at-a-time executor (see [`plan`]);
//! * two [`Dialect`]s mirroring the paper's DBMS-x and PostgreSQL 9.0.
//!
//! Every statement runs on the planned executor. Its tests check it
//! against a naive AST interpreter kept in a crate of its own,
//! `fempath-sql-reference`, which depends on this one and which only this
//! crate's tests use. What the two executors share — name scopes, value
//! semantics, the aggregate and window kernels — lives under [`plan`],
//! and the write-phase coercion on [`Table`].
//!
//! ```
//! use fempath_sql::Database;
//! use fempath_storage::Value;
//!
//! let mut db = Database::in_memory(256);
//! db.execute("CREATE TABLE TEdges (fid INT, tid INT, cost INT)").unwrap();
//! db.execute("CREATE CLUSTERED INDEX idx_e ON TEdges(fid)").unwrap();
//! db.execute("INSERT INTO TEdges VALUES (1, 2, 10), (1, 3, 4), (2, 3, 1)").unwrap();
//! let rs = db
//!     .query_params("SELECT tid, cost FROM TEdges WHERE fid = ?", &[Value::Int(1)])
//!     .unwrap();
//! assert_eq!(rs.len(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod catalog;
pub mod dialect;
pub mod engine;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod plan;
mod pool;

pub use catalog::{AbsentKeys, Catalog, RowLoc, Table, TableBatchCursor, TableSchema, UniqueKey};
pub use dialect::Dialect;
pub use engine::{
    Database, DbSnapshot, ExecOutcome, PreparedStmt, ResultSet, SharedPlanCacheStats,
};
pub use error::{Result, SqlError};
pub use parser::{parse_statement, parse_statements};
