//! SQL engine errors.

use fempath_storage::StorageError;
use std::fmt;

/// Errors raised while parsing, planning or executing SQL.
#[derive(Debug)]
pub enum SqlError {
    /// Lexical or syntactic error, with a 1-based character position.
    Parse { message: String, position: usize },
    /// Semantic error found while binding names (unknown table/column, ...).
    Bind(String),
    /// Runtime evaluation error (type mismatch, division by zero, ...).
    Eval(String),
    /// Catalog-level error (duplicate table, unknown index, ...).
    Catalog(String),
    /// Uniqueness violation on insert.
    DuplicateKey { table: String, key: String },
    /// Statement uses a feature the configured dialect lacks (e.g. MERGE on
    /// the PostgreSQL 9.0 dialect — §5.2 of the paper).
    UnsupportedByDialect { feature: String, dialect: String },
    /// Wrong number of parameters supplied to a prepared statement.
    ParamCount { expected: usize, got: usize },
    /// Error from the storage layer.
    Storage(StorageError),
    /// A search ran past its deadline; it returns no partial answer.
    Timeout,
    /// A search was stopped through its cancel flag; it returns no
    /// partial answer.
    Cancelled,
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse { message, position } => {
                write!(f, "parse error at position {position}: {message}")
            }
            SqlError::Bind(m) => write!(f, "bind error: {m}"),
            SqlError::Eval(m) => write!(f, "evaluation error: {m}"),
            SqlError::Catalog(m) => write!(f, "catalog error: {m}"),
            SqlError::DuplicateKey { table, key } => {
                write!(f, "duplicate key {key} in table {table}")
            }
            SqlError::UnsupportedByDialect { feature, dialect } => {
                write!(f, "{feature} is not supported by dialect {dialect}")
            }
            SqlError::ParamCount { expected, got } => {
                write!(f, "statement expects {expected} parameters, got {got}")
            }
            SqlError::Storage(e) => write!(f, "storage error: {e}"),
            SqlError::Timeout => write!(f, "search exceeded its deadline"),
            SqlError::Cancelled => write!(f, "search cancelled"),
        }
    }
}

impl std::error::Error for SqlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SqlError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for SqlError {
    fn from(e: StorageError) -> Self {
        SqlError::Storage(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SqlError>;
