//! The AST interpreter.
//!
//! Nothing that is served executes here: SELECT and DML run as physical
//! plans ([`crate::plan`]). This module is reached as the DDL fallback, as
//! the decision helpers the planner shares (access-path choice, join-pair
//! detection, the aggregate/window rewrites), and — through
//! [`crate::engine::Database::execute_unplanned`] — as the independent
//! reference the differential tests compare the planned executor against.
//!
//! It is a materializing interpreter with a small heuristic planner
//! folded in:
//!
//! * single-table predicates are pushed into the table access path and, when
//!   they are equalities on the leading columns of an index (clustered or
//!   secondary), turned into index lookups;
//! * joins pick index-nested-loop when the inner table has a usable index on
//!   the join columns (this is what makes the paper's E-operator an index
//!   range scan per frontier node), hash join otherwise, nested loop as the
//!   last resort;
//! * uncorrelated subqueries are evaluated once per statement (see
//!   [`eval`]).

pub mod agg;
pub mod dml;
pub mod eval;
pub mod from;
pub mod select;
pub mod window;

use eval::Schema;
use fempath_storage::Value;

/// A materialized intermediate or final result.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    pub schema: Schema,
    pub rows: Vec<Vec<Value>>,
}

impl Relation {
    /// Re-labels every column with `binding` (used when a derived table or
    /// view gets an alias).
    pub fn rebind(mut self, binding: &str) -> Relation {
        let b = Some(binding.to_ascii_lowercase());
        for c in &mut self.schema.cols {
            c.binding = b.clone();
        }
        self
    }
}
