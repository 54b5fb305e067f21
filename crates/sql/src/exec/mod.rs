//! The AST interpreter: the naive reference the planned executor is
//! checked against.
//!
//! Nothing that is served executes here: SELECT and DML run as physical
//! plans ([`crate::plan`]), and DDL, TRUNCATE and EXPLAIN run in the
//! engine. The one way in is
//! [`crate::engine::Database::execute_unplanned`], which the differential
//! tests call. The planner borrows some helpers from here — expression
//! binding and evaluation rules, the aggregate/window rewrites — but no
//! decision about how rows are found.
//!
//! It is a materializing evaluator that plans nothing:
//!
//! * every FROM item is read by a full scan (views and derived tables by
//!   running their query) and the items are joined left to right by
//!   nested loop, each WHERE conjunct applied as soon as the items joined
//!   so far bind it;
//! * UPDATE and DELETE scan their target; `UPDATE … FROM` and MERGE test
//!   every (target, source) pair on the combined row;
//! * uncorrelated subqueries are evaluated once per statement (see
//!   [`eval`]).
//!
//! Because it reads in scan order, its rows match the planned executor's
//! exactly only where SQL fixes the order (ORDER BY, TOP/LIMIT); the
//! differential tests compare other results as multisets.

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
