//! # fempath-sql-reference
//!
//! The AST interpreter: the naive reference `fempath-sql`'s planned
//! executor is checked against.
//!
//! Nothing that is served executes here: in `fempath-sql`, SELECT and DML
//! run as physical plans, and DDL, TRUNCATE and EXPLAIN run in the
//! engine. This crate depends on `fempath-sql`, which lists it only as a
//! dev-dependency, so no build of the library links it. The one way in is
//! [`execute_unplanned`], which the differential tests call. It shares the
//! engine's value semantics (`fempath_sql::plan::value`), aggregate and
//! window kernels, name scopes and write-phase coercion, but makes no
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
//! * uncorrelated subqueries are evaluated once per statement, when
//!   their expression is bound.
//!
//! Because it reads in scan order, its rows match the planned executor's
//! exactly only where SQL fixes the order (ORDER BY, TOP/LIMIT); the
//! differential tests compare other results as multisets.

#![forbid(unsafe_code)]

mod exec;

pub use exec::execute_unplanned;
