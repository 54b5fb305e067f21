//! `femcheck` layer 1: static semantic analysis of SQL statements
//! (DESIGN.md §15).
//!
//! Given a parsed statement and a catalog snapshot, the analyzer
//!
//! 1. resolves every table and column reference (rules FC001/FC002),
//! 2. type-checks expressions against the executor's Int/Float/Text/
//!    NULL rules (FC003/FC004) and validates statement shape — arity,
//!    scalar-subquery columns, and whatever else the planner refuses
//!    (FC005/FC006),
//! 3. flags three-valued-logic pitfalls: `NOT IN` over a nullable
//!    subquery column (FC101) and comparisons with an always-NULL operand
//!    (FC102),
//! 4. emits a plan-shape verdict per table access — index point lookup,
//!    index range scan, or full scan, with the join strategy — read off
//!    the plan `prepare` compiles for the statement, the plan that runs
//!    (`fempath_sql::plan::table_accesses`), and fails statements
//!    annotated hot-path that full-scan an indexed table (FC201).
//!
//! Nothing here executes: no buffer pool, no rows, no parameters. The
//! analyzer sees exactly what the planner sees at prepare time, which is
//! what makes it usable as a test-time gate over the generated-SQL corpus
//! that `GraphDb::for_each_corpus_statement` in `fempath-core` walks
//! (`tests/analyze_corpus.rs`).
//!
//! The crate is a tool for tests: no library crate of the workspace
//! depends on it, so the served library neither compiles nor exports it.

#![forbid(unsafe_code)]

mod analyze;

pub use analyze::{
    analyze, analyze_hot_path, analyze_sql, AnalyzeOptions, Diagnostic, Report, Rule, Severity,
};
