//! The comparison rule the differential harnesses share.
//!
//! The reference (`fempath_sql_reference::execute_unplanned`) reads every table in
//! scan order, while the planned executor reads an index lookup in key
//! order. So results compare the way SQL defines them: in order when the
//! statement is a SELECT with ORDER BY or TOP/LIMIT, as multisets
//! otherwise.

use fempath_sql::ast::Stmt;
use fempath_sql::parse_statement;
use fempath_storage::Value;

/// Asserts that the result rows of `sql` on the planned path and on the
/// reference agree under the rule above.
pub fn assert_rows_agree(sql: &str, planned: &[Vec<Value>], reference: &[Vec<Value>]) {
    if order_is_defined(sql) {
        assert_eq!(planned, reference, "result rows diverged for: {sql}");
    } else {
        assert_eq!(
            sorted(planned),
            sorted(reference),
            "result rows diverged (as multisets) for: {sql}"
        );
    }
}

/// True unless `sql` is a SELECT whose row order SQL leaves unspecified.
fn order_is_defined(sql: &str) -> bool {
    match parse_statement(sql) {
        Ok(Stmt::Select(sel)) => {
            !sel.order_by.is_empty() || sel.top.is_some() || sel.limit.is_some()
        }
        _ => true,
    }
}

fn sorted(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut rows = rows.to_vec();
    rows.sort();
    rows
}
