//! EXPLAIN output: the plan it prints is the plan that runs — the lines of
//! `PreparedStmt::describe()` for the same statement, then the cardinality
//! the executor actually produced — and that plan makes the access-path
//! choices the paper's performance arguments rely on (clustered-index
//! E-operator joins, index point lookups, hash-join fallback).

use fempath_sql::Database;
use fempath_storage::Value;

/// EXPLAIN's lines, checked to be `describe()` of the prepared statement
/// plus one trailing `RESULT` line carrying the executed row count.
fn plan_of(db: &mut Database, sql: &str) -> Vec<String> {
    let rs = db.query(&format!("EXPLAIN {sql}")).unwrap();
    assert_eq!(*rs.columns, ["plan"]);
    let lines: Vec<String> = rs
        .rows
        .into_iter()
        .map(|r| r[0].as_str().unwrap().to_string())
        .collect();
    let mut expected = db.prepare(sql).unwrap().describe();
    expected.push(format!("RESULT {} row(s)", db.query(sql).unwrap().len()));
    assert_eq!(
        lines, expected,
        "EXPLAIN diverged from describe() for: {sql}"
    );
    lines
}

fn setup() -> Database {
    let mut db = Database::in_memory(256);
    db.execute("CREATE TABLE TVisited (nid INT, d2s INT, f INT, PRIMARY KEY(nid))")
        .unwrap();
    db.execute("CREATE TABLE TEdges (fid INT, tid INT, cost INT)")
        .unwrap();
    db.execute("CREATE CLUSTERED INDEX ix_e ON TEdges(fid)")
        .unwrap();
    for u in 0..200i64 {
        db.execute_params(
            "INSERT INTO TEdges VALUES (?, ?, 1)",
            &[Value::Int(u), Value::Int((u + 1) % 200)],
        )
        .unwrap();
        db.execute_params(
            "INSERT INTO TVisited VALUES (?, ?, ?)",
            &[
                Value::Int(u),
                Value::Int(u),
                Value::Int(i64::from(u < 5) * 2),
            ],
        )
        .unwrap();
    }
    db
}

#[test]
fn point_lookup_uses_index() {
    let mut db = setup();
    let plan = plan_of(&mut db, "SELECT d2s FROM TVisited WHERE nid = 7");
    assert!(
        plan.iter().any(|l| l
            == "SCAN TVisited (TVisited) via index lookup on columns [0], cols=[d2s], \
                    by unique key of index #0"),
        "expected index lookup, got {plan:?}"
    );
}

#[test]
fn full_scan_without_usable_predicate() {
    let mut db = setup();
    let plan = plan_of(&mut db, "SELECT nid FROM TVisited WHERE d2s > 100");
    assert!(
        plan.iter()
            .any(|l| l == "SCAN TVisited (TVisited) full scan, 1 pushed filter(s), cols=[nid,d2s]"),
        "expected a full scan, got {plan:?}"
    );
}

#[test]
fn e_operator_join_is_index_nested_loop() {
    // The paper's central performance mechanism: the frontier joins TEdges
    // through the clustered index on fid.
    let mut db = setup();
    let plan = plan_of(
        &mut db,
        "SELECT e.tid FROM TVisited q, TEdges e WHERE q.nid = e.fid AND q.f = 2",
    );
    assert!(
        plan.iter().any(|l| l
            == "INDEX NESTED LOOP JOIN TEdges (e) probing index columns [0], cols=[tid], \
                    by clustered-key prefix"),
        "expected INL join into TEdges, got {plan:?}"
    );
}

#[test]
fn join_without_index_hashes() {
    let mut db = setup();
    db.execute("CREATE TABLE plain (x INT)").unwrap();
    db.execute("INSERT INTO plain VALUES (1), (2)").unwrap();
    let plan = plan_of(
        &mut db,
        "SELECT p.x FROM TVisited v, plain p WHERE v.d2s = p.x",
    );
    assert!(
        plan.iter().any(|l| l == "HASH JOIN on 1 column(s)"),
        "expected hash join, got {plan:?}"
    );
}

#[test]
fn cross_join_reports_nested_loop() {
    let mut db = setup();
    db.execute("CREATE TABLE a (x INT)").unwrap();
    db.execute("CREATE TABLE b (y INT)").unwrap();
    db.execute("INSERT INTO a VALUES (1)").unwrap();
    db.execute("INSERT INTO b VALUES (2)").unwrap();
    let plan = plan_of(&mut db, "SELECT x, y FROM a, b");
    assert!(
        plan.iter().any(|l| l == "NESTED LOOP JOIN"),
        "expected nested loop, got {plan:?}"
    );
}

#[test]
fn explain_reports_result_cardinality() {
    let mut db = setup();
    let plan = plan_of(&mut db, "SELECT nid FROM TVisited WHERE f = 2");
    assert!(
        plan.last().unwrap().contains("RESULT 5 row(s)"),
        "got {plan:?}"
    );
}

#[test]
fn explain_binds_parameters_and_subqueries() {
    let mut db = setup();
    let rs = db
        .query_params(
            "EXPLAIN SELECT nid FROM TVisited \
             WHERE d2s < ? AND nid IN (SELECT tid FROM TEdges WHERE fid < 10)",
            &[Value::Int(4)],
        )
        .unwrap();
    let lines: Vec<&str> = rs.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
    assert!(lines.contains(&"  SUBQUERY #0 (IN-list)"), "got {lines:?}");
    assert_eq!(lines.last(), Some(&"RESULT 3 row(s)"), "got {lines:?}");
}

#[test]
fn ddl_and_truncate_plans_describe_their_kind() {
    let mut db = setup();
    for (sql, line) in [
        ("CREATE TABLE t2 (x INT)", "DDL CREATE TABLE"),
        ("CREATE INDEX ix_d ON TVisited(d2s)", "DDL CREATE INDEX"),
        ("DROP TABLE IF EXISTS t3", "DDL DROP TABLE"),
        ("TRUNCATE TABLE TVisited", "DDL TRUNCATE"),
    ] {
        assert_eq!(db.prepare(sql).unwrap().describe(), [line], "{sql}");
    }
}

#[test]
fn explain_non_select_rejected() {
    let mut db = setup();
    assert!(db.execute("EXPLAIN DELETE FROM TVisited").is_err());
}
