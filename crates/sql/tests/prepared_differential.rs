//! Differential harness: every statement of a representative corpus runs
//! through both execution paths — the prepared/physical-plan pipeline
//! (`execute_params`, vectorized) and the AST interpreter
//! (`execute_unplanned`) — on twin databases, asserting identical
//! outcomes after every step.
//!
//! The corpus covers the feature matrix of `engine_tests.rs` /
//! `executor_corners.rs`: access paths (heap, secondary, clustered,
//! prefix), join strategies (index nested loop, hash, nested loop,
//! multi-way), derived tables and views, subqueries (scalar, IN, EXISTS),
//! aggregation/HAVING, window functions, ORDER BY/DISTINCT/TOP/LIMIT,
//! all DML forms including `UPDATE … FROM` and MERGE, `?` parameters,
//! NULL semantics, and error behaviour — plus the no-MERGE PostgreSQL
//! dialect.

mod common;

use fempath_sql::{Database, Dialect, ExecOutcome, Result};
use fempath_sql_reference::execute_unplanned;
use fempath_storage::Value;

/// Runs one statement through both paths and asserts identical outcomes.
fn step(prepared: &mut Database, interp: &mut Database, sql: &str, params: &[Value]) {
    let v = prepared.execute_params(sql, params);
    let i = execute_unplanned(interp, sql, params);
    assert_same(sql, &v, &i);
}

fn assert_same(sql: &str, a: &Result<ExecOutcome>, b: &Result<ExecOutcome>) {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            assert_eq!(
                a.rows_affected, b.rows_affected,
                "rows_affected diverged for: {sql}"
            );
            match (&a.rows, &b.rows) {
                (None, None) => {}
                (Some(ra), Some(rb)) => {
                    assert_eq!(ra.columns, rb.columns, "columns diverged for: {sql}");
                    common::assert_rows_agree(sql, &ra.rows, &rb.rows);
                }
                _ => panic!("result-set presence diverged for: {sql}"),
            }
        }
        // Both refuse: for the same reason, e.g. MERGE under a dialect
        // without it is `UnsupportedByDialect` on both paths.
        (Err(x), Err(y)) => assert_eq!(
            std::mem::discriminant(x),
            std::mem::discriminant(y),
            "error kinds diverged for: {sql} ({x} vs {y})"
        ),
        (Ok(_), Err(e)) => panic!("first path succeeded, second failed ({e}) for: {sql}"),
        (Err(e), Ok(_)) => panic!("first path failed ({e}), second succeeded for: {sql}"),
    }
}

/// The shared schema + data both databases start from.
const SETUP: &[&str] = &[
    "CREATE TABLE TVisited (nid INT, d2s INT, p2s INT, f INT, PRIMARY KEY(nid))",
    "CREATE TABLE TEdges (fid INT, tid INT, cost INT)",
    "CREATE CLUSTERED INDEX ix_edges ON TEdges(fid)",
    "CREATE TABLE plain (x INT, y INT)",
    "CREATE TABLE other (x INT, z FLOAT)",
    "CREATE TABLE twocol (a INT, b INT)",
    "CREATE INDEX ix_twocol ON twocol(a, b)",
];

fn seed(db: &mut Database) {
    for sql in SETUP {
        db.execute(sql).unwrap();
    }
    for u in 0..30i64 {
        for d in 1..=3i64 {
            db.execute_params(
                "INSERT INTO TEdges VALUES (?, ?, ?)",
                &[Value::Int(u), Value::Int((u + d * 5) % 30), Value::Int(d)],
            )
            .unwrap();
        }
    }
    for u in 0..10i64 {
        db.execute_params(
            "INSERT INTO TVisited VALUES (?, ?, 0, ?)",
            &[
                Value::Int(u),
                Value::Int(u % 4),
                Value::Int(i64::from(u < 5) * 2),
            ],
        )
        .unwrap();
    }
    for i in 0..20i64 {
        db.execute_params(
            "INSERT INTO plain VALUES (?, ?)",
            &[Value::Int(i % 7), Value::Int(i)],
        )
        .unwrap();
        db.execute_params(
            "INSERT INTO other VALUES (?, ?)",
            &[Value::Int(i % 5), Value::Float(i as f64 / 2.0)],
        )
        .unwrap();
        db.execute_params(
            "INSERT INTO twocol VALUES (?, ?)",
            &[Value::Int(i % 3), Value::Int(i % 4)],
        )
        .unwrap();
    }
    db.execute("INSERT INTO plain VALUES (NULL, NULL)").unwrap();
}

/// (sql, params) corpus executed in order on both twins. Later statements
/// see the mutations of earlier ones, so DML differences would compound
/// and surface in the final full-table SELECTs.
fn corpus() -> Vec<(&'static str, Vec<Value>)> {
    let p = |v: &[i64]| v.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>();
    vec![
        // --- access paths ---
        ("SELECT * FROM plain", vec![]),
        ("SELECT nid, d2s FROM TVisited WHERE nid = 3", vec![]),
        ("SELECT nid FROM TVisited WHERE nid = ?", p(&[7])),
        ("SELECT tid, cost FROM TEdges WHERE fid = 4", vec![]),
        ("SELECT a, b FROM twocol WHERE a = 1 AND b = 2", vec![]),
        ("SELECT a, b FROM twocol WHERE a = 2", vec![]),
        ("SELECT x FROM plain WHERE x = NULL", vec![]),
        ("SELECT y FROM plain WHERE x = 3 AND y > 10", vec![]),
        // --- joins ---
        (
            "SELECT q.nid, e.tid, e.cost FROM TVisited q, TEdges e \
             WHERE q.nid = e.fid AND q.f = 2",
            vec![],
        ),
        (
            "SELECT p.y, o.z FROM plain p, other o WHERE p.x = o.x AND p.y < 10",
            vec![],
        ),
        ("SELECT p.x, o.x FROM plain p, other o WHERE p.y + 1 = 20", vec![]),
        (
            "SELECT q.nid, e.tid, e2.tid FROM TVisited q, TEdges e, TEdges e2 \
             WHERE q.nid = e.fid AND e.tid = e2.fid AND q.f = 2 AND e2.cost = 1",
            vec![],
        ),
        // --- derived tables + views ---
        (
            "SELECT s.m FROM (SELECT MAX(y) AS m FROM plain) s",
            vec![],
        ),
        (
            "SELECT d.nid FROM (SELECT nid, d2s FROM TVisited WHERE f = 2) d (nid, dist) \
             WHERE d.dist < 3",
            vec![],
        ),
        ("CREATE VIEW frontier AS SELECT nid, d2s FROM TVisited WHERE f = 2", vec![]),
        ("SELECT * FROM frontier WHERE d2s > 0", vec![]),
        (
            "SELECT f.nid, e.tid FROM frontier f, TEdges e WHERE f.nid = e.fid",
            vec![],
        ),
        // --- subqueries ---
        (
            "SELECT nid FROM TVisited WHERE d2s = (SELECT MIN(d2s) FROM TVisited WHERE f = 2)",
            vec![],
        ),
        (
            "SELECT x, y FROM plain WHERE x IN (SELECT x FROM other WHERE z > 3)",
            vec![],
        ),
        (
            "SELECT x FROM plain WHERE x NOT IN (SELECT x FROM other)",
            vec![],
        ),
        (
            "SELECT 1 WHERE EXISTS (SELECT * FROM TVisited WHERE f = 2)",
            vec![],
        ),
        (
            "SELECT 1 WHERE NOT EXISTS (SELECT * FROM TVisited WHERE d2s > 100)",
            vec![],
        ),
        // --- aggregation / HAVING / ORDER / DISTINCT / TOP ---
        ("SELECT COUNT(*), MIN(y), MAX(y), SUM(y), AVG(y) FROM plain", vec![]),
        ("SELECT MIN(d2s), COUNT(*) FROM TVisited WHERE f = 2 AND d2s < 100", vec![]),
        (
            "SELECT x, COUNT(*) AS c, SUM(y) FROM plain GROUP BY x HAVING COUNT(*) > 2 ORDER BY c DESC, x",
            vec![],
        ),
        ("SELECT fid, MIN(cost) FROM TEdges GROUP BY fid ORDER BY fid", vec![]),
        ("SELECT DISTINCT x FROM plain ORDER BY x", vec![]),
        ("SELECT DISTINCT cost FROM TEdges", vec![]),
        ("SELECT TOP 3 nid, d2s FROM TVisited ORDER BY d2s DESC, nid", vec![]),
        ("SELECT y FROM plain ORDER BY y DESC LIMIT 5", vec![]),
        ("SELECT TOP 1 nid FROM TVisited WHERE d2s + 1 = 2", vec![]),
        ("SELECT x + y AS s FROM plain ORDER BY s", vec![]),
        ("SELECT COUNT(*) FROM plain WHERE 1 = 0", vec![]),
        // --- window functions ---
        (
            "SELECT nid, np, cost FROM ( \
               SELECT e.tid AS nid, e.fid AS np, e.cost + q.d2s AS cost, \
                      ROW_NUMBER() OVER (PARTITION BY e.tid ORDER BY e.cost + q.d2s, e.fid) AS rownum \
               FROM TVisited q, TEdges e WHERE q.nid = e.fid AND q.f = 2 \
             ) tmp WHERE rownum = 1 ORDER BY nid",
            vec![],
        ),
        (
            "SELECT x, y, RANK() OVER (PARTITION BY x ORDER BY y) AS r FROM plain ORDER BY x, y",
            vec![],
        ),
        // --- DML: UPDATE / DELETE / INSERT / MERGE ---
        ("UPDATE TVisited SET f = 1 WHERE f = 2 AND nid < 2", vec![]),
        ("UPDATE TVisited SET d2s = d2s + ? WHERE nid = ?", p(&[10, 3])),
        (
            "UPDATE TVisited SET d2s = e.cost, f = 0 FROM TEdges e \
             WHERE TVisited.nid = e.tid AND e.fid = 0 AND TVisited.d2s > e.cost",
            vec![],
        ),
        // Index-driven plain UPDATE/DELETE targets: unique clustered
        // (TVisited.nid), non-unique clustered (TEdges.fid), two-column
        // secondary (twocol); residuals, a NULL key, and an assignment to
        // the probed column itself.
        ("UPDATE TVisited SET f = 2 WHERE nid = ? AND f = 0", p(&[6])),
        ("UPDATE TVisited SET f = 2 WHERE nid = ? AND f = 0", p(&[6])),
        ("UPDATE TVisited SET f = 1 WHERE nid = ?", vec![Value::Null]),
        ("UPDATE TEdges SET cost = cost + 10 WHERE fid = 3 AND tid > 10", vec![]),
        ("UPDATE twocol SET a = a + 1 WHERE a = 0", vec![]),
        ("UPDATE twocol SET b = 9 WHERE a = 1 AND b = 2", vec![]),
        ("DELETE FROM twocol WHERE a = ? AND b < 2", p(&[2])),
        ("DELETE FROM TEdges WHERE fid = ? AND tid = ?", p(&[29, 4])),
        ("SELECT a, b FROM twocol ORDER BY a, b", vec![]),
        ("SELECT a, b FROM twocol WHERE a = 1 AND b = 9", vec![]),
        ("SELECT fid, tid, cost FROM TEdges WHERE fid = 3", vec![]),
        ("SELECT COUNT(*), SUM(cost) FROM TEdges", vec![]),
        ("DELETE FROM plain WHERE y > 17", vec![]),
        ("DELETE FROM plain WHERE x IN (SELECT a FROM twocol WHERE b = 3)", vec![]),
        ("INSERT INTO plain VALUES (100, 200), (101, 201)", vec![]),
        ("INSERT INTO plain (y, x) VALUES (?, ?)", p(&[300, 102])),
        (
            "INSERT INTO plain SELECT a, b FROM twocol WHERE a = 0",
            vec![],
        ),
        (
            "INSERT INTO TVisited (nid, d2s, p2s, f) \
             SELECT tid, 99, fid, 0 FROM TEdges WHERE fid = 20 \
             AND tid NOT IN (SELECT nid FROM TVisited)",
            vec![],
        ),
        (
            "MERGE INTO TVisited AS target USING ( \
               SELECT nid, np, cost FROM ( \
                 SELECT e.tid AS nid, e.fid AS np, e.cost + q.d2s AS cost, \
                        ROW_NUMBER() OVER (PARTITION BY e.tid ORDER BY e.cost + q.d2s) AS rownum \
                 FROM TVisited q, TEdges e WHERE q.nid = e.fid AND q.f = 2 \
               ) tmp WHERE rownum = 1 \
             ) AS source (nid, np, cost) ON source.nid = target.nid \
             WHEN MATCHED AND target.d2s > source.cost THEN \
               UPDATE SET d2s = source.cost, p2s = source.np, f = 0 \
             WHEN NOT MATCHED THEN \
               INSERT (nid, d2s, p2s, f) VALUES (source.nid, source.cost, source.np, 0)",
            vec![],
        ),
        ("TRUNCATE TABLE twocol", vec![]),
        // --- error behaviour (both paths must fail) ---
        ("SELECT nosuch FROM plain", vec![]),
        ("SELECT * FROM nosuchtable", vec![]),
        ("SELECT p.x FROM plain p, other o WHERE x = 1", vec![]), // ambiguous x
        ("SELECT y FROM plain WHERE x = ?", vec![]),              // missing param
        // Missing param must error even when no row would reach the
        // parameterized expression (twocol was truncated above).
        ("SELECT a FROM twocol WHERE a = ?", vec![]),
        ("SELECT 1 / 0", vec![]),
        ("SELECT y / x FROM plain WHERE y = 14", vec![]), // division by zero mid-scan? x=0 rows
        ("UPDATE plain SET nosuch = 1", vec![]),
        // --- final state checks: mutations did not diverge ---
        ("SELECT * FROM plain ORDER BY x, y", vec![]),
        ("SELECT * FROM TVisited ORDER BY nid", vec![]),
        ("SELECT COUNT(*) FROM twocol", vec![]),
    ]
}

fn run_corpus(dialect: Dialect) {
    let mut prepared = Database::in_memory(512).with_dialect(dialect);
    let mut interp = Database::in_memory(512).with_dialect(dialect);
    seed(&mut prepared);
    seed(&mut interp);
    for (sql, params) in corpus() {
        step(&mut prepared, &mut interp, sql, &params);
    }
}

#[test]
fn prepared_matches_interpreter_dbms_x() {
    run_corpus(Dialect::DBMS_X);
}

/// The PostgreSQL dialect rejects MERGE on both paths and agrees on
/// everything else (the finders' no-MERGE UPDATE+INSERT formulation).
#[test]
fn prepared_matches_interpreter_postgres() {
    run_corpus(Dialect::POSTGRES);
}

/// Statements stay equivalent when re-executed from the plan cache (the
/// hot-loop pattern: same SQL string, different parameters, mutating data
/// between executions).
#[test]
fn repeated_prepared_executions_match() {
    let mut prepared = Database::in_memory(512);
    let mut interp = Database::in_memory(512);
    seed(&mut prepared);
    seed(&mut interp);
    for round in 0..5i64 {
        step(
            &mut prepared,
            &mut interp,
            "UPDATE TVisited SET f = 2 WHERE f = 0 AND d2s = ?",
            &[Value::Int(round % 4)],
        );
        step(
            &mut prepared,
            &mut interp,
            "MERGE INTO TVisited AS target USING ( \
               SELECT nid, np, cost FROM ( \
                 SELECT e.tid AS nid, e.fid AS np, e.cost + q.d2s AS cost, \
                        ROW_NUMBER() OVER (PARTITION BY e.tid ORDER BY e.cost + q.d2s) AS rownum \
                 FROM TVisited q, TEdges e WHERE q.nid = e.fid AND q.f = 2 \
               ) tmp WHERE rownum = 1 \
             ) AS source (nid, np, cost) ON source.nid = target.nid \
             WHEN MATCHED AND target.d2s > source.cost THEN \
               UPDATE SET d2s = source.cost, p2s = source.np, f = 0 \
             WHEN NOT MATCHED THEN \
               INSERT (nid, d2s, p2s, f) VALUES (source.nid, source.cost, source.np, 0)",
            &[],
        );
        step(
            &mut prepared,
            &mut interp,
            "UPDATE TVisited SET f = 1 WHERE f = 2",
            &[],
        );
        step(
            &mut prepared,
            &mut interp,
            "SELECT MIN(d2s), COUNT(*) FROM TVisited WHERE f = 0 AND d2s < 4000000000000000",
            &[],
        );
        step(
            &mut prepared,
            &mut interp,
            "SELECT * FROM TVisited ORDER BY nid",
            &[],
        );
    }
}

/// DDL between executions invalidates cached plans without changing
/// results: the same SELECT agrees with the interpreter before and after
/// an index appears/disappears.
#[test]
fn ddl_between_executions_keeps_equivalence() {
    let mut prepared = Database::in_memory(512);
    let mut interp = Database::in_memory(512);
    seed(&mut prepared);
    seed(&mut interp);
    let q = "SELECT y FROM plain WHERE x = 3";
    step(&mut prepared, &mut interp, q, &[]);
    step(
        &mut prepared,
        &mut interp,
        "CREATE INDEX ix_plain_x ON plain(x)",
        &[],
    );
    step(&mut prepared, &mut interp, q, &[]);
    step(&mut prepared, &mut interp, "DROP INDEX ix_plain_x", &[]);
    step(&mut prepared, &mut interp, q, &[]);
}

/// Every path the planner can serve an equality on — clustered prefix,
/// unique point get, secondary-index prefix, scan — as the access path of
/// a SELECT lookup, of an index nested-loop join, and of an UPDATE … FROM
/// / MERGE probe, each compared with the reference, which only scans. A
/// lookup or join is never planned on a scan path (without an index
/// prefix it becomes a filtered scan or a hash join), so the scan path is
/// covered as a probe only; the segment path is covered in
/// `vectorized_differential.rs`. Rows inserted in descending `b` make the
/// `twocol(a, b)` index order differ from the scan order.
#[test]
fn every_probe_path_matches_the_reference() {
    // (statement, operator line, path wording in that line)
    const CASES: &[(&str, &str, &str)] = &[
        (
            "SELECT tid, cost FROM TEdges WHERE fid = 4",
            "SCAN TEdges",
            "by clustered-key prefix",
        ),
        (
            "SELECT nid, d2s FROM TVisited WHERE nid = 3",
            "SCAN TVisited",
            "by unique key of index #0",
        ),
        (
            "SELECT a, b FROM twocol WHERE a = 5",
            "SCAN twocol",
            "by prefix of index #0",
        ),
        (
            "SELECT q.nid, e.tid FROM TVisited q, TEdges e WHERE q.nid = e.fid AND q.f = 2",
            "INDEX NESTED LOOP JOIN TEdges",
            "by clustered-key prefix",
        ),
        (
            "SELECT e.fid, q.d2s FROM TEdges e, TVisited q WHERE e.tid = q.nid AND e.cost = 1",
            "INDEX NESTED LOOP JOIN TVisited",
            "by unique key of index #0",
        ),
        (
            "SELECT p.y, t.b FROM plain p, twocol t WHERE t.a = p.x AND p.y < 8",
            "INDEX NESTED LOOP JOIN twocol",
            "by prefix of index #0",
        ),
        (
            "UPDATE TEdges SET cost = cost + 1 FROM TVisited q \
             WHERE TEdges.fid = q.nid AND q.f = 2",
            "PROBE TEdges",
            "by clustered-key prefix",
        ),
        (
            "MERGE INTO TVisited AS tg USING (SELECT fid, MIN(cost) AS c FROM TEdges \
               WHERE fid > 25 GROUP BY fid) AS sr (nid, c) ON sr.nid = tg.nid \
             WHEN MATCHED THEN UPDATE SET d2s = sr.c \
             WHEN NOT MATCHED THEN INSERT (nid, d2s, p2s, f) VALUES (sr.nid, sr.c, 0, 1)",
            "PROBE TVisited",
            "by unique key of index #0",
        ),
        (
            "UPDATE twocol SET b = b + 10 FROM plain p WHERE twocol.a = p.x AND p.y = 5",
            "PROBE twocol",
            "by prefix of index #0",
        ),
        (
            "MERGE INTO plain AS tg USING other AS o ON tg.x = o.x AND o.z > 8 \
             WHEN MATCHED THEN UPDATE SET y = o.z \
             WHEN NOT MATCHED THEN INSERT (x, y) VALUES (o.x + 50, 0)",
            "PROBE plain",
            "by scan (no index on the probed columns)",
        ),
    ];
    let mut prepared = Database::in_memory(512);
    let mut interp = Database::in_memory(512);
    for db in [&mut prepared, &mut interp] {
        seed(db);
        db.execute("INSERT INTO twocol VALUES (5, 9), (5, 7), (5, 4), (5, 1)")
            .unwrap();
    }
    for &(sql, operator, path) in CASES {
        let plan = prepared.prepare(sql).unwrap().describe();
        assert!(
            plan.iter()
                .any(|l| l.trim_start().starts_with(operator) && l.contains(path)),
            "{sql} must run `{operator} … {path}`, plan: {plan:#?}"
        );
        step(&mut prepared, &mut interp, sql, &[]);
    }
    for sql in [
        "SELECT a, b FROM twocol ORDER BY a, b",
        "SELECT * FROM TEdges ORDER BY fid, tid, cost",
        "SELECT * FROM TVisited ORDER BY nid",
        "SELECT * FROM plain ORDER BY x, y",
    ] {
        step(&mut prepared, &mut interp, sql, &[]);
    }
}
