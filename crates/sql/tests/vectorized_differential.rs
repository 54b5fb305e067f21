//! Differential tests targeting the vectorized executor's generic-column
//! fallback: tables whose columns mix Int, NULL, Text and Float values
//! force the `Chunk` columns off the typed `Vec<i64>` fast path, and every
//! query must still agree with the AST interpreter — in both dialects. A
//! property test generates random mixed tables and sweeps a family of
//! query shapes over them.

mod common;

use fempath_sql::{Database, Dialect, ExecOutcome, Result};
use fempath_sql_reference::execute_unplanned;
use fempath_storage::Value;
use proptest::prelude::*;

/// Pair of databases kept in lock-step.
struct Pair {
    vec_db: Database,
    interp: Database,
}

impl Pair {
    fn new(dialect: Dialect) -> Pair {
        Pair {
            vec_db: Database::in_memory(256).with_dialect(dialect),
            interp: Database::in_memory(256).with_dialect(dialect),
        }
    }

    fn setup(&mut self, sql: &str) {
        self.vec_db.execute(sql).unwrap();
        self.interp.execute(sql).unwrap();
    }

    fn setup_params(&mut self, sql: &str, params: &[Value]) {
        self.vec_db.execute_params(sql, params).unwrap();
        self.interp.execute_params(sql, params).unwrap();
    }

    /// Runs a statement through both paths; panics on divergence.
    /// Returns whether the statement succeeded.
    fn step(&mut self, sql: &str) -> bool {
        self.step_params(sql, &[])
    }

    fn step_params(&mut self, sql: &str, params: &[Value]) -> bool {
        let v = self.vec_db.execute_params(sql, params);
        let i = execute_unplanned(&mut self.interp, sql, params);
        assert_same(sql, &v, &i);
        v.is_ok()
    }
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
                    common::assert_rows_agree(sql, &ra.rows, &rb.rows);
                }
                _ => panic!("result-set presence diverged for: {sql}"),
            }
        }
        (Err(x), Err(y)) => assert_eq!(
            std::mem::discriminant(x),
            std::mem::discriminant(y),
            "error kinds diverged for: {sql} ({x} vs {y})"
        ),
        (Ok(_), Err(e)) => panic!("interpreter failed ({e}) for: {sql}"),
        (Err(e), Ok(_)) => panic!("vectorized executor failed ({e}) for: {sql}"),
    }
}

/// One random cell for the mixed table: Int-heavy, with NULLs, text and
/// floats mixed in so a column can demote mid-chunk.
fn arb_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-20i64..20).prop_map(Value::Int),
        Just(Value::Null),
        (0u8..5).prop_map(|i| Value::Text(format!("t{i}"))),
        (-4i64..4).prop_map(|i| Value::Float(i as f64 / 2.0)),
    ]
}

/// Query shapes swept over the mixed table `m (a, b, c)` and the
/// all-integer side table `s (k, w)`. Every comparison, arithmetic,
/// grouping and join below hits mixed columns, exercising the
/// generic-column fallback and the typed/generic boundary.
const MIXED_QUERIES: &[&str] = &[
    "SELECT * FROM m",
    "SELECT a, b FROM m WHERE a = 3",
    "SELECT a FROM m WHERE a < 2",
    "SELECT b FROM m WHERE a IS NULL",
    "SELECT a FROM m WHERE b IS NOT NULL AND a > -5",
    "SELECT a + 1 FROM m WHERE a IS NOT NULL",
    "SELECT a, b FROM m WHERE a = b",
    "SELECT COUNT(*), COUNT(a), MIN(a), MAX(a) FROM m",
    "SELECT SUM(a), AVG(a) FROM m WHERE a IS NOT NULL",
    "SELECT a, COUNT(*) FROM m GROUP BY a ORDER BY a",
    "SELECT b, COUNT(*) FROM m GROUP BY b ORDER BY b",
    "SELECT DISTINCT a FROM m ORDER BY a",
    "SELECT TOP 3 a, b FROM m ORDER BY a, b, c",
    "SELECT m.a, s.w FROM m, s WHERE m.a = s.k",
    "SELECT m.b, s.w FROM m, s WHERE m.b = s.k AND s.w > 1",
    "SELECT a FROM m WHERE a IN (SELECT k FROM s)",
    "SELECT a FROM m WHERE a NOT IN (SELECT k FROM s WHERE w = 0)",
    "SELECT a, ROW_NUMBER() OVER (PARTITION BY b ORDER BY a, c) AS rn FROM m ORDER BY b, a, c, rn",
    "SELECT CASE_MARKER FROM m", // replaced below; keeps index alignment honest
    "SELECT a FROM m WHERE NOT (a = 1) ORDER BY a",
    "SELECT a, b FROM m WHERE a = 1 OR b = 1 ORDER BY a, b, c",
];

fn run_mixed_case(rows: &[(Value, Value, Value)], dialect: Dialect) {
    let mut pair = Pair::new(dialect);
    // `a`/`b` are declared INT but receive mixed values through the
    // untyped path? No — the engine coerces on insert, so mixed *types*
    // need TEXT/FLOAT declarations; NULLs exercise the bitmap either way.
    pair.setup("CREATE TABLE m (a INT, b INT, c TEXT)");
    pair.setup("CREATE TABLE s (k INT, w INT)");
    for i in 0..6i64 {
        pair.setup_params(
            "INSERT INTO s VALUES (?, ?)",
            &[Value::Int(i - 2), Value::Int(i % 3)],
        );
    }
    for (a, b, c) in rows {
        // Coercible values go in as-is; text lands in `c`, floats coerce
        // to INT in `a`/`b` — every combination is valid input, and NULLs
        // pepper all three columns.
        let a = match a {
            Value::Text(_) => Value::Null,
            other => other.clone(),
        };
        let b = match b {
            Value::Text(_) => Value::Null,
            other => other.clone(),
        };
        let c = match c {
            Value::Int(i) => Value::Text(format!("s{i}")),
            Value::Float(_) => Value::Null,
            other => other.clone(),
        };
        pair.setup_params("INSERT INTO m VALUES (?, ?, ?)", &[a, b, c]);
    }
    for q in MIXED_QUERIES {
        let q = if q.contains("CASE_MARKER") {
            "SELECT c FROM m WHERE c = 't1' OR c IS NULL".to_string()
        } else {
            q.to_string()
        };
        pair.step(&q);
    }
    // DML over mixed columns, then a final full check.
    pair.step("UPDATE m SET b = b + 1 WHERE a IS NOT NULL AND a < 0");
    pair.step("DELETE FROM m WHERE a = 2");
    pair.step("INSERT INTO m SELECT a, b, c FROM m WHERE b = 1");
    pair.step("SELECT * FROM m ORDER BY a, b, c");
    pair.step("SELECT COUNT(*) FROM m");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mixed_columns_agree_across_executors(
        rows in prop::collection::vec((arb_cell(), arb_cell(), arb_cell()), 0..40),
        pg in prop::bool::ANY,
    ) {
        let dialect = if pg { Dialect::POSTGRES } else { Dialect::DBMS_X };
        run_mixed_case(&rows, dialect);
    }
}

/// The typed selection kernels (`col <cmp> scalar` in both operand
/// orders, `col <cmp> col`) and the typed comparison and arithmetic
/// kernels of expression evaluation, for all six comparison operators,
/// over integer columns with and without NULLs.
fn run_typed_kernel_case(rows: &[(Option<i64>, Option<i64>)], c: i64) {
    let mut pair = Pair::new(Dialect::DBMS_X);
    pair.setup("CREATE TABLE k (x INT, y INT, z INT)");
    for (i, (x, y)) in rows.iter().enumerate() {
        let cell = |v: &Option<i64>| v.map_or(Value::Null, Value::Int);
        pair.setup_params(
            "INSERT INTO k VALUES (?, ?, ?)",
            &[cell(x), cell(y), Value::Int(i as i64)],
        );
    }
    let param = [Value::Int(c)];
    for op in ["=", "<>", "<", "<=", ">", ">="] {
        pair.step_params(&format!("SELECT z FROM k WHERE x {op} ?"), &param);
        pair.step_params(&format!("SELECT z FROM k WHERE ? {op} x"), &param);
        pair.step(&format!("SELECT z FROM k WHERE x {op} {c}"));
        pair.step(&format!("SELECT z FROM k WHERE {c} {op} y"));
        pair.step(&format!("SELECT z FROM k WHERE x {op} y"));
        pair.step(&format!("SELECT z FROM k WHERE y {op} x AND z > 1"));
        pair.step(&format!(
            "SELECT z, x {op} y, x {op} {c}, {c} {op} y FROM k"
        ));
        pair.step(&format!(
            "SELECT COUNT(*), MIN(x + y), MAX(x - {c}), SUM({c} * y) FROM k WHERE x {op} y"
        ));
    }
    pair.step(&format!("SELECT z, x + y, x - y, x * {c}, {c} - y FROM k"));
    pair.step("SELECT z, x / y, x % y FROM k WHERE y <> 0");
    pair.step(&format!("UPDATE k SET z = x + {c} WHERE y >= x"));
    pair.step("SELECT * FROM k");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn typed_kernels_agree_with_the_interpreter(
        rows in prop::collection::vec((-6i64..6, -6i64..6, 0u8..8, 0u8..8), 0..40),
        nulls in prop::bool::ANY,
        c in -6i64..6,
    ) {
        // With `nulls`, about one cell in eight is NULL; without, none is,
        // so the NULL-free kernels run.
        let rows: Vec<(Option<i64>, Option<i64>)> = rows
            .into_iter()
            .map(|(x, y, nx, ny)| {
                let keep = |v: i64, roll: u8| (!nulls || roll != 0).then_some(v);
                (keep(x, nx), keep(y, ny))
            })
            .collect();
        run_typed_kernel_case(&rows, c);
    }
}

/// A hand-written worst case: a column that starts integer and demotes to
/// text mid-table (after more than one chunk boundary would have passed
/// in a larger table), plus float/int comparisons across columns.
#[test]
fn late_demotion_and_float_int_comparisons() {
    for dialect in [Dialect::DBMS_X, Dialect::POSTGRES] {
        let mut pair = Pair::new(dialect);
        pair.setup("CREATE TABLE t (x INT, f FLOAT, s TEXT)");
        for i in 0..50i64 {
            pair.setup_params(
                "INSERT INTO t VALUES (?, ?, ?)",
                &[
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i)
                    },
                    Value::Float(i as f64 / 2.0),
                    if i % 3 == 0 {
                        Value::Null
                    } else {
                        Value::Text(format!("v{}", i % 5))
                    },
                ],
            );
        }
        pair.step("SELECT x FROM t WHERE f = 2.0");
        pair.step("SELECT x FROM t WHERE x = f + f");
        pair.step("SELECT COUNT(*) FROM t WHERE x < f");
        pair.step("SELECT s, COUNT(*) FROM t GROUP BY s ORDER BY s");
        pair.step("SELECT x FROM t WHERE s = 'v2' ORDER BY x");
        pair.step("SELECT MIN(f), MAX(f), SUM(f) FROM t WHERE x IS NOT NULL");
        pair.step("SELECT x / x FROM t WHERE x = 0"); // both paths: clean empty or same error
        pair.step("UPDATE t SET f = f * 2 WHERE x > 40");
        pair.step("SELECT * FROM t ORDER BY x, f, s");
    }
}

/// Joins whose build (right) side is empty — a zero-column chunk on the
/// vectorized path — must return empty results, not panic, for every
/// join strategy and an empty derived build side too.
#[test]
fn empty_build_side_joins() {
    let mut pair = Pair::new(Dialect::DBMS_X);
    pair.setup("CREATE TABLE a (x INT)");
    pair.setup("CREATE TABLE b (y INT)");
    pair.setup("CREATE TABLE c (z INT)");
    pair.setup("CREATE INDEX ix_c ON c(z)");
    pair.setup_params("INSERT INTO a VALUES (?)", &[Value::Int(1)]);
    pair.step("SELECT a.x, b.y FROM a, b WHERE a.x = b.y"); // hash, empty build
    pair.step("SELECT a.x, c.z FROM a, c WHERE a.x = c.z"); // index loop, empty inner
    pair.step("SELECT a.x, b.y FROM a, b WHERE a.x < b.y"); // nested loop, empty right
    pair.step("SELECT a.x, d.y FROM a, (SELECT y FROM b WHERE y > 0) d WHERE a.x = d.y");
    pair.step("SELECT COUNT(*) FROM a, b WHERE a.x = b.y");
}

/// A multi-batch `INSERT … SELECT` whose coercion fails in a *late*
/// chunk must leave the target untouched on both paths — the vectorized
/// executor coerces all batches before writing, like the interpreter
/// coerces all rows.
#[test]
fn late_chunk_coercion_failure_inserts_nothing() {
    let mut pair = Pair::new(Dialect::DBMS_X);
    pair.setup("CREATE TABLE target (x INT)");
    pair.setup("CREATE TABLE src (c TEXT)");
    // 1300 NULLs (coerce fine into INT) followed by one text row: the
    // failure sits in the second 1024-row chunk.
    for _ in 0..1300 {
        pair.setup_params("INSERT INTO src VALUES (?)", &[Value::Null]);
    }
    pair.setup_params("INSERT INTO src VALUES (?)", &[Value::Text("boom".into())]);
    let ok = pair.step("INSERT INTO target SELECT c FROM src");
    assert!(!ok, "text into INT must fail");
    pair.step("SELECT COUNT(*) FROM target"); // must be 0 on both paths
}

/// The all-integer fast path and the generic fallback must agree when a
/// statement's WHERE mixes typed-column comparisons with text equality.
#[test]
fn typed_and_generic_predicates_compose() {
    let mut pair = Pair::new(Dialect::DBMS_X);
    pair.setup("CREATE TABLE g (id INT, tag TEXT, v INT)");
    for i in 0..30i64 {
        pair.setup_params(
            "INSERT INTO g VALUES (?, ?, ?)",
            &[
                Value::Int(i),
                Value::Text(format!("g{}", i % 4)),
                if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Int(i * 3)
                },
            ],
        );
    }
    pair.step("SELECT id FROM g WHERE v > 10 AND tag = 'g1'");
    pair.step("SELECT id FROM g WHERE tag = 'g2' AND v IS NULL");
    pair.step("SELECT tag, SUM(v) FROM g GROUP BY tag ORDER BY tag");
    pair.step("DELETE FROM g WHERE tag = 'g3' AND v < 50");
    pair.step("SELECT * FROM g ORDER BY id");
}

/// The landmark-index build shapes (fempath-core's `landmarks` module):
/// a bulk `INSERT … SELECT` with constants in the projection routes the
/// whole Dijkstra tree through the vectorized chunked-append path, the
/// clustered index arrives *after* the heap fill, and the selection /
/// bound queries lean on NOT IN subqueries, grouped-subquery aliases and
/// an UPDATE … FROM a grouped source. All of it must agree across the
/// vectorized and interpreted paths in both dialects.
#[test]
fn landmark_index_build_shapes() {
    for dialect in [Dialect::DBMS_X, Dialect::POSTGRES] {
        let mut pair = Pair::new(dialect);
        pair.setup("CREATE TABLE TEdges (fid INT, tid INT, cost INT)");
        pair.setup("CREATE TABLE TVisited (nid INT, d2s INT, p2s INT)");
        pair.setup("CREATE TABLE TLandmarks (lm INT, nid INT, d INT, p INT)");
        for i in 0..40i64 {
            let (f, t) = (i % 8, (i * 3 + 1) % 8);
            pair.setup_params(
                "INSERT INTO TEdges VALUES (?, ?, ?)",
                &[Value::Int(f), Value::Int(t), Value::Int(1 + i % 5)],
            );
            pair.setup_params(
                "INSERT INTO TEdges VALUES (?, ?, ?)",
                &[Value::Int(t), Value::Int(f), Value::Int(1 + i % 5)],
            );
        }
        for n in 0..8i64 {
            pair.setup_params(
                "INSERT INTO TVisited VALUES (?, ?, ?)",
                &[Value::Int(n), Value::Int(n * 2), Value::Int((n + 7) % 8)],
            );
        }
        // Max-degree selection: grouped subquery, then the two-aggregate
        // tie-break over the same candidate set.
        pair.step(
            "SELECT MAX(deg) FROM (SELECT fid, COUNT(*) AS deg FROM TEdges \
             WHERE fid NOT IN (SELECT lm FROM TLandmarks) GROUP BY fid) cand",
        );
        // Bulk tree store: constants in the SELECT list, filtered source.
        pair.step("INSERT INTO TLandmarks (lm, nid, d, p) SELECT 3, nid, d2s, p2s FROM TVisited WHERE d2s < 12");
        pair.step("INSERT INTO TLandmarks (lm, nid, d, p) SELECT 5, nid, d2s, p2s FROM TVisited WHERE d2s < 99");
        pair.step("CREATE CLUSTERED INDEX idx_tlandmarks ON TLandmarks(nid)");
        // Triangle-inequality bound: self-join on the landmark column.
        pair.step(
            "SELECT MIN(a.d + b.d) FROM TLandmarks a, TLandmarks b \
             WHERE a.nid = 1 AND b.nid = 6 AND a.lm = b.lm",
        );
        // Coverage pass: per-node minimum distance, then the farthest node.
        pair.step(
            "SELECT MAX(md) FROM (SELECT nid, MIN(d) AS md FROM TLandmarks GROUP BY nid) cov",
        );
        // Batched bound seeding: UPDATE … FROM a grouped subquery.
        pair.setup("CREATE TABLE TBounds (qid INT, s INT, t INT, bound INT)");
        pair.step(
            "INSERT INTO TBounds VALUES (0, 1, 6, 4000000000000000), (1, 2, 7, 4000000000000000)",
        );
        pair.step(
            "UPDATE TBounds SET bound = src.u + 1 \
             FROM (SELECT q.qid AS sqid, MIN(a.d + b.d) AS u \
                   FROM TBounds q, TLandmarks a, TLandmarks b \
                   WHERE a.nid = q.s AND b.nid = q.t AND a.lm = b.lm \
                   GROUP BY q.qid) src \
             WHERE TBounds.qid = src.sqid",
        );
        pair.step("SELECT qid, bound FROM TBounds ORDER BY qid");
        // The pruning ceiling's arithmetic min over (mincost, bound).
        pair.step("SELECT qid, 7 + (bound < 7) * (bound - 7) AS wmc FROM TBounds ORDER BY qid");
    }
}

/// Plain UPDATE/DELETE whose WHERE pins an indexed prefix probe the index
/// on the planned path while the interpreter scans; both must change the
/// same rows — across unique and non-unique, secondary and clustered
/// indexes, with residual conjuncts (typed and text), a NULL key (matches
/// nothing) and assignments that rewrite the very column the probe used
/// (every matching row moves exactly once, whatever its new key).
#[test]
fn indexed_dml_targets_agree() {
    let layouts = [
        "CREATE UNIQUE INDEX ix ON t(k)",
        "CREATE UNIQUE CLUSTERED INDEX ix ON t(k)",
        "CREATE INDEX ix ON t(g)",
        "CREATE CLUSTERED INDEX ix ON t(g)",
        "CREATE INDEX ix ON t(g, k)",
    ];
    for dialect in [Dialect::DBMS_X, Dialect::POSTGRES] {
        for layout in layouts {
            let mut pair = Pair::new(dialect);
            pair.setup("CREATE TABLE t (k INT, g INT, v INT, tag TEXT)");
            pair.setup(layout);
            for i in 0..60i64 {
                let v = if i % 9 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 7)
                };
                let tag = Value::Text(format!("t{}", i % 3));
                pair.setup_params(
                    "INSERT INTO t VALUES (?, ?, ?, ?)",
                    &[Value::Int(i), Value::Int(i % 5), v, tag],
                );
            }
            let check = "SELECT * FROM t ORDER BY k, g, v, tag";
            let int = |i: i64| [Value::Int(i)];
            // Point and group probes, with and without residuals.
            pair.step_params("UPDATE t SET v = 100 WHERE k = ?", &int(7));
            pair.step_params("UPDATE t SET v = v + 1 WHERE g = ? AND v < 4", &int(2));
            pair.step_params("UPDATE t SET v = 0 WHERE g = ? AND tag = 't1'", &int(3));
            pair.step_params(
                "UPDATE t SET tag = 'seen' WHERE v IS NULL AND g = ?",
                &int(0),
            );
            pair.step("UPDATE t SET v = 9 WHERE g = 1 AND k = 11");
            pair.step(check);
            // A NULL key matches nothing — not even NULL cells.
            pair.step_params("UPDATE t SET v = -1 WHERE k = ?", &[Value::Null]);
            pair.step_params("DELETE FROM t WHERE g = ?", &[Value::Null]);
            // No such key: zero rows, no error.
            pair.step_params("UPDATE t SET v = -1 WHERE k = ?", &int(1000));
            // Rewriting the probed column itself: rows move to a key the
            // probe would match again, or past other rows' keys.
            pair.step("UPDATE t SET g = g + 1 WHERE g = 3");
            pair.step("UPDATE t SET g = 4 WHERE g = 4 AND v > 2");
            pair.step_params("UPDATE t SET k = k + 1000 WHERE k = ?", &int(20));
            pair.step(check);
            // Indexed DELETEs, with residuals.
            pair.step_params("DELETE FROM t WHERE k = ?", &int(5));
            pair.step_params("DELETE FROM t WHERE g = ? AND v > 3", &int(4));
            pair.step("DELETE FROM t WHERE g = 0 AND tag = 'seen'");
            pair.step("DELETE FROM t WHERE g = 1 AND k IN (SELECT k FROM t WHERE v = 2)");
            pair.step(check);
            pair.step("SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g ORDER BY g");
            // The index is still consistent with the heap after all of it.
            for g in 0..6 {
                pair.step_params("SELECT k, v FROM t WHERE g = ? ORDER BY k", &int(g));
            }
            pair.step_params("SELECT g FROM t WHERE k = ?", &int(1020));
        }
    }
}

/// Full-row consumers downstream of projected scans: `SELECT *`,
/// `INSERT … SELECT *`, MERGE over a table source, and sorts all read
/// every column of wide rows while narrow statements around them read
/// few. (Debug builds assert on any read of an unprojected column.)
#[test]
fn full_row_consumers_next_to_projected_scans() {
    let mut pair = Pair::new(Dialect::DBMS_X);
    pair.setup("CREATE TABLE w (a INT, b INT, c INT, d INT, e TEXT, PRIMARY KEY(a))");
    pair.setup("CREATE TABLE w2 (a INT, b INT, c INT, d INT, e TEXT)");
    pair.setup("CREATE TABLE src (a INT, b INT, pad INT)");
    for i in 0..40i64 {
        pair.setup_params(
            "INSERT INTO w VALUES (?, ?, ?, ?, ?)",
            &[
                Value::Int(i),
                Value::Int(i % 4),
                Value::Int(i * 2),
                if i % 6 == 0 {
                    Value::Null
                } else {
                    Value::Int(i)
                },
                Value::Text(format!("e{}", i % 3)),
            ],
        );
        pair.setup_params(
            "INSERT INTO src VALUES (?, ?, 0)",
            &[Value::Int(i * 2), Value::Int(i)],
        );
    }
    pair.step("SELECT COUNT(*) FROM w");
    pair.step("SELECT MIN(c) FROM w WHERE b = 1");
    pair.step("SELECT * FROM w WHERE b = 2");
    pair.step("SELECT * FROM w ORDER BY d, a");
    pair.step("SELECT a FROM w ORDER BY c DESC LIMIT 3");
    pair.step("INSERT INTO w2 SELECT * FROM w WHERE b < 2");
    pair.step("SELECT w.e, w2.d FROM w, w2 WHERE w.a = w2.a AND w2.b = 1 ORDER BY w.a");
    pair.step("SELECT x.e, y.c FROM w x, w2 y WHERE x.b = y.d ORDER BY x.a, y.a");
    pair.step("SELECT x.a, y.a FROM w2 x, w2 y WHERE x.c < y.b ORDER BY x.a, y.a");
    pair.step("SELECT a, RANK() OVER (PARTITION BY b ORDER BY c) AS r FROM w ORDER BY a");
    pair.step("SELECT a, ROW_NUMBER() OVER (PARTITION BY b ORDER BY c) AS r FROM w");
    pair.step(
        "MERGE INTO w AS t USING src AS s ON s.a = t.a \
         WHEN MATCHED AND t.b > 1 THEN UPDATE SET c = s.b, e = 'merged' \
         WHEN NOT MATCHED THEN INSERT (a, b, c, d, e) VALUES (s.a, 9, s.b, NULL, 'new')",
    );
    pair.step("UPDATE w SET d = s.b FROM src s WHERE w.a = s.a AND w.b = 0");
    pair.step("SELECT * FROM w ORDER BY a");
    pair.step("SELECT * FROM w2 ORDER BY a");
}

/// The columnar UPDATE / UPDATE…FROM / MERGE / DELETE pipeline against the
/// interpreter, over a mixed Int/NULL/Text/Float table in every physical
/// layout: the in-place cell patch next to rows it cannot patch (NULL and
/// text cells, assignments that change a row's size or move it to another
/// page), assignments that rewrite an indexed key, probes along every
/// path (unique key, index prefix, clustered prefix, no index at all),
/// NULL probe keys, two source rows matching one target row (the first
/// wins), and a duplicate key in the middle of a MERGE insert batch (rows
/// before the offender stay, the statement errors).
#[test]
fn columnar_dml_agrees_with_the_interpreter() {
    let layouts: [&[&str]; 6] = [
        &[],
        &["CREATE UNIQUE INDEX ix ON t(k)"],
        &["CREATE INDEX ix ON t(g)", "CREATE INDEX ix2 ON t(tag)"],
        &["CREATE UNIQUE INDEX ix ON t(g, k)"],
        &["CREATE UNIQUE CLUSTERED INDEX ix ON t(k)"],
        &[
            "CREATE CLUSTERED INDEX ix ON t(g)",
            "CREATE INDEX ix2 ON t(k)",
        ],
    ];
    for dialect in [Dialect::DBMS_X, Dialect::POSTGRES] {
        for layout in layouts {
            let mut pair = Pair::new(dialect);
            pair.setup("CREATE TABLE t (k INT, g INT, v INT, x FLOAT, tag TEXT)");
            pair.setup("CREATE TABLE s (k INT, w INT, note TEXT)");
            for ddl in layout {
                pair.setup(ddl);
            }
            for i in 0..120i64 {
                // Every third row is all fixed-width cells; the others
                // carry a NULL or a text.
                let v = if i % 3 == 1 {
                    Value::Null
                } else {
                    Value::Int(i % 7)
                };
                let tag = if i % 3 == 2 {
                    Value::Text(format!("t{}", i % 4))
                } else {
                    Value::Null
                };
                pair.setup_params(
                    "INSERT INTO t VALUES (?, ?, ?, ?, ?)",
                    &[
                        Value::Int(i),
                        Value::Int(i % 5),
                        v,
                        Value::Float(i as f64 / 4.0),
                        tag,
                    ],
                );
            }
            // Source: keys hitting t twice (10, 10), missing t (500..),
            // NULL keys, and a repeated missing key (777, 777).
            for (k, w, note) in [
                (Some(10), 1, "first"),
                (Some(10), 2, "second"),
                (Some(33), 3, "x"),
                (None, 4, "nullkey"),
                (Some(500), 5, "new"),
                (Some(64), 6, "y"),
                (Some(501), 7, "new"),
            ] {
                pair.setup_params(
                    "INSERT INTO s VALUES (?, ?, ?)",
                    &[
                        k.map_or(Value::Null, Value::Int),
                        Value::Int(w),
                        Value::Text(note.into()),
                    ],
                );
            }
            let check = "SELECT * FROM t ORDER BY k, g, v, x, tag";
            let int = |i: i64| [Value::Int(i)];

            // Plain UPDATE: cells patched in place, next to rows that are
            // re-encoded (NULL → INT grows the row, INT → NULL shrinks it).
            pair.step("UPDATE t SET v = 100 WHERE g = 1");
            pair.step("UPDATE t SET v = NULL, x = x + 1 WHERE g = 2 AND k < 60");
            pair.step("UPDATE t SET x = v, v = x WHERE k < 30"); // INT ↔ FLOAT coercion
            pair.step(check);
            // A text that outgrows its page: rows move, indexes follow.
            let wide = [Value::Text("w".repeat(1500))];
            pair.step_params("UPDATE t SET tag = ? WHERE g = 3", &wide);
            pair.step_params("UPDATE t SET tag = ? WHERE k = 7", &wide);
            pair.step(check);
            for g in 0..5 {
                pair.step_params("SELECT k, v FROM t WHERE g = ? ORDER BY k", &int(g));
            }
            // Assignments that rewrite an indexed (or clustering) key.
            pair.step("UPDATE t SET g = g + 5 WHERE g = 4");
            pair.step("UPDATE t SET k = k + 1000 WHERE v = 100 AND k < 40");
            pair.step("UPDATE t SET k = 3 WHERE k = 8"); // collides under a unique key
            pair.step(check);
            // A type error fails the statement before anything is written.
            pair.step("UPDATE t SET v = tag WHERE g = 0");
            pair.step(check);

            // UPDATE … FROM: two source rows for k = 10 (the first wins),
            // a NULL probe key, residuals on either side, and assignments
            // reading the source row.
            pair.step("UPDATE t SET v = s.w, tag = s.note FROM s WHERE t.k = s.k");
            pair.step("UPDATE t SET v = t.v + s.w FROM s WHERE t.k = s.k AND t.g < 4 AND s.w > 1");
            pair.step("UPDATE t SET x = s.w FROM s WHERE t.g = s.w AND t.k < 20 AND s.note = 'x'");
            pair.step("UPDATE t SET g = s.w FROM s WHERE t.k = s.k AND s.w = 6"); // indexed key
            pair.step(check);
            pair.step(
                "UPDATE t SET v = src.n FROM (SELECT g AS sg, COUNT(*) AS n FROM t GROUP BY g) src \
                 WHERE t.g = src.sg AND t.k > 100",
            );
            pair.step(check);

            // MERGE: matched with and without a condition, unmatched rows
            // (NULL-key ones included) inserted.
            pair.step(
                "MERGE INTO t AS tg USING s AS sr ON sr.k = tg.k \
                 WHEN MATCHED AND tg.g < 4 THEN UPDATE SET v = sr.w * 10, tag = 'merged' \
                 WHEN NOT MATCHED THEN INSERT (k, g, v, x, tag) VALUES (sr.k, 9, sr.w, 0.5, sr.note)",
            );
            pair.step(check);
            pair.step(
                "MERGE INTO t AS tg USING (SELECT k, MIN(w) AS w FROM s GROUP BY k) AS sr (k, w) \
                 ON sr.k = tg.k AND tg.g = 9 \
                 WHEN MATCHED THEN UPDATE SET g = 8, x = sr.w \
                 WHEN NOT MATCHED THEN INSERT (k, g) VALUES (sr.k + 2000, sr.w)",
            );
            pair.step(check);
            // Probe hits that the ON residual rejects: the source rows are
            // NOT MATCHED although their keys are in t, so under a unique
            // (k) index the insert must collide, not overwrite the entry.
            pair.step(
                "MERGE INTO t AS tg USING (SELECT k, w FROM s WHERE k IS NOT NULL) AS sr (k, w) \
                 ON sr.k = tg.k AND tg.g = 99 \
                 WHEN NOT MATCHED THEN INSERT (k, g) VALUES (sr.k, sr.w)",
            );
            pair.step(check);
            pair.step_params("SELECT g, v FROM t WHERE k = ? ORDER BY g, v", &int(10));
            // WHEN MATCHED moves a row onto the key an unmatched source
            // row then inserts (500 exists by now, 3000 does not).
            pair.setup_params("INSERT INTO s VALUES (?, 8, 'moved')", &int(3000));
            pair.step(
                "MERGE INTO t AS tg USING (SELECT k FROM s WHERE k = 500 OR k = 3000) AS sr (k) \
                 ON sr.k = tg.k \
                 WHEN MATCHED THEN UPDATE SET k = 3000 \
                 WHEN NOT MATCHED THEN INSERT (k, g) VALUES (sr.k, 1)",
            );
            pair.step(check);
            pair.step_params("SELECT g, v FROM t WHERE k = ? ORDER BY g, v", &int(3000));
            // A duplicate key in the middle of the insert batch: 777 twice
            // between two fresh keys.
            for k in [776, 777, 777, 778] {
                pair.setup_params("INSERT INTO s VALUES (?, 0, 'dup')", &int(k));
            }
            pair.step(
                "MERGE INTO t AS tg USING s AS sr ON sr.k = tg.k \
                 WHEN MATCHED THEN UPDATE SET v = -1 \
                 WHEN NOT MATCHED THEN INSERT (k, g, v) VALUES (sr.k, 7, sr.w)",
            );
            pair.step(check);
            // The same with every probe key a non-NULL integer, where an
            // unmatched key is known to be absent from a unique (k) index
            // and only repeats inside the batch can offend.
            for k in [901, 902, 902, 903] {
                pair.setup_params("INSERT INTO s VALUES (?, 1, 'dup2')", &int(k));
            }
            pair.step(
                "MERGE INTO t AS tg USING (SELECT k, w FROM s WHERE k > 778) AS sr (k, w) \
                 ON sr.k = tg.k \
                 WHEN MATCHED THEN UPDATE SET v = -2 \
                 WHEN NOT MATCHED THEN INSERT (k, g, v) VALUES (sr.k, 6, sr.w)",
            );
            pair.step(check);
            for k in [10, 500, 776, 777, 778, 901, 902, 903, 2500] {
                pair.step_params("SELECT g, v, tag FROM t WHERE k = ? ORDER BY g, v", &int(k));
            }

            // DELETE: scanned and probed targets, subqueries, everything.
            pair.step("DELETE FROM t WHERE v IS NULL AND g = 2");
            pair.step_params("DELETE FROM t WHERE k = ?", &int(33));
            pair.step("DELETE FROM t WHERE k IN (SELECT k FROM s WHERE w > 4)");
            pair.step("DELETE FROM t WHERE tag = 'merged' OR x > 25");
            pair.step(check);
            for g in 0..10 {
                pair.step_params("SELECT k FROM t WHERE g = ? ORDER BY k", &int(g));
            }
            pair.step("DELETE FROM t");
            pair.step("SELECT COUNT(*) FROM t");
            pair.step_params("SELECT * FROM t WHERE k = ?", &int(10));
        }
    }
}

/// An UPDATE with a new row that fits no page fails without losing rows
/// or index entries — in particular the row ahead of the offender, which
/// the same assignment pushes off their shared page.
#[test]
fn oversized_update_fails_without_losing_rows() {
    let mut pair = Pair::new(Dialect::DBMS_X);
    pair.setup("CREATE TABLE t (k INT, a TEXT, tag TEXT)");
    pair.setup("CREATE INDEX ix ON t(k)");
    for (k, a) in [(1, 1), (2, 3000), (3, 3000)] {
        pair.setup_params(
            "INSERT INTO t VALUES (?, ?, NULL)",
            &[Value::Int(k), Value::Text("a".repeat(a))],
        );
    }
    // Row 1 takes a 6000-byte tag by moving; rows 2 and 3 (3000 + 6000
    // bytes) fit nowhere.
    let wide = [Value::Text("t".repeat(6000))];
    let sql = "UPDATE t SET tag = ? WHERE k > 0";
    let err = pair.vec_db.execute_params(sql, &wide).unwrap_err();
    assert!(err.to_string().contains("exceeds maximum"), "{err}");
    assert!(execute_unplanned(&mut pair.interp, sql, &wide).is_err());
    // Where the statement stopped differs (the interpreter writes row by
    // row, the batch checks every size first); what must hold on both
    // sides is that every row is still there and still indexed.
    for db in [&mut pair.vec_db, &mut pair.interp] {
        let n = db.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(n.rows.unwrap().rows, vec![vec![Value::Int(3)]]);
        for k in 1..=3 {
            let hit = db
                .execute_params("SELECT k FROM t WHERE k = ?", &[Value::Int(k)])
                .unwrap();
            assert_eq!(hit.rows.unwrap().rows, vec![vec![Value::Int(k)]]);
        }
    }
    // A size every row can take: row 3 moves, the index follows.
    let fits = [Value::Text("t".repeat(2500))];
    assert!(pair.step_params(sql, &fits));
    pair.step("SELECT k, a, tag FROM t ORDER BY k");
    for k in 1..=3 {
        pair.step_params("SELECT k, tag FROM t WHERE k = ?", &[Value::Int(k)]);
    }
}

/// UPDATE, DELETE and MERGE into segment-compressed storage: its rows
/// have no locators, so a matched write is refused, while a statement
/// that matches nothing — or only inserts, into the delta overlay — runs,
/// whether the target is reached by the fid key, a scan or an unindexed
/// probe.
/// A lookup and an index nested-loop join read the same segment path
/// before and after the overlay changes.
#[test]
fn dml_probes_into_segmented_storage() {
    use fempath_sql::ast::ColumnDef;
    use fempath_storage::DataType;
    let mut pair = Pair::new(Dialect::DBMS_X);
    for db in [&mut pair.vec_db, &mut pair.interp] {
        let cols = ["fid", "tid", "cost"]
            .iter()
            .map(|n| ColumnDef {
                name: (*n).into(),
                dtype: DataType::Int,
            })
            .collect();
        db.create_segmented_table("e", cols).unwrap();
        let edges = (0..30i64).flat_map(|f| (0..5i64).map(move |t| (f, f + t + 1, 1 + t)));
        db.bulk_load_segments("e", edges).unwrap();
    }
    pair.setup("CREATE TABLE s (f INT, t INT, c INT)");
    pair.setup("INSERT INTO s VALUES (100, 1, 7)");
    pair.setup("INSERT INTO s VALUES (101, 2, 8)");
    let merge = "MERGE INTO e AS tg USING s AS sr ON sr.f = tg.fid AND sr.t = tg.tid \
                 WHEN MATCHED THEN UPDATE SET cost = sr.c \
                 WHEN NOT MATCHED THEN INSERT (fid, tid, cost) VALUES (sr.f, sr.t, sr.c)";
    let update = "UPDATE e SET cost = s.c FROM s WHERE e.fid = s.f";
    let check = "SELECT fid, tid, cost FROM e WHERE fid > 28 ORDER BY fid, tid";
    let lookup = "SELECT tid, cost FROM e WHERE fid = 3";
    let join = "SELECT s.f, e.tid, e.cost FROM s, e WHERE e.fid = s.t";
    // Each reads `e` along the segment path; the reference scans.
    for (sql, operator) in [
        (lookup, "SCAN e"),
        (join, "INDEX NESTED LOOP JOIN e"),
        (update, "PROBE e"),
        (merge, "PROBE e"),
    ] {
        let plan = pair.vec_db.prepare(sql).unwrap().describe();
        assert!(
            plan.iter()
                .any(|l| l.trim_start().starts_with(operator)
                    && l.contains("by segment-tree key range")),
            "{sql} must probe the segments, plan: {plan:#?}"
        );
    }
    pair.step(lookup);
    pair.step(join);
    assert!(pair.step(update), "matches nothing: 0 rows, no error");
    assert!(pair.step(merge), "inserts only");
    pair.step(check);
    // Targets reached by a scan or an unindexed probe rather than by the
    // fid key: base and overlay rows alike carry segment locators, and a
    // statement that matches none of them runs.
    for sql in [
        "UPDATE e SET cost = 1 WHERE cost = 999",
        "DELETE FROM e WHERE tid = -1",
        "MERGE INTO e AS tg USING (SELECT 500 AS f) AS s ON s.f = tg.cost \
         WHEN NOT MATCHED THEN INSERT (fid, tid, cost) VALUES (s.f, 1, 1)",
    ] {
        assert!(pair.step(sql), "matches nothing: {sql}");
    }
    pair.step("SELECT fid, tid, cost FROM e WHERE fid = 500");
    // Now the same statements find rows (in the overlay) to write.
    assert!(!pair.step(update));
    assert!(!pair.step(merge));
    pair.setup("DELETE FROM s");
    pair.setup("INSERT INTO s VALUES (3, 4, 9)"); // a base edge
    assert!(!pair.step(update));
    assert!(!pair.step(merge));
    pair.step(check);
    pair.step(lookup);
    pair.step(join);
    pair.step("SELECT COUNT(*) FROM e");
}

/// A SELECT with an aggregate, window or sort gathers its batches into
/// one before HAVING, the sort and the tail run. Over 2,500 rows (three
/// chunks) whose key columns are typed integers in the first chunk and
/// take NULLs, floats and texts only in later ones, every post-stage must
/// still agree with the interpreter, ties in the interpreter's order.
#[test]
fn post_stages_agree_across_batches() {
    for dialect in [Dialect::DBMS_X, Dialect::POSTGRES] {
        let mut pair = Pair::new(dialect);
        pair.setup("CREATE TABLE w (id INT, k INT, f FLOAT, s TEXT)");
        let row = |id: i64| -> [Value; 4] {
            let (k, f, s) = match id {
                0..=1023 => (Value::Int(id % 7), Value::Null, Value::Null),
                1024..=2047 => (
                    if id % 3 == 0 {
                        Value::Null
                    } else {
                        Value::Int(id % 5)
                    },
                    Value::Float((id % 4) as f64 / 2.0),
                    Value::Null,
                ),
                _ => (
                    Value::Null,
                    if id % 2 == 0 {
                        Value::Null
                    } else {
                        Value::Float(-((id % 3) as f64))
                    },
                    Value::Text(format!("t{}", id % 6)),
                ),
            };
            [Value::Int(id), k, f, s]
        };
        let insert = format!(
            "INSERT INTO w VALUES {}",
            vec!["(?, ?, ?, ?)"; 100].join(", ")
        );
        for first in (0..2500).step_by(100) {
            let params: Vec<Value> = (first..first + 100).flat_map(row).collect();
            pair.setup_params(&insert, &params);
        }
        for sql in [
            // ORDER BY DESC over many ties, and DISTINCT + TOP.
            "SELECT id, k, f, s FROM w ORDER BY k DESC, f DESC, s DESC",
            "SELECT id, s FROM w ORDER BY s DESC",
            "SELECT DISTINCT TOP 7 k, f FROM w ORDER BY f DESC, k",
            "SELECT DISTINCT TOP 9 s, k FROM w ORDER BY s, k DESC",
            "SELECT DISTINCT TOP 4 f FROM w",
            // GROUP BY + HAVING + ORDER BY + LIMIT.
            "SELECT k, COUNT(*), MIN(f), MAX(s) FROM w GROUP BY k \
             HAVING COUNT(*) > 10 ORDER BY COUNT(*) DESC, k LIMIT 5",
            "SELECT f, s, COUNT(*) AS n FROM w GROUP BY f, s \
             HAVING COUNT(*) > 1 ORDER BY s DESC, f LIMIT 9",
            // ROW_NUMBER() + ORDER BY + TOP.
            "SELECT TOP 10 id, ROW_NUMBER() OVER (PARTITION BY k ORDER BY f DESC, id) AS rn \
             FROM w ORDER BY rn DESC, id",
            "SELECT TOP 6 id, s, ROW_NUMBER() OVER (PARTITION BY s ORDER BY id DESC) AS rn \
             FROM w WHERE id > 1000 ORDER BY s DESC, rn",
            // A scalar aggregate whose select list computes over the
            // accumulators, with and without HAVING.
            "SELECT COUNT(*) + 1, MIN(k) FROM w",
            "SELECT COUNT(*) + 1, MIN(k) FROM w HAVING COUNT(*) > 2",
            "SELECT COUNT(*) + 1, MIN(k) FROM w HAVING COUNT(*) > 5000",
        ] {
            assert!(pair.step(sql), "{sql} must succeed");
        }
        // Row-independent values: VALUES cells and a FROM-less filter.
        let insert = "INSERT INTO w (id, k) VALUES (? + 1, -?)";
        assert!(pair.step_params(insert, &[Value::Int(2499), Value::Int(3)]));
        assert!(pair.step("SELECT id, k, f, s FROM w WHERE id >= 2499 ORDER BY id"));
        for p in [Value::Int(1), Value::Int(0), Value::Null] {
            assert!(pair.step_params("SELECT 1 WHERE ? > 0", &[p]));
        }
    }
}

/// Runs a query through both paths and asserts the same rows in the same
/// order, whatever the query's ORDER BY says, or the same kind of error.
fn step_in_order(pair: &mut Pair, sql: &str) {
    let v = pair.vec_db.execute(sql);
    let i = execute_unplanned(&mut pair.interp, sql, &[]);
    let (Ok(vo), Ok(io)) = (&v, &i) else {
        return assert_same(sql, &v, &i);
    };
    let rows = |o: &ExecOutcome| o.rows.as_ref().map(|r| r.rows.clone());
    assert_eq!(
        rows(vo),
        rows(io),
        "rows or their order diverged for: {sql}"
    );
}

/// Whether the planner runs `sql`'s window as a top-1 per partition.
fn plans_top1(db: &mut Database, sql: &str) -> bool {
    let lines = db.prepare(sql).unwrap().describe();
    lines
        .iter()
        .any(|l| l.contains("WINDOW top-1 per partition"))
}

/// `ROW_NUMBER() … AS rn` read only through `rn = 1` runs as a one-pass
/// top-1 per partition: per partition the first row in input order with
/// the least order key. Over tied order keys, NULL partition and order
/// values, DESC order and two-column partitions it must return the
/// interpreter's rows in the interpreter's order; so must the shapes the
/// rewrite leaves alone, and a MERGE fed by it must write the same rows
/// in the same order.
fn run_top1_case(rows: &[(Option<i64>, Option<i64>, Option<i64>)]) {
    let mut pair = Pair::new(Dialect::DBMS_X);
    pair.setup("CREATE TABLE w (id INT, p INT, q INT, o INT)");
    pair.setup("CREATE TABLE tgt (id INT, p INT, o INT)");
    pair.setup("CREATE UNIQUE INDEX ix_tgt ON tgt(p)");
    for (i, (p, q, o)) in rows.iter().enumerate() {
        let cell = |v: &Option<i64>| v.map_or(Value::Null, Value::Int);
        pair.setup_params(
            "INSERT INTO w VALUES (?, ?, ?, ?)",
            &[Value::Int(i as i64), cell(p), cell(q), cell(o)],
        );
    }
    let top1 = |inner: &str| format!("SELECT id, p, o FROM ({inner}) t WHERE rn = 1");
    let rewritten = [
        top1("SELECT id, p, o, ROW_NUMBER() OVER (PARTITION BY p ORDER BY o) AS rn FROM w"),
        top1("SELECT id, p, o, ROW_NUMBER() OVER (PARTITION BY p ORDER BY o DESC) AS rn FROM w"),
        top1("SELECT id, p, o, ROW_NUMBER() OVER (PARTITION BY p, q ORDER BY o) AS rn FROM w"),
        top1(
            "SELECT id, p, o, ROW_NUMBER() OVER (PARTITION BY q, p ORDER BY o DESC, id) AS rn \
             FROM w",
        ),
        top1("SELECT id, p, o, ROW_NUMBER() OVER (ORDER BY o) AS rn FROM w"),
        top1(
            "SELECT id, p, o + q AS o, ROW_NUMBER() OVER (PARTITION BY p ORDER BY o + q) AS rn \
             FROM w WHERE id > 1",
        ),
        // The FEM shape: a join feeds the window, a pushed filter and
        // `1 = rn` on the outside.
        "SELECT id, p, o FROM (SELECT b.id AS id, a.p AS p, a.o + b.o AS o, \
           ROW_NUMBER() OVER (PARTITION BY a.p ORDER BY a.o + b.o) AS rn \
           FROM w a, w b WHERE a.q = b.p) t WHERE 1 = rn AND id > 0"
            .to_string(),
        // A conjunct after `rn = 1` sees only the rows numbered 1: a zero
        // `o` on a dropped row fails nowhere.
        top1("SELECT id, p, o, ROW_NUMBER() OVER (PARTITION BY p ORDER BY q) AS rn FROM w")
            .replace("rn = 1", "rn = 1 AND 10 / o > 0"),
    ];
    let kept = [
        "SELECT id, p, o FROM (SELECT id, p, o, ROW_NUMBER() OVER (PARTITION BY p ORDER BY o) \
         AS rn FROM w) t WHERE rn <= 2"
            .to_string(),
        "SELECT id, p, rn FROM (SELECT id, p, o, ROW_NUMBER() OVER (PARTITION BY p ORDER BY o) \
         AS rn FROM w) t WHERE rn = 1"
            .to_string(),
        "SELECT id, p, o FROM (SELECT id, p, o, RANK() OVER (PARTITION BY p ORDER BY o) AS rn \
         FROM w) t WHERE rn = 1"
            .to_string(),
        "SELECT id, p, o FROM (SELECT id, p, o + 1 AS o, ROW_NUMBER() OVER (PARTITION BY p \
         ORDER BY o) AS rn FROM w) t WHERE rn = 1"
            .to_string(),
        "SELECT id, p, o FROM (SELECT TOP 3 id, p, o, ROW_NUMBER() OVER (PARTITION BY p \
         ORDER BY o) AS rn FROM w) t WHERE rn = 1"
            .to_string(),
        // A conjunct ahead of `rn = 1` that can fail sees every row: a
        // zero `o` on a row numbered 2 fails the query.
        "SELECT id, p, o FROM (SELECT id, p, o, ROW_NUMBER() OVER (PARTITION BY p ORDER BY q) \
         AS rn FROM w) t WHERE 10 / o > 0 AND rn = 1"
            .to_string(),
    ];
    for sql in &rewritten {
        assert!(plans_top1(&mut pair.vec_db, sql), "not rewritten: {sql}");
        step_in_order(&mut pair, sql);
    }
    for sql in &kept {
        assert!(!plans_top1(&mut pair.vec_db, sql), "rewritten: {sql}");
        step_in_order(&mut pair, sql);
    }
    // A MERGE whose source is the rewritten window writes the same rows,
    // in the same order.
    let merge = format!(
        "MERGE INTO tgt AS target USING ({}) AS source (id, p, o) ON source.p = target.p \
         WHEN MATCHED AND target.o > source.o THEN UPDATE SET o = source.o, id = source.id \
         WHEN NOT MATCHED THEN INSERT (id, p, o) VALUES (source.id, source.p, source.o)",
        rewritten[0]
    );
    for _ in 0..2 {
        // A second NULL `p` repeats the unique key: both refuse alike.
        pair.step(&merge);
        step_in_order(&mut pair, "SELECT id, p, o FROM tgt");
    }
    // Keys distinct per row and descending in input order: the probe
    // sorts them and the insert writes in that order — into a unique
    // index and into a unique clustering key.
    let source = top1(
        "SELECT id, 100 - id AS p, o, ROW_NUMBER() OVER (PARTITION BY 100 - id ORDER BY o)          AS rn FROM w",
    );
    assert!(
        plans_top1(&mut pair.vec_db, &source),
        "not rewritten: {source}"
    );
    pair.setup("CREATE TABLE tgt2 (id INT, p INT, o INT)");
    pair.setup("CREATE UNIQUE CLUSTERED INDEX ix_tgt2 ON tgt2(p)");
    for target in ["tgt", "tgt2"] {
        let merge = merge
            .replace("tgt AS", &format!("{target} AS"))
            .replace(&rewritten[0], &source);
        for _ in 0..2 {
            assert!(pair.step(&merge), "{merge}");
            step_in_order(&mut pair, &format!("SELECT id, p, o FROM {target}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn top1_per_partition_agrees_with_the_interpreter(
        rows in prop::collection::vec((-2i64..4, 0i64..3, -2i64..3, 0u8..8), 0..60),
        nulls in prop::bool::ANY,
    ) {
        // With `nulls`, a -2 becomes NULL: then the partition or order
        // keys hold NULLs; without, the typed one-pass path runs.
        let rows: Vec<_> = rows
            .into_iter()
            .map(|(p, q, o, roll)| {
                let cell = |v: i64| (!nulls || v != -2 || roll == 0).then_some(v);
                (cell(p), Some(q), cell(o))
            })
            .collect();
        run_top1_case(&rows);
    }
}
