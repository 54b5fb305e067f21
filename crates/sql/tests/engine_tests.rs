//! End-to-end tests of the SQL engine, including the paper's exact
//! statement patterns (Listings 2–4).

use fempath_sql::{Database, Dialect, SqlError};
use fempath_storage::Value;

fn db() -> Database {
    Database::in_memory(512)
}

fn ints(vals: &[i64]) -> Vec<Value> {
    vals.iter().map(|&v| Value::Int(v)).collect()
}

/// The tiny graph of Figure 1 of the paper, loaded into TEdges (directed
/// both ways, i.e. undirected). Node ids: s=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7
/// i=8 j=9 t=10.
fn load_figure1(db: &mut Database) {
    db.execute("CREATE TABLE TEdges (fid INT, tid INT, cost INT)")
        .unwrap();
    db.execute("CREATE CLUSTERED INDEX idx_edges ON TEdges(fid)")
        .unwrap();
    let edges: &[(i64, i64, i64)] = &[
        (0, 1, 2),
        (0, 2, 1),
        (0, 3, 6),
        (1, 4, 2),
        (2, 3, 1),
        (2, 4, 3),
        (3, 9, 7),
        (4, 6, 3),
        (4, 5, 7),
        (4, 7, 8),
        (5, 6, 4),
        (5, 8, 9),
        (6, 7, 4),
        (7, 10, 3),
        (8, 9, 2),
        (8, 10, 5),
        (9, 10, 8),
    ];
    for &(u, v, w) in edges {
        for (a, b) in [(u, v), (v, u)] {
            db.execute_params(
                "INSERT INTO TEdges (fid, tid, cost) VALUES (?, ?, ?)",
                &ints(&[a, b, w]),
            )
            .unwrap();
        }
    }
}

#[test]
fn create_insert_select_roundtrip() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT, b TEXT, c FLOAT)")
        .unwrap();
    d.execute("INSERT INTO t VALUES (1, 'one', 1.5), (2, 'two', 2.5)")
        .unwrap();
    let rs = d.query("SELECT a, b, c FROM t ORDER BY a").unwrap();
    assert_eq!(*rs.columns, vec!["a", "b", "c"]);
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0][1], Value::Text("one".into()));
    assert_eq!(rs.rows[1][2], Value::Float(2.5));
}

#[test]
fn where_filters_and_order_desc() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT)").unwrap();
    for i in 0..10 {
        d.execute_params("INSERT INTO t VALUES (?)", &ints(&[i]))
            .unwrap();
    }
    let rs = d
        .query("SELECT a FROM t WHERE a >= 5 AND a < 8 ORDER BY a DESC")
        .unwrap();
    let got: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(got, vec![7, 6, 5]);
}

#[test]
fn select_top_with_min_subquery_listing2_2() {
    // Listing 2(2): locate the next node to be expanded.
    let mut d = db();
    d.execute("CREATE TABLE TVisited (nid INT, d2s INT, p2s INT, f INT, PRIMARY KEY(nid))")
        .unwrap();
    d.execute("INSERT INTO TVisited VALUES (0, 0, 0, 1), (1, 5, 0, 0), (2, 3, 0, 0), (3, 3, 0, 1)")
        .unwrap();
    let rs = d
        .query(
            "SELECT TOP 1 nid FROM TVisited WHERE f=0 \
             AND d2s=(SELECT MIN(d2s) FROM TVisited WHERE f=0)",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Int(2));
}

#[test]
fn scalar_aggregates() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT)").unwrap();
    d.execute("INSERT INTO t VALUES (3), (1), (4), (1), (5)")
        .unwrap();
    let rs = d
        .query("SELECT MIN(a), MAX(a), SUM(a), COUNT(*), AVG(a) FROM t")
        .unwrap();
    assert_eq!(
        rs.rows[0],
        vec![
            Value::Int(1),
            Value::Int(5),
            Value::Int(14),
            Value::Int(5),
            Value::Float(2.8),
        ]
    );
}

#[test]
fn scalar_aggregate_on_empty_table() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT)").unwrap();
    let rs = d.query("SELECT MIN(a), COUNT(*) FROM t").unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Null);
    assert_eq!(rs.rows[0][1], Value::Int(0));
}

#[test]
fn group_by_with_having() {
    let mut d = db();
    d.execute("CREATE TABLE t (g INT, v INT)").unwrap();
    d.execute("INSERT INTO t VALUES (1, 10), (1, 20), (2, 5), (2, 7), (3, 100)")
        .unwrap();
    let rs = d
        .query("SELECT g, SUM(v) AS total FROM t GROUP BY g HAVING SUM(v) > 12 ORDER BY g")
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Int(30)]);
    assert_eq!(rs.rows[1], vec![Value::Int(3), Value::Int(100)]);
}

#[test]
fn join_via_clustered_index() {
    let mut d = db();
    load_figure1(&mut d);
    d.execute("CREATE TABLE frontier (nid INT, d2s INT)")
        .unwrap();
    d.execute("INSERT INTO frontier VALUES (2, 1)").unwrap();
    // Expansion from node c (=2): neighbors s(0), d(3), e(4).
    let rs = d
        .query(
            "SELECT e.tid, q.d2s + e.cost AS nd FROM frontier q, TEdges e \
             WHERE q.nid = e.fid ORDER BY e.tid",
        )
        .unwrap();
    let got: Vec<(i64, i64)> = rs
        .rows
        .iter()
        .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
        .collect();
    assert_eq!(got, vec![(0, 2), (3, 2), (4, 4)]);
}

#[test]
fn window_function_row_number_paper_e_operator() {
    // The paper's E-operator: pick the minimum-cost occurrence per target
    // node, keeping the parent column available.
    let mut d = db();
    d.execute("CREATE TABLE exp (tid INT, fid INT, cost INT)")
        .unwrap();
    d.execute("INSERT INTO exp VALUES (4, 2, 4), (4, 1, 4), (4, 0, 9), (3, 2, 2), (3, 0, 6)")
        .unwrap();
    let rs = d
        .query(
            "SELECT nid, p2s, cost FROM \
               (SELECT tid AS nid, fid AS p2s, cost, \
                       ROW_NUMBER() OVER (PARTITION BY tid ORDER BY cost, fid) AS rownum \
                FROM exp) tmp \
             WHERE rownum = 1 ORDER BY nid",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    // Node 3: min cost 2 via parent 2. Node 4: min cost 4, tie broken by fid -> parent 1.
    assert_eq!(rs.rows[0], ints(&[3, 2, 2]));
    assert_eq!(rs.rows[1], ints(&[4, 1, 4]));
}

#[test]
fn rank_window_function_handles_ties() {
    let mut d = db();
    d.execute("CREATE TABLE t (g INT, v INT)").unwrap();
    d.execute("INSERT INTO t VALUES (1, 10), (1, 10), (1, 20), (2, 5)")
        .unwrap();
    let rs = d
        .query("SELECT g, v, RANK() OVER (PARTITION BY g ORDER BY v) AS r FROM t ORDER BY g, v, r")
        .unwrap();
    let got: Vec<i64> = rs.rows.iter().map(|r| r[2].as_i64().unwrap()).collect();
    assert_eq!(got, vec![1, 1, 3, 1]);
}

#[test]
fn merge_statement_updates_and_inserts_listing2_4() {
    let mut d = db();
    d.execute("CREATE TABLE TVisited (nid INT, d2s INT, p2s INT, f INT, PRIMARY KEY(nid))")
        .unwrap();
    d.execute("CREATE TABLE ek (nid INT, p2s INT, cost INT)")
        .unwrap();
    // Visited: node 3 at distance 6; node 0 finalized at 0.
    d.execute("INSERT INTO TVisited VALUES (0, 0, 0, 1), (3, 6, 0, 0)")
        .unwrap();
    // Expanded: node 3 now reachable at cost 2 (update), node 4 new (insert),
    // node 0 at cost 99 (no update: worse).
    d.execute("INSERT INTO ek VALUES (3, 2, 2), (4, 2, 4), (0, 2, 99)")
        .unwrap();
    let out = d
        .execute(
            "MERGE INTO TVisited AS target USING ek AS source ON source.nid = target.nid \
             WHEN MATCHED AND target.d2s > source.cost THEN \
               UPDATE SET d2s = source.cost, p2s = source.p2s, f = 0 \
             WHEN NOT MATCHED THEN \
               INSERT (nid, d2s, p2s, f) VALUES (source.nid, source.cost, source.p2s, 0)",
        )
        .unwrap();
    assert_eq!(out.rows_affected, 2, "one update + one insert");
    let rs = d
        .query("SELECT nid, d2s, p2s, f FROM TVisited ORDER BY nid")
        .unwrap();
    assert_eq!(rs.rows.len(), 3);
    assert_eq!(rs.rows[0], ints(&[0, 0, 0, 1]), "unchanged: worse cost");
    assert_eq!(rs.rows[1], ints(&[3, 2, 2, 0]), "updated");
    assert_eq!(rs.rows[2], ints(&[4, 4, 2, 0]), "inserted");
}

#[test]
fn merge_rejected_on_postgres_dialect() {
    let mut d = Database::in_memory(64).with_dialect(Dialect::POSTGRES);
    d.execute("CREATE TABLE a (x INT, PRIMARY KEY(x))").unwrap();
    d.execute("CREATE TABLE b (x INT)").unwrap();
    let err = d.execute(
        "MERGE INTO a USING b ON b.x = a.x \
         WHEN NOT MATCHED THEN INSERT (x) VALUES (b.x)",
    );
    assert!(matches!(err, Err(SqlError::UnsupportedByDialect { .. })));
}

#[test]
fn update_from_plus_insert_not_in_replaces_merge() {
    // The TSQL / PostgreSQL M-operator: UPDATE … FROM then INSERT … NOT IN.
    let mut d = Database::in_memory(64).with_dialect(Dialect::POSTGRES);
    d.execute("CREATE TABLE TVisited (nid INT, d2s INT, p2s INT, f INT, PRIMARY KEY(nid))")
        .unwrap();
    d.execute("CREATE TABLE ek (nid INT, p2s INT, cost INT)")
        .unwrap();
    d.execute("INSERT INTO TVisited VALUES (0, 0, 0, 1), (3, 6, 0, 0)")
        .unwrap();
    d.execute("INSERT INTO ek VALUES (3, 2, 2), (4, 2, 4), (0, 2, 99)")
        .unwrap();

    let upd = d
        .execute(
            "UPDATE TVisited SET d2s = ek.cost, p2s = ek.p2s, f = 0 FROM ek \
             WHERE TVisited.nid = ek.nid AND TVisited.d2s > ek.cost",
        )
        .unwrap();
    assert_eq!(upd.rows_affected, 1);
    let ins = d
        .execute(
            "INSERT INTO TVisited (nid, d2s, p2s, f) \
             SELECT nid, cost, p2s, 0 FROM ek \
             WHERE nid NOT IN (SELECT nid FROM TVisited)",
        )
        .unwrap();
    assert_eq!(ins.rows_affected, 1);
    let rs = d
        .query("SELECT nid, d2s FROM TVisited ORDER BY nid")
        .unwrap();
    assert_eq!(rs.rows.len(), 3);
    assert_eq!(rs.rows[1], ints(&[3, 2]));
    assert_eq!(rs.rows[2], ints(&[4, 4]));
}

#[test]
fn views_expand_at_query_time() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT)").unwrap();
    d.execute("CREATE VIEW big AS SELECT a FROM t WHERE a > 10")
        .unwrap();
    d.execute("INSERT INTO t VALUES (5), (15), (25)").unwrap();
    let rs = d.query("SELECT a FROM big ORDER BY a").unwrap();
    assert_eq!(rs.rows.len(), 2);
    // New inserts are visible through the view.
    d.execute("INSERT INTO t VALUES (99)").unwrap();
    assert_eq!(d.query("SELECT a FROM big").unwrap().rows.len(), 3);
    d.execute("DROP VIEW big").unwrap();
    assert!(d.query("SELECT a FROM big").is_err());
}

#[test]
fn delete_and_truncate() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT)").unwrap();
    for i in 0..10 {
        d.execute_params("INSERT INTO t VALUES (?)", &ints(&[i]))
            .unwrap();
    }
    let out = d.execute("DELETE FROM t WHERE a % 2 = 0").unwrap();
    assert_eq!(out.rows_affected, 5);
    assert_eq!(d.table_len("t").unwrap(), 5);
    let out = d.execute("TRUNCATE TABLE t").unwrap();
    assert_eq!(out.rows_affected, 5);
    assert_eq!(d.table_len("t").unwrap(), 0);
}

#[test]
fn update_with_scalar_subquery_listing4_1() {
    // Listing 4(1): mark frontier nodes in the BSEG expansion.
    let mut d = db();
    d.execute("CREATE TABLE TVisited (nid INT, d2s INT, f INT)")
        .unwrap();
    d.execute("INSERT INTO TVisited VALUES (1, 3, 0), (2, 8, 0), (3, 20, 0), (4, 1, 1)")
        .unwrap();
    // fwd*lthd = 6: select nodes with d2s <= 6 or minimal d2s, among f=0.
    let out = d
        .execute(
            "UPDATE TVisited SET f = 2 \
             WHERE (d2s <= 6 OR d2s = (SELECT MIN(d2s) FROM TVisited WHERE f = 0)) AND f = 0",
        )
        .unwrap();
    assert_eq!(out.rows_affected, 1, "only node 1 (d2s=3) qualifies");
    let rs = d.query("SELECT nid FROM TVisited WHERE f = 2").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(1));
}

#[test]
fn insert_select_self_reference_snapshots() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT)").unwrap();
    d.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    // Must not loop forever: source evaluated against pre-statement state.
    let out = d.execute("INSERT INTO t SELECT a + 10 FROM t").unwrap();
    assert_eq!(out.rows_affected, 2);
    assert_eq!(d.table_len("t").unwrap(), 4);
}

#[test]
fn duplicate_primary_key_rejected() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT, b INT, PRIMARY KEY(a))")
        .unwrap();
    d.execute("INSERT INTO t VALUES (1, 1)").unwrap();
    let err = d.execute("INSERT INTO t VALUES (1, 2)");
    assert!(matches!(err, Err(SqlError::DuplicateKey { .. })));
}

#[test]
fn distinct_and_limit() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT)").unwrap();
    d.execute("INSERT INTO t VALUES (1), (1), (2), (2), (3)")
        .unwrap();
    let rs = d.query("SELECT DISTINCT a FROM t ORDER BY a").unwrap();
    assert_eq!(rs.rows.len(), 3);
    let rs = d
        .query("SELECT DISTINCT a FROM t ORDER BY a LIMIT 2")
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
}

#[test]
fn three_way_join() {
    let mut d = db();
    d.execute("CREATE TABLE a (x INT)").unwrap();
    d.execute("CREATE TABLE b (x INT, y INT)").unwrap();
    d.execute("CREATE TABLE c (y INT, z INT)").unwrap();
    d.execute("INSERT INTO a VALUES (1), (2)").unwrap();
    d.execute("INSERT INTO b VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();
    d.execute("INSERT INTO c VALUES (10, 100), (20, 200)")
        .unwrap();
    let rs = d
        .query("SELECT a.x, c.z FROM a, b, c WHERE a.x = b.x AND b.y = c.y ORDER BY a.x")
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0], ints(&[1, 100]));
    assert_eq!(rs.rows[1], ints(&[2, 200]));
}

#[test]
fn exists_and_not_exists() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT)").unwrap();
    d.execute("INSERT INTO t VALUES (1)").unwrap();
    let rs = d.query("SELECT 1 WHERE EXISTS (SELECT * FROM t)").unwrap();
    assert_eq!(rs.rows.len(), 1);
    let rs = d
        .query("SELECT 1 WHERE NOT EXISTS (SELECT * FROM t WHERE a > 5)")
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
}

#[test]
fn prepared_statement_reuse_with_params() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT, b INT, PRIMARY KEY(a))")
        .unwrap();
    let sql = "INSERT INTO t (a, b) VALUES (?, ?)";
    for i in 0..50 {
        d.execute_params(sql, &ints(&[i, i * i])).unwrap();
    }
    let rs = d
        .query_params("SELECT b FROM t WHERE a = ?", &ints(&[7]))
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(49));
    // Wrong parameter count errors cleanly.
    assert!(matches!(
        d.execute_params(sql, &ints(&[1])),
        Err(SqlError::ParamCount { .. })
    ));
}

#[test]
fn null_handling_in_filters() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    d.execute("INSERT INTO t (a, b) VALUES (1, 10), (2, NULL)")
        .unwrap();
    // NULL comparisons exclude the row.
    assert_eq!(
        d.query("SELECT a FROM t WHERE b > 5").unwrap().rows.len(),
        1
    );
    assert_eq!(
        d.query("SELECT a FROM t WHERE b IS NULL")
            .unwrap()
            .rows
            .len(),
        1
    );
    assert_eq!(
        d.query("SELECT a FROM t WHERE b IS NOT NULL")
            .unwrap()
            .rows
            .len(),
        1
    );
}

#[test]
fn qualified_wildcard_and_aliases() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    d.execute("INSERT INTO t VALUES (1, 2)").unwrap();
    let rs = d.query("SELECT x.* FROM t x").unwrap();
    assert_eq!(*rs.columns, vec!["a", "b"]);
    let rs = d.query("SELECT x.a AS first FROM t x").unwrap();
    assert_eq!(*rs.columns, vec!["first"]);
}

#[test]
fn io_stats_reflect_buffer_pressure() {
    // A table bigger than a tiny buffer pool must incur disk reads when
    // scanned repeatedly — the mechanism behind Fig 8(b).
    let mut d = Database::with_pool(fempath_storage::BufferPool::in_memory(4));
    d.execute("CREATE TABLE t (a INT, pad TEXT)").unwrap();
    let pad = "x".repeat(500);
    for i in 0..200 {
        d.execute_params(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Int(i), Value::Text(pad.clone())],
        )
        .unwrap();
    }
    d.reset_io_stats();
    d.query("SELECT MIN(a) FROM t").unwrap();
    let small = d.io_stats();
    assert!(small.buffer_misses > 0, "tiny pool must miss");

    d.set_buffer_capacity(1024).unwrap();
    d.query("SELECT MIN(a) FROM t").unwrap(); // warm the pool
    d.reset_io_stats();
    d.query("SELECT MIN(a) FROM t").unwrap();
    let big = d.io_stats();
    assert_eq!(big.buffer_misses, 0, "large pool must serve from memory");
}

#[test]
fn statement_counter_tracks_executions() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT)").unwrap();
    let before = d.statements_executed();
    d.execute("INSERT INTO t VALUES (1)").unwrap();
    d.query("SELECT * FROM t").unwrap();
    assert_eq!(d.statements_executed(), before + 2);
}

/// Loads 2,000 rows into `t` (which must exist) in one statement.
fn fill_2000(d: &mut Database) {
    let values: Vec<String> = (0..2000).map(|i| format!("({i}, {})", i * 7)).collect();
    d.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
}

#[test]
fn dropped_tables_return_their_pages() {
    // Each round builds a table and drops it; once the first round has
    // sized the store, later rounds must reuse the freed pages.
    let rounds = |setup: &dyn Fn(&mut Database)| -> Vec<u64> {
        let mut d = db();
        (0..5)
            .map(|_| {
                setup(&mut d);
                d.execute("DROP TABLE t").unwrap();
                d.data_pages()
            })
            .collect()
    };
    let heap = rounds(&|d| {
        d.execute("CREATE TABLE t (a INT, b INT)").unwrap();
        fill_2000(d);
    });
    let clustered_heap = rounds(&|d| {
        d.execute("CREATE TABLE t (a INT, b INT)").unwrap();
        fill_2000(d);
        d.execute("CREATE CLUSTERED INDEX ct ON t(a)").unwrap();
    });
    let clustered = rounds(&|d| {
        d.execute("CREATE TABLE t (a INT, b INT)").unwrap();
        d.execute("CREATE CLUSTERED INDEX ct ON t(a)").unwrap();
        fill_2000(d);
    });
    for (name, pages) in [
        ("heap", heap),
        ("heap clustered after load", clustered_heap),
        ("clustered", clustered),
    ] {
        assert!(pages[0] > 0, "{name}: the rows must occupy pages");
        assert!(
            pages.iter().all(|&p| p == pages[0]),
            "{name}: data pages grew across create/drop rounds: {pages:?}"
        );
    }
}

#[test]
fn drop_index_falls_back_to_scan() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    d.execute("CREATE INDEX ix ON t(a)").unwrap();
    d.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
    assert_eq!(
        d.query_params("SELECT b FROM t WHERE a = ?", &ints(&[2]))
            .unwrap()
            .rows[0][0],
        Value::Int(20)
    );
    d.execute("DROP INDEX ix").unwrap();
    assert_eq!(
        d.query_params("SELECT b FROM t WHERE a = ?", &ints(&[2]))
            .unwrap()
            .rows[0][0],
        Value::Int(20)
    );
}

#[test]
fn derived_table_with_renamed_columns() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    d.execute("INSERT INTO t VALUES (1, 2), (3, 4)").unwrap();
    let rs = d
        .query("SELECT x, y FROM (SELECT a, b FROM t) r (x, y) WHERE x > 1")
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0], ints(&[3, 4]));
}

#[test]
fn update_assignments_see_pre_update_row() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    d.execute("INSERT INTO t VALUES (1, 2)").unwrap();
    d.execute("UPDATE t SET a = b, b = a").unwrap();
    let rs = d.query("SELECT a, b FROM t").unwrap();
    assert_eq!(rs.rows[0], ints(&[2, 1]), "swap semantics");
}
