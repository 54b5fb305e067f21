//! Plan-shape regression tests: which access path and join strategy a
//! prepared plan chose (via `PreparedStmt::describe`), that femcheck's
//! verdicts read the same choice, plus the catalog-version invalidation
//! rules — prepare → DDL → re-execute must transparently replan (picking
//! up new indexes, erroring cleanly on dropped tables), while TRUNCATE
//! must NOT invalidate anything.

use fempath_sql::{AccessKind, Database, JoinKind, SqlError};
use fempath_storage::{DataType, Value};

fn db() -> Database {
    let mut d = Database::in_memory(256);
    d.execute("CREATE TABLE TVisited (nid INT, d2s INT, f INT, PRIMARY KEY(nid))")
        .unwrap();
    d.execute("CREATE TABLE TEdges (fid INT, tid INT, cost INT)")
        .unwrap();
    d.execute("CREATE CLUSTERED INDEX ix_e ON TEdges(fid)")
        .unwrap();
    d.execute("CREATE TABLE bare (x INT, y INT)").unwrap();
    for i in 0..20i64 {
        d.execute_params(
            "INSERT INTO TVisited VALUES (?, ?, 0)",
            &[Value::Int(i), Value::Int(i % 5)],
        )
        .unwrap();
        d.execute_params(
            "INSERT INTO TEdges VALUES (?, ?, 1)",
            &[Value::Int(i), Value::Int((i + 1) % 20)],
        )
        .unwrap();
        d.execute_params(
            "INSERT INTO bare VALUES (?, ?)",
            &[Value::Int(i % 4), Value::Int(i)],
        )
        .unwrap();
    }
    d
}

fn describe(d: &mut Database, sql: &str) -> String {
    d.prepare(sql).unwrap().describe().join("\n")
}

#[test]
fn point_lookup_uses_unique_index() {
    let mut d = db();
    let plan = describe(&mut d, "SELECT d2s FROM TVisited WHERE nid = 7");
    assert!(
        plan.contains("via index lookup on columns [0], cols=[d2s], by unique key of index #0"),
        "expected index lookup, got:\n{plan}"
    );
}

#[test]
fn clustered_prefix_lookup() {
    let mut d = db();
    let plan = describe(&mut d, "SELECT tid FROM TEdges WHERE fid = ?");
    assert!(
        plan.contains(
            "SCAN TEdges (TEdges) via index lookup on columns [0], cols=[tid], \
             by clustered-key prefix"
        ),
        "expected clustered prefix lookup, got:\n{plan}"
    );
}

#[test]
fn unindexed_predicate_full_scans() {
    let mut d = db();
    let plan = describe(&mut d, "SELECT y FROM bare WHERE x = 1");
    assert!(
        plan.contains("full scan, 1 pushed filter(s)"),
        "expected filtered full scan, got:\n{plan}"
    );
}

#[test]
fn join_with_inner_index_is_index_nested_loop() {
    let mut d = db();
    let plan = describe(
        &mut d,
        "SELECT q.nid, e.tid FROM TVisited q, TEdges e WHERE q.nid = e.fid",
    );
    assert!(
        plan.contains(
            "INDEX NESTED LOOP JOIN TEdges (e) probing index columns [0], cols=[tid], \
             by clustered-key prefix"
        ),
        "expected index nested loop, got:\n{plan}"
    );
}

/// Segment-compressed edge storage serves `fid` lookups and joins from its
/// segment tree, and `describe()` says so.
#[test]
fn segment_lookups_and_joins_print_the_segment_path() {
    use fempath_sql::ast::ColumnDef;
    let mut d = db();
    let cols = ["fid", "tid", "cost"]
        .iter()
        .map(|n| ColumnDef {
            name: (*n).into(),
            dtype: DataType::Int,
        })
        .collect();
    d.create_segmented_table("seg", cols).unwrap();
    d.bulk_load_segments("seg", (0..20i64).map(|f| (f, (f + 1) % 20, 1)))
        .unwrap();
    let lookup = describe(&mut d, "SELECT tid FROM seg WHERE fid = ?");
    assert!(
        lookup.contains("via index lookup on columns [0], cols=[tid], by segment-tree key range"),
        "{lookup}"
    );
    let join = describe(
        &mut d,
        "SELECT s.tid FROM TVisited q, seg s WHERE q.nid = s.fid AND q.f = 0",
    );
    assert!(
        join.contains(
            "INDEX NESTED LOOP JOIN seg (s) probing index columns [0], cols=[tid], \
             by segment-tree key range"
        ),
        "{join}"
    );
}

/// The access path is one decision, and femcheck reads it from the plan
/// that runs. On `T(a, b)` a non-unique index on `a` is created before a
/// unique one: an equality on `a` is a prefix scan of the first, for a
/// lookup and for a MERGE probe alike. femcheck's verdicts say
/// `IndexRange`, matching the path `describe()` prints — not `IndexEq`,
/// which a unique index on the same column would suggest.
#[test]
fn analyzer_verdicts_match_the_planned_probe_path() {
    let mut d = Database::in_memory(64);
    for ddl in [
        "CREATE TABLE T (a INT, b INT)",
        "CREATE INDEX i1 ON T(a)",
        "CREATE UNIQUE INDEX i2 ON T(a)",
        "CREATE TABLE S (a INT, b INT)",
    ] {
        d.execute(ddl).unwrap();
    }
    let lookup = "SELECT b FROM T WHERE a = ?";
    let merge = "MERGE INTO T USING S ON T.a = S.a WHEN MATCHED THEN UPDATE SET b = S.b";
    for (sql, join) in [(lookup, JoinKind::Source), (merge, JoinKind::Probe)] {
        let report = d.analyze(sql).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        let t = report.accesses.iter().find(|a| a.join == join).unwrap();
        assert_eq!(
            (t.table.as_str(), t.access),
            ("T", AccessKind::IndexRange),
            "{sql}"
        );
        assert_eq!(t.index_cols, ["a"], "{sql}");
        let plan = describe(&mut d, sql);
        assert!(plan.contains("by prefix of index #0"), "{sql}:\n{plan}");
    }
}

#[test]
fn join_without_index_is_hash_join() {
    let mut d = db();
    let plan = describe(
        &mut d,
        "SELECT a.y, b.y FROM bare a, bare b WHERE a.x = b.x",
    );
    assert!(
        plan.contains("HASH JOIN on 1 column(s)"),
        "expected hash join, got:\n{plan}"
    );
}

#[test]
fn join_without_equalities_is_nested_loop() {
    let mut d = db();
    let plan = describe(
        &mut d,
        "SELECT a.y, b.y FROM bare a, bare b WHERE a.x < b.x",
    );
    assert!(
        plan.contains("NESTED LOOP JOIN"),
        "expected nested loop, got:\n{plan}"
    );
}

#[test]
fn aggregate_and_limit_stages_appear() {
    let mut d = db();
    let plan = describe(
        &mut d,
        "SELECT TOP 3 x, COUNT(*) FROM bare GROUP BY x ORDER BY x",
    );
    assert!(
        plan.contains("AGGREGATE (1 group key(s), 1 aggregate(s))"),
        "{plan}"
    );
    assert!(plan.contains("SORT"), "{plan}");
    assert!(plan.contains("LIMIT 3"), "{plan}");
}

#[test]
fn update_from_probes_target_index() {
    let mut d = db();
    let plan = describe(
        &mut d,
        "UPDATE TVisited SET d2s = e.cost FROM TEdges e \
         WHERE TVisited.nid = e.tid AND TVisited.d2s > e.cost",
    );
    assert!(
        plan.contains("UPDATE TVisited probing columns [0]"),
        "expected probe on nid, got:\n{plan}"
    );
}

/// The paper's 7-column `TVisited` with the `nid` index `GraphDb` gives it.
fn paper_visited() -> Database {
    let mut d = Database::in_memory(256);
    d.execute("CREATE TABLE TVisited (nid INT, d2s INT, p2s INT, f INT, d2t INT, p2t INT, b INT)")
        .unwrap();
    d.execute("CREATE UNIQUE INDEX idx_tvisited_nid ON TVisited(nid)")
        .unwrap();
    for i in 0..20i64 {
        d.execute_params(
            "INSERT INTO TVisited VALUES (?, ?, ?, ?, 4000000000000000, -1, 0)",
            &[i, i % 5, i / 2, (i % 4 == 0) as i64 * 2].map(Value::Int),
        )
        .unwrap();
    }
    d
}

/// The forward loop statements of the bidirectional finders (`SqlGen`'s
/// text), by corpus name — and `MARK_BY_NID`, which no finder issues any
/// more but is the by-`nid` UPDATE that carries a residual.
const CANDIDATE_STATS: &str = "SELECT MIN(d2s), COUNT(*), MIN(d2s + d2t) FROM TVisited \
     WHERE f = 0 AND d2s < 4000000000000000";
const SELECT_MID_AT: &str = "SELECT TOP 1 nid FROM TVisited WHERE f = 0 AND d2s = ?";
const MARK_BY_NID: &str = "UPDATE TVisited SET f = 2 WHERE nid = ? AND f = 0";
const SETTLE_BY_NID: &str = "UPDATE TVisited SET f = 1 WHERE nid = ?";
const RESET_FRONTIER: &str = "UPDATE TVisited SET f = 1 WHERE f = 2";

#[test]
fn scans_list_the_columns_the_statement_reads() {
    let mut d = paper_visited();
    let stats = describe(&mut d, CANDIDATE_STATS);
    assert!(
        stats.contains("full scan, 2 pushed filter(s), cols=[d2s,f,d2t]"),
        "candidate_stats reads d2s, f and d2t only, got:\n{stats}"
    );
    let pick = describe(&mut d, SELECT_MID_AT);
    assert!(
        pick.contains("full scan, 2 pushed filter(s), cols=[nid,d2s,f]"),
        "the bound pick reads nid, d2s and f only, got:\n{pick}"
    );
    let count = describe(&mut d, "SELECT COUNT(*) FROM TVisited");
    assert!(
        count.contains("full scan, 0 pushed filter(s), cols=[]"),
        "COUNT(*) reads no column, got:\n{count}"
    );
    let min_cost = describe(&mut d, "SELECT MIN(d2s + d2t) FROM TVisited");
    assert!(min_cost.contains("cols=[d2s,d2t]"), "{min_cost}");
    // A full-row consumer keeps every column: SELECT *.
    let all = "cols=[nid,d2s,p2s,f,d2t,p2t,b]";
    let star = describe(&mut d, "SELECT * FROM TVisited WHERE f = 2");
    assert!(star.contains(all), "{star}");
    // A sort reads what it names: the select list and its keys.
    let sorted = describe(&mut d, "SELECT nid FROM TVisited ORDER BY d2s");
    assert!(sorted.contains("cols=[nid,d2s]"), "{sorted}");
    // Projection is per relation: the E-operator's join reads three
    // frontier columns and every edge column.
    let expand = describe(
        &mut db(),
        "SELECT e.tid, e.fid, e.cost + q.d2s FROM TVisited q, TEdges e \
         WHERE q.nid = e.fid AND q.f = 2",
    );
    assert!(expand.contains("SCAN TVisited (q) full scan, 1 pushed filter(s), cols=[nid,d2s,f]"));
    assert!(expand.contains("probing index columns [0], cols=[fid,tid,cost]"));
}

#[test]
fn by_nid_updates_probe_the_index_and_set_updates_scan_their_predicate() {
    let mut d = paper_visited();
    for sql in [MARK_BY_NID, SETTLE_BY_NID] {
        let plan = describe(&mut d, sql);
        assert!(
            plan.starts_with(
                "UPDATE TVisited\n  SCAN TVisited (TVisited) via index lookup on columns [0]"
            ),
            "expected an index-lookup target, got:\n{plan}"
        );
    }
    // mark_by_nid keeps its flag test as a residual on the probed row.
    let marked = d
        .execute_params(MARK_BY_NID, &[Value::Int(4)])
        .unwrap()
        .rows_affected;
    assert_eq!(marked, 0, "node 4 is already marked (f = 2)");
    assert_eq!(
        d.execute_params(MARK_BY_NID, &[Value::Int(5)])
            .unwrap()
            .rows_affected,
        1
    );

    let reset = describe(&mut d, RESET_FRONTIER);
    assert!(
        reset.contains("SCAN TVisited (TVisited) full scan, 1 pushed filter(s), cols=[f]"),
        "reset_frontier scans reading f only, got:\n{reset}"
    );
    let delete = describe(&mut d, "DELETE FROM TVisited WHERE nid = 3 AND d2s > 0");
    assert!(
        delete.starts_with(
            "DELETE TVisited\n  SCAN TVisited (TVisited) via index lookup on columns [0]"
        ),
        "{delete}"
    );
}

#[test]
fn update_replans_to_a_scan_when_its_index_is_dropped() {
    let mut d = paper_visited();
    let stmt = d.prepare(SETTLE_BY_NID).unwrap();
    assert!(stmt.describe().join("\n").contains("via index lookup"));
    assert_eq!(
        d.execute_prepared(&stmt, &[Value::Int(7)])
            .unwrap()
            .rows_affected,
        1
    );
    d.execute("DROP INDEX idx_tvisited_nid").unwrap();
    // The stale handle still runs (transparent replan) …
    assert_eq!(
        d.execute_prepared(&stmt, &[Value::Int(8)])
            .unwrap()
            .rows_affected,
        1
    );
    // … and a fresh prepare shows what it re-planned to.
    let replanned = describe(&mut d, SETTLE_BY_NID);
    assert!(
        replanned.contains("full scan, 1 pushed filter(s), cols=[nid]"),
        "expected a scan reading nid, got:\n{replanned}"
    );
    let settled = d
        .query("SELECT COUNT(*) FROM TVisited WHERE f = 1")
        .unwrap();
    assert_eq!(settled.rows, vec![vec![Value::Int(2)]]);
}

#[test]
fn prepared_select_picks_up_new_index_after_create() {
    let mut d = db();
    let sql = "SELECT y FROM bare WHERE x = 2";
    let stmt = d.prepare(sql).unwrap();
    assert!(stmt.describe().join("\n").contains("full scan"));
    let before = d.execute_prepared(&stmt, &[]).unwrap();

    d.execute("CREATE INDEX ix_bare_x ON bare(x)").unwrap();
    // The old handle is stale but still executes (transparent replan) and
    // returns the same rows.
    let after = d.execute_prepared(&stmt, &[]).unwrap();
    assert_eq!(before.rows.unwrap().rows, after.rows.unwrap().rows);
    // A fresh prepare of the same SQL now chooses the index.
    let replanned = d.prepare(sql).unwrap();
    assert!(
        replanned
            .describe()
            .join("\n")
            .contains("via index lookup on columns [0]"),
        "replanned:\n{}",
        replanned.describe().join("\n")
    );
    assert!(replanned.catalog_version() > stmt.catalog_version());
}

#[test]
fn dropped_table_fails_cleanly_not_stale() {
    let mut d = db();
    let stmt = d.prepare("SELECT y FROM bare WHERE x = 2").unwrap();
    d.execute_prepared(&stmt, &[]).unwrap();
    d.execute("DROP TABLE bare").unwrap();
    let err = d.execute_prepared(&stmt, &[]);
    assert!(
        matches!(err, Err(SqlError::Catalog(_))),
        "expected catalog error after DROP TABLE, got {err:?}"
    );
}

#[test]
fn truncate_does_not_invalidate_plans() {
    let mut d = db();
    let stmt = d.prepare("SELECT COUNT(*) FROM bare").unwrap();
    let v = d.catalog_version();
    assert_eq!(
        d.execute_prepared(&stmt, &[]).unwrap().rows.unwrap().rows,
        vec![vec![Value::Int(20)]]
    );
    d.execute("TRUNCATE TABLE bare").unwrap();
    assert_eq!(d.catalog_version(), v, "TRUNCATE must not bump the version");
    assert_eq!(
        d.execute_prepared(&stmt, &[]).unwrap().rows.unwrap().rows,
        vec![vec![Value::Int(0)]]
    );
}

#[test]
fn plan_cache_hits_across_executions() {
    let mut d = db();
    let sql = "SELECT d2s FROM TVisited WHERE nid = ?";
    for i in 0..10i64 {
        d.execute_params(sql, &[Value::Int(i)]).unwrap();
    }
    let cached = d.cached_plans();
    for i in 0..10i64 {
        d.execute_params(sql, &[Value::Int(i)]).unwrap();
    }
    assert_eq!(d.cached_plans(), cached, "re-execution must not re-plan");
}

#[test]
fn prepared_handle_metadata() {
    let mut d = db();
    let stmt = d
        .prepare("SELECT d2s FROM TVisited WHERE nid = ? AND d2s < ?")
        .unwrap();
    assert_eq!(stmt.param_count(), 2);
    assert_eq!(
        stmt.sql(),
        "SELECT d2s FROM TVisited WHERE nid = ? AND d2s < ?"
    );
    // Executing with too few parameters errors cleanly.
    assert!(matches!(
        d.execute_prepared(&stmt, &[Value::Int(1)]),
        Err(SqlError::ParamCount { .. })
    ));
}

/// The batched FEM working tables as `GraphDb` creates them.
fn batch_tables() -> Database {
    let mut d = Database::in_memory(256);
    for ddl in [
        "CREATE TABLE TBVisited (qid INT, nid INT, d2s INT, p2s INT, f INT, d2t INT, p2t INT, b INT)",
        "CREATE UNIQUE INDEX idx_tbvisited ON TBVisited(qid, nid)",
        "CREATE TABLE TBounds (qid INT, s INT, t INT, lf INT, lb INT, nf INT, nb INT, \
         mincost INT, bound INT, done INT)",
        "CREATE UNIQUE CLUSTERED INDEX idx_tbounds ON TBounds(qid)",
        "CREATE TABLE TEdges (fid INT, tid INT, cost INT)",
        "CREATE CLUSTERED INDEX ix_e ON TEdges(fid)",
    ] {
        d.execute(ddl).unwrap();
    }
    d
}

/// DML plans record their structural choices — the probe path into the
/// target, the target columns fetched per match, how the write phase
/// applies assignments — and `describe()` prints them.
#[test]
fn dml_plans_print_probe_path_fetched_columns_and_write_mode() {
    let mut d = batch_tables();
    // F-operator (mark_frontier/all_alt): one prefix probe per live query,
    // fetching only the two columns the target residuals read; the flag is
    // in no index, so its cells are patched in place.
    let mark = describe(
        &mut d,
        "UPDATE TBVisited SET f = 2 FROM TBounds \
         WHERE TBVisited.qid = TBounds.qid AND TBounds.done = 0 AND TBounds.nf > 0 \
           AND TBVisited.f = 0 AND TBVisited.d2s < 4000000000000000",
    );
    assert!(
        mark.contains("UPDATE TBVisited probing columns [0]")
            && mark.contains("PROBE TBVisited by prefix of index #0, cols=[d2s,f]")
            && mark.contains("WRITE assigned cells in place"),
        "{mark}"
    );
    // E+M (expand_merge): a unique-key point probe fetching d2s alone; an
    // unmatched key was just shown absent, so the insert skips re-probing.
    let merge = describe(
        &mut d,
        "MERGE INTO TBVisited AS target USING ( \
           SELECT q.qid AS qid, e.tid AS nid, e.fid AS np, e.cost + q.d2s AS cost \
           FROM TBVisited q, TEdges e WHERE q.nid = e.fid AND q.f = 2 \
         ) AS source (qid, nid, np, cost) \
         ON source.qid = target.qid AND source.nid = target.nid \
         WHEN MATCHED AND target.d2s > source.cost THEN \
           UPDATE SET d2s = source.cost, p2s = source.np, f = 0 \
         WHEN NOT MATCHED THEN INSERT (qid, nid, d2s, p2s, f, d2t, p2t, b) \
           VALUES (source.qid, source.nid, source.cost, source.np, 0, 4000000000000000, -1, 0)",
    );
    assert!(
        merge.contains("PROBE TBVisited by unique key of index #0, cols=[d2s]")
            && merge.contains("WRITE assigned cells in place")
            && merge.contains("INSERT unmatched rows, keys proven absent by the probe"),
        "{merge}"
    );
    // The same MERGE inserting a different key than it probed proves nothing.
    let shifted = describe(
        &mut d,
        "MERGE INTO TBVisited AS target USING TBounds AS source \
         ON source.qid = target.qid AND source.s = target.nid \
         WHEN NOT MATCHED THEN INSERT (qid, nid) VALUES (source.qid, source.s + 1)",
    );
    assert!(shifted.ends_with("INSERT unmatched rows"), "{shifted}");
    // Plain set-valued updates read what predicate and SET expressions
    // name — in one pass, no re-read.
    let reset = describe(
        &mut d,
        "UPDATE TBVisited SET f = f - (f = 2), b = b - (b = 2) WHERE f = 2 OR b = 2",
    );
    assert!(
        reset.contains("full scan, 1 pushed filter(s), cols=[f,b]")
            && !reset.contains("re-read")
            && reset.contains("WRITE assigned cells in place"),
        "{reset}"
    );
    // DELETE reads its predicate plus the indexed columns (the keys of the
    // index entries it removes).
    let delete = describe(
        &mut d,
        "DELETE FROM TBVisited WHERE f = 1 AND qid IN (SELECT qid FROM TBounds WHERE done = 1)",
    );
    assert!(delete.contains("cols=[qid,nid,f]"), "{delete}");
    // Assigning an indexed column, or any column of a clustered table,
    // rewrites rows whole: a scan re-reads its matches, a probe fetches
    // every column.
    let rekey = describe(&mut d, "UPDATE TBVisited SET nid = nid + 1 WHERE f = 2");
    assert!(
        rekey.contains("cols=[f], matches re-read whole") && rekey.contains("WRITE whole rows"),
        "{rekey}"
    );
    let bounds = describe(
        &mut d,
        "UPDATE TBounds SET done = 1 WHERE qid = 3 AND done = 0",
    );
    assert!(
        bounds.contains("via index lookup on columns [0]")
            && bounds.contains("by clustered-key prefix")
            && bounds.contains("WRITE whole rows"),
        "{bounds}"
    );
    // No index on the probed column: the probe scans, and says so.
    let unindexed = describe(
        &mut d,
        "UPDATE TBVisited SET f = 1 FROM TBounds WHERE TBVisited.nid = TBounds.t",
    );
    assert!(
        unindexed.contains("PROBE TBVisited by scan (no index on the probed columns), cols=[]"),
        "{unindexed}"
    );
}
