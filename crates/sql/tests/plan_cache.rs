//! Plan-cache lifecycle regressions: stale-version eviction after DDL,
//! the LRU size bound under statement churn, and snapshot sessions
//! sharing one compiled plan through the snapshot's shared plan cache.

use fempath_sql::Database;
use fempath_storage::Value;

fn db() -> Database {
    Database::in_memory(256)
}

#[test]
fn ddl_evicts_superseded_version_entries() {
    let mut d = db();
    d.execute("CREATE TABLE t (x INT)").unwrap();
    d.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    // Populate the cache with several distinct statements.
    for i in 0..10 {
        d.query(&format!("SELECT x + {i} FROM t")).unwrap();
    }
    assert!(d.cached_plans() >= 10);
    // DDL bumps the catalog version: every cached plan is now stale and
    // can never be served again. The first prepare afterwards must sweep
    // them all instead of leaking them until the cap.
    d.execute("CREATE TABLE u (y INT)").unwrap();
    d.query("SELECT COUNT(*) FROM u").unwrap();
    assert_eq!(
        d.cached_plans(),
        1,
        "only the current-version plan may remain after the DDL sweep"
    );
}

#[test]
fn cache_stays_bounded_under_distinct_statement_churn() {
    let mut d = db();
    d.execute("CREATE TABLE t (x INT)").unwrap();
    d.execute("INSERT INTO t VALUES (7)").unwrap();
    // Far more distinct statement texts than the cap (512).
    for i in 0..700 {
        d.query(&format!("SELECT x + {i} FROM t")).unwrap();
    }
    assert!(
        d.cached_plans() <= 512,
        "cache exceeded its bound: {}",
        d.cached_plans()
    );
    // Churn evicts LRU entries one at a time, not wholesale: the cache
    // must still be full of useful entries, not freshly cleared.
    assert!(d.cached_plans() >= 500, "cache was dropped wholesale");

    // The snapshot's shared cache keeps the same bound and LRU eviction.
    let snap = d.freeze().unwrap();
    let mut s = snap.session();
    for i in 0..700 {
        s.query(&format!("SELECT x + {i} FROM t")).unwrap();
    }
    let plans = snap.shared_plan_stats().plans;
    assert!(
        (500..=512).contains(&plans),
        "shared cache left its bound or was dropped wholesale: {plans}"
    );
}

#[test]
fn repeated_execution_does_not_grow_cache() {
    let mut d = db();
    d.execute("CREATE TABLE t (x INT)").unwrap();
    for i in 0..50 {
        d.execute_params("INSERT INTO t VALUES (?)", &[Value::Int(i)])
            .unwrap();
    }
    // Only the INSERT's plan: the CREATE TABLE plan was compiled against
    // the pre-DDL version and swept as stale.
    assert_eq!(d.cached_plans(), 1);
}

#[test]
fn literal_scripts_stay_out_of_the_plan_cache() {
    let mut d = db();
    d.execute("CREATE TABLE t (x INT, y INT)").unwrap();
    d.execute_params(
        "INSERT INTO t VALUES (?, ?)",
        &[Value::Int(0), Value::Int(0)],
    )
    .unwrap();
    let steady = d.cached_plans();
    // Every script carries its own literals, so no two texts repeat; each
    // is planned and run once, and none may claim a cache slot.
    for i in 1..=40i64 {
        let out = d
            .execute_script(&format!(
                "INSERT INTO t VALUES ({i}, {}), ({}, {i}); INSERT INTO t VALUES ({}, 0)",
                2 * i,
                3 * i,
                -i
            ))
            .unwrap();
        assert_eq!(out.rows_affected, 1, "the script returns its last outcome");
        assert_eq!(d.cached_plans(), steady, "script {i} grew the plan cache");
    }
    assert_eq!(
        d.query("SELECT COUNT(*) FROM t").unwrap().scalar_i64(),
        Some(121)
    );
}

#[test]
fn stale_prepared_handle_replans_transparently() {
    let mut d = db();
    d.execute("CREATE TABLE t (x INT)").unwrap();
    d.execute("INSERT INTO t VALUES (3)").unwrap();
    let stmt = d.prepare("SELECT x FROM t WHERE x = ?").unwrap();
    let v0 = stmt.catalog_version();
    d.execute("CREATE INDEX idx_tx ON t (x)").unwrap();
    // The handle is stale now; execution must replan against the new
    // catalog version and still answer correctly.
    let out = d.execute_prepared(&stmt, &[Value::Int(3)]).unwrap();
    assert_eq!(out.rows.unwrap().rows, vec![vec![Value::Int(3)]]);
    let fresh = d.prepare("SELECT x FROM t WHERE x = ?").unwrap();
    assert!(fresh.catalog_version() > v0);
}

#[test]
fn snapshot_sessions_share_compiled_plans() {
    let mut d = db();
    d.execute("CREATE TABLE t (x INT)").unwrap();
    d.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    let snap = d.freeze().unwrap();
    assert_eq!(snap.shared_plan_stats().plans, 0);

    let mut a = snap.session();
    a.query("SELECT COUNT(*) FROM t").unwrap();
    let published = snap.shared_plan_stats().plans;
    assert!(published >= 1, "session must publish compiled plans");

    // A sibling session reuses the shared plan instead of recompiling.
    let mut b = snap.session();
    let rs = b.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rs.scalar_i64(), Some(3));
    assert_eq!(
        snap.shared_plan_stats().plans,
        published,
        "second session must hit the shared cache, not republish"
    );
}

#[test]
fn snapshot_sessions_answer_queries_and_stay_isolated() {
    let mut d = db();
    d.execute("CREATE TABLE t (x INT, y INT, PRIMARY KEY(x))")
        .unwrap();
    for i in 0..20 {
        d.execute_params(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Int(i), Value::Int(i * i)],
        )
        .unwrap();
    }
    let snap = d.freeze().unwrap();
    let mut a = snap.session();
    let mut b = snap.session();
    // Point lookups through the frozen primary-key index.
    assert_eq!(
        a.query("SELECT y FROM t WHERE x = 7").unwrap().scalar_i64(),
        Some(49)
    );
    // Writes stay private to the session.
    a.execute("UPDATE t SET y = -1 WHERE x = 7").unwrap();
    assert_eq!(
        a.query("SELECT y FROM t WHERE x = 7").unwrap().scalar_i64(),
        Some(-1)
    );
    assert_eq!(
        b.query("SELECT y FROM t WHERE x = 7").unwrap().scalar_i64(),
        Some(49),
        "sibling session must not observe the other session's write"
    );
}

#[test]
fn shared_cache_stats_track_publish_once_and_hits() {
    let mut d = db();
    d.execute("CREATE TABLE t (x INT)").unwrap();
    d.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    let snap = d.freeze().unwrap();
    let zero = snap.shared_plan_stats();
    assert_eq!((zero.publishes, zero.hits, zero.plans), (0, 0, 0));

    // First session compiles and publishes; the consult that preceded
    // the compile was a miss.
    let mut a = snap.session();
    a.query("SELECT COUNT(*) FROM t").unwrap();
    let after_a = snap.shared_plan_stats();
    assert!(after_a.publishes >= 1);
    assert!(after_a.misses >= 1);
    assert_eq!(after_a.plans as u64, after_a.publishes);

    // A sibling session running the same statement hits the shared
    // cache: no new publish, at least one hit.
    let mut b = snap.session();
    b.query("SELECT COUNT(*) FROM t").unwrap();
    let after_b = snap.shared_plan_stats();
    assert_eq!(
        after_b.publishes, after_a.publishes,
        "publish-once: the second session must reuse, not republish"
    );
    assert!(
        after_b.hits > after_a.hits,
        "sibling consult must count as a hit"
    );

    // A *distinct* statement still publishes exactly once more.
    b.query("SELECT SUM(x) FROM t").unwrap();
    let after_sum = snap.shared_plan_stats();
    assert_eq!(after_sum.publishes, after_a.publishes + 1);
    a.query("SELECT SUM(x) FROM t").unwrap();
    assert_eq!(
        snap.shared_plan_stats().publishes,
        after_sum.publishes,
        "the statement is shared once published, whoever compiled it"
    );
}
