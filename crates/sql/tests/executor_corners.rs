//! Executor corner cases: join strategies, subquery placement, window and
//! aggregate edges, DML interactions — the situations the paper's SQL
//! exercises indirectly and a general user would hit directly.

mod common;

use fempath_sql::{Database, SqlError};
use fempath_sql_reference::execute_unplanned;
use fempath_storage::Value;

fn db() -> Database {
    Database::in_memory(256)
}

#[test]
fn hash_join_without_any_index() {
    let mut d = db();
    d.execute("CREATE TABLE a (x INT, y INT)").unwrap();
    d.execute("CREATE TABLE b (x INT, z INT)").unwrap();
    for i in 0..50 {
        d.execute_params(
            "INSERT INTO a VALUES (?, ?)",
            &[Value::Int(i), Value::Int(i * 2)],
        )
        .unwrap();
        d.execute_params(
            "INSERT INTO b VALUES (?, ?)",
            &[Value::Int(i), Value::Int(i * 3)],
        )
        .unwrap();
    }
    let rs = d
        .query("SELECT a.y, b.z FROM a, b WHERE a.x = b.x AND a.x = 7")
        .unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(14), Value::Int(21)]]);
}

#[test]
fn cross_join_with_residual_filter() {
    let mut d = db();
    d.execute("CREATE TABLE a (x INT)").unwrap();
    d.execute("CREATE TABLE b (y INT)").unwrap();
    d.execute("INSERT INTO a VALUES (1), (2), (3)").unwrap();
    d.execute("INSERT INTO b VALUES (10), (20)").unwrap();
    let rs = d
        .query("SELECT x, y FROM a, b WHERE x + y > 21 ORDER BY x, y")
        .unwrap();
    // (2,20), (3,20)
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0], vec![Value::Int(2), Value::Int(20)]);
}

#[test]
fn join_predicate_with_expression_on_outer_side() {
    // The E-operator joins on q.nid = e.fid where the left side could be an
    // expression — check index-nested-loop handles computed keys.
    let mut d = db();
    d.execute("CREATE TABLE probe (v INT)").unwrap();
    d.execute("CREATE TABLE data (k INT, payload INT)").unwrap();
    d.execute("CREATE CLUSTERED INDEX ix ON data(k)").unwrap();
    d.execute("INSERT INTO probe VALUES (5), (10)").unwrap();
    for k in 0..30 {
        d.execute_params(
            "INSERT INTO data VALUES (?, ?)",
            &[Value::Int(k), Value::Int(k * 100)],
        )
        .unwrap();
    }
    let rs = d
        .query("SELECT d.payload FROM probe p, data d WHERE p.v * 2 = d.k ORDER BY d.payload")
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0][0], Value::Int(1000));
    assert_eq!(rs.rows[1][0], Value::Int(2000));
}

#[test]
fn scalar_subquery_returning_no_rows_is_null() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT)").unwrap();
    d.execute("INSERT INTO t VALUES (1)").unwrap();
    // MIN over empty set -> NULL; comparison with NULL -> no rows.
    let rs = d
        .query("SELECT a FROM t WHERE a = (SELECT MIN(a) FROM t WHERE a > 100)")
        .unwrap();
    assert!(rs.is_empty());
}

#[test]
fn scalar_subquery_with_multiple_rows_errors() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT)").unwrap();
    d.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    let err = d.query("SELECT 1 WHERE 1 = (SELECT a FROM t)");
    assert!(matches!(err, Err(SqlError::Eval(_))));
}

#[test]
fn in_subquery_with_empty_result() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT)").unwrap();
    d.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    assert!(d
        .query("SELECT a FROM t WHERE a IN (SELECT a FROM t WHERE a > 99)")
        .unwrap()
        .is_empty());
    // NOT IN over empty set keeps everything.
    assert_eq!(
        d.query("SELECT a FROM t WHERE a NOT IN (SELECT a FROM t WHERE a > 99)")
            .unwrap()
            .len(),
        2
    );
}

#[test]
fn window_over_empty_input() {
    let mut d = db();
    d.execute("CREATE TABLE t (g INT, v INT)").unwrap();
    let rs = d
        .query("SELECT g, ROW_NUMBER() OVER (PARTITION BY g ORDER BY v) AS rn FROM t")
        .unwrap();
    assert!(rs.is_empty());
}

#[test]
fn window_single_partition_no_partition_by() {
    let mut d = db();
    d.execute("CREATE TABLE t (v INT)").unwrap();
    d.execute("INSERT INTO t VALUES (30), (10), (20)").unwrap();
    let rs = d
        .query("SELECT v, ROW_NUMBER() OVER (ORDER BY v) AS rn FROM t ORDER BY rn")
        .unwrap();
    let got: Vec<(i64, i64)> = rs
        .rows
        .iter()
        .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
        .collect();
    assert_eq!(got, vec![(10, 1), (20, 2), (30, 3)]);
}

#[test]
fn window_rownum_filter_in_outer_query() {
    // The exact top-1-per-group idiom of Listing 2(3).
    let mut d = db();
    d.execute("CREATE TABLE t (g INT, v INT, tag INT)").unwrap();
    d.execute("INSERT INTO t VALUES (1, 5, 100), (1, 3, 200), (2, 9, 300), (2, 9, 400)")
        .unwrap();
    let rs = d
        .query(
            "SELECT g, v, tag FROM ( \
               SELECT g, v, tag, ROW_NUMBER() OVER (PARTITION BY g ORDER BY v, tag) AS rn \
               FROM t) x WHERE rn = 1 ORDER BY g",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(
        rs.rows[0],
        vec![Value::Int(1), Value::Int(3), Value::Int(200)]
    );
    assert_eq!(
        rs.rows[1],
        vec![Value::Int(2), Value::Int(9), Value::Int(300)]
    );
}

#[test]
fn group_by_expression_key() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT)").unwrap();
    for i in 0..10 {
        d.execute_params("INSERT INTO t VALUES (?)", &[Value::Int(i)])
            .unwrap();
    }
    let rs = d
        .query("SELECT a % 3, COUNT(*) FROM t GROUP BY a % 3 ORDER BY a % 3")
        .unwrap();
    assert_eq!(rs.rows.len(), 3);
    assert_eq!(rs.rows[0][1], Value::Int(4)); // 0,3,6,9
    assert_eq!(rs.rows[1][1], Value::Int(3)); // 1,4,7
    assert_eq!(rs.rows[2][1], Value::Int(3)); // 2,5,8
}

#[test]
fn group_by_rejects_ungrouped_column() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    d.execute("INSERT INTO t VALUES (1, 2)").unwrap();
    let err = d.query("SELECT b, COUNT(*) FROM t GROUP BY a");
    assert!(matches!(err, Err(SqlError::Bind(_))), "got {err:?}");
}

#[test]
fn aggregates_ignore_nulls() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT)").unwrap();
    d.execute("INSERT INTO t (a) VALUES (1), (NULL), (3)")
        .unwrap();
    let rs = d
        .query("SELECT COUNT(*), COUNT(a), SUM(a), MIN(a), AVG(a) FROM t")
        .unwrap();
    assert_eq!(
        rs.rows[0],
        vec![
            Value::Int(3),
            Value::Int(2),
            Value::Int(4),
            Value::Int(1),
            Value::Float(2.0)
        ]
    );
}

#[test]
fn merge_with_derived_source_and_params() {
    // The algorithms merge from an inline derived table with parameters —
    // the exact Listing 4(2) shape.
    let mut d = db();
    d.execute("CREATE TABLE tgt (k INT, v INT, PRIMARY KEY(k))")
        .unwrap();
    d.execute("CREATE TABLE src (k INT, v INT)").unwrap();
    d.execute("INSERT INTO tgt VALUES (1, 100), (2, 100)")
        .unwrap();
    d.execute("INSERT INTO src VALUES (1, 50), (3, 70), (4, 999)")
        .unwrap();
    let out = d
        .execute_params(
            "MERGE INTO tgt AS target USING ( \
               SELECT k, v FROM src WHERE v < ? \
             ) AS source (k, v) ON source.k = target.k \
             WHEN MATCHED AND target.v > source.v THEN UPDATE SET v = source.v \
             WHEN NOT MATCHED THEN INSERT (k, v) VALUES (source.k, source.v)",
            &[Value::Int(100)],
        )
        .unwrap();
    assert_eq!(out.rows_affected, 2, "one update (k=1), one insert (k=3)");
    let rs = d.query("SELECT k, v FROM tgt ORDER BY k").unwrap();
    assert_eq!(rs.rows.len(), 3);
    assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Int(50)]);
    assert_eq!(rs.rows[2], vec![Value::Int(3), Value::Int(70)]);
}

#[test]
fn merge_without_matched_clause() {
    let mut d = db();
    d.execute("CREATE TABLE tgt (k INT, PRIMARY KEY(k))")
        .unwrap();
    d.execute("CREATE TABLE src (k INT)").unwrap();
    d.execute("INSERT INTO tgt VALUES (1)").unwrap();
    d.execute("INSERT INTO src VALUES (1), (2)").unwrap();
    let out = d
        .execute(
            "MERGE INTO tgt USING src ON src.k = tgt.k \
             WHEN NOT MATCHED THEN INSERT (k) VALUES (src.k)",
        )
        .unwrap();
    assert_eq!(out.rows_affected, 1);
    assert_eq!(d.table_len("tgt").unwrap(), 2);
}

#[test]
fn update_from_derived_table() {
    let mut d = db();
    d.execute("CREATE TABLE t (k INT, v INT, PRIMARY KEY(k))")
        .unwrap();
    d.execute("CREATE TABLE delta (k INT, dv INT)").unwrap();
    d.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
    d.execute("INSERT INTO delta VALUES (1, 5), (1, 7), (2, 1)")
        .unwrap();
    // Aggregate the deltas first, then join-update.
    let out = d
        .execute(
            "UPDATE t SET v = s.total FROM ( \
               SELECT k, SUM(dv) AS total FROM delta GROUP BY k \
             ) AS s WHERE t.k = s.k",
        )
        .unwrap();
    assert_eq!(out.rows_affected, 2);
    let rs = d.query("SELECT v FROM t ORDER BY k").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(12));
    assert_eq!(rs.rows[1][0], Value::Int(1));
}

#[test]
fn top_and_limit_interact() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT)").unwrap();
    for i in 0..10 {
        d.execute_params("INSERT INTO t VALUES (?)", &[Value::Int(i)])
            .unwrap();
    }
    assert_eq!(
        d.query("SELECT TOP 3 a FROM t ORDER BY a").unwrap().len(),
        3
    );
    assert_eq!(
        d.query("SELECT a FROM t ORDER BY a LIMIT 4").unwrap().len(),
        4
    );
    assert_eq!(
        d.query("SELECT TOP 5 a FROM t ORDER BY a LIMIT 2")
            .unwrap()
            .len(),
        2,
        "the tighter bound wins"
    );
}

#[test]
fn order_by_selects_output_alias() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    d.execute("INSERT INTO t VALUES (1, 9), (2, 3), (3, 6)")
        .unwrap();
    let rs = d
        .query("SELECT a, a + b AS total FROM t ORDER BY total")
        .unwrap();
    let got: Vec<i64> = rs.rows.iter().map(|r| r[1].as_i64().unwrap()).collect();
    assert_eq!(got, vec![5, 9, 10]);
}

#[test]
fn truncate_then_reuse_under_clustered_index() {
    let mut d = db();
    d.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    d.execute("CREATE CLUSTERED INDEX ix ON t(k)").unwrap();
    for i in 0..100 {
        d.execute_params(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Int(i), Value::Int(i)],
        )
        .unwrap();
    }
    d.execute("TRUNCATE TABLE t").unwrap();
    assert_eq!(d.table_len("t").unwrap(), 0);
    d.execute("INSERT INTO t VALUES (7, 70)").unwrap();
    let rs = d
        .query_params("SELECT v FROM t WHERE k = ?", &[Value::Int(7)])
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(70));
}

#[test]
fn self_join_with_aliases() {
    let mut d = db();
    d.execute("CREATE TABLE e (f INT, t INT)").unwrap();
    d.execute("INSERT INTO e VALUES (1, 2), (2, 3), (3, 4)")
        .unwrap();
    // Two-hop pairs.
    let rs = d
        .query("SELECT a.f, b.t FROM e a, e b WHERE a.t = b.f ORDER BY a.f")
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Int(3)]);
    assert_eq!(rs.rows[1], vec![Value::Int(2), Value::Int(4)]);
}

#[test]
fn float_arithmetic_and_comparison() {
    let mut d = db();
    d.execute("CREATE TABLE t (x FLOAT)").unwrap();
    d.execute("INSERT INTO t VALUES (1.5), (2.5), (3.5)")
        .unwrap();
    let rs = d.query("SELECT SUM(x) FROM t WHERE x > 1.6").unwrap();
    assert_eq!(rs.rows[0][0], Value::Float(6.0));
    let rs = d.query("SELECT AVG(x) FROM t").unwrap();
    assert_eq!(rs.rows[0][0], Value::Float(2.5));
}

#[test]
fn text_filtering_and_ordering() {
    let mut d = db();
    d.execute("CREATE TABLE t (name TEXT, rank INT)").unwrap();
    d.execute("INSERT INTO t VALUES ('carol', 3), ('alice', 1), ('bob', 2)")
        .unwrap();
    let rs = d.query("SELECT name FROM t ORDER BY name").unwrap();
    let names: Vec<&str> = rs.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
    assert_eq!(names, vec!["alice", "bob", "carol"]);
    let rs = d.query("SELECT rank FROM t WHERE name = 'bob'").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(2));
}

#[test]
fn insert_select_with_column_mapping_and_defaults() {
    let mut d = db();
    d.execute("CREATE TABLE src (a INT, b INT)").unwrap();
    d.execute("CREATE TABLE dst (x INT, y INT, z INT)").unwrap();
    d.execute("INSERT INTO src VALUES (1, 2)").unwrap();
    d.execute("INSERT INTO dst (z, x) SELECT a, b FROM src")
        .unwrap();
    let rs = d.query("SELECT x, y, z FROM dst").unwrap();
    assert_eq!(rs.rows[0], vec![Value::Int(2), Value::Null, Value::Int(1)]);
}

#[test]
fn delete_via_subquery_filter() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT)").unwrap();
    d.execute("CREATE TABLE kill (a INT)").unwrap();
    d.execute("INSERT INTO t VALUES (1), (2), (3), (4)")
        .unwrap();
    d.execute("INSERT INTO kill VALUES (2), (4)").unwrap();
    let out = d
        .execute("DELETE FROM t WHERE a IN (SELECT a FROM kill)")
        .unwrap();
    assert_eq!(out.rows_affected, 2);
    let rs = d.query("SELECT a FROM t ORDER BY a").unwrap();
    assert_eq!(rs.rows.len(), 2);
}

#[test]
fn statement_error_leaves_engine_usable() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT)").unwrap();
    assert!(d.execute("SELECT nonexistent FROM t").is_err());
    assert!(d.execute("INSERT INTO missing VALUES (1)").is_err());
    // Engine still healthy.
    d.execute("INSERT INTO t VALUES (42)").unwrap();
    assert_eq!(
        d.query("SELECT a FROM t").unwrap().rows[0][0],
        Value::Int(42)
    );
}

#[test]
fn in_value_list_desugars() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT)").unwrap();
    d.execute("INSERT INTO t VALUES (1), (2), (3), (4), (5)")
        .unwrap();
    let rs = d
        .query("SELECT a FROM t WHERE a IN (2, 4, 99) ORDER BY a")
        .unwrap();
    let got: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(got, vec![2, 4]);
    let rs = d
        .query("SELECT a FROM t WHERE a NOT IN (2, 4) ORDER BY a")
        .unwrap();
    assert_eq!(rs.rows.len(), 3);
}

#[test]
fn between_desugars_to_range() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT)").unwrap();
    for i in 0..10 {
        d.execute_params("INSERT INTO t VALUES (?)", &[Value::Int(i)])
            .unwrap();
    }
    let rs = d
        .query("SELECT a FROM t WHERE a BETWEEN 3 AND 6 ORDER BY a")
        .unwrap();
    let got: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(got, vec![3, 4, 5, 6]);
    let rs = d
        .query("SELECT a FROM t WHERE a NOT BETWEEN 2 AND 7 ORDER BY a")
        .unwrap();
    let got: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(got, vec![0, 1, 8, 9]);
}

#[test]
fn between_binds_tighter_than_and() {
    let mut d = db();
    d.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    d.execute("INSERT INTO t VALUES (5, 1), (5, 0), (99, 1)")
        .unwrap();
    // `a BETWEEN 1 AND 10 AND b = 1` must parse as (range) AND (b = 1).
    let rs = d
        .query("SELECT a FROM t WHERE a BETWEEN 1 AND 10 AND b = 1")
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Int(5));
}

// --- Three-valued [NOT] IN semantics (both executors, both dialects) ---

/// Runs `sql` through the prepared path and the interpreter on twin
/// databases prepared by `setup`, asserting identical result rows, under
/// both dialects.
fn both_paths_both_dialects(setup: &dyn Fn(&mut Database), sql: &str) -> Vec<Vec<Value>> {
    use fempath_sql::Dialect;
    let mut reference: Option<Vec<Vec<Value>>> = None;
    for dialect in [Dialect::DBMS_X, Dialect::POSTGRES] {
        let mut planned = Database::in_memory(256).with_dialect(dialect);
        let mut interp = Database::in_memory(256).with_dialect(dialect);
        setup(&mut planned);
        setup(&mut interp);
        let a = planned
            .execute_params(sql, &[])
            .unwrap()
            .rows
            .map(|r| r.rows)
            .unwrap_or_default();
        let b = execute_unplanned(&mut interp, sql, &[])
            .unwrap()
            .rows
            .map(|r| r.rows)
            .unwrap_or_default();
        common::assert_rows_agree(sql, &a, &b);
        match &reference {
            None => reference = Some(a),
            Some(r) => assert_eq!(&a, r, "dialects diverge on {sql}"),
        }
    }
    reference.unwrap()
}

fn null_tables(d: &mut Database) {
    d.execute("CREATE TABLE t (x INT)").unwrap();
    d.execute("INSERT INTO t VALUES (1), (2), (3), (NULL)")
        .unwrap();
    d.execute("CREATE TABLE sub (y INT)").unwrap();
    d.execute("INSERT INTO sub VALUES (2), (NULL)").unwrap();
    d.execute("CREATE TABLE nonull (y INT)").unwrap();
    d.execute("INSERT INTO nonull VALUES (2)").unwrap();
    d.execute("CREATE TABLE empty (y INT)").unwrap();
    d.execute("CREATE TABLE onlynull (y INT)").unwrap();
    d.execute("INSERT INTO onlynull VALUES (NULL)").unwrap();
}

#[test]
fn not_in_subquery_with_null_is_never_true() {
    // x NOT IN (2, NULL): for x=1 the comparison against NULL is UNKNOWN,
    // so no row qualifies — the pre-fix behaviour returned 1 and 3.
    let rows = both_paths_both_dialects(
        &null_tables,
        "SELECT x FROM t WHERE x NOT IN (SELECT y FROM sub) ORDER BY x",
    );
    assert_eq!(rows, Vec::<Vec<Value>>::new());
}

#[test]
fn not_in_subquery_without_null_is_complement() {
    let rows = both_paths_both_dialects(
        &null_tables,
        "SELECT x FROM t WHERE x NOT IN (SELECT y FROM nonull) ORDER BY x",
    );
    assert_eq!(rows, vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
}

#[test]
fn in_subquery_with_null_still_matches_present_values() {
    let rows = both_paths_both_dialects(
        &null_tables,
        "SELECT x FROM t WHERE x IN (SELECT y FROM sub) ORDER BY x",
    );
    assert_eq!(rows, vec![vec![Value::Int(2)]]);
}

#[test]
fn not_in_empty_subquery_keeps_all_rows_even_null_probe() {
    // NOT IN over zero rows is TRUE for every probe, including NULL.
    let rows = both_paths_both_dialects(
        &null_tables,
        "SELECT COUNT(*) FROM t WHERE x NOT IN (SELECT y FROM empty)",
    );
    assert_eq!(rows, vec![vec![Value::Int(4)]]);
}

#[test]
fn not_in_all_null_subquery_is_unknown_for_all() {
    let rows = both_paths_both_dialects(
        &null_tables,
        "SELECT x FROM t WHERE x NOT IN (SELECT y FROM onlynull)",
    );
    assert_eq!(rows, Vec::<Vec<Value>>::new());
}

#[test]
fn not_in_null_in_projection_yields_null() {
    // As a value (not a filter), x NOT IN (…, NULL) for a non-matching x
    // is NULL, a match is 0/false.
    let rows = both_paths_both_dialects(
        &null_tables,
        "SELECT x, x NOT IN (SELECT y FROM sub) FROM t WHERE x IS NOT NULL ORDER BY x",
    );
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(2), Value::Int(0)],
            vec![Value::Int(3), Value::Null],
        ]
    );
}

// --- Error-path parity between the streaming executor and interpreter ---

/// Both paths must agree on success/error for `sql`, and on the result.
fn parity(setup: &dyn Fn(&mut Database), sql: &str) -> Result<Vec<Vec<Value>>, String> {
    let mut planned = Database::in_memory(256);
    let mut interp = Database::in_memory(256);
    setup(&mut planned);
    setup(&mut interp);
    let a = planned
        .execute_params(sql, &[])
        .map(|o| o.rows.map(|r| r.rows).unwrap_or_default());
    let b = execute_unplanned(&mut interp, sql, &[])
        .map(|o| o.rows.map(|r| r.rows).unwrap_or_default());
    match (a, b) {
        (Ok(x), Ok(y)) => {
            common::assert_rows_agree(sql, &x, &y);
            Ok(x)
        }
        (Err(x), Err(y)) => {
            assert_eq!(x.to_string(), y.to_string(), "error mismatch on {sql}");
            Err(x.to_string())
        }
        (a, b) => panic!("outcome mismatch on {sql}: prepared={a:?} interpreted={b:?}"),
    }
}

#[test]
fn zero_row_scalar_subquery_is_null_not_a_panic() {
    let r = parity(&null_tables, "SELECT (SELECT y FROM empty)");
    assert_eq!(r, Ok(vec![vec![Value::Null]]));
    // And NULL propagates through arithmetic instead of erroring.
    let r = parity(&null_tables, "SELECT 10 / (SELECT MAX(y) FROM empty)");
    assert_eq!(r, Ok(vec![vec![Value::Null]]));
}

#[test]
fn division_by_zero_is_a_clean_error_on_both_paths() {
    for sql in [
        "SELECT 10 / (SELECT COUNT(*) FROM empty)",
        "SELECT x, 10 / (x - 2) FROM t WHERE x IS NOT NULL",
        "UPDATE t SET x = 10 / (x - 2)",
        "DELETE FROM t WHERE 10 / (x - 2) > 0",
    ] {
        let r = parity(&null_tables, sql);
        assert!(
            r.is_err() && r.unwrap_err().contains("division by zero"),
            "{sql} must fail with a division-by-zero error on both paths"
        );
    }
}

#[test]
fn top_zero_never_evaluates_excluded_rows() {
    // TOP 0 / LIMIT 0 exclude every row, so row expressions must not run:
    // no division-by-zero error, just an empty result — on both paths.
    for sql in [
        "SELECT TOP 0 1/0 FROM t",
        "SELECT 10 / (x - x) FROM t LIMIT 0",
        // Materialized branches (sort / aggregate) must short-circuit too.
        "SELECT 1/0 FROM t ORDER BY x LIMIT 0",
        "SELECT 10 / (SUM(x) - SUM(x)) FROM t LIMIT 0",
    ] {
        let r = parity(&null_tables, sql);
        assert_eq!(r, Ok(Vec::new()), "{sql} must return empty, not error");
    }
    // The cap excludes rows from projection, not from earlier stages: a
    // division by zero in the ORDER BY key itself still errors.
    let r = parity(&null_tables, "SELECT x FROM t ORDER BY 1/0 LIMIT 0");
    assert!(r.is_err());
    // TOP 1 does evaluate the first row.
    let r = parity(&null_tables, "SELECT TOP 1 1/0 FROM t");
    assert!(r.is_err());
}

#[test]
fn oversized_scalar_subquery_errors_on_both_paths() {
    let r = parity(&null_tables, "SELECT (SELECT x FROM t)");
    assert!(r.unwrap_err().contains("more than one row"));
    let r = parity(&null_tables, "SELECT (SELECT x, x FROM t WHERE x = 1)");
    assert!(r.unwrap_err().contains("exactly one column"));
}

/// Two tables holding the same three texts, two of which differ only
/// after an embedded NUL.
fn nul_tables(d: &mut Database) {
    for t in ["t", "u"] {
        d.execute(&format!("CREATE TABLE {t} (a INT, s TEXT)"))
            .unwrap();
        for (a, s) in [(1, "x\0a"), (2, "x\0b"), (3, "y")] {
            d.execute_params(
                &format!("INSERT INTO {t} VALUES (?, ?)"),
                &[Value::Int(a), Value::Text(s.into())],
            )
            .unwrap();
        }
    }
}

#[test]
fn text_holding_nul_keys_distinct_groups_and_hash_joins() {
    let text = |s: &str| Value::Text(s.into());
    let r = parity(&nul_tables, "SELECT DISTINCT s FROM t ORDER BY s");
    assert_eq!(
        r,
        Ok(vec![
            vec![text("x\0a")],
            vec![text("x\0b")],
            vec![text("y")]
        ])
    );
    let r = parity(&nul_tables, "SELECT DISTINCT s FROM t");
    assert_eq!(r.map(|rows| rows.len()), Ok(3));
    let r = parity(
        &nul_tables,
        "SELECT s, COUNT(*) FROM t GROUP BY s ORDER BY s",
    );
    assert_eq!(
        r,
        Ok(vec![
            vec![text("x\0a"), Value::Int(1)],
            vec![text("x\0b"), Value::Int(1)],
            vec![text("y"), Value::Int(1)],
        ])
    );
    let mut d = db();
    nul_tables(&mut d);
    let sql = "SELECT t.a, u.a FROM t, u WHERE t.s = u.s ORDER BY t.a";
    let plan = d.prepare(sql).unwrap().describe().join("\n");
    assert!(plan.contains("HASH JOIN"), "{plan}");
    let r = parity(&nul_tables, sql);
    assert_eq!(
        r,
        Ok((1..=3)
            .map(|a| vec![Value::Int(a), Value::Int(a)])
            .collect())
    );
}
