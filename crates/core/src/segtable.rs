//! SegTable construction (§4.2) — itself an application of the FEM
//! framework, as the paper stresses in §5.3.
//!
//! Step 1 runs a *multi-source* bounded set-Dijkstra entirely in SQL over a
//! working table `TSegV(src, nid, d2s, p2s, f)` seeded with `(u, u, 0)` for
//! every node: each iteration marks the frontier (`d2s < k·w_min` or the
//! minimum — the construction analogue of Listing 4(1)), expands it against
//! `TEdges` restricted to `cost + d2s <= lthd`, and merges. Step 2 builds
//! `TOutSegs` from the discovered segments plus the residual original
//! edges (Definition 4, case 2). The SegTable lives in its edge table's
//! storage: on the row tier step 2 is SQL (copy, index per the configured
//! strategy, residual MERGE); on the segmented tier it is one streamed pass
//! into segment storage (`load_segmented_toutsegs`, DESIGN.md §14).
//! Graphs are stored symmetrically (DESIGN.md §4), so the backward search
//! reads the same `TOutSegs` rows the forward one does.

use crate::graphdb::{GraphDb, SegTableInfo};
use crate::sqlgen::{AnnotatedSql, EmMode};
use crate::stats::SqlStyle;
use fempath_graph::IndexKind;
use fempath_sql::ast::ColumnDef;
use fempath_sql::catalog::EqMatches;
use fempath_sql::{Database, Result, SqlError};
use fempath_storage::{Chunk, ColSet, Column, DataType, IoStats, Value, CHUNK_CAPACITY};
use std::time::{Duration, Instant};

// Statement texts shared between [`build_segtable_with`] and
// [`build_statement_corpus`], so the corpus femcheck analyzes is
// byte-for-byte what the build executes.
const CREATE_TSEGV: &str = "CREATE TABLE TSegV (src INT, nid INT, d2s INT, p2s INT, f INT)";
const CREATE_TSEGV_IDX: &str = "CREATE UNIQUE CLUSTERED INDEX idx_tsegv ON TSegV(src, nid)";
const SEED_TSEGV: &str =
    "INSERT INTO TSegV (src, nid, d2s, p2s, f) SELECT nid, nid, 0, nid, 0 FROM TNodes";
const CREATE_TSEGEXP: &str = "CREATE TABLE TSegExp (src INT, nid INT, p2s INT, cost INT)";
const MARK: &str = "UPDATE TSegV SET f = 2 WHERE f = 0 AND (d2s < ? OR d2s = \
                    (SELECT MIN(d2s) FROM TSegV WHERE f = 0))";
const UPDATE_FROM: &str = "UPDATE TSegV SET d2s = TSegExp.cost, p2s = TSegExp.p2s, f = 0 \
                           FROM TSegExp WHERE TSegV.src = TSegExp.src AND TSegV.nid = TSegExp.nid \
                           AND TSegV.d2s > TSegExp.cost";
// Composite-key anti-join via single-value encoding (src·n + nid).
const INSERT_NEW: &str = "INSERT INTO TSegV (src, nid, d2s, p2s, f) \
                          SELECT src, nid, cost, p2s, 0 FROM TSegExp \
                          WHERE src * ? + nid NOT IN (SELECT src * ? + nid FROM TSegV \
                          WHERE src IS NOT NULL AND nid IS NOT NULL)";
const RESET: &str = "UPDATE TSegV SET f = 1 WHERE f = 2";
const CREATE_TOUTSEGS: &str = "CREATE TABLE TOutSegs (fid INT, tid INT, pid INT, cost INT)";
const COPY_SEGMENTS: &str = "INSERT INTO TOutSegs (fid, tid, pid, cost) \
                             SELECT src, nid, p2s, d2s FROM TSegV WHERE nid <> src";
const RESIDUAL_MERGE: &str = "MERGE INTO TOutSegs AS target USING TEdges AS source \
     ON source.fid = target.fid AND source.tid = target.tid \
     WHEN NOT MATCHED THEN \
       INSERT (fid, tid, pid, cost) VALUES (source.fid, source.tid, source.fid, source.cost)";
// No MERGE (PostgreSQL 9.0 dialect or TSQL style): composite-key anti-join
// via the single-value encoding fid·n + tid.
const RESIDUAL_ANTIJOIN: &str = "INSERT INTO TOutSegs (fid, tid, pid, cost) \
                                 SELECT fid, tid, fid, cost FROM TEdges \
                                 WHERE fid * ? + tid NOT IN (SELECT fid * ? + tid FROM TOutSegs \
                                 WHERE fid IS NOT NULL AND tid IS NOT NULL)";

fn e_source_sql(style: SqlStyle) -> &'static str {
    match style {
        SqlStyle::New => {
            "SELECT src, nid, np, cost FROM ( \
               SELECT q.src AS src, e.tid AS nid, e.fid AS np, e.cost + q.d2s AS cost, \
                      ROW_NUMBER() OVER (PARTITION BY q.src, e.tid ORDER BY e.cost + q.d2s) AS rownum \
               FROM TSegV q, TEdges e \
               WHERE q.nid = e.fid AND q.f = 2 AND e.cost + q.d2s <= ? AND e.tid <> q.src \
             ) tmp WHERE rownum = 1"
        }
        SqlStyle::Traditional => {
            "SELECT q2.src AS src, e2.tid AS nid, MIN(e2.fid) AS np, m.c AS cost \
             FROM TSegV q2, TEdges e2, ( \
                SELECT q.src AS msrc, e.tid AS mtid, MIN(e.cost + q.d2s) AS c \
                FROM TSegV q, TEdges e \
                WHERE q.nid = e.fid AND q.f = 2 AND e.cost + q.d2s <= ? AND e.tid <> q.src \
                GROUP BY q.src, e.tid \
             ) m \
             WHERE q2.nid = e2.fid AND q2.f = 2 AND q2.src = m.msrc AND e2.tid = m.mtid \
               AND e2.cost + q2.d2s = m.c AND e2.tid <> q2.src \
             GROUP BY q2.src, e2.tid, m.c"
        }
    }
}

fn expand_merge_sql(style: SqlStyle) -> String {
    let e_source = e_source_sql(style);
    format!(
        "MERGE INTO TSegV AS target USING ({e_source}) AS source (src, nid, np, cost) \
         ON source.src = target.src AND source.nid = target.nid \
         WHEN MATCHED AND target.d2s > source.cost THEN \
           UPDATE SET d2s = source.cost, p2s = source.np, f = 0 \
         WHEN NOT MATCHED THEN \
           INSERT (src, nid, d2s, p2s, f) VALUES (source.src, source.nid, source.cost, source.np, 0)"
    )
}

fn expand_into_sql(style: SqlStyle) -> String {
    let e_source = e_source_sql(style);
    format!("INSERT INTO TSegExp (src, nid, p2s, cost) {e_source}")
}

/// Recreates the build's working tables so the build corpus resolves when
/// analyzed after a real build (which drops them). The corpus walk
/// ([`crate::GraphDb::for_each_corpus_statement`]) calls this before it
/// hands the corpus out and drops the tables again when it ends.
pub(crate) fn create_working_tables(db: &mut fempath_sql::Database) -> Result<()> {
    db.execute(CREATE_TSEGV)?;
    db.execute(CREATE_TSEGV_IDX)?;
    db.execute(CREATE_TSEGEXP)?;
    Ok(())
}

/// Every statement one SegTable build configuration issues, annotated for
/// the static analyzer: `segmented` for the segmented tier, whose step 2
/// issues no SQL. All statements are cold — the build runs once per
/// database, offline. `TSegV`/`TSegExp` are dropped after a real build, so
/// the corpus walk recreates them for its duration.
pub fn build_statement_corpus(
    style: SqlStyle,
    merge_supported: bool,
    segmented: bool,
) -> Vec<AnnotatedSql> {
    let use_merge = EmMode::choose(style, merge_supported, false) == EmMode::Fused;
    let t = match style {
        SqlStyle::New => "seg/nsql",
        SqlStyle::Traditional => "seg/tsql",
    };
    let m = if use_merge { "merge" } else { "nomerge" };
    let mut out = vec![
        AnnotatedSql::cold(format!("{t}/{m}/create_tsegv"), CREATE_TSEGV),
        AnnotatedSql::cold(format!("{t}/{m}/create_tsegv_idx"), CREATE_TSEGV_IDX),
        AnnotatedSql::cold(format!("{t}/{m}/seed_tsegv"), SEED_TSEGV),
        AnnotatedSql::cold(format!("{t}/{m}/mark"), MARK),
        AnnotatedSql::cold(format!("{t}/{m}/reset"), RESET),
    ];
    if !segmented {
        out.push(AnnotatedSql::cold(
            format!("{t}/{m}/copy_segments"),
            COPY_SEGMENTS,
        ));
        out.push(if use_merge {
            AnnotatedSql::cold(format!("{t}/{m}/residual_merge"), RESIDUAL_MERGE)
        } else {
            AnnotatedSql::cold(format!("{t}/{m}/residual_antijoin"), RESIDUAL_ANTIJOIN)
        });
    }
    if use_merge {
        out.push(AnnotatedSql::cold(
            format!("{t}/{m}/expand_merge"),
            expand_merge_sql(style),
        ));
    } else {
        out.push(AnnotatedSql::cold(
            format!("{t}/{m}/create_tsegexp"),
            CREATE_TSEGEXP,
        ));
        out.push(AnnotatedSql::cold(
            format!("{t}/{m}/expand_into"),
            expand_into_sql(style),
        ));
        out.push(AnnotatedSql::cold(
            format!("{t}/{m}/update_from"),
            UPDATE_FROM,
        ));
        out.push(AnnotatedSql::cold(
            format!("{t}/{m}/insert_new"),
            INSERT_NEW,
        ));
    }
    out
}

/// Measurements of one SegTable build (Fig 9 reports size and time).
#[derive(Debug, Clone, Copy)]
pub struct SegTableStats {
    /// The index threshold.
    pub lthd: i64,
    /// Rows in `TOutSegs` — the paper's "encoding number" (Fig 9(a)/(b)).
    pub segments: u64,
    /// FEM iterations of step 1.
    pub iterations: u64,
    /// SQL statements issued.
    pub sql_statements: u64,
    /// Wall time.
    pub build_time: Duration,
    /// Buffer-pool/disk counter deltas.
    pub io: IoStats,
}

/// Builds the SegTable with the NSQL style (window + MERGE).
pub fn build_segtable(gdb: &mut GraphDb, lthd: i64) -> Result<SegTableStats> {
    build_segtable_with(gdb, lthd, SqlStyle::New)
}

/// Builds the SegTable with an explicit SQL style (Fig 9(f) compares both).
pub fn build_segtable_with(gdb: &mut GraphDb, lthd: i64, style: SqlStyle) -> Result<SegTableStats> {
    if lthd <= 0 {
        return Err(SqlError::Eval("lthd must be positive".into()));
    }
    let started = Instant::now();
    let io_start = gdb.db.io_stats();
    let stmts_start = gdb.db.statements_executed();
    let wmin = gdb.min_weight() as i64;
    let n = gdb.num_nodes() as i64;

    // Working table, clustered on (src, nid) so the MERGE probes are
    // clustered-index lookups and scans group by source.
    gdb.db.execute("DROP TABLE IF EXISTS TSegV")?;
    gdb.db.execute("DROP TABLE IF EXISTS TSegExp")?;
    gdb.db.execute("DROP TABLE IF EXISTS TOutSegs")?;
    gdb.db.execute(CREATE_TSEGV)?;
    gdb.db.execute(CREATE_TSEGV_IDX)?;
    gdb.db.execute(SEED_TSEGV)?;

    // The construction never splits its operators for timing: one fused
    // MERGE, or the UPDATE + INSERT pair.
    let use_merge = gdb.em_mode(style, false) == EmMode::Fused;
    if !use_merge {
        gdb.db.execute(CREATE_TSEGEXP)?;
    }

    let expand_merge = expand_merge_sql(style);
    let expand_into = expand_into_sql(style);

    let mut iterations = 0u64;
    let mut k = 1i64;
    loop {
        let marked = gdb
            .db
            .execute_params(MARK, &[Value::Int(k.saturating_mul(wmin))])?
            .rows_affected;
        if marked == 0 {
            break;
        }
        if use_merge {
            gdb.db.execute_params(&expand_merge, &[Value::Int(lthd)])?;
        } else {
            gdb.db.execute("TRUNCATE TABLE TSegExp")?;
            gdb.db.execute_params(&expand_into, &[Value::Int(lthd)])?;
            gdb.db.execute(UPDATE_FROM)?;
            gdb.db
                .execute_params(INSERT_NEW, &[Value::Int(n), Value::Int(n)])?;
        }
        gdb.db.execute(RESET)?;
        iterations += 1;
        k += 1;
        if iterations > 4 * lthd.max(4) as u64 + gdb.num_nodes() as u64 {
            return Err(SqlError::Eval(
                "SegTable construction exceeded its iteration bound".into(),
            ));
        }
    }

    // Step 2: materialize TOutSegs = segments + residual original edges.
    if gdb.edges_segmented() {
        load_segmented_toutsegs(&mut gdb.db)?;
    } else {
        sql_toutsegs(gdb, use_merge, n)?;
    }

    let segments = gdb.db.table_len("TOutSegs")?;
    gdb.db.execute("DROP TABLE TSegV")?;
    if !use_merge {
        gdb.db.execute("DROP TABLE TSegExp")?;
    }
    gdb.db.flush()?;
    gdb.set_segtable(SegTableInfo { lthd, segments });

    Ok(SegTableStats {
        lthd,
        segments,
        iterations,
        sql_statements: gdb.db.statements_executed() - stmts_start,
        build_time: started.elapsed(),
        io: gdb.db.io_stats().since(&io_start),
    })
}

/// Step 2 on the row tier, in SQL: copy the segments into a heap
/// `TOutSegs`, index it per the configured strategy, then add the
/// residual edges (MERGE, or the anti-join without it).
fn sql_toutsegs(gdb: &mut GraphDb, use_merge: bool, n: i64) -> Result<()> {
    gdb.db.execute(CREATE_TOUTSEGS)?;
    gdb.db.execute(COPY_SEGMENTS)?;
    // Index before the residual-edge MERGE so its probes are index lookups.
    let (create_index, drop_after): (&str, bool) = match gdb.edges_index() {
        IndexKind::Clustered => (
            "CREATE CLUSTERED INDEX idx_toutsegs_fid ON TOutSegs(fid)",
            false,
        ),
        IndexKind::Secondary => ("CREATE INDEX idx_toutsegs_fid ON TOutSegs(fid)", false),
        IndexKind::NoIndex => ("CREATE INDEX idx_toutsegs_fid ON TOutSegs(fid)", true),
    };
    gdb.db.execute(create_index)?;
    // Definition 4 case 2: original edges whose endpoints have no segment.
    if use_merge {
        gdb.db.execute(RESIDUAL_MERGE)?;
    } else {
        gdb.db
            .execute_params(RESIDUAL_ANTIJOIN, &[Value::Int(n), Value::Int(n)])?;
    }
    if drop_after {
        gdb.db.execute("DROP INDEX idx_toutsegs_fid")?;
    }
    Ok(())
}

/// The values of integer column `c` of `chunk`, which must hold no NULL.
fn ints(chunk: &Chunk, c: usize) -> Result<&[i64]> {
    match chunk.col(c) {
        Column::Int { vals, nulls } if !nulls.any() => Ok(&vals[..chunk.len()]),
        _ => Err(SqlError::Eval(
            "SegTable build met a NULL or non-integer cell".into(),
        )),
    }
}

/// Step 2 on the segmented tier: `TOutSegs` is segment storage like
/// `TEdges`, filled in one streamed pass over `TSegV` with no row-form
/// copy, index or MERGE. For each fid in ascending order it takes first
/// the fid's `TSegV` segments (`nid <> src`, in the clustered `(src, nid)`
/// order), then the fid's `TEdges` arcs whose `(fid, tid)` has no segment,
/// in `TEdges` order, with `pid = fid` — the row order the row tier's
/// clustered `TOutSegs` returns, so a probe of a fid reads the same rows
/// in the same order on both tiers. Every node has its seed row `(u, u)`
/// in `TSegV`, so its sources cover every fid of `TEdges`. `TSegV` is read
/// a batch at a time; the rows of the batch's last source wait for the
/// next batch, and each batch's sources probe `TEdges` together.
fn load_segmented_toutsegs(db: &mut Database) -> Result<u64> {
    let cols = ["fid", "tid", "pid", "cost"]
        .iter()
        .map(|n| ColumnDef {
            name: (*n).into(),
            dtype: DataType::Int,
        })
        .collect();
    db.create_segmented_table("TOutSegs", cols)?;
    db.bulk_load_segments_with("TOutSegs", |catalog, pool, load| {
        let tsegv = catalog.table("TSegV")?;
        let tedges = catalog.table("TEdges")?;
        let by_fid = tedges.probe_path(&[0]);
        let all = ColSet::all();
        let mut cursor = tsegv.batch_cursor(pool)?;
        let (mut segv, mut carried, mut arcs) = (Chunk::new(), Chunk::new(), Chunk::new());
        let (mut fids, mut tags, mut rest) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            let more =
                tsegv.next_batch(pool, &mut cursor, &mut segv, &all, None, CHUNK_CAPACITY)?;
            // TSegV(src, nid, d2s, p2s, f)
            let (src, nid, d2s, p2s) = (
                ints(&segv, 0)?,
                ints(&segv, 1)?,
                ints(&segv, 2)?,
                ints(&segv, 3)?,
            );
            // The rows whose source is complete: all once the scan is done.
            let mut end = src.len();
            if let (true, Some(&last)) = (more, src.last()) {
                end -= src.iter().rev().take_while(|&&s| s == last).count();
            }
            fids.clear();
            fids.extend(src[..end].iter().copied());
            fids.dedup();
            let keys: Vec<Value> = fids.iter().map(|&f| Value::Int(f)).collect();
            arcs.reset();
            tags.clear();
            let out = EqMatches {
                rows: &mut arcs,
                src: Some(&mut tags),
                locs: None,
            };
            tedges.probe_eq(pool, by_fid, &[0], &keys, &all, out, None)?;
            let (tid, cost) = (ints(&arcs, 1)?, ints(&arcs, 2)?);
            let (mut r, mut a) = (0, 0);
            for (k, &fid) in fids.iter().enumerate() {
                let first = r;
                while r < end && src[r] == fid {
                    if nid[r] != fid {
                        load.push(pool, [fid, nid[r], p2s[r], d2s[r]])?;
                    }
                    r += 1;
                }
                // The fid's nids ascend: the clustered key is (src, nid).
                let segment_to = |t: i64| t != fid && nid[first..r].binary_search(&t).is_ok();
                while a < tags.len() && tags[a] == k as u32 {
                    if !segment_to(tid[a]) {
                        load.push(pool, [fid, tid[a], fid, cost[a]])?;
                    }
                    a += 1;
                }
            }
            if !more {
                return Ok(());
            }
            rest.clear();
            rest.extend(end as u32..src.len() as u32);
            carried.reset();
            carried.append_gather(&segv, &rest);
            std::mem::swap(&mut segv, &mut carried);
        }
    })
}

/// Reads every segment `(fid, tid, cost)` back — used by tests to compare
/// against the in-memory bounded-Dijkstra oracle.
pub fn read_segments(gdb: &mut GraphDb) -> Result<Vec<(i64, i64, i64)>> {
    let rs = gdb.db.query("SELECT fid, tid, cost FROM TOutSegs")?;
    Ok(rs
        .rows
        .into_iter()
        .map(|r| {
            (
                r[0].as_i64().unwrap_or(-1),
                r[1].as_i64().unwrap_or(-1),
                r[2].as_i64().unwrap_or(-1),
            )
        })
        .collect())
}
