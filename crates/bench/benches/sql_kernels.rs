//! The two SQL-feature kernels of §2.2/§3.3: window function vs
//! aggregate-join for the E-operator, and MERGE vs UPDATE+INSERT for the
//! M-operator. These isolate the NSQL/TSQL deltas of Fig 6(d).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fempath_core::sqlgen::{expand_params, Dir, EdgeSource, FrontierPred, SqlGen};
use fempath_core::{SqlStyle, INF};
use fempath_sql::ast::{ColumnDef, CreateIndex};
use fempath_sql::catalog::EqMatches;
use fempath_sql::{Catalog, Database, Table};
use fempath_storage::{BufferPool, Chunk, ColSet, DataType, Value};
use std::hint::black_box;

/// A TVisited/TEdges fixture with a marked frontier.
fn fixture() -> Database {
    let mut db = Database::in_memory(2048);
    db.execute("CREATE TABLE TVisited (nid INT, d2s INT, p2s INT, f INT)")
        .unwrap();
    db.execute("CREATE UNIQUE INDEX ix_v ON TVisited(nid)")
        .unwrap();
    db.execute("CREATE TABLE TEdges (fid INT, tid INT, cost INT)")
        .unwrap();
    db.execute("CREATE CLUSTERED INDEX ix_e ON TEdges(fid)")
        .unwrap();
    // 2000 nodes, degree 4 ring-ish graph; 100-node frontier.
    for u in 0..2000i64 {
        for d in 1..=4i64 {
            db.execute_params(
                "INSERT INTO TEdges VALUES (?, ?, ?)",
                &[
                    Value::Int(u),
                    Value::Int((u + d * 7) % 2000),
                    Value::Int(d * 3),
                ],
            )
            .unwrap();
        }
    }
    for u in 0..300i64 {
        let f = i64::from(u < 100) * 2; // first 100 are frontier (f=2)
        db.execute_params(
            "INSERT INTO TVisited VALUES (?, ?, ?, ?)",
            &[
                Value::Int(u),
                Value::Int(u % 50),
                Value::Int(0),
                Value::Int(f),
            ],
        )
        .unwrap();
    }
    db
}

const WINDOW_E: &str = "SELECT nid, np, cost FROM ( \
    SELECT e.tid AS nid, e.fid AS np, e.cost + q.d2s AS cost, \
           ROW_NUMBER() OVER (PARTITION BY e.tid ORDER BY e.cost + q.d2s) AS rownum \
    FROM TVisited q, TEdges e WHERE q.nid = e.fid AND q.f = 2 \
  ) tmp WHERE rownum = 1";

const AGG_E: &str = "SELECT e2.tid AS nid, MIN(e2.fid) AS np, m.c AS cost \
    FROM TVisited q2, TEdges e2, ( \
      SELECT e.tid AS mtid, MIN(e.cost + q.d2s) AS c \
      FROM TVisited q, TEdges e WHERE q.nid = e.fid AND q.f = 2 GROUP BY e.tid \
    ) m \
    WHERE q2.nid = e2.fid AND q2.f = 2 AND e2.tid = m.mtid AND e2.cost + q2.d2s = m.c \
    GROUP BY e2.tid, m.c";

fn bench_e_operator(c: &mut Criterion) {
    let mut group = c.benchmark_group("e_operator");
    group.sample_size(20);
    group.bench_function("nsql_window", |b| {
        let mut db = fixture();
        b.iter(|| {
            black_box(db.query(WINDOW_E).unwrap().len());
        });
    });
    group.bench_function("tsql_aggregate_join", |b| {
        let mut db = fixture();
        b.iter(|| {
            black_box(db.query(AGG_E).unwrap().len());
        });
    });
    group.finish();
}

fn bench_m_operator(c: &mut Criterion) {
    let mut group = c.benchmark_group("m_operator");
    group.sample_size(20);
    let merge = format!(
        "MERGE INTO TVisited AS target USING ({WINDOW_E}) AS source (nid, np, cost) \
         ON source.nid = target.nid \
         WHEN MATCHED AND target.d2s > source.cost THEN \
           UPDATE SET d2s = source.cost, p2s = source.np, f = 0 \
         WHEN NOT MATCHED THEN INSERT (nid, d2s, p2s, f) \
           VALUES (source.nid, source.cost, source.np, 0)"
    );
    group.bench_function("nsql_merge", |b| {
        let mut db = fixture();
        b.iter(|| {
            black_box(db.execute(&merge).unwrap().rows_affected);
        });
    });
    group.bench_function("tsql_update_then_insert", |b| {
        let mut db = fixture();
        db.execute("CREATE TABLE TExp (nid INT, p2s INT, cost INT)")
            .unwrap();
        let fill = format!("INSERT INTO TExp (nid, p2s, cost) {WINDOW_E}");
        b.iter(|| {
            db.execute("TRUNCATE TABLE TExp").unwrap();
            db.execute(&fill).unwrap();
            let u = db
                .execute(
                    "UPDATE TVisited SET d2s = TExp.cost, p2s = TExp.p2s, f = 0 FROM TExp \
                     WHERE TVisited.nid = TExp.nid AND TVisited.d2s > TExp.cost",
                )
                .unwrap()
                .rows_affected;
            let i = db
                .execute(
                    "INSERT INTO TVisited (nid, d2s, p2s, f) \
                     SELECT nid, cost, p2s, 0 FROM TExp \
                     WHERE nid NOT IN (SELECT nid FROM TVisited)",
                )
                .unwrap()
                .rows_affected;
            black_box(u + i);
        });
    });
    group.finish();
}

/// Per-statement overhead: the same FEM-loop statements executed through
/// a prepared handle (`_prepared`) and through the plan cache
/// (`execute_params`, one hash lookup per call).
fn bench_prepared_vs_plan_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("prepared_vs_plan_cache");
    group.sample_size(20);
    const STATS: &str = "SELECT MIN(d2s), COUNT(*) FROM TVisited WHERE f = 0 AND d2s < 100";
    const MARK: &str = "UPDATE TVisited SET f = f WHERE f = 2";
    for (name, sql) in [
        ("stats_select", STATS),
        ("mark_update", MARK),
        ("window_e", WINDOW_E),
    ] {
        group.bench_function(&format!("{name}_prepared"), |b| {
            let mut db = fixture();
            let stmt = db.prepare(sql).unwrap();
            b.iter(|| {
                black_box(db.execute_prepared(&stmt, &[]).unwrap().rows_affected);
            });
        });
        group.bench_function(&format!("{name}_plan_cache"), |b| {
            let mut db = fixture();
            b.iter(|| {
                black_box(db.execute_params(sql, &[]).unwrap().rows_affected);
            });
        });
    }
    group.finish();
}

/// The paper's 7-column `TVisited` with its `nid` index, `rows` visited
/// nodes: a tenth settled (`f = 1`), the rest candidates, none marked.
/// The row half-way down alone holds [`PICK_DIST`].
fn tvisited(rows: i64) -> Database {
    let mut db = Database::in_memory(2048);
    db.execute("CREATE TABLE TVisited (nid INT, d2s INT, p2s INT, f INT, d2t INT, p2t INT, b INT)")
        .unwrap();
    db.execute("CREATE UNIQUE INDEX idx_tvisited_nid ON TVisited(nid)")
        .unwrap();
    let ins = db
        .prepare("INSERT INTO TVisited VALUES (?, ?, ?, ?, ?, ?, 0)")
        .unwrap();
    for u in 0..rows {
        let (d2s, f) = if u == rows / 2 {
            (PICK_DIST, 0)
        } else {
            (u % 97, i64::from(u % 10 == 0))
        };
        let params = [u, d2s, u / 2, f, INF, -1].map(Value::Int);
        db.execute_prepared(&ins, &params).unwrap();
    }
    db
}

/// The one distance of [`tvisited`] the parameterised pick is bound to.
const PICK_DIST: i64 = 1000;

/// What one statement of the bidirectional loops costs per `TVisited` row:
/// the scans that read no column (`COUNT(*)`), three columns (the folded
/// `candidate_stats`; the parameterised pick, whose one match sits
/// half-way down) or one column and match nothing (`reset_frontier`), and
/// the point UPDATE by `nid`. ns/row = time / rows.
fn bench_tvisited_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("tvisited_scan");
    group.sample_size(20);
    let gen = SqlGen::new(Dir::Fwd, EdgeSource::Edges, SqlStyle::New);
    for rows in [100i64, 300, 1000, 3000] {
        let statements: [(&str, String, Vec<Value>); 5] = [
            ("count_star", "SELECT COUNT(*) FROM TVisited".into(), vec![]),
            ("candidate_stats", gen.candidate_stats(), vec![]),
            (
                "select_mid_at",
                gen.select_mid_at(),
                vec![Value::Int(PICK_DIST)],
            ),
            ("reset_frontier_no_match", gen.reset_frontier(), vec![]),
            (
                "update_by_nid",
                gen.settle_by_nid(),
                vec![Value::Int(rows / 2)],
            ),
        ];
        for (name, sql, params) in statements {
            group.bench_function(&format!("{name}/{rows}"), |b| {
                let mut db = tvisited(rows);
                let stmt = db.prepare(&sql).unwrap();
                b.iter(|| {
                    black_box(db.execute_prepared(&stmt, &params).unwrap().rows_affected);
                });
            });
        }
    }
    group.finish();
}

/// The SELECT tail over the 3000-row [`tvisited`]: a sort, a grouped
/// aggregate filtered by HAVING and sorted, and DISTINCT under a TOP cap
/// (which stops the scan once 90 distinct distances are out).
fn bench_post_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("post_stages");
    group.sample_size(20);
    let statements = [
        (
            "order_by",
            "SELECT nid, d2s FROM TVisited ORDER BY d2s DESC, nid",
        ),
        (
            "group_having_order",
            "SELECT d2s, COUNT(*), MIN(nid) FROM TVisited GROUP BY d2s \
             HAVING COUNT(*) > 30 ORDER BY COUNT(*) DESC, d2s",
        ),
        ("distinct_top", "SELECT DISTINCT TOP 90 d2s FROM TVisited"),
    ];
    for (name, sql) in statements {
        group.bench_function(&format!("{name}/3000"), |b| {
            let mut db = tvisited(3000);
            let stmt = db.prepare(sql).unwrap();
            b.iter(|| black_box(db.execute_prepared(&stmt, &[]).unwrap().rows));
        });
    }
    group.finish();
}

/// Nodes of the `fm_write` edge table (out-degree 3).
const FM_NODES: i64 = 4000;

/// `TEdges` for the `fm_write` fixtures: clustered on `fid`, three arcs
/// per node.
fn fm_edges(db: &mut Database) {
    db.execute("CREATE TABLE TEdges (fid INT, tid INT, cost INT)")
        .unwrap();
    db.execute("CREATE CLUSTERED INDEX ix_e ON TEdges(fid)")
        .unwrap();
    let ins = db.prepare("INSERT INTO TEdges VALUES (?, ?, ?)").unwrap();
    for u in 0..FM_NODES {
        for d in 1..=3i64 {
            let params = [u, (u * 7 + d * 131) % FM_NODES, d * 5].map(Value::Int);
            db.execute_prepared(&ins, &params).unwrap();
        }
    }
}

/// The single-pair `TVisited` of [`tvisited`] mid-search: every tenth row
/// is the current frontier, tagged `p2t = -2` so a restore statement can
/// find it again; `d2t` keeps a copy of `d2s` and `b = 1` tells fixture
/// rows from rows an expansion inserted (`b = 0`).
fn single_fixture(rows: i64) -> Database {
    let mut db = Database::in_memory(4096);
    fm_edges(&mut db);
    db.execute("CREATE TABLE TVisited (nid INT, d2s INT, p2s INT, f INT, d2t INT, p2t INT, b INT)")
        .unwrap();
    db.execute("CREATE UNIQUE INDEX idx_tvisited_nid ON TVisited(nid)")
        .unwrap();
    let ins = db
        .prepare("INSERT INTO TVisited VALUES (?, ?, ?, 1, ?, ?, 1)")
        .unwrap();
    for i in 0..rows {
        let d2s = 100 + (i * 37) % 400;
        let tag = if i % 10 == 0 { -2 } else { -1 };
        let params = [(i * 3) % FM_NODES, d2s, i, d2s, tag].map(Value::Int);
        db.execute_prepared(&ins, &params).unwrap();
    }
    db
}

/// What the F- and M-operator statements cost per row they touch, each
/// timed alone from a restored table (the untimed `restore` statements
/// put back whatever the measured one changed): 1000 rows of `TVisited`,
/// 100 frontier rows for the set statements and one node for the
/// by-`nid` pair. ns/row = time / rows touched.
fn bench_fm_write(c: &mut Criterion) {
    let mut group = c.benchmark_group("fm_write");
    group.sample_size(20);
    let gen = SqlGen::new(Dir::Fwd, EdgeSource::Edges, SqlStyle::New);
    let expand_args = expand_params(SqlStyle::New, FrontierPred::Marked, None, 0, INF).unwrap();
    let single: [(&str, Vec<&str>, String, Vec<Value>); 4] = [
        (
            "mark_by_dist/1000",
            vec!["UPDATE TVisited SET f = 0 WHERE p2t = -2"],
            gen.mark_by_dist(),
            vec![Value::Int(100)],
        ),
        (
            "expand_merge/marked/1000",
            vec![
                "DELETE FROM TVisited WHERE b = 0",
                "UPDATE TVisited SET d2s = d2t, f = 1 WHERE f = 0",
                "UPDATE TVisited SET f = 2 WHERE p2t = -2",
            ],
            gen.expand_merge(FrontierPred::Marked),
            expand_args,
        ),
        // BDJ's node-at-a-time pair: expand one visited node through the
        // `nid` index (3 arcs), then settle it.
        (
            "expand_merge/by_nid/1000",
            vec![
                "DELETE FROM TVisited WHERE b = 0",
                "UPDATE TVisited SET d2s = d2t, f = 1 WHERE f = 0",
            ],
            gen.expand_merge(FrontierPred::ByNid),
            expand_params(SqlStyle::New, FrontierPred::ByNid, Some(1500), 0, INF).unwrap(),
        ),
        (
            "settle_by_nid/1000",
            vec!["UPDATE TVisited SET f = 0 WHERE nid = 1500"],
            gen.settle_by_nid(),
            vec![Value::Int(1500)],
        ),
    ];
    for (name, restore, sql, params) in single {
        group.bench_function(name, |b| {
            let db = std::cell::RefCell::new(single_fixture(1000));
            let stmt = db.borrow_mut().prepare(&sql).unwrap();
            b.iter_batched(
                || {
                    for r in &restore {
                        db.borrow_mut().execute(r).unwrap();
                    }
                },
                |()| {
                    let out = db.borrow_mut().execute_prepared(&stmt, &params).unwrap();
                    black_box(out.rows_affected)
                },
                BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

/// Nodes of the [`segtable_fixture`] SegTable.
const SEG_NODES: i64 = 4000;

/// BSEG's world mid-search: a segment-compressed `TOutSegs` whose every
/// tenth `fid` is a hub of 96 segments and every other has 12 (`fid`s
/// that agree mod 5 reach the same `tid`s, so the window has rows to
/// drop), and the
/// 1000-row `TVisited` of [`single_fixture`] (over a tiny `TEdges`) with
/// 26 rows marked as the frontier and tagged `p2t = -2`. Returns the
/// database and the `minCost` at which the Theorem-1 term keeps about a
/// quarter of the frontier's joined rows (with `l_other = 0`).
fn segtable_fixture() -> (Database, i64) {
    let mut db = Database::in_memory(4096);
    db.execute("CREATE TABLE TEdges (fid INT, tid INT, cost INT)")
        .unwrap();
    db.execute("CREATE CLUSTERED INDEX ix_e ON TEdges(fid)")
        .unwrap();
    db.execute("CREATE TABLE TVisited (nid INT, d2s INT, p2s INT, f INT, d2t INT, p2t INT, b INT)")
        .unwrap();
    db.execute("CREATE UNIQUE INDEX idx_tvisited_nid ON TVisited(nid)")
        .unwrap();
    let segs = |fid: i64| {
        let degree = if fid % 10 == 0 { 96 } else { 12 };
        (1..=degree).map(move |d| {
            let tid = (fid % 5 * 17 + d * 131) % SEG_NODES;
            [fid, tid, (fid + d) % SEG_NODES, 5 + (d * 13) % 50]
        })
    };
    let cols = ["fid", "tid", "pid", "cost"].map(|n| ColumnDef {
        name: n.into(),
        dtype: DataType::Int,
    });
    db.create_segmented_table("TOutSegs", cols.to_vec())
        .unwrap();
    db.bulk_load_segments_with("TOutSegs", |_, pool, load| {
        for row in (0..SEG_NODES).flat_map(segs) {
            load.push(pool, row)?;
        }
        Ok(())
    })
    .unwrap();
    let ins = db
        .prepare("INSERT INTO TVisited VALUES (?, ?, ?, 1, ?, ?, 1)")
        .unwrap();
    let mut joined = Vec::new();
    for i in 0..1000 {
        let (nid, d2s) = ((i * 3) % SEG_NODES, 100 + (i * 37) % 400);
        let frontier = i % 38 == 0 && i < 38 * 26;
        if frontier {
            joined.extend(segs(nid).map(|[.., cost]| cost + d2s));
        }
        let tag = if frontier { -2 } else { -1 };
        db.execute_prepared(&ins, &[nid, d2s, i, d2s, tag].map(Value::Int))
            .unwrap();
    }
    joined.sort_unstable();
    (db, joined[joined.len() / 4])
}

/// BSEG's fused expansion MERGE (Listing 4(2)) over the SegTable, timed
/// alone from a restored [`segtable_fixture`]: 26 frontier rows join 816
/// `TOutSegs` rows, the Theorem-1 term keeps 204, the window one per
/// target node (140), and the target probe of `TVisited` splits those
/// into 37 updates and 103 inserts — the statement that owns
/// `uniform-disk`. Beside `expand_merge/marked/1000`, which runs
/// the same statement over clustered row-tier edges.
fn bench_segtable_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("fm_write");
    group.sample_size(20);
    let gen = SqlGen::new(Dir::Fwd, EdgeSource::SegTable, SqlStyle::New);
    let restore = [
        "DELETE FROM TVisited WHERE b = 0",
        "UPDATE TVisited SET d2s = d2t, f = 1 WHERE f = 0",
        "UPDATE TVisited SET f = 2 WHERE p2t = -2",
    ];
    group.bench_function("expand_merge/marked_segtable", |b| {
        let (db, min_cost) = segtable_fixture();
        let db = std::cell::RefCell::new(db);
        let stmt = db
            .borrow_mut()
            .prepare(&gen.expand_merge(FrontierPred::Marked))
            .unwrap();
        let params = expand_params(SqlStyle::New, FrontierPred::Marked, None, 0, min_cost);
        let params = params.unwrap();
        b.iter_batched(
            || {
                for r in &restore {
                    db.borrow_mut().execute(r).unwrap();
                }
            },
            |()| {
                let out = db.borrow_mut().execute_prepared(&stmt, &params).unwrap();
                black_box(out.rows_affected)
            },
            BatchSize::PerIteration,
        );
    });
    group.finish();
}

/// One BDJ expansion as the served loop runs it, statement after
/// statement, over the 300-row `TVisited` of [`single_fixture`]: the pick
/// bound to the frontier node's distance, the by-`nid` MERGE (three arcs,
/// three inserts), the settle, and the candidate statistics. The untimed
/// restore deletes the inserted rows, puts distances back and re-opens
/// the frontier node. time / 4 ≈ the small-statement cost the executor's
/// pooled buffers cut (DESIGN.md §11 *Steady-state allocation*).
fn bench_bdj_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("bdj_iteration");
    group.sample_size(20);
    let gen = SqlGen::new(Dir::Fwd, EdgeSource::Edges, SqlStyle::New);
    // Row 150 of the fixture: nid 450 at distance 100 + 150·37 mod 400.
    let (frontier, dist) = (450i64, 450i64);
    let restore = [
        "DELETE FROM TVisited WHERE b = 0".to_string(),
        "UPDATE TVisited SET d2s = d2t, f = 1 WHERE f = 0".to_string(),
        format!("UPDATE TVisited SET f = 0 WHERE nid = {frontier}"),
    ];
    group.bench_function("300", |b| {
        let db = std::cell::RefCell::new(single_fixture(300));
        let prep = |sql: &str| db.borrow_mut().prepare(sql).unwrap();
        let pick = prep(&gen.select_mid_at());
        let merge = prep(&gen.expand_merge(FrontierPred::ByNid));
        let settle = prep(&gen.settle_by_nid());
        let stats = prep(&gen.candidate_stats());
        for r in &restore {
            db.borrow_mut().execute(r).unwrap();
        }
        b.iter_batched(
            || {
                for r in &restore {
                    db.borrow_mut().execute(r).unwrap();
                }
            },
            |()| {
                let mut db = db.borrow_mut();
                let mid = db
                    .execute_prepared(&pick, &[Value::Int(dist)])
                    .unwrap()
                    .rows
                    .and_then(|r| r.scalar_i64())
                    .unwrap();
                let params = expand_params(SqlStyle::New, FrontierPred::ByNid, Some(mid), 0, INF);
                db.execute_prepared(&merge, &params.unwrap()).unwrap();
                db.execute_prepared(&settle, &[Value::Int(mid)]).unwrap();
                black_box(db.execute_prepared(&stats, &[]).unwrap().rows)
            },
            BatchSize::PerIteration,
        );
    });
    group.finish();
}

/// Nodes of the [`bench_probe_batch`] edge tables (four arcs each).
const PROBE_NODES: i64 = 20_000;

/// INT column definitions named `names`.
fn int_cols(names: &[&str]) -> Vec<ColumnDef> {
    names
        .iter()
        .map(|n| ColumnDef {
            name: (*n).into(),
            dtype: DataType::Int,
        })
        .collect()
}

/// Creates `name` from `cols` clustered on `fid` and bulk-loads `rows`.
fn clustered_table(
    pool: &mut BufferPool,
    cat: &mut Catalog,
    name: &str,
    cols: Vec<ColumnDef>,
    rows: &Chunk,
) {
    cat.create_table(pool, name, cols, None).unwrap();
    let index = CreateIndex {
        name: format!("ix_{name}"),
        table: name.into(),
        columns: vec!["fid".into()],
        unique: false,
        clustered: true,
    };
    cat.create_index(pool, &index).unwrap();
    cat.table_mut(name)
        .unwrap()
        .bulk_load_rows(pool, rows)
        .unwrap();
}

/// One edge table stored twice — clustered on `fid` (`TClu`) and
/// segment-compressed (`TSeg`) — and one SegTable-shaped `(fid, tid, pid,
/// cost)` table stored twice the same way (`TClu4`, `TSeg4`: seven rows
/// per fid, tids falling within a fid, pids on both sides of it), in a
/// pool that holds all four.
fn probe_fixture() -> (BufferPool, Catalog) {
    let mut pool = BufferPool::in_memory(8192);
    let mut cat = Catalog::new();
    let cols = int_cols(&["fid", "tid", "cost"]);
    let mut edges: Vec<(i64, i64, i64)> = (0..PROBE_NODES)
        .flat_map(|u| (1..=4).map(move |d| (u, (u + d * 7919) % PROBE_NODES, d * 3)))
        .collect();
    edges.sort_unstable();
    let mut rows = Chunk::with_width(3);
    for &(f, t, c) in &edges {
        rows.push_row(&[Value::Int(f), Value::Int(t), Value::Int(c)]);
    }
    clustered_table(&mut pool, &mut cat, "TClu", cols.clone(), &rows);
    cat.create_segmented_table(&mut pool, "TSeg", cols).unwrap();
    let seg = cat.table_mut("TSeg").unwrap();
    seg.bulk_load_segments(&mut pool, edges).unwrap();

    let paths: Vec<[i64; 4]> = (0..PROBE_NODES)
        .flat_map(|u| {
            (1..=7).rev().map(move |d| {
                [
                    u,
                    (u + d * 7919) % PROBE_NODES,
                    (u + d * 31 - 100).max(0),
                    d * 3,
                ]
            })
        })
        .collect();
    let cols = int_cols(&["fid", "tid", "pid", "cost"]);
    let mut rows = Chunk::with_width(4);
    for row in &paths {
        rows.push_row(&row.map(Value::Int));
    }
    clustered_table(&mut pool, &mut cat, "TClu4", cols.clone(), &rows);
    cat.create_segmented_table(&mut pool, "TSeg4", cols)
        .unwrap();
    let seg = cat.table("TSeg4").unwrap();
    let mut load = seg.segment_load(&mut pool).unwrap();
    for &row in &paths {
        load.push(&mut pool, row).unwrap();
    }
    let seg = cat.table_mut("TSeg4").unwrap();
    seg.finish_segment_load(&mut pool, load).unwrap();
    (pool, cat)
}

/// The output buffers of [`probe_once`], reused across iterations so a
/// timed probe allocates nothing of its own.
#[derive(Default)]
struct ProbeOut {
    rows: Chunk,
    src: Vec<u32>,
}

/// One `Table::probe_eq` of `keys` against `t` on `fid`, into `buf`'s
/// buffers cleared first.
fn probe_once(pool: &mut BufferPool, t: &Table, keys: &[Value], buf: &mut ProbeOut) -> usize {
    buf.rows.reset();
    buf.src.clear();
    let out = EqMatches {
        rows: &mut buf.rows,
        src: Some(&mut buf.src),
        locs: None,
    };
    t.probe_eq(
        pool,
        t.probe_path(&[0]),
        &[0],
        keys,
        &ColSet::all(),
        out,
        None,
    )
    .unwrap();
    buf.rows.len()
}

/// One `Table::probe_eq` of 1024 `fid` keys — what an index nested loop
/// or a MERGE hands a table per batch — against a clustered and a
/// segmented table, the keys once in key order and once shuffled (the
/// probe sorts them). time / 1024 = the cost of one key. Then one key —
/// BDJ's by-`nid` expansion, where the per-call set-up is most of the
/// cost — against the edge table, clustered and segmented. Then 26
/// shuffled keys — BSEG's SegTable MERGE batch on `uniform-disk` —
/// against the edge table (BDJ/BSDJ's `TEdges` probe shape) and the
/// 4-column SegTable shape, each clustered and segmented, with every page
/// resident: time / 26 = the cost of one key. A segmented probe seeks
/// each key through the segment's fid directory, so it steps over fewer
/// than `DIR_STRIDE` rows before the key's first.
fn bench_probe_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_batch");
    let (pool, cat) = probe_fixture();
    let pool = std::cell::RefCell::new(pool);
    let mut buf = ProbeOut::default();
    let shuffled: Vec<Value> = (0..1024i64)
        .map(|i| Value::Int(i * 7919 % PROBE_NODES))
        .collect();
    let mut sorted = shuffled.clone();
    sorted.sort();
    for (table, name) in [("TClu", "clustered"), ("TSeg", "segmented")] {
        let t = cat.table(table).unwrap();
        for (order, keys) in [("sorted", &sorted), ("shuffled", &shuffled)] {
            group.bench_function(&format!("{name}/1024/{order}"), |b| {
                b.iter(|| black_box(probe_once(&mut pool.borrow_mut(), t, keys, &mut buf)));
            });
        }
    }
    let one = [Value::Int(7919)];
    for (table, name) in [("TClu", "clustered"), ("TSeg", "segmented")] {
        let t = cat.table(table).unwrap();
        group.bench_function(&format!("{name}/1"), |b| {
            b.iter(|| black_box(probe_once(&mut pool.borrow_mut(), t, &one, &mut buf)));
        });
    }
    let batch: Vec<Value> = (0..26i64)
        .map(|i| Value::Int(i * 7919 % PROBE_NODES))
        .collect();
    for (table, name) in [
        ("TClu", "clustered"),
        ("TSeg", "segmented"),
        ("TClu4", "clustered4"),
        ("TSeg4", "segmented4"),
    ] {
        let t = cat.table(table).unwrap();
        group.bench_function(&format!("{name}/26"), |b| {
            b.iter(|| black_box(probe_once(&mut pool.borrow_mut(), t, &batch, &mut buf)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_probe_batch,
    bench_e_operator,
    bench_m_operator,
    bench_prepared_vs_plan_cache,
    bench_tvisited_scan,
    bench_post_stages,
    bench_fm_write,
    bench_segtable_merge,
    bench_bdj_iteration
);
criterion_main!(benches);
