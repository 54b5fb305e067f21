//! Layer probes of the traced run: short, fixed-count measurements of one
//! layer at a time through its public API — on the workload's own
//! database where the layer needs one, on standalone structures over the
//! workload's edges where it does not. Each probe is one span.

use crate::inputs::{uniform_pairs, SplitMix64};
use crate::measure::finder_values;
use crate::metrics::Values;
use crate::stats::{median, nearest_rank, ratio, sorted};
use crate::trace::Tracer;
use crate::workloads::{disk_finder, zipf_pool, Engine, Input, Ready, Timed, Workload};
use crate::Res;
use fempath_core::sqlgen::{expand_params, Dir, EdgeSource, FrontierPred, SqlGen};
use fempath_core::{
    BatchBdjFinder, BatchShortestPathFinder, BdjFinder, GraphDb, Path, QueryStats, ResultCache,
    ShortestPathFinder, SqlStyle, StealQueues, DEFAULT_CACHE_BYTES, INF,
};
use fempath_graph::Graph;
use fempath_storage::{
    decode_edge_segment_with, BTree, BTreeBulkBuilder, BufferPool, HeapFile, PageId, SegmentWriter,
    Value,
};
use std::hint::black_box;
use std::time::Instant;

/// Pairs the direct finder probe runs.
const DIRECT_PAIRS: usize = 100;
/// Of those, the pairs of the batch-against-loop comparison and of the
/// landmark probe.
const COMPARE_PAIRS: usize = 64;
const LANDMARKS: usize = 8;
/// Keys replayed through the standalone cache, jobs through the
/// standalone queues.
const CACHE_KEYS: usize = 20_000;
const QUEUE_JOBS: usize = 20_000;
/// Extra forward iterations the SQL probe drives by hand.
const SQL_ITERATIONS: usize = 30;
const POINT_OPS: usize = 2000;
const INSERT_ROWS: usize = 20_000;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Runs every probe that applies to `w` and returns what they measured.
pub fn run(
    w: Workload,
    ready: &mut Ready,
    timed: &Timed,
    seed: u64,
    tracer: &mut Tracer,
) -> Res<Values> {
    let mut v = Values::default();
    // The pairs the workload itself asked first.
    let pairs: Vec<(i64, i64)> = if w == Workload::ZipfMutating {
        zipf_pool().take(DIRECT_PAIRS).collect()
    } else {
        uniform_pairs(w.nodes(), seed).take(DIRECT_PAIRS).collect()
    };

    v.extend(tracer.time("probe.cache", || cache_probe(timed)));
    v.extend(tracer.time("probe.dispatch", dispatch_probe));
    v.extend(tracer.time("probe.buffer", || buffer_probe(w))?);
    v.extend(tracer.time("probe.storage", || storage_probe(&ready.graph))?);

    match &mut ready.engine {
        Engine::Direct(gdb) => {
            let lat = sorted(timed.ops.iter().map(|o| o.latency_ms()).collect());
            v.set("algo.find_p50_ms", nearest_rank(&lat, 0.5));
            let finder = disk_finder();
            v.extend(tracer.time("probe.sql", || sql_probe(gdb, &finder, pairs[0]))?);
        }
        Engine::Service(svc) => {
            let snapshot = svc.snapshot().clone();
            let plans = snapshot.shared_plan_stats();
            v.set(
                "sql.shared_plan_hit_rate",
                ratio(plans.hits as f64, (plans.hits + plans.misses) as f64),
            );
            let mut session = snapshot.session();
            let finder = BdjFinder::default();
            v.extend(tracer.time("probe.find_path", || {
                direct_probe(&mut session, &finder, &pairs)
            })?);
            if w == Workload::BatchResident {
                v.extend(tracer.time("probe.batch", || {
                    batch_probe(&mut session, &pairs[..COMPARE_PAIRS])
                })?);
            }
            v.extend(tracer.time("probe.sql", || sql_probe(&mut session, &finder, pairs[0]))?);
            if w == Workload::UniformResident {
                v.extend(tracer.time("probe.landmarks", || {
                    landmark_probe(&ready.graph, &pairs[..COMPARE_PAIRS])
                })?);
            }
        }
    }
    Ok(v)
}

/// `core::cache`: a standalone `ResultCache` at the service's budget,
/// replaying the keys the workload asked for — every key inserted, then
/// every key looked up.
fn cache_probe(timed: &Timed) -> Values {
    let mut keys: Vec<(i64, i64, u64)> = Vec::new();
    for op in &timed.ops {
        match &op.input {
            Input::Pair(s, t) => keys.push((*s, *t, op.versions.0)),
            Input::Batch(b) => keys.extend(b.iter().map(|&(s, t)| (s, t, 0))),
            Input::Mutation => {}
        }
        if keys.len() >= CACHE_KEYS {
            break;
        }
    }
    keys.truncate(CACHE_KEYS);
    let cache = ResultCache::new(DEFAULT_CACHE_BYTES);
    let paths: Vec<Option<Path>> = keys
        .iter()
        .map(|&(s, t, _)| {
            Some(Path {
                nodes: vec![s, 0, 0, 0, 0, 0, 0, t],
                length: 1,
            })
        })
        .collect();
    let mut v = Values::default();
    let start = Instant::now();
    for (&(s, t, version), p) in keys.iter().zip(paths) {
        cache.insert(s, t, version, p);
    }
    v.set(
        "cache.insert_ns",
        ratio(us_since(start) * 1e3, keys.len() as f64),
    );
    let start = Instant::now();
    for &(s, t, version) in &keys {
        black_box(cache.lookup(s, t, version));
    }
    v.set(
        "cache.lookup_ns",
        ratio(us_since(start) * 1e3, keys.len() as f64),
    );
    v
}

/// `core::dispatch`: a standalone two-worker `StealQueues`, every job
/// pushed and then popped by one thread, so the number is the queue's own
/// cost with no waiting in it.
fn dispatch_probe() -> Values {
    let queues: StealQueues<u64> = StealQueues::new(2);
    let start = Instant::now();
    for job in 0..QUEUE_JOBS as u64 {
        // The queues are open, so the job is never handed back.
        let _ = queues.push(job);
    }
    for i in 0..QUEUE_JOBS {
        black_box(queues.pop(i % 2));
    }
    let mut v = Values::default();
    v.set(
        "dispatch.push_pop_ns",
        us_since(start) * 1e3 / QUEUE_JOBS as f64,
    );
    v
}

/// `storage::buffer`: a standalone pool of the workload's capacity over
/// the workload's kind of disk. One page read again and again is the hit
/// cost; more pages than frames read in a cycle is the miss cost.
fn buffer_probe(w: Workload) -> Res<Values> {
    let capacity = w.pool_pages();
    let mut pool = if w == Workload::UniformDisk {
        BufferPool::temp_file(capacity)?
    } else {
        BufferPool::in_memory(capacity)
    };
    let pids: Vec<PageId> = (0..capacity + 512)
        .map(|_| pool.allocate_page())
        .collect::<Result<_, _>>()?;
    let mut v = Values::default();
    const HITS: usize = 200_000;
    pool.read_page(pids[0], |b| b[0])?;
    let start = Instant::now();
    for _ in 0..HITS {
        black_box(pool.read_page(pids[0], |b| b[17])?);
    }
    v.set("buffer.read_hit_ns", us_since(start) * 1e3 / HITS as f64);
    let before = pool.stats();
    let start = Instant::now();
    for _ in 0..2 {
        for &pid in &pids {
            black_box(pool.read_page(pid, |b| b[17])?);
        }
    }
    let elapsed = us_since(start);
    let misses = pool.stats().since(&before).buffer_misses;
    v.set("buffer.read_miss_us", ratio(elapsed, misses as f64));
    Ok(v)
}

/// `storage::btree`, `heap` and `segment`: standalone structures holding
/// the workload's arcs the way `TEdges` holds them.
fn storage_probe(graph: &Graph) -> Res<Values> {
    let mut arcs: Vec<(u32, u32, u32)> = graph.iter_arcs().collect();
    arcs.sort_unstable();
    let n_arcs = arcs.len() as f64;
    let key = |fid: u32, seq: usize| {
        let mut k = u64::from(fid).to_be_bytes().to_vec();
        k.extend_from_slice(&(seq as u64).to_be_bytes());
        k
    };
    let val = |tid: u32, cost: u32| {
        let mut b = u64::from(tid).to_be_bytes().to_vec();
        b.extend_from_slice(&u64::from(cost).to_be_bytes());
        b
    };
    let mut rng = SplitMix64::new(0x009E_0BE5);
    let mut v = Values::default();
    let mut pool = BufferPool::in_memory(4096);

    let mut tree = BTree::create(&mut pool)?;
    let start = Instant::now();
    let mut builder = BTreeBulkBuilder::for_tree(&tree, &mut pool)?;
    for (seq, &(fid, tid, cost)) in arcs.iter().enumerate() {
        builder.push(&mut pool, &key(fid, seq), &val(tid, cost))?;
    }
    tree.bulk_finish(&mut pool, builder)?;
    v.set(
        "btree.bulk_build_arcs_per_s",
        ratio(n_arcs, start.elapsed().as_secs_f64()),
    );

    let before = pool.stats();
    let start = Instant::now();
    for _ in 0..POINT_OPS {
        let seq = rng.below(arcs.len() as u64) as usize;
        black_box(tree.get(&mut pool, &key(arcs[seq].0, seq))?);
    }
    v.set("btree.get_us", us_since(start) / POINT_OPS as f64);
    v.set(
        "btree.pages_per_get",
        pool.stats().since(&before).accesses() as f64 / POINT_OPS as f64,
    );
    let start = Instant::now();
    for _ in 0..POINT_OPS {
        let fid = rng.below(graph.num_nodes() as u64);
        let mut seen = 0u32;
        tree.scan_prefix(&mut pool, &fid.to_be_bytes(), |_, _| {
            seen += 1;
            true
        })?;
        black_box(seen);
    }
    v.set("btree.prefix_scan_us", us_since(start) / POINT_OPS as f64);

    let rows = INSERT_ROWS.min(arcs.len());
    let entries: Vec<(Vec<u8>, Vec<u8>)> = arcs[..rows]
        .iter()
        .enumerate()
        .map(|(seq, &(fid, tid, cost))| (key(fid, seq), val(tid, cost)))
        .collect();
    let mut grown = BTree::create(&mut pool)?;
    let start = Instant::now();
    grown.insert_batch(&mut pool, entries)?;
    v.set(
        "btree.insert_batch_rows_per_s",
        ratio(rows as f64, start.elapsed().as_secs_f64()),
    );

    let records: Vec<Vec<u8>> = arcs
        .iter()
        .map(|&(fid, tid, cost)| {
            let mut r = key(fid, tid as usize);
            r.extend_from_slice(&u64::from(cost).to_be_bytes());
            r
        })
        .collect();
    let mut heap = HeapFile::create();
    let start = Instant::now();
    heap.insert_batch(&mut pool, &records)?;
    v.set(
        "heap.insert_batch_rows_per_s",
        ratio(n_arcs, start.elapsed().as_secs_f64()),
    );
    let start = Instant::now();
    let mut seen = 0u64;
    heap.scan(&mut pool, |_, r| {
        seen += r.len() as u64;
        true
    })?;
    black_box(seen);
    v.set(
        "heap.scan_rows_per_s",
        ratio(n_arcs, start.elapsed().as_secs_f64()),
    );

    let mut blobs: Vec<Vec<u8>> = Vec::new();
    let mut writer = SegmentWriter::new(|_, _, blob| {
        blobs.push(blob);
        Ok(())
    });
    for &(fid, tid, cost) in &arcs {
        writer.push(i64::from(fid), i64::from(tid), i64::from(cost))?;
    }
    writer.flush()?;
    drop(writer);
    let bytes: usize = blobs.iter().map(Vec::len).sum();
    v.set("segment.bytes_per_arc", ratio(bytes as f64, n_arcs));
    let start = Instant::now();
    let mut sum = 0i64;
    for blob in &blobs {
        decode_edge_segment_with(blob, |_, tid, cost| sum = sum.wrapping_add(tid ^ cost))?;
    }
    black_box(sum);
    v.set(
        "segment.decode_arcs_per_s",
        ratio(n_arcs, start.elapsed().as_secs_f64()),
    );
    Ok(v)
}

/// `core::algo` without the service: the finder called directly on a
/// fresh session of the same snapshot, same pairs.
fn direct_probe(
    session: &mut GraphDb,
    finder: &dyn ShortestPathFinder,
    pairs: &[(i64, i64)],
) -> Res<Values> {
    for &(s, t) in &pairs[..5.min(pairs.len())] {
        finder.find_path(session, s, t)?; // plans and pages, as warm-up did
    }
    let mut lat = Vec::with_capacity(pairs.len());
    for &(s, t) in pairs {
        let start = Instant::now();
        black_box(finder.find_path(session, s, t)?);
        lat.push(us_since(start) / 1e3);
    }
    let mut v = Values::default();
    v.set("algo.find_p50_ms", median(&lat));
    Ok(v)
}

/// `core::algo::batch` without the service: BatchBDJ over one session
/// against BDJ looped over the same pairs. `query_batch` returns no
/// statistics, so on the batch workload this probe is also where
/// `algo.*` and `buffer.*` come from.
fn batch_probe(session: &mut GraphDb, pairs: &[(i64, i64)]) -> Res<Values> {
    let batch = BatchBdjFinder::default();
    let single = BdjFinder::default();
    batch.find_paths(session, &pairs[..8.min(pairs.len())])?;
    let start = Instant::now();
    let out = batch.find_paths(session, pairs)?;
    let batch_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for &(s, t) in pairs {
        black_box(single.find_path(session, s, t)?);
    }
    let loop_s = start.elapsed().as_secs_f64();
    let stats: QueryStats = out.stats;
    let mut v = finder_values(&[(&stats, pairs.len())]);
    v.set(
        "algo.batch_direct_pairs_per_s",
        ratio(pairs.len() as f64, batch_s),
    );
    v.set("algo.batch_vs_loop_ratio", ratio(batch_s, loop_s));
    Ok(v)
}

/// `core::sqlgen` + `sql::engine` + `sql::plan`: single statements on the
/// workload's database. One query of the workload's finder leaves
/// `TVisited` populated; the probe then drives further forward
/// iterations by hand with `SqlGen`'s own text, timing each statement.
fn sql_probe(
    gdb: &mut GraphDb,
    finder: &dyn ShortestPathFinder,
    (s, t): (i64, i64),
) -> Res<Values> {
    let mut v = Values::default();
    finder.find_path(gdb, s, t)?;
    let gen = SqlGen::new(Dir::Fwd, EdgeSource::Edges, SqlStyle::New);

    // The plan cache is keyed by statement text, so trailing blanks make
    // the E+M statement new to it each time.
    let expand_sql = gen.expand_merge(FrontierPred::Marked);
    let cold: Vec<f64> = (1..=20)
        .map(|i| {
            let sql = format!("{expand_sql}{}", " ".repeat(i));
            let start = Instant::now();
            gdb.db.prepare(&sql).map(|_| us_since(start))
        })
        .collect::<Result<_, _>>()?;
    v.set("sql.prepare_cold_us", median(&cold));
    let stats_sql = gen.candidate_stats();
    let stats_stmt = gdb.db.prepare(&stats_sql)?;
    let start = Instant::now();
    for _ in 0..POINT_OPS {
        black_box(gdb.db.prepare(&stats_sql)?);
    }
    v.set("sql.prepare_cached_us", us_since(start) / POINT_OPS as f64);

    let mark = gdb.db.prepare(&gen.mark_by_dist())?;
    let expand = gdb.db.prepare(&expand_sql)?;
    let settle = gdb.db.prepare(&gen.reset_frontier())?;
    let params = expand_params(SqlStyle::New, FrontierPred::Marked, None, 0, INF)?;
    let (mut stats_us, mut frontier_us, mut expand_us) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SQL_ITERATIONS {
        let start = Instant::now();
        let row = gdb.db.execute_prepared(&stats_stmt, &[])?;
        stats_us.push(us_since(start));
        let l = row.rows.as_ref().and_then(|r| r.scalar_i64());
        let Some(l) = l.filter(|&l| l < INF) else {
            break;
        };
        let start = Instant::now();
        gdb.db.execute_prepared(&mark, &[Value::Int(l)])?;
        let marked = us_since(start);
        let start = Instant::now();
        gdb.db.execute_prepared(&expand, &params)?;
        expand_us.push(us_since(start));
        let start = Instant::now();
        gdb.db.execute_prepared(&settle, &[])?;
        frontier_us.push(marked + us_since(start));
    }
    v.set("sql.exec_stats_us", median(&stats_us));
    v.set("sql.exec_frontier_us", median(&frontier_us));
    v.set("sql.exec_expand_merge_us", median(&expand_us));

    let lookup = gdb
        .db
        .prepare("SELECT tid, cost FROM TEdges WHERE fid = ?")?;
    let mut rng = SplitMix64::new(0x005C_A1AB);
    let n = gdb.num_nodes() as u64;
    let lookups: Vec<f64> = (0..POINT_OPS)
        .map(|_| {
            let fid = Value::Int(rng.below(n) as i64);
            let start = Instant::now();
            gdb.db
                .execute_prepared(&lookup, &[fid])
                .map(|_| us_since(start))
        })
        .collect::<Result<_, _>>()?;
    v.set("sql.exec_edge_lookup_us", median(&lookups));

    let mut resets = Vec::new();
    for _ in 0..5 {
        finder.find_path(gdb, s, t)?;
        let start = Instant::now();
        gdb.reset_visited()?;
        resets.push(us_since(start));
    }
    v.set("sql.exec_reset_us", median(&resets));
    Ok(v)
}

/// `core::landmarks`: no workload serves with landmarks — the first
/// mutation gates them off — so the index is measured on a copy of the
/// graph: its build time, and how many expansions seeding saves BDJ.
fn landmark_probe(graph: &Graph, pairs: &[(i64, i64)]) -> Res<Values> {
    let mut gdb = GraphDb::in_memory(graph)?;
    let start = Instant::now();
    gdb.build_landmarks(LANDMARKS)?;
    let mut v = Values::default();
    v.set("landmarks.build_s", start.elapsed().as_secs_f64());
    let expansions = |gdb: &mut GraphDb, seed_bounds: bool| -> Res<f64> {
        let finder = BdjFinder {
            seed_bounds,
            ..Default::default()
        };
        let mut total = 0u64;
        for &(s, t) in pairs {
            total += finder.find_path(gdb, s, t)?.stats.expansions;
        }
        Ok(total as f64)
    };
    let seeded = expansions(&mut gdb, true)?;
    let unseeded = expansions(&mut gdb, false)?;
    v.set("landmarks.seeded_expansion_ratio", ratio(seeded, unseeded));
    Ok(v)
}
