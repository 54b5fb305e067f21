//! The four workloads: their constants, their set-up, and the closed-loop
//! clients that drive them for the timed section.
//!
//! Every client is closed-loop: it issues its next operation only when
//! the previous one has returned. The graph of a workload is a constant
//! (generated from [`GRAPH_SEED`]); `--seed` chooses the traffic — query
//! pairs, the Zipfian trace, the edges mutations insert. README.md says
//! why.

use crate::inputs::{uniform_pairs, zipf_trace, SplitMix64};
use crate::trace::Tracer;
use crate::Res;
use fempath_core::{
    BsegFinder, GraphDb, GraphDbOptions, Path, PathOutcome, PathService, QueryStats,
    ServiceAlgorithm, ServiceStats, ShortestPathFinder, DEFAULT_CACHE_BYTES,
};
use fempath_graph::{generate, Graph};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of every workload's graph.
pub const GRAPH_SEED: u64 = 0xFE3B_E7C4;
/// Edges each new node attaches (Barabási–Albert), and the weight range.
pub const ATTACH: usize = 3;
pub const WEIGHTS: std::ops::RangeInclusive<u32> = 1..=100;
/// |V| of the three in-memory workloads; everything fits the pool.
pub const RESIDENT_NODES: usize = 4000;
pub const RESIDENT_POOL_PAGES: usize = 4096;
/// |V| of the disk workload, the pool its index is built with, and the
/// pool it is queried with (2 MiB against ~60 MiB of pages).
pub const DISK_NODES: usize = 30_000;
pub const DISK_BUILD_POOL_PAGES: usize = 4096;
pub const DISK_POOL_PAGES: usize = 256;
pub const SEGTABLE_LTHD: i64 = 10;
/// Warm-up is part of set-up and must cost the same on every seed, so
/// its pairs come from a constant.
pub const WARMUP_SEED: u64 = 0x3A11_0AD5;
pub const WARMUP_QUERIES: usize = 50;
pub const WARMUP_BATCHES: usize = 2;
/// `zipf-mutating`: skew, distinct pairs, clients, and how many of client
/// 0's queries pass between two mutations. The pool of pairs the clients
/// ask about is a constant like the graph — which pairs are hot decides
/// what a miss costs, and across seeded pools throughput spread by 13% —
/// while the order they are asked in comes from `--seed`.
pub const ZIPF_THETA: f64 = 0.99;
pub const ZIPF_POOL: usize = 512;
pub const ZIPF_POOL_SEED: u64 = 0x9001_0F51;
pub const ZIPF_CLIENTS: usize = 2;
pub const ZIPF_WORKERS: usize = 2;
pub const MUTATE_EVERY: usize = 500;
/// `batch-resident`: pairs per `query_batch` call — one full tile of
/// `DEFAULT_BATCH_CHUNK` pairs for each of the two workers.
pub const BATCH_PAIRS: usize = 16;
pub const BATCH_WORKERS: usize = 2;
/// In a traced run, operations alternate between traced and untraced in
/// blocks of this many, so both kinds see the same machine.
pub const TRACE_BLOCK: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    UniformResident,
    UniformDisk,
    ZipfMutating,
    BatchResident,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::UniformResident,
        Workload::UniformDisk,
        Workload::ZipfMutating,
        Workload::BatchResident,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UniformResident => "uniform-resident",
            Workload::UniformDisk => "uniform-disk",
            Workload::ZipfMutating => "zipf-mutating",
            Workload::BatchResident => "batch-resident",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn nodes(self) -> usize {
        match self {
            Workload::UniformDisk => DISK_NODES,
            _ => RESIDENT_NODES,
        }
    }

    /// Pages of the pool the workload is queried with.
    pub fn pool_pages(self) -> usize {
        match self {
            Workload::UniformDisk => DISK_POOL_PAGES,
            _ => RESIDENT_POOL_PAGES,
        }
    }

    /// Set-ups per run; `setup_s` is their median. The in-memory set-ups
    /// take a few hundred milliseconds, so they can afford more repeats
    /// than the index build on disk.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::UniformDisk => 3,
            _ => 7,
        }
    }

    /// `peak_rss_mb` is read when client 0 has had this many operations
    /// returned, not when the run ends: a session allocates fresh pages on
    /// every query (about half a page for BDJ here) and they stay in the
    /// pool until it is full, so memory at the end of a fixed time grows
    /// with the number of queries answered — a faster program would read
    /// as a bigger one. Every run reaches these counts in its first half.
    pub fn rss_after_ops(self) -> usize {
        match self {
            Workload::UniformResident => 1000,
            Workload::UniformDisk => 1500,
            Workload::ZipfMutating => 3000,
            Workload::BatchResident => 100,
        }
    }

    /// Name of the root span of the workload's main operation.
    pub fn root_span(self) -> &'static str {
        match self {
            Workload::UniformResident | Workload::ZipfMutating => "service.query",
            Workload::UniformDisk => "algo.find_path",
            Workload::BatchResident => "service.query_batch",
        }
    }

    /// Every constant that shapes the workload, for the output document.
    pub fn constants(self) -> Vec<(&'static str, f64)> {
        let mut c = vec![
            ("graph_seed", GRAPH_SEED as f64),
            ("nodes", self.nodes() as f64),
            ("attach", ATTACH as f64),
            ("weight_max", f64::from(*WEIGHTS.end())),
            ("pool_pages", self.pool_pages() as f64),
            ("warmup_queries", WARMUP_QUERIES as f64),
            ("rss_after_ops", self.rss_after_ops() as f64),
        ];
        match self {
            Workload::UniformResident => c.extend([("workers", 1.0), ("clients", 1.0)]),
            Workload::UniformDisk => c.extend([
                ("build_pool_pages", DISK_BUILD_POOL_PAGES as f64),
                ("segtable_lthd", SEGTABLE_LTHD as f64),
                ("clients", 1.0),
            ]),
            Workload::ZipfMutating => c.extend([
                ("workers", ZIPF_WORKERS as f64),
                ("clients", ZIPF_CLIENTS as f64),
                ("zipf_theta", ZIPF_THETA),
                ("zipf_pool", ZIPF_POOL as f64),
                ("zipf_pool_seed", ZIPF_POOL_SEED as f64),
                ("mutate_every", MUTATE_EVERY as f64),
                ("cache_bytes", DEFAULT_CACHE_BYTES as f64),
            ]),
            Workload::BatchResident => c.extend([
                ("workers", BATCH_WORKERS as f64),
                ("clients", 1.0),
                ("batch_pairs", BATCH_PAIRS as f64),
                ("warmup_batches", WARMUP_BATCHES as f64),
            ]),
        }
        c
    }
}

/// Where set-up time went. The parts add up to `total_s` but for the few
/// microseconds between them.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupParts {
    pub generate_s: f64,
    pub load_s: f64,
    pub segtable_build_s: f64,
    pub segtable_segments: u64,
    pub freeze_s: f64,
    /// Building the service: one session per worker plus the admin
    /// session, and the worker threads.
    pub session_spawn_s: f64,
    pub warmup_s: f64,
    pub total_s: f64,
}

/// What the timed section calls into.
pub enum Engine {
    Service(Box<PathService>),
    /// The paper's single-client setting: one session over a database
    /// file, queried directly. `PathService` cannot serve it because
    /// freezing copies every page into memory.
    Direct(Box<GraphDb>),
}

/// A workload ready for its first timed operation.
pub struct Ready {
    pub graph: Graph,
    pub engine: Engine,
    pub parts: SetupParts,
    /// Pages of the served database or snapshot, for `space_bytes_per_arc`.
    pub data_pages: u64,
}

/// The pairs `zipf-mutating` asks about, hottest first.
pub fn zipf_pool() -> impl Iterator<Item = (i64, i64)> {
    uniform_pairs(RESIDENT_NODES, ZIPF_POOL_SEED).take(ZIPF_POOL)
}

/// The finder of `uniform-disk`: the one that reads the SegTable.
pub fn disk_finder() -> BsegFinder {
    BsegFinder::default()
}

fn secs_since(t: &mut Instant) -> f64 {
    let now = Instant::now();
    let d = now.duration_since(*t).as_secs_f64();
    *t = now;
    d
}

/// Generates, loads, indexes, freezes, spawns and warms up `w`.
pub fn setup(w: Workload) -> Res<Ready> {
    let start = Instant::now();
    let mut lap = start;
    let mut parts = SetupParts::default();
    let graph = generate::power_law(w.nodes(), ATTACH, WEIGHTS, GRAPH_SEED);
    parts.generate_s = secs_since(&mut lap);
    let warm_pairs: Vec<(i64, i64)> = uniform_pairs(w.nodes(), WARMUP_SEED)
        .take(WARMUP_QUERIES.max(BATCH_PAIRS))
        .collect();

    let (engine, data_pages) = if w == Workload::UniformDisk {
        let mut gdb = GraphDb::new(
            &graph,
            &GraphDbOptions {
                buffer_pages: DISK_BUILD_POOL_PAGES,
                on_disk: true,
                bulk_load: true,
                segmented_edges: true,
                ..Default::default()
            },
        )?;
        parts.load_s = secs_since(&mut lap);
        parts.segtable_segments = gdb.build_segtable(SEGTABLE_LTHD)?.segments;
        gdb.db.set_buffer_capacity(DISK_POOL_PAGES)?;
        parts.segtable_build_s = secs_since(&mut lap);
        let finder = disk_finder();
        for &(s, t) in &warm_pairs[..WARMUP_QUERIES] {
            finder.find_path(&mut gdb, s, t)?;
        }
        parts.warmup_s = secs_since(&mut lap);
        let pages = gdb.db.data_pages();
        (Engine::Direct(Box::new(gdb)), pages)
    } else {
        let gdb = GraphDb::new(
            &graph,
            &GraphDbOptions {
                buffer_pages: RESIDENT_POOL_PAGES,
                ..Default::default()
            },
        )?;
        parts.load_s = secs_since(&mut lap);
        let snapshot = Arc::new(gdb.freeze()?);
        parts.freeze_s = secs_since(&mut lap);
        let pages = snapshot.base_pages();
        let (workers, cache_bytes) = match w {
            Workload::ZipfMutating => (ZIPF_WORKERS, DEFAULT_CACHE_BYTES),
            Workload::BatchResident => (BATCH_WORKERS, 0),
            _ => (1, 0),
        };
        let svc = PathService::from_snapshot_with_cache(
            snapshot,
            workers,
            ServiceAlgorithm::Bdj,
            cache_bytes,
        );
        parts.session_spawn_s = secs_since(&mut lap);
        if w == Workload::BatchResident {
            for _ in 0..WARMUP_BATCHES {
                svc.query_batch(&warm_pairs[..BATCH_PAIRS])?;
            }
        } else {
            for &(s, t) in &warm_pairs[..WARMUP_QUERIES] {
                svc.query(s, t)?;
            }
        }
        parts.warmup_s = secs_since(&mut lap);
        (Engine::Service(Box::new(svc)), pages)
    };
    parts.total_s = start.elapsed().as_secs_f64();
    Ok(Ready {
        graph,
        engine,
        parts,
        data_pages,
    })
}

/// What one operation asked for.
#[derive(Debug, Clone)]
pub enum Input {
    Pair(i64, i64),
    Batch(Vec<(i64, i64)>),
    /// An `insert_edge` or the `delete_edge` that undoes it.
    Mutation,
}

/// What it got back.
#[derive(Debug, Clone)]
pub enum Answer {
    Path(Option<Path>),
    Paths(Vec<Option<Path>>),
    Mutated,
    Failed(String),
}

/// One operation of the timed section, kept for checking and accounting
/// after the clock has stopped.
#[derive(Debug, Clone)]
pub struct Op {
    pub input: Input,
    pub answer: Answer,
    /// The measurements a computed single-pair answer came with; `None`
    /// for cache hits, batches and mutations.
    pub stats: Option<QueryStats>,
    /// Mutations applied to the served graph just before and just after
    /// the call.
    pub versions: (u64, u64),
    pub start_ns: u64,
    pub end_ns: u64,
    /// When the client was ready to issue its next operation.
    pub done_ns: u64,
    pub traced: bool,
}

impl Op {
    pub fn latency_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn is_mutation(&self) -> bool {
        matches!(self.input, Input::Mutation)
    }

    /// Pairs this operation answered (0 for mutations and errors).
    pub fn pairs_answered(&self) -> usize {
        match &self.answer {
            Answer::Path(_) => 1,
            Answer::Paths(p) => p.len(),
            Answer::Mutated | Answer::Failed(_) => 0,
        }
    }
}

/// The timed section's outcome.
pub struct Timed {
    pub ops: Vec<Op>,
    /// First operation issued to last operation returned.
    pub elapsed_s: f64,
    /// Edges the mutating client inserted, in order (the oracle rebuilds
    /// each graph version from them).
    pub inserted_edges: Vec<(u32, u32)>,
    pub service_stats: Option<ServiceStats>,
    /// `VmHWM` after [`Workload::rss_after_ops`] operations, or when the
    /// last client stopped if the run was too short to get there.
    pub peak_rss_mb: f64,
}

/// What the clients of one timed section share.
#[derive(Clone, Copy)]
struct Section {
    workload: Workload,
    epoch: Instant,
    seconds: f64,
    trace: bool,
    seed: u64,
}

/// What one client hands back when the section ends.
struct ClientRun {
    ops: Vec<Op>,
    tracer: Tracer,
    inserted_edges: Vec<(u32, u32)>,
    peak_rss_mb: Option<f64>,
}

/// One closed-loop client: issues operations until the deadline, keeps
/// each one's record, and in a traced run lays out spans for every other
/// block of operations.
struct Client<'a> {
    deadline: Instant,
    trace: bool,
    root_span: &'static str,
    /// The service the operations go through, if any: its wall time
    /// beyond the finder's own is a `service.overhead` child span, and
    /// its graph version brackets every call.
    svc: Option<&'a PathService>,
    base_version: u64,
    tracer: Tracer,
    ops: Vec<Op>,
    rss_after_ops: usize,
    peak_rss_mb: Option<f64>,
    /// Distinguish the request ids of concurrent clients.
    id: u64,
    clients: u64,
}

impl<'a> Client<'a> {
    fn new(section: Section, svc: Option<&'a PathService>, id: u64, clients: u64) -> Client<'a> {
        Client {
            deadline: section.epoch + Duration::from_secs_f64(section.seconds),
            trace: section.trace,
            root_span: section.workload.root_span(),
            svc,
            base_version: svc.map_or(0, |s| s.snapshot().graph_version()),
            tracer: Tracer::new(section.epoch),
            ops: Vec::new(),
            rss_after_ops: section.workload.rss_after_ops(),
            peak_rss_mb: None,
            id,
            clients,
        }
    }

    fn running(&self) -> bool {
        Instant::now() < self.deadline
    }

    fn mutations_applied(&self) -> u64 {
        self.svc
            .map_or(0, |s| s.graph_version() - self.base_version)
    }

    /// Runs `call` as the client's next operation on `input`.
    fn issue(&mut self, input: Input, call: impl FnOnce() -> (Answer, Option<QueryStats>)) {
        let index = self.ops.len();
        let traced = self.trace && (index / TRACE_BLOCK) % 2 == 1;
        let before = self.mutations_applied();
        let start = Instant::now();
        let (answer, stats) = call();
        let end = Instant::now();
        let after = self.mutations_applied();
        // A cache hit returns default stats; only a finder run has
        // statements to report.
        let stats = stats.filter(|s| s.sql_statements > 0);
        let (start_ns, end_ns) = (self.tracer.ns(start), self.tracer.ns(end));
        if traced {
            let request = index as u64 * self.clients + self.id;
            let name = if matches!(input, Input::Mutation) {
                "service.mutation"
            } else {
                self.root_span
            };
            let root = self.tracer.push(None, request, name, start_ns, end_ns);
            if let Some(s) = &stats {
                self.lay_out_children(root, request, start_ns, end_ns, s);
            }
        }
        let done_ns = self.tracer.ns(Instant::now());
        self.ops.push(Op {
            input,
            answer,
            stats,
            versions: (before, after),
            start_ns,
            end_ns,
            done_ns,
            traced,
        });
        if self.ops.len() == self.rss_after_ops {
            self.peak_rss_mb = Some(peak_rss_mb());
        }
    }

    /// Children of a root span, from the stats its call returned: the
    /// service's share of the wall time, then the three phases back to
    /// back, the F/E/M operators inside path expansion. What is left as
    /// the root's self time is the finder's time between statements.
    fn lay_out_children(&mut self, root: u32, request: u64, start: u64, end: u64, s: &QueryStats) {
        let ns = |d: Duration| d.as_nanos() as u64;
        let [pe, sc, fpr] = s.phase_times.map(ns);
        let [f, e, m, _aux] = s.operator_times.map(ns);
        let mut at = start;
        if self.svc.is_some() {
            let overhead = (end - start).saturating_sub(ns(s.total_time));
            at = self
                .tracer
                .push_sequence(root, request, at, &[("service.overhead", overhead)]);
        }
        let expansion = self
            .tracer
            .push(Some(root), request, "algo.pe", at, at + pe);
        self.tracer.push_sequence(
            expansion,
            request,
            at,
            &[("fem.f", f), ("fem.e", e), ("fem.m", m)],
        );
        self.tracer.push_sequence(
            root,
            request,
            at + pe,
            &[("algo.sc", sc), ("algo.fpr", fpr)],
        );
    }

    fn finish(self, inserted_edges: Vec<(u32, u32)>) -> ClientRun {
        ClientRun {
            ops: self.ops,
            tracer: self.tracer,
            inserted_edges,
            peak_rss_mb: self.peak_rss_mb,
        }
    }
}

/// A single-pair answer (or the error in its place) with its stats.
fn path_answer(r: fempath_core::Result<PathOutcome>) -> (Answer, Option<QueryStats>) {
    match r {
        Ok(out) => (Answer::Path(out.path), Some(out.stats)),
        Err(e) => (Answer::Failed(e.to_string()), None),
    }
}

/// Runs the timed section of `w` for `seconds`, traffic drawn from `seed`,
/// and returns its records and (in a traced run) its spans.
pub fn run_timed(
    w: Workload,
    ready: &mut Ready,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> (Timed, Tracer) {
    let section = Section {
        workload: w,
        epoch: Instant::now(),
        seconds,
        trace,
        seed,
    };
    let mut pairs = uniform_pairs(w.nodes(), seed);
    let mut runs: Vec<ClientRun> = match (&mut ready.engine, w) {
        (Engine::Direct(gdb), _) => {
            let mut c = Client::new(section, None, 0, 1);
            let finder = disk_finder();
            while c.running() {
                let (s, t) = pairs.next().unwrap_or((0, 1));
                c.issue(Input::Pair(s, t), || {
                    path_answer(finder.find_path(gdb, s, t))
                });
            }
            vec![c.finish(Vec::new())]
        }
        (Engine::Service(svc), Workload::BatchResident) => {
            let mut c = Client::new(section, Some(svc), 0, 1);
            while c.running() {
                let batch: Vec<_> = pairs.by_ref().take(BATCH_PAIRS).collect();
                c.issue(Input::Batch(batch.clone()), || {
                    match svc.query_batch(&batch) {
                        Ok(paths) => (Answer::Paths(paths), None),
                        Err(e) => (Answer::Failed(e.to_string()), None),
                    }
                });
            }
            vec![c.finish(Vec::new())]
        }
        (Engine::Service(svc), Workload::ZipfMutating) => {
            let svc: &PathService = svc;
            let pool: Vec<(i64, i64)> = zipf_pool().collect();
            let (graph, pool) = (&ready.graph, &pool);
            std::thread::scope(|sc| {
                let clients: Vec<_> = (0..ZIPF_CLIENTS as u64)
                    .map(|id| sc.spawn(move || zipf_client(section, svc, graph, pool, id)))
                    .collect();
                clients
                    .into_iter()
                    .map(|h| h.join().expect("a zipf client panicked"))
                    .collect()
            })
        }
        (Engine::Service(svc), _) => {
            let mut c = Client::new(section, Some(svc), 0, 1);
            while c.running() {
                let (s, t) = pairs.next().unwrap_or((0, 1));
                c.issue(Input::Pair(s, t), || path_answer(svc.query(s, t)));
            }
            vec![c.finish(Vec::new())]
        }
    };
    let mut first = runs.remove(0);
    let peak_rss_mb = first.peak_rss_mb.unwrap_or_else(peak_rss_mb);
    for more in runs {
        first.ops.extend(more.ops);
        first.tracer.absorb(more.tracer);
    }
    let last_end = first.ops.iter().map(|o| o.end_ns).max().unwrap_or(0);
    let timed = Timed {
        ops: first.ops,
        elapsed_s: last_end as f64 / 1e9,
        inserted_edges: first.inserted_edges,
        service_stats: match &ready.engine {
            Engine::Service(svc) => Some(svc.stats()),
            Engine::Direct(_) => None,
        },
        peak_rss_mb,
    };
    (timed, first.tracer)
}

/// One client of `zipf-mutating`. Client 0 also issues the mutations: one
/// before each [`MUTATE_EVERY`]th of its queries, alternating the insert
/// of a fresh weight-1 edge with the delete of that edge.
fn zipf_client(
    section: Section,
    svc: &PathService,
    graph: &Graph,
    pool: &[(i64, i64)],
    id: u64,
) -> ClientRun {
    let mut c = Client::new(section, Some(svc), id, ZIPF_CLIENTS as u64);
    let mut ranks = zipf_trace(pool.len(), ZIPF_THETA, section.seed.wrapping_add(id));
    let mut edge_rng = SplitMix64::new(section.seed ^ 0x5EED_0003);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let (mut queries, mut mutations) = (0usize, 0usize);
    while c.running() {
        if id == 0 && mutations < queries / MUTATE_EVERY {
            let insert = mutations.is_multiple_of(2);
            if insert {
                edges.push(fresh_edge(graph, &mut edge_rng));
            }
            let (u, v) = edges[edges.len() - 1];
            let (u, v) = (i64::from(u), i64::from(v));
            mutations += 1;
            c.issue(Input::Mutation, || {
                let done = if insert {
                    svc.insert_edge(u, v, 1)
                } else {
                    svc.delete_edge(u, v)
                };
                match done {
                    Ok(_) => (Answer::Mutated, None),
                    Err(e) => (Answer::Failed(e.to_string()), None),
                }
            });
        }
        let (s, t) = pool[ranks.next().unwrap_or(0)];
        c.issue(Input::Pair(s, t), || path_answer(svc.query(s, t)));
        queries += 1;
    }
    c.finish(edges)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc`
/// does not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A seeded pair of distinct nodes with no edge between them.
fn fresh_edge(graph: &Graph, rng: &mut SplitMix64) -> (u32, u32) {
    let n = graph.num_nodes() as u64;
    loop {
        let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
        if u != v && graph.out_arcs(u).iter().all(|a| a.to != v) {
            return (u, v);
        }
    }
}
