//! [`PathService`]: a concurrent shortest-path query service.
//!
//! The paper's FEM framework already splits state into a large immutable
//! edge relation and small per-query working tables; this module turns
//! that split into a serving architecture (DESIGN.md §10, §13). The graph
//! is loaded once, frozen into an [`GraphSnapshot`] (an `Arc`-shared
//! read-only page image plus a cross-session plan cache), and a pool of
//! worker threads each owns a private session — its own buffer pool,
//! copy-on-write overlay for the working tables, and prepared-statement
//! set.
//!
//! Dispatch is contention-free (DESIGN.md §13): every worker owns a
//! private queue, producers round-robin jobs across the queues, and an
//! idle worker steals the oldest job from a busy sibling
//! ([`crate::dispatch`]). A batch is **one job per distinct pair** —
//! [`PathService::query_batch`] pushes exactly the jobs
//! [`PathService::query`] would, so work stealing balances individual
//! pairs and a slow pair holds up nothing but itself. A worker that
//! panics mid-query answers that caller with an error, rebuilds its
//! session and keeps serving — one poisoned query can neither hang its
//! caller nor take down the pool.
//!
//! Two serving-tier layers sit on top of the pool (DESIGN.md §16):
//!
//! * **Versioned edge mutations** — [`PathService::insert_edge`] /
//!   [`PathService::delete_edge`] validate the mutation against an admin
//!   session, append it to a shared mutation log and advance the graph
//!   version. Workers replay the log's tail into their private sessions
//!   before each job, so every answer reflects all mutations published
//!   before the query was issued. Landmark bounds go stale on the first
//!   mutation and each session disables its fast path rather than risk
//!   an inadmissible bound.
//! * **A sharded result cache** — hot `(s, t)` pairs are answered from a
//!   [`ResultCache`] keyed by graph version, consulted before any worker
//!   is involved. Mutations invalidate by version bump, never by sweep.
//!
//! ```
//! use fempath_core::PathService;
//! use fempath_graph::generate;
//!
//! let g = generate::grid(6, 6, 1..=10, 7);
//! let svc = PathService::new(&g, 4).unwrap();
//! let out = svc.query(0, 35).unwrap();
//! assert!(out.path.is_some(), "grid is connected");
//! let paths = svc.query_batch(&[(0, 35), (5, 30), (7, 7)]).unwrap();
//! assert_eq!(paths.len(), 3);
//! let stats = svc.stats();
//! assert!(stats.total_executed() >= 2, "singles and batch pairs all count");
//! ```

use crate::algo::{BdjFinder, BsdjFinder, Path, PathOutcome, SearchLimits, ShortestPathFinder};
use crate::cache::{CacheStats, ResultCache};
use crate::dispatch::{StealQueues, WaitHistogram, WorkerQueueStats};
use crate::graphdb::{GraphDb, GraphDbOptions, GraphSnapshot};
use crate::stats::QueryStats;
use fempath_graph::Graph;
use fempath_sql::{Result, SqlError};
use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;

/// Default [`ResultCache`] byte budget for a service
/// ([`PathServiceOptions::cache_bytes`]): enough for tens of thousands
/// of typical path entries without mattering next to the buffer pool.
pub const DEFAULT_CACHE_BYTES: usize = 4 << 20;

/// Which relational finder answers the service's queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ServiceAlgorithm {
    /// Bidirectional Dijkstra — the service default.
    #[default]
    Bdj,
    /// Bidirectional set Dijkstra (the paper's strongest raw-edge finder).
    Bsdj,
}

impl ServiceAlgorithm {
    fn finder(self) -> Box<dyn ShortestPathFinder + Send> {
        match self {
            ServiceAlgorithm::Bdj => Box::new(BdjFinder::default()),
            ServiceAlgorithm::Bsdj => Box::new(BsdjFinder::default()),
        }
    }
}

/// Configuration for a [`PathService`].
#[derive(Debug, Clone)]
pub struct PathServiceOptions {
    /// Worker threads (and concurrent sessions). 0 is clamped to 1.
    pub workers: usize,
    /// Database build options (buffer budget, dialect, storage tier —
    /// segmented `TEdges` by default).
    pub graphdb: GraphDbOptions,
    /// Finder answering every query — [`PathService::query`] and each
    /// distinct pair of [`PathService::query_batch`] alike.
    pub algorithm: ServiceAlgorithm,
    /// Landmarks to build into the shared snapshot before freezing
    /// (DESIGN.md §12). 0 skips the index; with one, pairs covered by a
    /// landmark tree are answered without running FEM, and
    /// every finder seeds its Theorem-1 bound from the index.
    pub landmarks: usize,
    /// Byte budget of the version-keyed result cache (DESIGN.md §16).
    /// 0 disables caching entirely — every query runs a finder.
    /// `query_batch` deduplicates the pairs of one call either way.
    pub cache_bytes: usize,
}

impl Default for PathServiceOptions {
    fn default() -> Self {
        PathServiceOptions {
            workers: 4,
            graphdb: GraphDbOptions::default(),
            algorithm: ServiceAlgorithm::default(),
            landmarks: 0,
            cache_bytes: DEFAULT_CACHE_BYTES,
        }
    }
}

/// One edge mutation in the shared log, replayed by every worker session
/// in log order. Validation happened against the admin session before
/// the entry was published, so replay cannot fail on a healthy session.
#[derive(Debug, Clone, Copy)]
enum EdgeMutation {
    /// Undirected insert: both arcs under symmetric storage.
    Insert { u: i64, v: i64, w: i64 },
    /// Undirected delete of every parallel edge between the endpoints.
    Delete { u: i64, v: i64 },
}

/// The shared mutation log (DESIGN.md §16): an append-only entry vector
/// plus the current graph version mirrored into an atomic so the query
/// front door reads it without touching the lock.
struct MutationLog {
    entries: RwLock<Vec<EdgeMutation>>,
    /// Always `base_version + entries.len()`; stored after the entry is
    /// pushed, under the write lock.
    version: AtomicU64,
}

/// State shared between the service handle and every worker thread.
struct ServiceShared {
    snapshot: Arc<GraphSnapshot>,
    /// Graph version of the frozen snapshot (mutation log baseline).
    base_version: u64,
    log: MutationLog,
    /// `None` when [`PathServiceOptions::cache_bytes`] is 0.
    cache: Option<ResultCache>,
    /// Pairs answered by the landmark exact-path fast path instead of a
    /// FEM finder (DESIGN.md §12).
    lm_fast_path_hits: AtomicU64,
}

/// One unit of work dispatched to the pool.
enum Job {
    Single {
        s: i64,
        t: i64,
        limits: SearchLimits,
        reply: Sender<Result<PathOutcome>>,
    },
    /// Test-only: panics inside the worker, exercising the
    /// panic-isolation path ([`PathService::debug_inject_panic`]).
    #[cfg(any(test, feature = "failpoints"))]
    InjectPanic { reply: Sender<Result<PathOutcome>> },
}

/// Counter snapshot for one service worker (see [`PathService::stats`]).
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Jobs (one per single query or distinct batch pair) this worker
    /// executed.
    pub executed: u64,
    /// Jobs this worker stole from a sibling's queue.
    pub stolen: u64,
    /// Jobs currently queued on this worker.
    pub queue_depth: usize,
    /// High-water mark of this worker's queue depth.
    pub queue_depth_hwm: u64,
    /// Queue-wait histogram of jobs enqueued on this worker (log₂ µs
    /// buckets) — how long work sat before any worker picked it up.
    pub wait: WaitHistogram,
}

impl From<WorkerQueueStats> for WorkerStats {
    fn from(q: WorkerQueueStats) -> WorkerStats {
        WorkerStats {
            executed: q.executed,
            stolen: q.stolen,
            queue_depth: q.depth,
            queue_depth_hwm: q.depth_hwm,
            wait: q.wait,
        }
    }
}

/// Instrumentation for a [`PathService`] (DESIGN.md §13, §16):
/// per-worker queue depths, steal counts and queue-wait histograms, plus
/// the serving-tier counters — result-cache hit/miss/eviction/stale
/// totals, landmark fast-path hits and the current graph version. All
/// counters are cheap relaxed atomics — reading them does not perturb
/// the pool.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// One entry per worker, in worker order.
    pub workers: Vec<WorkerStats>,
    /// Result-cache counters (all zero when the cache is disabled).
    pub cache: CacheStats,
    /// Pairs answered by the landmark exact-path fast path (DESIGN.md
    /// §12) instead of running a FEM finder.
    pub lm_fast_path_hits: u64,
    /// Current graph version: the snapshot's epoch plus one per edge
    /// mutation applied through this service.
    pub graph_version: u64,
}

impl ServiceStats {
    /// Jobs executed across the pool.
    pub fn total_executed(&self) -> u64 {
        self.workers.iter().map(|w| w.executed).sum()
    }

    /// Jobs that crossed worker queues (work-stealing events). High
    /// steal counts with low waits mean the pool is balancing fine;
    /// high waits point at true saturation, not dispatch contention.
    pub fn total_stolen(&self) -> u64 {
        self.workers.iter().map(|w| w.stolen).sum()
    }

    /// Largest queue-depth high-water mark across workers.
    pub fn max_queue_depth_hwm(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.queue_depth_hwm)
            .max()
            .unwrap_or(0)
    }

    /// Queue-wait quantile (µs) over every job in the pool.
    pub fn wait_quantile_us(&self, q: f64) -> u64 {
        let mut merged = WaitHistogram::default();
        for w in &self.workers {
            merged.merge(&w.wait);
        }
        merged.quantile_us(q)
    }

    /// Cache hit rate over all lookups so far (0.0 when none happened).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache.hits + self.cache.misses;
        if total == 0 {
            0.0
        } else {
            self.cache.hits as f64 / total as f64
        }
    }
}

/// A concurrent shortest-path service over one frozen graph.
///
/// Construction loads and freezes the graph, then spawns the worker pool;
/// [`PathService::query`] and [`PathService::query_batch`] may be called
/// from any number of threads concurrently (`&self`, `Send + Sync`).
/// Dropping the service shuts the pool down.
pub struct PathService {
    shared: Arc<ServiceShared>,
    queues: Arc<StealQueues<Job>>,
    workers: Vec<JoinHandle<()>>,
    /// Serialization point for mutations: validates each one before it
    /// is published to the log, and by construction always sits at the
    /// current graph version.
    admin: Mutex<GraphDb>,
}

impl PathService {
    /// Loads `graph` and serves it with `workers` threads and default
    /// options.
    pub fn new(graph: &Graph, workers: usize) -> Result<PathService> {
        PathService::with_options(
            graph,
            &PathServiceOptions {
                workers,
                ..Default::default()
            },
        )
    }

    /// Loads `graph` with explicit options.
    pub fn with_options(graph: &Graph, opts: &PathServiceOptions) -> Result<PathService> {
        let mut gdb = GraphDb::new(graph, &opts.graphdb)?;
        if opts.landmarks > 0 {
            gdb.build_landmarks(opts.landmarks)?;
        }
        Ok(PathService::from_snapshot_with_cache(
            Arc::new(gdb.freeze()?),
            opts.workers,
            opts.algorithm,
            opts.cache_bytes,
        ))
    }

    /// Serves an existing snapshot — use this to pre-build the SegTable
    /// or landmark tables into the shared image first
    /// ([`GraphDb::freeze`]), or to run several services over one image.
    /// The result cache runs at its default budget; use
    /// [`PathService::from_snapshot_with_cache`] to size or disable it.
    pub fn from_snapshot(
        snapshot: Arc<GraphSnapshot>,
        workers: usize,
        algorithm: ServiceAlgorithm,
    ) -> PathService {
        PathService::from_snapshot_with_cache(snapshot, workers, algorithm, DEFAULT_CACHE_BYTES)
    }

    /// [`PathService::from_snapshot`] with an explicit result-cache byte
    /// budget; 0 disables caching (every query runs a finder).
    pub fn from_snapshot_with_cache(
        snapshot: Arc<GraphSnapshot>,
        workers: usize,
        algorithm: ServiceAlgorithm,
        cache_bytes: usize,
    ) -> PathService {
        let workers = workers.max(1);
        let base_version = snapshot.graph_version();
        let admin = Mutex::new(snapshot.session());
        let shared = Arc::new(ServiceShared {
            snapshot,
            base_version,
            log: MutationLog {
                entries: RwLock::new(Vec::new()),
                version: AtomicU64::new(base_version),
            },
            cache: (cache_bytes > 0).then(|| ResultCache::new(cache_bytes)),
            lm_fast_path_hits: AtomicU64::new(0),
        });
        let queues = Arc::new(StealQueues::new(workers));
        let handles = (0..workers)
            .map(|me| {
                let queues = queues.clone();
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared, &queues, me, algorithm))
            })
            .collect();
        PathService {
            shared,
            queues,
            workers: handles,
            admin,
        }
    }

    /// Current graph version: the snapshot's data epoch plus one per
    /// mutation applied through this service. Result-cache entries are
    /// keyed by it, so a bump orphans every older entry at once.
    pub fn graph_version(&self) -> u64 {
        // ORDERING: Acquire pairs with the Release store in
        // `apply_mutation` — a reader that observes the bumped version
        // also observes the pushed log entry.
        self.shared.log.version.load(Ordering::Acquire)
    }

    /// Inserts the undirected edge `(u, v)` with weight `w` into the
    /// served graph and returns the number of arcs added (2, or 1 for a
    /// self-loop). Bumps the graph version: cached results become
    /// unreachable, sessions stop using pre-mutation landmark bounds,
    /// and every worker replays the mutation before its next job. Fails
    /// (leaving the version untouched) if either endpoint does not exist
    /// or `w` is not positive.
    pub fn insert_edge(&self, u: i64, v: i64, w: i64) -> Result<u64> {
        self.apply_mutation(EdgeMutation::Insert { u, v, w })
    }

    /// Deletes every parallel edge between `u` and `v` (both arcs under
    /// symmetric storage) and returns the number of arcs removed. Bumps
    /// the graph version even when nothing matched — deletion intent
    /// must invalidate cached results regardless.
    pub fn delete_edge(&self, u: i64, v: i64) -> Result<u64> {
        self.apply_mutation(EdgeMutation::Delete { u, v })
    }

    /// Validates `m` on the admin session, publishes it to the log and
    /// advances the shared graph version. The log's write lock is the
    /// mutation serialization point: entries land in the order the admin
    /// session applied them, so worker replay converges on the admin's
    /// exact state.
    fn apply_mutation(&self, m: EdgeMutation) -> Result<u64> {
        let mut entries = self
            .shared
            .log
            .entries
            .write()
            .unwrap_or_else(|e| e.into_inner());
        let mut admin = self.admin.lock().unwrap_or_else(|e| e.into_inner());
        let affected = match m {
            EdgeMutation::Insert { u, v, w } => admin.insert_edge(u, v, w)?,
            EdgeMutation::Delete { u, v } => admin.delete_edge(u, v)?,
        };
        entries.push(m);
        // ORDERING: Release pairs with the Acquire loads in
        // `graph_version` and `catch_up`; the store happens after the
        // push, still under the write lock, so observing the new version
        // implies the new entry is visible.
        self.shared.log.version.store(
            self.shared.base_version + entries.len() as u64,
            Ordering::Release,
        );
        Ok(affected)
    }

    /// Shortest path from `s` to `t`: answered from the result cache
    /// when a verdict for the current graph version is resident
    /// (including cached "unreachable" verdicts), else by the next free
    /// worker — which publishes its answer back to the cache.
    pub fn query(&self, s: i64, t: i64) -> Result<PathOutcome> {
        self.query_with(s, t, &SearchLimits::default())
    }

    /// [`PathService::query`] under explicit [`SearchLimits`]: the search
    /// stops with `SqlError::Timeout` past `limits.deadline` (counted from
    /// its start) or `SqlError::Cancelled` once `limits.cancel` is raised.
    /// A stopped search returns no path and leaves nothing in the cache;
    /// its worker's session serves the next job as usual.
    pub fn query_with(&self, s: i64, t: i64, limits: &SearchLimits) -> Result<PathOutcome> {
        if let Some(cache) = &self.shared.cache {
            if let Some(path) = cache.lookup(s, t, self.graph_version()) {
                return Ok(PathOutcome {
                    path,
                    stats: QueryStats::default(),
                });
            }
        }
        self.dispatch(s, t, limits)?
            .recv()
            .map_err(|_| worker_pool_down())?
    }

    /// Answers many (s, t) pairs; `paths[i]` answers `pairs[i]`.
    ///
    /// The pairs are **deduplicated** — a pair that appears many times in
    /// one batch is computed once and fanned back out to every slot.
    /// With the cache enabled, each distinct pair first consults it and
    /// hits (positive or negative) are answered inline. Every remaining
    /// pair becomes one job, the same job [`PathService::query`] pushes
    /// (landmark fast path, then the configured [`ServiceAlgorithm`],
    /// then a cache insert), so an idle worker steals individual pairs
    /// and the batch finishes when its slowest pair does. The first
    /// error any pair reports fails the call.
    pub fn query_batch(&self, pairs: &[(i64, i64)]) -> Result<Vec<Option<Path>>> {
        self.query_batch_with(pairs, &SearchLimits::default())
    }

    /// [`PathService::query_batch`] under explicit [`SearchLimits`]: each
    /// distinct pair's search gets the deadline, counted from its own
    /// start, and polls the one cancel flag. A stopped pair fails the call.
    pub fn query_batch_with(
        &self,
        pairs: &[(i64, i64)],
        limits: &SearchLimits,
    ) -> Result<Vec<Option<Path>>> {
        let version = self.graph_version();
        let mut out: Vec<Option<Path>> = vec![None; pairs.len()];
        // The first slot of every distinct pair; a repeat copies from it.
        let mut first: HashMap<(i64, i64), usize> = HashMap::new();
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        let mut pending: Vec<(usize, Receiver<Result<PathOutcome>>)> = Vec::new();
        for (i, &(s, t)) in pairs.iter().enumerate() {
            match first.entry((s, t)) {
                MapEntry::Occupied(o) => repeats.push((i, *o.get())),
                MapEntry::Vacant(v) => {
                    v.insert(i);
                    let hit = self
                        .shared
                        .cache
                        .as_ref()
                        .and_then(|c| c.lookup(s, t, version));
                    match hit {
                        Some(path) => out[i] = path,
                        None => pending.push((i, self.dispatch(s, t, limits)?)),
                    }
                }
            }
        }
        for (i, result) in pending {
            out[i] = result.recv().map_err(|_| worker_pool_down())??.path;
        }
        for (i, j) in repeats {
            out[i] = out[j].clone();
        }
        Ok(out)
    }

    /// Pushes one single-pair job and returns the channel its answer
    /// arrives on.
    fn dispatch(
        &self,
        s: i64,
        t: i64,
        limits: &SearchLimits,
    ) -> Result<Receiver<Result<PathOutcome>>> {
        let (reply, result) = channel();
        self.queues
            .push(Job::Single {
                s,
                t,
                limits: limits.clone(),
                reply,
            })
            .map_err(|_| worker_pool_down())?;
        Ok(result)
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The shared snapshot backing the pool.
    pub fn snapshot(&self) -> &Arc<GraphSnapshot> {
        &self.shared.snapshot
    }

    /// Dispatch and serving-tier instrumentation: per-worker
    /// executed/stolen counts, queue depths and queue-wait histograms
    /// (DESIGN.md §13), plus result-cache counters, landmark fast-path
    /// hits and the current graph version (DESIGN.md §16).
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            workers: (0..self.workers.len())
                .map(|i| self.queues.queue_stats(i).into())
                .collect(),
            cache: self
                .shared
                .cache
                .as_ref()
                .map(ResultCache::stats)
                .unwrap_or_default(),
            // ORDERING: Relaxed — a monotone stats counter read for
            // reporting; no other memory depends on it.
            lm_fast_path_hits: self.shared.lm_fast_path_hits.load(Ordering::Relaxed),
            graph_version: self.graph_version(),
        }
    }

    /// Test-only: makes one worker panic mid-job and returns what its
    /// caller observes. The panic must surface as an error on *this*
    /// call — never a hang — and the pool (including the panicked
    /// worker, which rebuilds its session) must keep serving. Compiled
    /// only for tests and under the `failpoints` feature, so production
    /// builds cannot reach it.
    #[cfg(any(test, feature = "failpoints"))]
    #[doc(hidden)]
    pub fn debug_inject_panic(&self) -> Result<PathOutcome> {
        let (reply, result) = channel();
        self.queues
            .push(Job::InjectPanic { reply })
            .map_err(|_| worker_pool_down())?;
        result.recv().map_err(|_| worker_pool_down())?
    }
}

impl Drop for PathService {
    fn drop(&mut self) {
        // Refuse new jobs and wake every parked worker; workers drain
        // whatever is still queued, then exit their loops.
        self.queues.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PathService>();
};

fn worker_pool_down() -> SqlError {
    SqlError::Eval("path service worker pool is shut down".into())
}

/// One worker's mutable state: its private session plus how many log
/// entries it has replayed into it. The pair moves together — a rebuilt
/// session starts back at the snapshot, so `applied` resets with it.
struct WorkerSession {
    db: GraphDb,
    applied: u64,
}

/// Runs one job body with panic isolation: a panic inside the finder (or
/// injected by a test) is caught, the session — whose working tables may
/// be mid-operation — is rebuilt from the snapshot (dropping its replayed
/// mutations; `catch_up` re-applies them before the next job), and the
/// caller gets a `worker_pool_down` error instead of a dropped reply.
/// Sibling workers are untouched: no dispatch lock is ever held around
/// job execution, so there is nothing to poison.
fn run_isolated<R>(
    ws: &mut WorkerSession,
    shared: &ServiceShared,
    f: impl FnOnce(&mut GraphDb) -> Result<R>,
) -> Result<R> {
    match std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut ws.db))) {
        Ok(res) => res,
        Err(_) => {
            ws.db = shared.snapshot.session();
            ws.applied = 0;
            Err(worker_pool_down())
        }
    }
}

/// Replays the mutation log's unapplied tail into the worker session, so
/// the session's graph (and its data version) reflect every mutation
/// published before this job. The common no-mutation case is a single
/// atomic load; each replayed mutation bumps the session's own version,
/// keeping it aligned with `base_version + applied`.
fn catch_up(ws: &mut WorkerSession, shared: &ServiceShared) -> Result<()> {
    // ORDERING: Acquire pairs with the Release store in
    // `apply_mutation` — observing the bumped version guarantees the
    // pushed entries are visible under the read lock below.
    if shared.log.version.load(Ordering::Acquire) == shared.base_version + ws.applied {
        return Ok(());
    }
    let entries = shared.log.entries.read().unwrap_or_else(|e| e.into_inner());
    while (ws.applied as usize) < entries.len() {
        match entries[ws.applied as usize] {
            EdgeMutation::Insert { u, v, w } => {
                ws.db.insert_edge(u, v, w)?;
            }
            EdgeMutation::Delete { u, v } => {
                ws.db.delete_edge(u, v)?;
            }
        }
        ws.applied += 1;
    }
    Ok(())
}

/// Answers `job` with `err` without executing it (replay failed — the
/// session cannot reach the published graph state).
fn reply_error(job: Job, err: SqlError) {
    match job {
        Job::Single { reply, .. } => {
            let _ = reply.send(Err(err));
        }
        #[cfg(any(test, feature = "failpoints"))]
        Job::InjectPanic { reply } => {
            let _ = reply.send(Err(err));
        }
    }
}

/// One worker: a private session over the shared snapshot, draining its
/// own queue (and stealing from siblings) until the service closes the
/// pool and the queues run dry. Before each job the session replays any
/// mutations published since its last one; after each successful job the
/// answer is published to the result cache under the version it was
/// computed at.
fn worker_loop(
    shared: &ServiceShared,
    queues: &StealQueues<Job>,
    me: usize,
    algorithm: ServiceAlgorithm,
) {
    let mut ws = WorkerSession {
        db: shared.snapshot.session(),
        applied: 0,
    };
    let finder = algorithm.finder();
    while let Some(job) = queues.pop(me) {
        if catch_up(&mut ws, shared).is_err() {
            // Replay into a live session failed (it should not: every
            // entry was validated by the admin session). Rebuild from
            // the snapshot and replay from scratch; if even that fails,
            // answer this caller with the error and keep serving.
            ws.db = shared.snapshot.session();
            ws.applied = 0;
            if let Err(e) = catch_up(&mut ws, shared) {
                reply_error(job, e);
                continue;
            }
        }
        // The version every result computed in this job belongs to:
        // mutations racing in after this point may make it stale, in
        // which case the version-keyed cache ignores the insert.
        let version = ws.db.graph_version();
        match job {
            Job::Single {
                s,
                t,
                limits,
                reply,
            } => {
                let res = run_isolated(&mut ws, shared, |session| {
                    // Landmark fast path (DESIGN.md §12): a covered pair —
                    // bounds already proven tight — is answered straight
                    // from the index, no FEM table ever written. Uncovered
                    // pairs (and every pair once a mutation staled the
                    // index) fall through to the configured finder.
                    match crate::landmarks::exact_path(session, s, t)? {
                        Some(path) => {
                            // ORDERING: Relaxed — monotone stats counter,
                            // nothing is ordered against it.
                            shared.lm_fast_path_hits.fetch_add(1, Ordering::Relaxed);
                            Ok(PathOutcome {
                                path: Some(path),
                                stats: QueryStats::default(),
                            })
                        }
                        None => {
                            session.set_limits(limits);
                            let out = finder.find_path(session, s, t);
                            session.set_limits(SearchLimits::default());
                            out
                        }
                    }
                });
                if let (Some(cache), Ok(out)) = (&shared.cache, &res) {
                    cache.insert(s, t, version, out.path.clone());
                }
                let _ = reply.send(res);
            }
            #[cfg(any(test, feature = "failpoints"))]
            Job::InjectPanic { reply } => {
                let res = run_isolated(&mut ws, shared, |_| -> Result<PathOutcome> {
                    panic!("injected worker panic (test hook)")
                });
                let _ = reply.send(res);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fempath_graph::generate;

    #[test]
    fn a_stopped_query_is_typed_never_cached_and_leaves_the_session_serving() {
        let g = generate::grid(6, 6, 1..=10, 4);
        let svc = PathService::new(&g, 1).unwrap();
        let zero = SearchLimits {
            deadline: Some(std::time::Duration::ZERO),
            cancel: None,
        };
        let flag = crate::algo::CancelFlag::new();
        flag.cancel();
        let cancelled = SearchLimits {
            deadline: None,
            cancel: Some(flag),
        };
        assert!(matches!(
            svc.query_with(0, 35, &zero),
            Err(SqlError::Timeout)
        ));
        assert!(matches!(
            svc.query_with(0, 35, &cancelled),
            Err(SqlError::Cancelled)
        ));
        // Each pair of a batch runs under the deadline.
        assert!(matches!(
            svc.query_batch_with(&[(0, 35), (5, 30)], &zero),
            Err(SqlError::Timeout)
        ));
        assert_eq!(
            svc.stats().cache.inserts,
            0,
            "a stopped search is not cached"
        );
        // The one worker's session, stopped four times after its search
        // set-up, answers exactly.
        let want = fempath_inmem::dijkstra::shortest_path(&g, 0, 35).unwrap();
        let got = svc.query(0, 35).unwrap().path.unwrap();
        assert_eq!(got.length as u64, want.distance);
    }

    #[test]
    fn serves_single_queries() {
        let g = generate::grid(5, 5, 1..=10, 3);
        let svc = PathService::new(&g, 2).unwrap();
        let out = svc.query(0, 24).unwrap();
        let p = out.path.expect("grid is connected");
        assert_eq!(p.nodes.first(), Some(&0));
        assert_eq!(p.nodes.last(), Some(&24));
        // Trivial and invalid queries behave like the direct finders.
        assert_eq!(svc.query(3, 3).unwrap().path.unwrap().length, 0);
        assert!(svc.query(0, 999).is_err());
    }

    #[test]
    fn serves_batches_in_caller_order() {
        let g = generate::grid(4, 4, 1..=10, 9);
        let svc = PathService::new(&g, 3).unwrap();
        let pairs = vec![(0, 15), (1, 1), (15, 0), (2, 13), (0, 5)];
        let paths = svc.query_batch(&pairs).unwrap();
        assert_eq!(paths.len(), pairs.len());
        for (i, &(s, t)) in pairs.iter().enumerate() {
            let p = paths[i].as_ref().expect("grid is connected");
            assert_eq!(p.nodes.first(), Some(&s));
            assert_eq!(p.nodes.last(), Some(&t));
        }
        // Forward and reverse of the same pair agree on length.
        assert_eq!(
            paths[0].as_ref().unwrap().length,
            paths[2].as_ref().unwrap().length
        );
    }

    #[test]
    fn batch_is_partitioned_across_workers_not_tiled_onto_one() {
        // 9 distinct pairs on 8 workers: one job per pair, each stealable
        // on its own.
        let g = generate::grid(4, 4, 1..=10, 9);
        let svc = PathService::new(&g, 8).unwrap();
        let pairs: Vec<(i64, i64)> = (0..9).map(|i| (i % 16, (i * 5 + 3) % 16)).collect();
        let paths = svc.query_batch(&pairs).unwrap();
        assert_eq!(paths.len(), 9);
        let stats = svc.stats();
        assert_eq!(stats.total_executed(), 9, "one job per distinct pair");
        // Every job's queue wait was recorded.
        let waits: u64 = stats.workers.iter().map(|w| w.wait.count()).sum();
        assert_eq!(waits, 9);
    }

    #[test]
    fn stats_account_for_every_job() {
        let g = generate::grid(4, 4, 1..=10, 5);
        let svc = PathService::new(&g, 3).unwrap();
        for i in 0..12 {
            svc.query(i % 16, (i * 7) % 16).unwrap();
        }
        let pairs: Vec<(i64, i64)> = (0..7).map(|i| (i, (i + 5) % 16)).collect();
        svc.query_batch(&pairs).unwrap();
        let stats = svc.stats();
        assert_eq!(stats.workers.len(), 3);
        // 12 singles + 7 batch pairs (all distinct and none cached, so
        // the cache front door forwards every one).
        assert_eq!(stats.total_executed(), 19);
        assert!(
            stats.wait_quantile_us(1.0) > 0,
            "waits are recorded in open-ended log2 buckets"
        );
        for w in &stats.workers {
            assert_eq!(w.queue_depth, 0, "queues drain after the calls return");
        }
    }

    #[test]
    fn sessions_share_plans_after_warmup() {
        let g = generate::grid(4, 4, 1..=10, 5);
        let svc = PathService::new(&g, 2).unwrap();
        svc.query(0, 15).unwrap();
        assert!(
            svc.snapshot().shared_plan_stats().plans > 0,
            "first query should publish its plans to the shared cache"
        );
    }

    #[test]
    fn repeat_queries_hit_the_cache() {
        let g = generate::grid(4, 4, 1..=10, 5);
        let svc = PathService::new(&g, 2).unwrap();
        let first = svc.query(0, 15).unwrap().path.expect("connected");
        let second = svc.query(0, 15).unwrap().path.expect("connected");
        assert_eq!(first.length, second.length);
        assert_eq!(first.nodes, second.nodes);
        let stats = svc.stats();
        assert_eq!(stats.cache.hits, 1, "second query must be a cache hit");
        assert_eq!(
            stats.total_executed(),
            1,
            "only the first query ran a finder"
        );
        // Batches hit the same cache: the hot pair plus its duplicate
        // run zero new jobs.
        let paths = svc.query_batch(&[(0, 15), (0, 15)]).unwrap();
        assert!(paths.iter().all(|p| p.is_some()));
        assert_eq!(svc.stats().total_executed(), 1);
    }

    #[test]
    fn mutations_bump_version_and_invalidate_cached_results() {
        let g = generate::grid(4, 4, 1..=10, 7);
        let svc = PathService::new(&g, 2).unwrap();
        let v0 = svc.graph_version();
        let before = svc.query(0, 15).unwrap().path.expect("connected").length;
        assert!(before > 1, "grid detour must cost more than the shortcut");
        // A unit-weight shortcut must win immediately — through the
        // cache, not around it.
        assert_eq!(svc.insert_edge(0, 15, 1).unwrap(), 2);
        assert_eq!(svc.graph_version(), v0 + 1);
        assert_eq!(svc.query(0, 15).unwrap().path.expect("connected").length, 1);
        // Deleting it restores the old distance for singles and batches.
        assert_eq!(svc.delete_edge(0, 15).unwrap(), 2);
        assert_eq!(
            svc.query(0, 15).unwrap().path.expect("connected").length,
            before
        );
        let paths = svc.query_batch(&[(0, 15), (15, 0)]).unwrap();
        assert_eq!(paths[0].as_ref().expect("connected").length, before);
        let stats = svc.stats();
        assert_eq!(stats.graph_version, v0 + 2);
        assert!(
            stats.cache.stale >= 1,
            "mutations must strand cached entries"
        );
        // Invalid mutations never advance the version.
        assert!(svc.insert_edge(0, 999, 1).is_err());
        assert!(svc.insert_edge(0, 1, 0).is_err());
        assert_eq!(svc.graph_version(), v0 + 2);
    }

    #[test]
    fn cache_disabled_service_still_serves_and_counts_nothing() {
        let g = generate::grid(4, 4, 1..=10, 11);
        let svc = PathService::with_options(
            &g,
            &PathServiceOptions {
                workers: 2,
                cache_bytes: 0,
                ..Default::default()
            },
        )
        .unwrap();
        svc.query(0, 15).unwrap();
        svc.query(0, 15).unwrap();
        let stats = svc.stats();
        assert_eq!(stats.cache, CacheStats::default());
        assert_eq!(stats.total_executed(), 2, "no cache, every query runs");
        // Mutations still work without a cache.
        assert_eq!(svc.insert_edge(0, 15, 1).unwrap(), 2);
        assert_eq!(svc.query(0, 15).unwrap().path.expect("connected").length, 1);
    }

    #[test]
    fn landmark_fast_path_hits_are_counted_and_stop_after_mutation() {
        let g = generate::grid(4, 4, 1..=10, 13);
        let svc = PathService::with_options(
            &g,
            &PathServiceOptions {
                workers: 2,
                landmarks: 16,  // every node a landmark: all pairs covered
                cache_bytes: 0, // isolate the landmark counter from caching
                ..Default::default()
            },
        )
        .unwrap();
        svc.query(0, 15).unwrap();
        assert_eq!(svc.stats().lm_fast_path_hits, 1);
        // A mutation stales the landmark index; sessions disable the
        // fast path rather than serve a pre-mutation bound.
        svc.insert_edge(0, 15, 1).unwrap();
        assert_eq!(svc.query(0, 15).unwrap().path.expect("connected").length, 1);
        assert_eq!(
            svc.stats().lm_fast_path_hits,
            1,
            "post-mutation queries must not use pre-mutation landmarks"
        );
    }
}
