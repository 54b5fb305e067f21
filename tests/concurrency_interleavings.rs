//! Deterministic-interleaving concurrency suite (DESIGN.md §13).
//!
//! Plain stress tests leave thread interleavings to the OS scheduler, so
//! a race that needs a specific ordering can hide for thousands of runs.
//! This suite removes the nondeterminism: every scenario runs its
//! threads under a token-passing [`Scheduler`] that serializes execution
//! step by step and picks *which* thread runs each step from a seeded
//! PRNG. One seed = one exact interleaving; sweeping seeds explores many
//! distinct orders, and any failure names the seed that reproduces it:
//!
//! ```text
//! CONCURRENCY_SEED=17 cargo test --test concurrency_interleavings
//! ```
//!
//! `CONCURRENCY_SEEDS=N` widens the sweep (CI runs 256); the default is
//! modest so plain `cargo test` stays quick.
//!
//! Scenarios cover the shared-snapshot architecture's racy edges:
//! shared-plan-cache publish/consult from warming sessions, session
//! creation and working-table isolation over one page image, and the
//! landmark fast-path vs FEM dispatch inside a live [`PathService`].

use fempath::core::{
    BdjFinder, CancelFlag, GraphDb, PathService, SearchLimits, ServiceAlgorithm, ShortestPathFinder,
};
use fempath::graph::generate;
use fempath::inmem::dijkstra;
use fempath::sql::SqlError;
use std::panic::AssertUnwindSafe;
use std::sync::{Condvar, Mutex};

// ---------------------------------------------------------------------
// Token-passing scheduler
// ---------------------------------------------------------------------

const NOBODY: usize = usize::MAX;

struct SchedState {
    rng: u64,
    active: Vec<bool>,
    turn: usize,
    failed: Option<String>,
}

impl SchedState {
    fn next_rand(&mut self) -> u64 {
        // xorshift64*: deterministic, seedable, no external deps.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Seeded choice among still-active threads.
    fn pick(&mut self) -> usize {
        let alive: Vec<usize> = (0..self.active.len()).filter(|&i| self.active[i]).collect();
        if alive.is_empty() {
            return NOBODY;
        }
        alive[(self.next_rand() % alive.len() as u64) as usize]
    }
}

/// Serializes N threads: exactly one holds the token and runs; at every
/// [`Scheduler::point`] it hands the token to a seeded-random active
/// thread (possibly itself). Only the token holder touches the PRNG, so
/// the full interleaving is a pure function of the seed.
struct Scheduler {
    m: Mutex<SchedState>,
    cv: Condvar,
}

impl Scheduler {
    fn new(threads: usize, seed: u64) -> Scheduler {
        let mut st = SchedState {
            rng: seed | 1, // xorshift must not start at 0
            active: vec![true; threads],
            turn: 0,
            failed: None,
        };
        st.turn = st.pick();
        Scheduler {
            m: Mutex::new(st),
            cv: Condvar::new(),
        }
    }

    /// Blocks until this thread is granted its first token.
    fn start(&self, me: usize) {
        let mut st = self.m.lock().unwrap();
        while st.turn != me {
            st = self.cv.wait(st).unwrap();
        }
    }

    /// A preemption opportunity between two operations: offer the token
    /// to a seeded-random active thread and wait to get it back.
    fn point(&self, me: usize) {
        let mut st = self.m.lock().unwrap();
        assert_eq!(st.turn, me, "only the token holder may reach a point");
        st.turn = st.pick();
        self.cv.notify_all();
        while st.turn != me {
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Retires this thread (recording `err` if its body panicked) and
    /// passes the token on so the rest of the schedule keeps running.
    fn finish(&self, me: usize, err: Option<String>) {
        let mut st = self.m.lock().unwrap();
        st.active[me] = false;
        if st.failed.is_none() {
            st.failed = err;
        }
        st.turn = st.pick();
        self.cv.notify_all();
    }

    fn failure(&self) -> Option<String> {
        self.m.lock().unwrap().failed.clone()
    }
}

/// Runs `body(thread_index, &scheduler)` on `threads` threads under one
/// seeded schedule. Panics (assertion failures) inside a body are caught
/// and surfaced to the caller instead of deadlocking the token ring.
fn run_interleaved<F>(threads: usize, seed: u64, body: F) -> Option<String>
where
    F: Fn(usize, &Scheduler) + Sync,
{
    let sched = Scheduler::new(threads, seed);
    std::thread::scope(|scope| {
        for me in 0..threads {
            let sched = &sched;
            let body = &body;
            scope.spawn(move || {
                sched.start(me);
                let r = std::panic::catch_unwind(AssertUnwindSafe(|| body(me, sched)));
                let err = r.err().map(|p| {
                    p.downcast_ref::<String>()
                        .cloned()
                        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "opaque panic".into())
                });
                sched.finish(me, err);
            });
        }
    });
    sched.failure()
}

/// Sweeps `scenario` over the configured seed range; any failure panics
/// with the reproducing seed in the message.
fn sweep(name: &str, scenario: impl Fn(u64) -> Option<String>) {
    if let Some(seed) = single_seed() {
        if let Some(msg) = scenario(seed) {
            panic!("{name} failed at seed {seed}: {msg}");
        }
        return;
    }
    for seed in 1..=seed_count() {
        if let Some(msg) = scenario(seed) {
            panic!(
                "{name} failed at seed {seed}: {msg}\n\
                 reproduce with: CONCURRENCY_SEED={seed} cargo test --test \
                 concurrency_interleavings {name}"
            );
        }
    }
}

fn seed_count() -> u64 {
    if let Ok(v) = std::env::var("CONCURRENCY_SEEDS") {
        return v.parse().expect("CONCURRENCY_SEEDS must be an integer");
    }
    // Debug builds pay ~10x per query; keep plain `cargo test` quick.
    if cfg!(debug_assertions) {
        12
    } else {
        64
    }
}

fn single_seed() -> Option<u64> {
    std::env::var("CONCURRENCY_SEED")
        .ok()
        .map(|v| v.parse().expect("CONCURRENCY_SEED must be an integer"))
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// Shared-plan-cache publish/consult: three sessions warm up over one
/// snapshot with their `prepare → consult shared → compile → publish`
/// steps interleaved every possible way. Whatever the order, every
/// session must answer correctly and the cache must keep its
/// publish-once property: the publish count equals the distinct
/// statement count a single serial session produces — concurrent warmup
/// never publishes a statement twice.
#[test]
fn plan_cache_publish_consult_interleavings() {
    let g = generate::grid(4, 4, 1..=10, 11);
    let want = dijkstra::shortest_path(&g, 0, 15).expect("grid is connected");

    // Serial baseline: how many distinct statements one warmup publishes.
    let snap = GraphDb::in_memory(&g).unwrap().freeze().unwrap();
    let mut session = snap.session();
    BdjFinder::default().find_path(&mut session, 0, 15).unwrap();
    let serial_publishes = snap.shared_plan_stats().publishes;
    assert!(serial_publishes > 0, "warmup must publish plans");

    sweep("plan_cache_publish_consult_interleavings", |seed| {
        let snap = GraphDb::in_memory(&g).unwrap().freeze().unwrap();
        let failed = run_interleaved(3, seed, |me, sched| {
            let finder = BdjFinder::default();
            let mut session = snap.session();
            sched.point(me);
            // First query: cold local cache, racing publishes.
            let out = finder.find_path(&mut session, 0, 15).unwrap();
            assert_eq!(out.path.unwrap().length as u64, want.distance);
            sched.point(me);
            // Second query: must be served by now-shared plans.
            let out = finder.find_path(&mut session, 15, 0).unwrap();
            assert_eq!(out.path.unwrap().length as u64, want.distance);
        });
        if failed.is_some() {
            return failed;
        }
        let stats = snap.shared_plan_stats();
        if stats.publishes != serial_publishes {
            return Some(format!(
                "publish-once violated: {} publishes from 3 racing sessions, \
                 {serial_publishes} from a serial one",
                stats.publishes
            ));
        }
        None
    });
}

/// Session creation and copy-on-write isolation: threads create sessions
/// at interleaved points and scribble into their private working tables.
/// No ordering may let one session observe another's rows or damage the
/// shared base image.
#[test]
fn snapshot_session_isolation_interleavings() {
    let g = generate::grid(4, 4, 1..=10, 23);
    sweep("snapshot_session_isolation_interleavings", |seed| {
        let snap = GraphDb::in_memory(&g).unwrap().freeze().unwrap();
        run_interleaved(3, seed, |me, sched| {
            let rows = (me + 1) as u64 * 2;
            let mut session = snap.session();
            sched.point(me);
            for r in 0..rows {
                let nid = me as u64 * 100 + r;
                session
                    .db
                    .execute(&format!(
                        "INSERT INTO TVisited VALUES ({nid}, 1, -1, 0, 0, -1, 0)"
                    ))
                    .unwrap();
                sched.point(me);
            }
            // Only this session's rows are visible, however the writes
            // interleaved.
            assert_eq!(session.db.table_len("TVisited").unwrap(), rows);
            sched.point(me);
            session.reset_visited().unwrap();
            sched.point(me);
            assert_eq!(session.db.table_len("TVisited").unwrap(), 0);
            // The shared edge relation is untouched by any overlay write.
            assert_eq!(session.db.table_len("TEdges").unwrap(), g.num_arcs() as u64);
        })
    });
}

/// Landmark fast-path vs FEM dispatch: clients interleave queries that a
/// landmark tree answers directly with queries that must fall through to
/// the relational finder, against a live worker pool. Both paths go
/// through one [`PathService`]; every answer is checked against
/// in-memory Dijkstra.
#[test]
fn landmark_fastpath_vs_fem_interleavings() {
    let g = generate::grid(5, 5, 1..=10, 31);
    let n = 25i64;
    let pairs: Vec<(i64, i64)> = vec![(0, 24), (24, 0), (12, 12), (3, 21), (7, 18), (22, 1)];
    let oracle: Vec<Option<u64>> = pairs
        .iter()
        .map(|&(s, t)| dijkstra::shortest_path(&g, s as u32, t as u32).map(|p| p.distance))
        .collect();

    sweep("landmark_fastpath_vs_fem_interleavings", |seed| {
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        // Two landmarks cover some pairs exactly (fast path) and only
        // bound the rest (FEM path) — the mix is the point.
        gdb.build_landmarks(2).unwrap();
        let snap = std::sync::Arc::new(gdb.freeze().unwrap());
        let svc = PathService::from_snapshot(snap, 2, ServiceAlgorithm::Bdj);
        run_interleaved(3, seed, |me, sched| {
            for k in 0..pairs.len() {
                let i = (k + me * 2) % pairs.len();
                let (s, t) = pairs[i];
                sched.point(me);
                let out = svc.query(s, t).unwrap();
                match (out.path, oracle[i]) {
                    (Some(p), Some(d)) => {
                        assert_eq!(p.length as u64, d, "distance mismatch on {s}->{t}");
                        assert_eq!(p.nodes.first(), Some(&s));
                        assert_eq!(p.nodes.last(), Some(&t));
                        for w in p.nodes.windows(2) {
                            assert!(
                                w[0] >= 0 && w[0] < n && w[1] >= 0 && w[1] < n,
                                "path leaves the graph"
                            );
                        }
                    }
                    (None, None) => {}
                    (got, want) => panic!(
                        "reachability mismatch on {s}->{t}: got {:?}, want {want:?}",
                        got.map(|p| p.length)
                    ),
                }
            }
        })
    });
}

/// Cancellation: a canceller raises a search's cancel flag at a seeded
/// point of a searcher's run of queries on one session. The search that
/// polls it first stops with `Cancelled` at an expansion boundary — after
/// its set-up has written the working tables, so mid-search — and never
/// returns a path. The same session, its limits lifted, then answers every
/// pair exactly as in-memory Dijkstra does.
#[test]
fn cancel_mid_search_then_dijkstra_interleavings() {
    let g = generate::power_law(200, 3, 1..=50, 41);
    let pairs: Vec<(i64, i64)> = vec![(0, 199), (17, 120), (150, 3), (64, 99)];
    let oracle: Vec<u64> = pairs
        .iter()
        .map(|&(s, t)| {
            dijkstra::shortest_path(&g, s as u32, t as u32)
                .expect("power-law graphs are connected")
                .distance
        })
        .collect();
    let cancelled_runs = std::sync::atomic::AtomicU64::new(0);
    sweep("cancel_mid_search_then_dijkstra_interleavings", |seed| {
        let snap = GraphDb::in_memory(&g).unwrap().freeze().unwrap();
        let flag = CancelFlag::new();
        run_interleaved(2, seed, |me, sched| {
            if me == 1 {
                sched.point(me);
                flag.cancel();
                return;
            }
            let finder = BdjFinder::default();
            let mut session = snap.session();
            session.set_limits(SearchLimits {
                deadline: None,
                cancel: Some(flag.clone()),
            });
            for (&(s, t), &want) in pairs.iter().zip(&oracle) {
                sched.point(me);
                match finder.find_path(&mut session, s, t) {
                    Ok(out) => assert_eq!(out.path.unwrap().length as u64, want),
                    Err(SqlError::Cancelled) => {
                        // ORDERING: Relaxed — a test tally read after the
                        // threads are joined.
                        cancelled_runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        break;
                    }
                    Err(e) => panic!("{s}->{t} failed: {e}"),
                }
            }
            session.set_limits(SearchLimits::default());
            for (&(s, t), &want) in pairs.iter().zip(&oracle) {
                let out = finder.find_path(&mut session, s, t).unwrap();
                assert_eq!(
                    out.path.unwrap().length as u64,
                    want,
                    "{s}->{t} after cancel"
                );
            }
        })
    });
    if single_seed().is_none() {
        assert!(
            cancelled_runs.load(std::sync::atomic::Ordering::Relaxed) > 0,
            "no seed cancelled a search: the case is vacuous"
        );
    }
}

/// The scheduler itself is deterministic: the same seed must produce the
/// same interleaving (observed as the exact sequence of (thread, step)
/// grants), and different seeds must produce different ones somewhere in
/// a small sweep — otherwise the suite would be re-running one order N
/// times and calling it coverage.
#[test]
fn scheduler_is_seed_deterministic() {
    let trace = |seed: u64| -> Vec<(usize, usize)> {
        let log = Mutex::new(Vec::new());
        let failed = run_interleaved(3, seed, |me, sched| {
            for step in 0..4 {
                log.lock().unwrap().push((me, step));
                sched.point(me);
            }
        });
        assert_eq!(failed, None);
        log.into_inner().unwrap()
    };
    let mut distinct = std::collections::HashSet::new();
    for seed in 1..=8 {
        let a = trace(seed);
        let b = trace(seed);
        assert_eq!(a, b, "seed {seed} replayed a different interleaving");
        assert_eq!(a.len(), 12, "every thread must complete all steps");
        distinct.insert(a);
    }
    assert!(
        distinct.len() > 4,
        "8 seeds produced only {} distinct interleavings",
        distinct.len()
    );
}

/// A failing interleaving reports, not deadlocks: a body that panics
/// mid-schedule must surface its message through `run_interleaved` while
/// the remaining threads finish their schedule.
#[test]
fn scheduler_surfaces_body_panics() {
    let g = generate::grid(3, 3, 1..=10, 7);
    let snap = GraphDb::in_memory(&g).unwrap().freeze().unwrap();
    let failed = run_interleaved(3, 5, |me, sched| {
        let session = snap.session();
        sched.point(me);
        assert!(session.db.has_table("TVisited"));
        if me == 1 {
            panic!("deliberate scenario failure");
        }
        sched.point(me);
    });
    let msg = failed.expect("the panicking thread must be reported");
    assert!(
        msg.contains("deliberate scenario failure"),
        "panic message lost: {msg}"
    );
}
