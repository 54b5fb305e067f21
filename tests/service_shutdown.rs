//! Shutdown and failure-injection tests for [`PathService`]
//! (DESIGN.md §13). The dispatch layer makes two promises that only show
//! up under failure: dropping the service under load joins every worker
//! cleanly (queued jobs drain, nothing hangs), and a worker that panics
//! mid-query surfaces `worker_pool_down` to *that* caller only — the
//! worker rebuilds its session and the pool keeps serving everyone else.
//!
//! Every test that could hang on a regression runs under a watchdog:
//! the scenario executes on its own thread and the test fails loudly if
//! it does not signal completion within a generous deadline, instead of
//! wedging the whole test binary.

use fempath::core::{PathService, PathServiceOptions};
use fempath::graph::generate;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Runs `f` on a fresh thread; fails the test if it neither returns nor
/// panics within `secs` seconds (a deadlock in shutdown code would
/// otherwise hang the harness forever).
fn with_watchdog(secs: u64, name: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let h = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => h.join().unwrap(),
        Err(_) => panic!("{name} hung for {secs}s — shutdown is wedged"),
    }
}

/// Dropping the service right after heavy concurrent load joins every
/// worker and returns; no queued reply is lost and no thread is leaked
/// hanging on a queue.
#[test]
fn drop_after_concurrent_load_joins_cleanly() {
    with_watchdog(120, "drop_after_concurrent_load_joins_cleanly", || {
        let g = generate::grid(5, 5, 1..=10, 17);
        let svc = PathService::new(&g, 4).unwrap();
        let served = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for c in 0..8 {
                let svc = &svc;
                let served = &served;
                scope.spawn(move || {
                    for i in 0..25 {
                        let s = (c * 25 + i) % 25;
                        let t = (i * 7 + c) % 25;
                        svc.query(s as i64, t as i64).unwrap();
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(served.load(Ordering::Relaxed), 200);
        drop(svc); // must join all 4 workers without hanging
    });
}

/// Shutdown races with live clients: the last `Arc` owner to finish
/// triggers the drop while sibling clients may still be mid-reply. Every
/// issued query must still get its answer — close() drains queues, it
/// does not drop them.
#[test]
fn concurrent_owners_drop_under_load_without_losing_replies() {
    with_watchdog(120, "concurrent_owners_drop_under_load", || {
        let g = generate::grid(4, 4, 1..=10, 29);
        let svc = Arc::new(PathService::new(&g, 3).unwrap());
        let mut clients = Vec::new();
        for c in 0..6usize {
            let svc = Arc::clone(&svc);
            clients.push(std::thread::spawn(move || {
                let mut ok = 0usize;
                for i in 0..40 {
                    let (s, t) = ((c + i * 3) % 16, (i * 5 + 1) % 16);
                    if svc.query(s as i64, t as i64).is_ok() {
                        ok += 1;
                    }
                }
                // svc Arc drops here; the last client runs the shutdown.
                ok
            }));
        }
        drop(svc);
        let total: usize = clients.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 240, "no issued query may lose its reply");
    });
}

/// A panicking worker answers its own caller with an error — never a
/// hang — and the pool survives: follow-up singles and batches on every
/// worker still succeed, because the worker rebuilt its session from the
/// snapshot.
#[test]
fn worker_panic_surfaces_error_and_pool_survives() {
    with_watchdog(120, "worker_panic_surfaces_error_and_pool_survives", || {
        let g = generate::grid(4, 4, 1..=10, 41);
        let svc = PathService::new(&g, 2).unwrap();
        // Warm the pool so panics hit sessions with cached plans.
        svc.query(0, 15).unwrap();

        let err = svc
            .debug_inject_panic()
            .expect_err("panic must become an error");
        assert!(
            err.to_string().contains("worker pool"),
            "caller should see the pool-down error, got: {err}"
        );

        // More singles than workers: every worker (including the one
        // that panicked and rebuilt) serves again, with correct answers.
        for i in 0..8 {
            let out = svc.query(i % 16, (i * 7 + 2) % 16).unwrap();
            assert!(out.path.is_some(), "grid is connected");
        }
        // Batch pairs spread across the rebuilt pool too.
        let pairs: Vec<(i64, i64)> = (0..6).map(|i| (i, 15 - i)).collect();
        let paths = svc.query_batch(&pairs).unwrap();
        assert!(paths.iter().all(|p| p.is_some()));
    });
}

/// Repeated panics do not poison the pool: inject more failures than
/// there are workers, interleaved with successful queries from
/// concurrent clients whose answers must be unaffected.
#[test]
fn repeated_panics_do_not_poison_the_pool() {
    with_watchdog(120, "repeated_panics_do_not_poison_the_pool", || {
        let g = generate::grid(4, 4, 1..=10, 53);
        // Cache off: the clients hammer one hot pair on purpose, and
        // every repeat must hit the (possibly rebuilding) worker pool —
        // a cached answer would bypass the machinery under test.
        let svc = PathService::with_options(
            &g,
            &PathServiceOptions {
                workers: 2,
                cache_bytes: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let baseline = svc.query(0, 15).unwrap().path.expect("connected").length;

        std::thread::scope(|scope| {
            // One thread injects a storm of panics...
            let svc_ref = &svc;
            scope.spawn(move || {
                for _ in 0..6 {
                    svc_ref
                        .debug_inject_panic()
                        .expect_err("every injection must error, not hang");
                }
            });
            // ...while clients keep getting correct answers throughout.
            for _ in 0..3 {
                scope.spawn(move || {
                    for _ in 0..10 {
                        let out = svc_ref.query(0, 15).unwrap();
                        assert_eq!(
                            out.path.expect("connected").length,
                            baseline,
                            "a panicked worker's rebuilt session answered wrong"
                        );
                    }
                });
            }
        });

        // The pool's accounting survived the storm: all jobs executed,
        // the queue drained, every job's wait recorded.
        let stats = svc.stats();
        assert_eq!(stats.queue.executed.len(), 2);
        assert!(
            stats.total_executed() >= 37,
            "6 panics + 30 queries + warmup"
        );
        assert_eq!(stats.queue.wait.count(), stats.total_executed());
        assert_eq!(stats.queue.depth, 0, "the queue must drain after the storm");
    });
}

/// Zero workers is clamped to one and still shuts down cleanly — the
/// degenerate pool must not hang a batch or its close.
#[test]
fn zero_worker_service_is_clamped_and_functional() {
    with_watchdog(60, "zero_worker_service_is_clamped_and_functional", || {
        let g = generate::grid(3, 3, 1..=10, 61);
        let svc = PathService::new(&g, 0).unwrap();
        assert_eq!(svc.worker_count(), 1);
        assert!(svc.query(0, 8).unwrap().path.is_some());
        let paths = svc.query_batch(&[(0, 8), (8, 0), (4, 4)]).unwrap();
        assert_eq!(paths.len(), 3);
        assert!(paths.iter().all(|p| p.is_some()));
    });
}
