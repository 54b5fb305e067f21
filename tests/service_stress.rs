//! Concurrency stress tests for [`PathService`] (DESIGN.md §10): many
//! client threads hammer one service over a shared graph snapshot, and
//! every answer is cross-checked against in-memory Dijkstra. A wrong
//! answer under concurrency would mean sessions are leaking state into
//! each other through the shared page image.

use fempath::core::{GraphDb, GraphDbOptions, PathService, PathServiceOptions, ServiceAlgorithm};
use fempath::graph::{generate, Graph};
use fempath::inmem::dijkstra;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Deterministic pseudo-random pairs spread over the node range.
fn stress_pairs(n: usize, count: usize) -> Vec<(i64, i64)> {
    (0..count)
        .map(|i| {
            let s = (i * 7919 + 31) % n;
            let t = (i * 104_729 + 7) % n;
            (s as i64, t as i64) // s == t pairs are kept: trivial path
        })
        .collect()
}

/// Oracle distances for every pair (None = unreachable).
fn oracle(g: &Graph, pairs: &[(i64, i64)]) -> Vec<Option<u64>> {
    pairs
        .iter()
        .map(|&(s, t)| dijkstra::shortest_path(g, s as u32, t as u32).map(|p| p.distance))
        .collect()
}

/// `threads` clients drain one shared work list through `svc`, checking
/// every single-pair answer against the oracle.
fn hammer(svc: &PathService, pairs: &[(i64, i64)], expected: &[Option<u64>], threads: usize) {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(s, t)) = pairs.get(i) else { break };
                let out = svc.query(s, t).unwrap();
                match (out.path, expected[i]) {
                    (Some(p), Some(d)) => {
                        assert_eq!(
                            p.length as u64, d,
                            "distance mismatch on {s}->{t} under concurrency"
                        );
                        assert_eq!(p.nodes.first(), Some(&s));
                        assert_eq!(p.nodes.last(), Some(&t));
                    }
                    (None, None) => {}
                    (got, want) => panic!(
                        "reachability mismatch on {s}->{t}: got {:?}, want {want:?}",
                        got.map(|p| p.length)
                    ),
                }
            });
        }
    });
}

#[test]
fn eight_threads_power_law_cross_checked() {
    let g = generate::power_law(300, 3, 1..=100, 11);
    let pairs = stress_pairs(300, 96);
    let expected = oracle(&g, &pairs);
    let svc = PathService::new(&g, 8).unwrap();
    hammer(&svc, &pairs, &expected, 8);
}

#[test]
fn more_clients_than_workers_grid() {
    // Clients > workers: jobs queue up and workers serve them in turn.
    let g = generate::grid(8, 8, 1..=10, 5);
    let pairs = stress_pairs(64, 48);
    let expected = oracle(&g, &pairs);
    let svc = PathService::new(&g, 2).unwrap();
    hammer(&svc, &pairs, &expected, 6);
}

#[test]
fn batch_and_single_queries_interleaved() {
    let g = generate::power_law(200, 3, 1..=100, 23);
    let pairs = stress_pairs(200, 60);
    let expected = oracle(&g, &pairs);
    let svc = Arc::new(PathService::new(&g, 4).unwrap());

    std::thread::scope(|scope| {
        // Half the clients issue batches, half issue singles, concurrently.
        for chunk in 0..2 {
            let svc = svc.clone();
            let pairs = &pairs;
            let expected = &expected;
            scope.spawn(move || {
                let lo = chunk * 30;
                let batch = &pairs[lo..lo + 30];
                let paths = svc.query_batch(batch).unwrap();
                for (i, p) in paths.iter().enumerate() {
                    assert_eq!(
                        p.as_ref().map(|p| p.length as u64),
                        expected[lo + i],
                        "batch answer mismatch for {:?}",
                        batch[i]
                    );
                }
            });
        }
        for _ in 0..2 {
            let svc = svc.clone();
            let pairs = &pairs;
            let expected = &expected;
            scope.spawn(move || {
                for (i, &(s, t)) in pairs.iter().enumerate() {
                    let out = svc.query(s, t).unwrap();
                    assert_eq!(out.path.map(|p| p.length as u64), expected[i]);
                }
            });
        }
    });
}

#[test]
fn unreachable_and_invalid_under_concurrency() {
    // Two disconnected components + out-of-range endpoints.
    let g = Graph::from_undirected_edges(8, vec![(0, 1, 3), (1, 2, 4), (5, 6, 2), (6, 7, 1)]);
    let svc = PathService::new(&g, 3).unwrap();
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let svc = &svc;
            scope.spawn(move || {
                for _ in 0..10 {
                    assert!(svc.query(0, 7).unwrap().path.is_none(), "cross-component");
                    assert_eq!(svc.query(0, 2).unwrap().path.unwrap().length, 7);
                    assert!(svc.query(0, 64).is_err(), "out of range must error");
                    assert_eq!(svc.query(4, 4).unwrap().path.unwrap().length, 0);
                }
            });
        }
    });
}

#[test]
fn bsdj_service_matches_oracle() {
    let g = generate::grid(6, 6, 1..=10, 2);
    let pairs = stress_pairs(36, 24);
    let expected = oracle(&g, &pairs);
    let svc = PathService::with_options(
        &g,
        &PathServiceOptions {
            workers: 4,
            algorithm: ServiceAlgorithm::Bsdj,
            ..Default::default()
        },
    )
    .unwrap();
    hammer(&svc, &pairs, &expected, 4);
}

#[test]
fn snapshot_sessions_are_isolated() {
    // Direct snapshot use: two sessions mutate their working tables
    // independently; the shared base image stays intact. Row-tier
    // `TEdges`, which SQL may DELETE from (segmented `TEdges` is
    // read-only to SQL).
    let g = generate::grid(4, 4, 1..=10, 1);
    let opts = GraphDbOptions {
        segmented_edges: false,
        ..Default::default()
    };
    let snap = Arc::new(GraphDb::new(&g, &opts).unwrap().freeze().unwrap());
    let mut a = snap.session();
    let mut b = snap.session();
    a.db.execute("INSERT INTO TVisited VALUES (1, 0, -1, 0, 0, -1, 0)")
        .unwrap();
    assert_eq!(a.db.table_len("TVisited").unwrap(), 1);
    assert_eq!(b.db.table_len("TVisited").unwrap(), 0, "sessions isolated");
    b.db.execute("DELETE FROM TEdges WHERE cost >= 0").unwrap();
    assert_eq!(b.db.table_len("TEdges").unwrap(), 0);
    assert_eq!(
        a.db.table_len("TEdges").unwrap(),
        g.num_arcs() as u64,
        "base image must be copy-on-write"
    );
    // A third, fresh session still sees the pristine graph.
    let c = snap.session();
    assert_eq!(c.db.table_len("TEdges").unwrap(), g.num_arcs() as u64);
}

#[test]
fn landmark_fast_path_under_the_hammer() {
    // Eight clients share one frozen landmark index (DESIGN.md §12):
    // covered pairs ride the fast path, uncovered pairs fall back to FEM,
    // batches interleave with both — all cross-checked against Dijkstra.
    let g = generate::power_law(300, 3, 1..=100, 11);
    let mut gdb = GraphDb::in_memory(&g).unwrap();
    let stats = gdb.build_landmarks(8).unwrap();
    let snap = Arc::new(gdb.freeze().unwrap());
    assert!(
        snap.landmarks().is_some(),
        "landmark index must survive the freeze"
    );

    // Guaranteed-covered pairs: any node against a landmark shares that
    // landmark's tree, so its bounds are tight.
    let mut pairs = stress_pairs(300, 64);
    for (i, &lm) in stats.landmarks.iter().enumerate() {
        pairs.push(((i as i64 * 37) % 300, lm));
    }
    let expected = oracle(&g, &pairs);

    let svc = Arc::new(PathService::from_snapshot(
        snap.clone(),
        8,
        ServiceAlgorithm::default(),
    ));
    std::thread::scope(|scope| {
        // Six single-pair hammer threads...
        for _ in 0..6 {
            let svc = svc.clone();
            let pairs = &pairs;
            let expected = &expected;
            scope.spawn(move || {
                for (i, &(s, t)) in pairs.iter().enumerate() {
                    let out = svc.query(s, t).unwrap();
                    match (out.path, expected[i]) {
                        (Some(p), Some(d)) => {
                            assert_eq!(p.length as u64, d, "{s}->{t} under concurrency");
                            assert_eq!(p.nodes.first(), Some(&s));
                            assert_eq!(p.nodes.last(), Some(&t));
                        }
                        (None, None) => {}
                        (got, want) => panic!(
                            "{s}->{t}: reachability mismatch (got {:?}, want {want:?})",
                            got.map(|p| p.length)
                        ),
                    }
                }
            });
        }
        // ...two batch threads over the same endpoints, concurrently.
        for _ in 0..2 {
            let svc = svc.clone();
            let pairs = &pairs;
            let expected = &expected;
            scope.spawn(move || {
                let paths = svc.query_batch(pairs).unwrap();
                for (i, p) in paths.iter().enumerate() {
                    assert_eq!(
                        p.as_ref().map(|p| p.length as u64),
                        expected[i],
                        "batch mismatch for {:?}",
                        pairs[i]
                    );
                }
            });
        }
    });

    // The fast path answers covered pairs straight from the index: a
    // fresh session's FEM tables stay untouched after an exact answer.
    let mut probe = snap.session();
    let lm = stats.landmarks[0];
    let before = probe.db.table_len("TVisited").unwrap();
    let fast = fempath::core::landmarks::exact_path(&mut probe, lm, lm).unwrap();
    assert_eq!(fast.map(|p| p.length), Some(0));
    let covered = pairs
        .iter()
        .filter(|&&(s, t)| {
            matches!(
                fempath::core::landmarks::exact_path(&mut probe, s, t),
                Ok(Some(_))
            )
        })
        .count();
    assert!(
        covered >= stats.landmarks.len(),
        "every (x, landmark) probe pair is covered by construction"
    );
    assert_eq!(
        probe.db.table_len("TVisited").unwrap(),
        before,
        "fast path must not write FEM tables"
    );
}

#[test]
fn service_options_build_the_landmark_index() {
    let g = generate::grid(6, 6, 1..=10, 2);
    let pairs = stress_pairs(36, 24);
    let expected = oracle(&g, &pairs);
    let svc = PathService::with_options(
        &g,
        &PathServiceOptions {
            workers: 4,
            landmarks: 4,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        svc.snapshot().landmarks().is_some(),
        "PathServiceOptions::landmarks must build the index before freezing"
    );
    hammer(&svc, &pairs, &expected, 4);
}
