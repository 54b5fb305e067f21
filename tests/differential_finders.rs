//! Differential test: every relational shortest-path finder (DJ, BDJ, BSDJ,
//! BBFS, BSEG) must return exactly the in-memory Dijkstra distance on each
//! of the paper's graph families, and the path it reports must be a real
//! walk through the graph of that exact weight.

use fempath::core::{
    BatchShortestPathFinder, BbfsFinder, BdjFinder, BsdjFinder, BsegFinder, DjFinder, GraphDb,
    ShortestPathFinder,
};
use fempath::graph::{generate, Graph};
use fempath::inmem::dijkstra;

/// Deterministic query endpoints spread over the node range.
fn query_pairs(n: usize, count: usize) -> Vec<(i64, i64)> {
    (0..count)
        .map(|i| {
            let s = (i * 7919 + 13) % n;
            let mut t = (i * 104_729 + n / 2) % n;
            if t == s {
                t = (t + 1) % n;
            }
            (s as i64, t as i64)
        })
        .collect()
}

/// Asserts `path` is a genuine walk `s -> t` in `g` whose arc weights sum to
/// `expected` (finders may legitimately return different equal-weight paths).
fn assert_real_walk(g: &Graph, nodes: &[i64], expected: u64, ctx: &str) {
    let mut total = 0u64;
    for w in nodes.windows(2) {
        let arc = g
            .out_arcs(w[0] as u32)
            .iter()
            .filter(|a| a.to == w[1] as u32)
            .map(|a| a.weight)
            .min();
        let weight = arc.unwrap_or_else(|| panic!("{ctx}: edge {}->{} not in graph", w[0], w[1]));
        total += weight as u64;
    }
    assert_eq!(
        total, expected,
        "{ctx}: reported path weight differs from oracle distance"
    );
}

fn check_graph(name: &str, g: &Graph, n: usize, queries: usize) {
    let mut gdb = GraphDb::in_memory(g).unwrap();
    gdb.build_segtable(10).unwrap();
    let finders: Vec<Box<dyn ShortestPathFinder>> = vec![
        Box::new(DjFinder),
        Box::new(BdjFinder::default()),
        Box::new(BsdjFinder::default()),
        Box::new(BbfsFinder),
        Box::new(BsegFinder::default()),
    ];
    for (s, t) in query_pairs(n, queries) {
        let oracle = dijkstra::shortest_path(g, s as u32, t as u32);
        for f in &finders {
            let ctx = format!("{} on {name} {s}->{t}", f.name());
            let out = f.find_path(&mut gdb, s, t).unwrap();
            match (&out.path, &oracle) {
                (Some(p), Some(o)) => {
                    assert_eq!(p.length as u64, o.distance, "{ctx}: distance mismatch");
                    assert_eq!(
                        p.nodes.first(),
                        Some(&s),
                        "{ctx}: path must start at source"
                    );
                    assert_eq!(p.nodes.last(), Some(&t), "{ctx}: path must end at target");
                    assert_real_walk(g, &p.nodes, o.distance, &ctx);
                }
                (None, None) => {}
                (got, want) => panic!(
                    "{ctx}: reachability mismatch (relational={}, in-memory={})",
                    got.is_some(),
                    want.is_some()
                ),
            }
        }
    }
}

/// The finders a multi-pair run is checked on: the service default and
/// the paper's set-at-a-time finder.
fn batch_finders() -> Vec<Box<dyn ShortestPathFinder>> {
    vec![
        Box::new(BdjFinder::default()),
        Box::new(BsdjFinder::default()),
    ]
}

/// Cross-validates `find_paths` over one batch of pairs: each answer must
/// match per-pair in-memory Dijkstra (distance, reachability, and a real
/// walk of exactly that weight), and the reported distances must be
/// identical to a separate single-query run's.
fn check_batch(name: &str, g: &Graph, pairs: &[(i64, i64)]) {
    let mut gdb = GraphDb::in_memory(g).unwrap();
    let oracles: Vec<Option<u64>> = pairs
        .iter()
        .map(|&(s, t)| dijkstra::shortest_path(g, s as u32, t as u32).map(|o| o.distance))
        .collect();
    let single = BsdjFinder::default();
    let single_lengths: Vec<Option<i64>> = pairs
        .iter()
        .map(|&(s, t)| {
            single
                .find_path(&mut gdb, s, t)
                .unwrap()
                .path
                .map(|p| p.length)
        })
        .collect();
    for f in batch_finders() {
        let out = f.find_paths(&mut gdb, pairs).unwrap();
        assert_eq!(out.paths.len(), pairs.len());
        for (i, (&(s, t), oracle)) in pairs.iter().zip(&oracles).enumerate() {
            let ctx = format!("{} on {name} {s}->{t} (pair {i})", f.name());
            match (&out.paths[i], oracle) {
                (Some(p), Some(d)) => {
                    assert_eq!(p.length as u64, *d, "{ctx}: distance mismatch");
                    assert_eq!(
                        Some(p.length),
                        single_lengths[i],
                        "{ctx}: batched and single-query distances must be identical"
                    );
                    assert_eq!(
                        p.nodes.first(),
                        Some(&s),
                        "{ctx}: path must start at source"
                    );
                    assert_eq!(p.nodes.last(), Some(&t), "{ctx}: path must end at target");
                    assert_real_walk(g, &p.nodes, *d, &ctx);
                }
                (None, None) => {}
                (got, want) => panic!(
                    "{ctx}: reachability mismatch (batched={}, in-memory={})",
                    got.is_some(),
                    want.is_some()
                ),
            }
        }
    }
}

#[test]
fn all_finders_match_dijkstra_on_grid() {
    let g = generate::grid(8, 7, 1..=100, 42);
    check_graph("grid(8x7)", &g, 56, 8);
}

#[test]
fn all_finders_match_dijkstra_on_power_law() {
    let g = generate::power_law(150, 3, 1..=100, 7);
    check_graph("power_law(150)", &g, 150, 8);
}

#[test]
fn all_finders_match_dijkstra_on_dblp_like() {
    // dblp_like can leave isolated nodes, exercising the unreachable branch.
    let g = generate::dblp_like(120, 1..=100, 11);
    check_graph("dblp_like(120)", &g, 120, 8);
}

#[test]
fn all_finders_agree_on_unit_weights() {
    // Unit weights force heavy tie-breaking: a good stress of the paper's
    // ROW_NUMBER/MIN parent selection equivalence.
    let g = generate::grid(6, 6, 1..=1, 3);
    check_graph("unit-grid(6x6)", &g, 36, 6);
}

#[test]
fn batched_finders_match_dijkstra_on_grid() {
    let g = generate::grid(8, 7, 1..=100, 42);
    let mut pairs = query_pairs(56, 10);
    pairs.push((5, 5)); // trivial pair inside a batch
    pairs.push(pairs[0]); // duplicate pair
    check_batch("grid(8x7)", &g, &pairs);
}

#[test]
fn batched_finders_match_dijkstra_on_power_law() {
    let g = generate::power_law(150, 3, 1..=100, 7);
    check_batch("power_law(150)", &g, &query_pairs(150, 10));
}

#[test]
fn batched_finders_match_dijkstra_on_mixed_reachability() {
    // dblp_like leaves isolated nodes, so one batch mixes reachable and
    // unreachable pairs — an unreachable answer must not leak into the
    // next pair's run on the same session.
    let g = generate::dblp_like(120, 1..=100, 11);
    let mut pairs = query_pairs(120, 10);
    // Force pairs against the lowest-degree nodes (isolated in dblp_like).
    let isolated: Vec<i64> = (0..120u32)
        .filter(|&v| g.out_arcs(v).is_empty())
        .map(|v| v as i64)
        .collect();
    for (i, &v) in isolated.iter().take(3).enumerate() {
        pairs.push((i as i64, v));
    }
    check_batch("dblp_like(120)", &g, &pairs);
}

#[test]
fn batched_finders_match_on_unit_weights() {
    // Heavy tie-breaking across pairs sharing frontier nodes.
    let g = generate::grid(6, 6, 1..=1, 3);
    check_batch("unit-grid(6x6)", &g, &query_pairs(36, 8));
}

#[test]
fn batched_finders_work_without_merge_support() {
    // The PostgreSQL dialect forces the TExp + UPDATE/INSERT M-operator.
    use fempath::core::GraphDbOptions;
    use fempath::sql::Dialect;
    let g = generate::grid(6, 6, 1..=50, 21);
    let mut gdb = GraphDb::new(
        &g,
        &GraphDbOptions {
            dialect: Dialect::POSTGRES,
            ..Default::default()
        },
    )
    .unwrap();
    let pairs = query_pairs(36, 6);
    for f in batch_finders() {
        let out = f.find_paths(&mut gdb, &pairs).unwrap();
        for (&(s, t), p) in pairs.iter().zip(&out.paths) {
            let oracle = dijkstra::shortest_path(&g, s as u32, t as u32).unwrap();
            let p = p
                .as_ref()
                .unwrap_or_else(|| panic!("{} (no MERGE): {s}->{t} must be reachable", f.name()));
            assert_eq!(p.length as u64, oracle.distance, "{} (no MERGE)", f.name());
            assert_real_walk(&g, &p.nodes, oracle.distance, "no-MERGE batch");
        }
    }
}

/// Landmark-seeded bounds must be invisible in the answers: every finder
/// on a database with a landmark index (which seeds its pruning ceiling)
/// returns exactly the distances it returns on the same graph without one
/// (unseeded) and those of in-memory Dijkstra — including unreachable and
/// s == t pairs — in both SQL dialects. A wrong (too-small) seeded ceiling
/// would prune the optimal path itself, so any divergence here is an
/// inadmissible bound escaping the property suite.
#[test]
fn landmark_seeding_never_changes_any_answer() {
    use fempath::core::{GraphDbOptions, SqlStyle};
    use fempath::sql::Dialect;
    // dblp_like leaves isolated nodes: unreachable pairs stress the
    // bounds-say-nothing fallback.
    let g = generate::dblp_like(120, 1..=100, 11);
    let mut pairs = query_pairs(120, 6);
    pairs.push((17, 17)); // trivial
    if let Some(v) = (0..120u32).find(|&v| g.out_arcs(v).is_empty()) {
        pairs.push((0, v as i64)); // unreachable
    }
    let finders: Vec<Box<dyn ShortestPathFinder>> = vec![
        Box::new(DjFinder),
        Box::new(BdjFinder::default()),
        Box::new(BsdjFinder::default()),
        Box::new(BbfsFinder),
        Box::new(BsegFinder::default()),
        Box::new(BsdjFinder {
            style: SqlStyle::Traditional,
            ..Default::default()
        }),
    ];
    for dialect in [Dialect::DBMS_X, Dialect::POSTGRES] {
        let opts = GraphDbOptions {
            dialect,
            ..Default::default()
        };
        let [mut seeded, mut unseeded] = [(); 2].map(|_| {
            let mut gdb = GraphDb::new(&g, &opts).unwrap();
            gdb.build_segtable(10).unwrap();
            gdb
        });
        seeded.build_landmarks(6).unwrap();
        for &(s, t) in &pairs {
            let oracle = dijkstra::shortest_path(&g, s as u32, t as u32).map(|o| o.distance as i64);
            for f in &finders {
                let ctx = format!("{} {s}->{t} ({dialect:?})", f.name());
                let a = f.find_path(&mut seeded, s, t).unwrap();
                let b = f.find_path(&mut unseeded, s, t).unwrap();
                let a_len = a.path.as_ref().map(|p| p.length);
                assert_eq!(a_len, oracle, "{ctx}: seeded vs Dijkstra");
                assert_eq!(
                    a_len,
                    b.path.as_ref().map(|p| p.length),
                    "{ctx}: seeded vs unseeded"
                );
                if let (Some(p), Some(d)) = (&a.path, oracle) {
                    assert_real_walk(&g, &p.nodes, d as u64, &ctx);
                }
            }
        }
    }
}
