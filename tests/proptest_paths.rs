//! Property-based end-to-end test: on random graphs, every relational
//! shortest-path algorithm returns exactly the in-memory Dijkstra distance.

use fempath::core::{BbfsFinder, BsdjFinder, BsegFinder, GraphDb, ShortestPathFinder};
use fempath::graph::Graph;
use fempath::inmem::dijkstra;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = (Graph, usize)> {
    (
        5usize..40,
        prop::collection::vec((0u32..40, 0u32..40, 1u32..30), 4..80),
    )
        .prop_map(|(n, edges)| {
            let n = n.max(
                edges
                    .iter()
                    .map(|(u, v, _)| (*u).max(*v) as usize + 1)
                    .max()
                    .unwrap_or(1),
            );
            let g = Graph::from_undirected_edges(n, edges);
            (g, n)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn relational_algorithms_equal_dijkstra((g, n) in arb_graph(), s in 0usize..40, t in 0usize..40) {
        let s = (s % n) as i64;
        let t = (t % n) as i64;
        let oracle = dijkstra::shortest_path(&g, s as u32, t as u32);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        gdb.build_segtable(10).unwrap();
        let finders: Vec<Box<dyn ShortestPathFinder>> = vec![
            Box::new(BsdjFinder::default()),
            Box::new(BbfsFinder),
            Box::new(BsegFinder::default()),
        ];
        for f in finders {
            let out = f.find_path(&mut gdb, s, t).unwrap();
            match (&out.path, &oracle) {
                (Some(p), Some(o)) => {
                    prop_assert_eq!(p.length as u64, o.distance, "{} on {}->{}", f.name(), s, t);
                    // Path is a real walk through the graph.
                    let mut len = 0u64;
                    for w in p.nodes.windows(2) {
                        let arc = g.out_arcs(w[0] as u32).iter()
                            .filter(|a| a.to == w[1] as u32)
                            .map(|a| a.weight).min();
                        prop_assert!(arc.is_some(), "{}: missing edge {}->{}", f.name(), w[0], w[1]);
                        len += arc.unwrap() as u64;
                    }
                    prop_assert_eq!(len, o.distance, "{}: path length mismatch", f.name());
                }
                (None, None) => {}
                (got, want) => {
                    prop_assert!(
                        false,
                        "{}: reachability mismatch {}->{}: got {:?} want {:?}",
                        f.name(), s, t, got.is_some(), want.is_some()
                    );
                }
            }
        }
    }
}
