//! Edge-list helpers shared by the service test suites: the undirected
//! edge list a mutation model starts from, and the walk check every
//! returned path must pass.

use fempath::graph::Graph;

/// Undirected edge list of `g` (one entry per edge, not per arc).
pub fn edge_list(g: &Graph) -> Vec<(u32, u32, u32)> {
    let mut edges = Vec::new();
    for u in 0..g.num_nodes() as u32 {
        for a in g.out_arcs(u) {
            if u <= a.to {
                edges.push((u, a.to, a.weight));
            }
        }
    }
    edges
}

/// The cost of `nodes` as a walk over `edges`, each hop at its cheapest
/// parallel edge, or `None` when some hop has no edge.
pub fn walk_cost(edges: &[(u32, u32, u32)], nodes: &[i64]) -> Option<i64> {
    nodes
        .windows(2)
        .map(|h| {
            edges
                .iter()
                .filter(|&&(a, b, _)| {
                    let (a, b) = (i64::from(a), i64::from(b));
                    (a, b) == (h[0], h[1]) || (a, b) == (h[1], h[0])
                })
                .map(|&(_, _, w)| i64::from(w))
                .min()
        })
        .sum()
}
