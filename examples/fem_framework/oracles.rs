//! In-memory oracles for the example's searches: BFS reachability for
//! [`crate::reach`] and Prim's minimal spanning tree for [`crate::prim`].

use fempath::graph::Graph;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Hop distance (number of edges) from `s` to every node; `u32::MAX` when
/// unreachable.
pub fn hop_distances(g: &Graph, s: u32) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.num_nodes()];
    let mut q = VecDeque::new();
    dist[s as usize] = 0;
    q.push_back(s);
    while let Some(u) = q.pop_front() {
        for a in g.out_arcs(u) {
            if dist[a.to as usize] == u32::MAX {
                dist[a.to as usize] = dist[u as usize] + 1;
                q.push_back(a.to);
            }
        }
    }
    dist
}

/// True when `t` is reachable from `s`.
pub fn reachable(g: &Graph, s: u32, t: u32) -> bool {
    hop_distances(g, s)[t as usize] != u32::MAX
}

/// Runs Prim from node 0 over the component containing it. Returns the
/// chosen tree edges `(node, parent, weight)` and the total weight.
pub fn prim(g: &Graph) -> (Vec<(u32, u32, u32)>, u64) {
    let n = g.num_nodes();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let mut in_tree = vec![false; n];
    let mut best = vec![u32::MAX; n];
    let mut parent = vec![u32::MAX; n];
    let mut heap = BinaryHeap::new();
    best[0] = 0;
    heap.push(Reverse((0u32, 0u32)));
    let mut edges = Vec::new();
    let mut total = 0u64;
    while let Some(Reverse((w, u))) = heap.pop() {
        if in_tree[u as usize] {
            continue;
        }
        in_tree[u as usize] = true;
        if parent[u as usize] != u32::MAX {
            edges.push((u, parent[u as usize], w));
            total += w as u64;
        }
        for a in g.out_arcs(u) {
            if !in_tree[a.to as usize] && a.weight < best[a.to as usize] {
                best[a.to as usize] = a.weight;
                parent[a.to as usize] = u;
                heap.push(Reverse((a.weight, a.to)));
            }
        }
    }
    (edges, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fempath::graph::generate;

    #[test]
    fn hops_on_path_graph() {
        let g = Graph::from_undirected_edges(4, vec![(0, 1, 9), (1, 2, 9), (2, 3, 9)]);
        assert_eq!(hop_distances(&g, 0), vec![0, 1, 2, 3]);
        assert!(reachable(&g, 0, 3));
    }

    #[test]
    fn unreachable_is_max() {
        let g = Graph::from_undirected_edges(3, vec![(0, 1, 1)]);
        assert_eq!(hop_distances(&g, 0)[2], u32::MAX);
        assert!(!reachable(&g, 0, 2));
    }

    #[test]
    fn triangle_mst() {
        let g = Graph::from_undirected_edges(3, vec![(0, 1, 1), (1, 2, 2), (0, 2, 3)]);
        let (edges, total) = prim(&g);
        assert_eq!(edges.len(), 2);
        assert_eq!(total, 3);
    }

    #[test]
    fn mst_spans_connected_graph() {
        let g = generate::power_law(500, 2, 1..=50, 3);
        let (edges, _) = prim(&g);
        assert_eq!(edges.len(), 499, "spanning tree has n-1 edges");
    }

    #[test]
    fn mst_total_is_minimal_on_small_graph() {
        // Compare against brute force over spanning trees of a 5-node graph
        // via Kruskal-equivalent greedy check: total must not exceed any
        // single alternative formed by swapping one edge.
        let g = Graph::from_undirected_edges(
            5,
            vec![
                (0, 1, 4),
                (0, 2, 2),
                (1, 2, 1),
                (1, 3, 5),
                (2, 3, 8),
                (3, 4, 3),
                (2, 4, 7),
            ],
        );
        let (_, total) = prim(&g);
        assert_eq!(total, 2 + 1 + 5 + 3); // 0-2, 2-1, 1-3, 3-4
    }
}
