//! The correctness oracle: every answer the program gives is compared
//! with `fempath_inmem`'s bidirectional Dijkstra over the same edges,
//! after the timed section.

use fempath_core::Path;
use fempath_graph::Graph;
use fempath_inmem::bidijkstra;
use std::collections::HashMap;

/// The graph at every version a workload can reach, and a memo of
/// shortest distances over them.
///
/// A mutating workload alternates `insert_edge(u, v, 1)` on a pair that
/// is not adjacent in the base graph with `delete_edge` of that pair, so
/// the graph `k` mutations after the base version is the base graph when
/// `k` is even and the base graph plus edge `(k - 1) / 2` when odd.
pub struct Oracle {
    base: Graph,
    extra_edges: Vec<(u32, u32)>,
    /// `mutated[i]` is the base graph plus `extra_edges[i]`, built on
    /// first use.
    mutated: HashMap<usize, Graph>,
    distances: HashMap<(usize, i64, i64), Option<u64>>,
}

impl Oracle {
    /// An oracle for the insert/delete schedule described above;
    /// `extra_edges` is empty for a graph that is never mutated.
    pub fn new(base: Graph, extra_edges: Vec<(u32, u32)>) -> Oracle {
        Oracle {
            base,
            extra_edges,
            mutated: HashMap::new(),
            distances: HashMap::new(),
        }
    }

    /// 0 for the base graph, `i + 1` for the base graph plus edge `i`.
    fn graph_id(mutations_applied: u64) -> usize {
        if mutations_applied.is_multiple_of(2) {
            0
        } else {
            (mutations_applied as usize - 1) / 2 + 1
        }
    }

    fn graph(&mut self, id: usize) -> &Graph {
        if id == 0 {
            return &self.base;
        }
        let (base, extra) = (&self.base, &self.extra_edges);
        self.mutated.entry(id).or_insert_with(|| {
            let (u, v) = extra[id - 1];
            Graph::from_arcs(
                base.num_nodes(),
                base.iter_arcs().chain([(u, v, 1), (v, u, 1)]),
            )
        })
    }

    /// Whether `answer` is a shortest `s`–`t` path of the graph as it
    /// stood after `mutations_applied` mutations: its length is the
    /// oracle's distance and its node list is a walk of that length
    /// (`None` is right exactly when `t` is unreachable).
    pub fn accepts(
        &mut self,
        mutations_applied: u64,
        s: i64,
        t: i64,
        answer: &Option<Path>,
    ) -> bool {
        let id = Oracle::graph_id(mutations_applied);
        let truth = match self.distances.get(&(id, s, t)) {
            Some(&d) => d,
            None => {
                let d = bidijkstra::shortest_path(self.graph(id), s as u32, t as u32)
                    .map(|p| p.distance);
                self.distances.insert((id, s, t), d);
                d
            }
        };
        match (truth, answer) {
            (None, None) => true,
            (Some(d), Some(p)) => {
                p.length >= 0 && p.length as u64 == d && is_walk(self.graph(id), s, t, p)
            }
            _ => false,
        }
    }

    /// [`Oracle::accepts`] at any version in `first..=last` — a query that
    /// raced a mutation may legitimately see either side of it.
    pub fn accepts_any(
        &mut self,
        first: u64,
        last: u64,
        s: i64,
        t: i64,
        answer: &Option<Path>,
    ) -> bool {
        (first..=last).any(|v| self.accepts(v, s, t, answer))
    }
}

/// Whether `p.nodes` runs from `s` to `t` along arcs of `g` whose
/// cheapest parallel weights add up to `p.length`.
fn is_walk(g: &Graph, s: i64, t: i64, p: &Path) -> bool {
    if p.nodes.first() != Some(&s) || p.nodes.last() != Some(&t) {
        return false;
    }
    let n = g.num_nodes() as i64;
    if p.nodes.iter().any(|&v| v < 0 || v >= n) {
        return false;
    }
    let mut total = 0u64;
    for hop in p.nodes.windows(2) {
        let cheapest = g
            .out_arcs(hop[0] as u32)
            .iter()
            .filter(|a| a.to as i64 == hop[1])
            .map(|a| a.weight)
            .min();
        match cheapest {
            Some(w) => total += u64::from(w),
            None => return false,
        }
    }
    total == p.length as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -5- 1 -5- 2, plus a dear direct edge 0 -20- 2; node 3 is alone.
    fn toy() -> Graph {
        Graph::from_undirected_edges(4, [(0, 1, 5), (1, 2, 5), (0, 2, 20)])
    }

    fn path(nodes: &[i64], length: i64) -> Option<Path> {
        Some(Path {
            nodes: nodes.to_vec(),
            length,
        })
    }

    #[test]
    fn accepts_only_shortest_real_walks() {
        let mut o = Oracle::new(toy(), Vec::new());
        assert!(o.accepts(0, 0, 2, &path(&[0, 1, 2], 10)));
        assert!(
            !o.accepts(0, 0, 2, &path(&[0, 2], 20)),
            "a walk, but not shortest"
        );
        assert!(
            !o.accepts(0, 0, 2, &path(&[0, 2], 10)),
            "right length, wrong walk"
        );
        assert!(
            !o.accepts(0, 0, 2, &path(&[0, 3, 2], 10)),
            "hop without an arc"
        );
        assert!(!o.accepts(0, 0, 2, &None), "reachable, yet no answer");
        assert!(o.accepts(0, 0, 3, &None), "unreachable, and no answer");
        assert!(!o.accepts(0, 0, 3, &path(&[0, 3], 1)));
    }

    #[test]
    fn versions_alternate_between_base_and_base_plus_edge() {
        let mut o = Oracle::new(toy(), vec![(0, 3), (2, 3)]);
        assert!(o.accepts(0, 0, 3, &None));
        assert!(
            o.accepts(1, 0, 3, &path(&[0, 3], 1)),
            "after insert of (0,3)"
        );
        assert!(o.accepts(2, 0, 3, &None), "after its delete");
        assert!(
            o.accepts(3, 0, 3, &path(&[0, 1, 2, 3], 11)),
            "after insert of (2,3)"
        );
        assert!(o.accepts_any(0, 1, 0, 3, &None), "raced the first insert");
        assert!(o.accepts_any(0, 1, 0, 3, &path(&[0, 3], 1)));
        assert!(!o.accepts_any(2, 2, 0, 3, &path(&[0, 3], 1)));
    }
}
