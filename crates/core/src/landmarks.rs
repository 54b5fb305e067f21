//! Landmark distance index over the relational store (DESIGN.md §12).
//!
//! The paper contrasts its *online* discovery with precomputed indices and
//! cites landmark estimation (Potamias et al. \[19\], Goldberg & Harrelson
//! \[2\]) as the representative offline alternative. This module implements
//! it on top of the FEM machinery: shortest-path trees from `k` selected
//! landmarks are computed with [`crate::sssp::single_source`] and stored in
//! a `TLandmarks(lm, nid, d, p)` table — `d` the distance from landmark
//! `lm` to `nid`, `p` the predecessor of `nid` in `lm`'s tree. Each tree is
//! copied out of `TVisited` with a single `INSERT … SELECT`, so the build
//! itself runs through the executor's batched DML path.
//!
//! Estimates come from single SQL aggregates using the triangle inequality
//! (graphs are stored symmetrically, DESIGN.md §4, so `d(lm, v) = d(v,
//! lm)`):
//!
//! * upper bound:  `min over lm of d(s, lm) + d(lm, t)`
//! * lower bound:  `max over lm of |d(s, lm) − d(lm, t)|`
//!
//! The index feeds serving twice. [`upper_bound`] seeds the Theorem-1
//! pruning term of the DJ/BDJ-family finders (see `algo::bidi` for the
//! admissibility argument). [`exact_path`] answers *covered* pairs — upper
//! bound equals lower bound — without touching any FEM working table: the
//! witness landmark realizing the bound then lies on a shortest path, and
//! the stored parent pointers recover that path by two tree walks.

use crate::algo::Path;
use crate::graphdb::{GraphDb, LandmarkInfo, INF, NO_NODE};
use crate::sqlgen::AnnotatedSql;
use crate::sssp::single_source;
use fempath_sql::{Result, SqlError};
use fempath_storage::Value;

// The statement texts live in consts/helpers shared with
// [`statement_corpus`], so the corpus femcheck analyzes is byte-for-byte
// what the serving and build paths execute.
const CREATE_SQL: &str = "CREATE TABLE TLandmarks (lm INT, nid INT, d INT, p INT)";
const INDEX_SQL: &str = "CREATE CLUSTERED INDEX idx_tlandmarks ON TLandmarks(nid)";
const CAND_UNCHOSEN: &str = "(SELECT fid, COUNT(*) AS deg FROM TEdges \
                             WHERE fid NOT IN (SELECT lm FROM TLandmarks WHERE lm IS NOT NULL) \
                             GROUP BY fid) cand";
const CAND_UNCOVERED: &str = "(SELECT fid, COUNT(*) AS deg FROM TEdges \
                              WHERE fid NOT IN (SELECT nid FROM TLandmarks WHERE nid IS NOT NULL) \
                              GROUP BY fid) cand";
const COV: &str = "(SELECT nid, MIN(d) AS md FROM TLandmarks GROUP BY nid) cov";
const UPPER_SQL: &str = "SELECT MIN(a.d + b.d) FROM TLandmarks a, TLandmarks b \
                         WHERE a.nid = ? AND b.nid = ? AND a.lm = b.lm";
const LOWER_FWD_SQL: &str = "SELECT MAX(a.d - b.d) FROM TLandmarks a, TLandmarks b \
                             WHERE a.nid = ? AND b.nid = ? AND a.lm = b.lm";
const LOWER_REV_SQL: &str = "SELECT MAX(b.d - a.d) FROM TLandmarks a, TLandmarks b \
                             WHERE a.nid = ? AND b.nid = ? AND a.lm = b.lm";
const WITNESS_SQL: &str = "SELECT MIN(a.lm) FROM TLandmarks a, TLandmarks b \
                           WHERE a.nid = ? AND b.nid = ? AND a.lm = b.lm AND a.d + b.d = ?";
const WALK_SQL: &str = "SELECT p FROM TLandmarks WHERE lm = ? AND nid = ?";

fn store_tree_sql(lm: i64) -> String {
    format!(
        "INSERT INTO TLandmarks (lm, nid, d, p) \
         SELECT {lm}, nid, d2s, p2s FROM TVisited WHERE d2s < {INF}"
    )
}

/// Every statement the landmark subsystem issues, annotated for the static
/// analyzer. All statements reference `TLandmarks`, so the corpus walk
/// ([`crate::GraphDb::for_each_corpus_statement`]) only includes them once
/// the index is built. The serving probes
/// ([`estimate_distance`], [`upper_bound`], the [`exact_path`] witness
/// and `walk_tree`) are hot: each must ride the clustered `nid` index.
/// Build and selection statements are cold — they run once per index
/// build.
pub fn statement_corpus() -> Vec<AnnotatedSql> {
    vec![
        AnnotatedSql::cold("lm/create_table", CREATE_SQL),
        AnnotatedSql::cold("lm/store_tree", store_tree_sql(0)),
        AnnotatedSql::cold("lm/create_index", INDEX_SQL),
        AnnotatedSql::cold(
            "lm/pick_unchosen/max",
            format!("SELECT MAX(deg) FROM {CAND_UNCHOSEN}"),
        ),
        AnnotatedSql::cold(
            "lm/pick_unchosen/argmin",
            format!("SELECT MIN(fid) FROM {CAND_UNCHOSEN} WHERE deg = ?"),
        ),
        AnnotatedSql::cold(
            "lm/pick_uncovered/max",
            format!("SELECT MAX(deg) FROM {CAND_UNCOVERED}"),
        ),
        AnnotatedSql::cold(
            "lm/pick_uncovered/argmin",
            format!("SELECT MIN(fid) FROM {CAND_UNCOVERED} WHERE deg = ?"),
        ),
        AnnotatedSql::cold("lm/pick_farthest/max", format!("SELECT MAX(md) FROM {COV}")),
        AnnotatedSql::cold(
            "lm/pick_farthest/argmin",
            format!("SELECT MIN(nid) FROM {COV} WHERE md = ?"),
        ),
        AnnotatedSql::hot("lm/estimate/upper", UPPER_SQL),
        AnnotatedSql::hot("lm/estimate/lower_fwd", LOWER_FWD_SQL),
        AnnotatedSql::hot("lm/estimate/lower_rev", LOWER_REV_SQL),
        AnnotatedSql::hot("lm/exact_path/witness", WITNESS_SQL),
        AnnotatedSql::hot("lm/walk_tree", WALK_SQL),
    ]
}

/// Bounds on δ(s, t) derived from the landmark table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistanceBounds {
    /// `max |d(s,lm) − d(lm,t)|` — never exceeds the true distance.
    pub lower: i64,
    /// `min d(s,lm) + d(lm,t)` — never below the true distance.
    pub upper: i64,
}

/// How [`build_landmark_index`] picks its `k` landmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LandmarkSelection {
    /// Highest out-degree nodes (ties broken by lowest id). Cheap and
    /// effective on power-law graphs, where hubs sit on many shortest
    /// paths.
    Degree,
    /// Degree- *and* coverage-based: the first landmark is the highest
    /// degree node; each later one is the highest-degree node no existing
    /// tree reaches (new components get covered first), falling back to
    /// the node farthest from every landmark once the whole graph is
    /// covered (spreading landmarks apart tightens both bounds).
    #[default]
    DegreeCoverage,
}

/// What [`build_landmark_index`] built.
#[derive(Debug, Clone)]
pub struct LandmarkStats {
    /// The selected landmark nodes, in selection order.
    pub landmarks: Vec<i64>,
    /// `(lm, nid)` rows stored in `TLandmarks`.
    pub pairs: u64,
    /// Total set-at-a-time SSSP iterations spent building the trees.
    pub sssp_iterations: u64,
}

/// Builds the landmark table from explicitly given landmark nodes. Returns
/// the number of `(landmark, node)` distance pairs stored.
pub fn build_landmarks(gdb: &mut GraphDb, landmarks: &[i64]) -> Result<u64> {
    if landmarks.is_empty() {
        return Err(SqlError::Eval("need at least one landmark".into()));
    }
    for &lm in landmarks {
        gdb.check_node(lm)?;
    }
    reset_table(gdb)?;
    for &lm in landmarks {
        store_tree(gdb, lm)?;
    }
    let pairs = finish_build(gdb, landmarks.len())?;
    Ok(pairs)
}

/// Builds a `k`-landmark index with automatic landmark selection (the
/// serving entry point — [`GraphDb::build_landmarks`] delegates here).
///
/// Selection may stop early with fewer than `k` landmarks when the
/// candidate pool runs dry (tiny graphs); a graph with no edges at all has
/// no useful landmark and errors.
pub fn build_landmark_index(
    gdb: &mut GraphDb,
    k: usize,
    selection: LandmarkSelection,
) -> Result<LandmarkStats> {
    if k == 0 {
        return Err(SqlError::Eval("need at least one landmark".into()));
    }
    reset_table(gdb)?;
    let mut chosen: Vec<i64> = Vec::with_capacity(k);
    let mut sssp_iterations = 0u64;
    while chosen.len() < k {
        let cand = match selection {
            LandmarkSelection::Degree => pick_max_degree_unchosen(gdb)?,
            LandmarkSelection::DegreeCoverage => {
                if chosen.is_empty() {
                    pick_max_degree_unchosen(gdb)?
                } else {
                    match pick_max_degree_uncovered(gdb)? {
                        Some(c) => Some(c),
                        None => pick_farthest_covered(gdb)?,
                    }
                }
            }
        };
        let Some(lm) = cand else { break };
        sssp_iterations += store_tree(gdb, lm)?;
        chosen.push(lm);
    }
    if chosen.is_empty() {
        return Err(SqlError::Eval(
            "no landmark candidates: graph has no edges".into(),
        ));
    }
    let pairs = finish_build(gdb, chosen.len())?;
    Ok(LandmarkStats {
        landmarks: chosen,
        pairs,
        sssp_iterations,
    })
}

fn reset_table(gdb: &mut GraphDb) -> Result<()> {
    gdb.db.execute("DROP TABLE IF EXISTS TLandmarks")?;
    gdb.db.execute(CREATE_SQL)?;
    Ok(())
}

/// Runs one SSSP from `lm` and copies its tree into `TLandmarks` with a
/// single `INSERT … SELECT` over `TVisited` — the batched DML path of the
/// vectorized executor (`Table::insert_chunk`), not row-at-a-time VALUES.
/// Returns the SSSP iteration count.
fn store_tree(gdb: &mut GraphDb, lm: i64) -> Result<u64> {
    let res = single_source(gdb, lm)?;
    gdb.db.execute(&store_tree_sql(lm))?;
    Ok(res.iterations)
}

/// Creates the clustered `nid` index (after all inserts, so the bulk loads
/// hit the heap path) and records the index on the [`GraphDb`].
fn finish_build(gdb: &mut GraphDb, k: usize) -> Result<u64> {
    gdb.db.execute(INDEX_SQL)?;
    let pairs = gdb.db.table_len("TLandmarks")?;
    gdb.set_landmarks(LandmarkInfo { k, pairs });
    Ok(pairs)
}

/// Highest-degree node that is not already a landmark (ties → lowest id),
/// via two aggregates (the engine has no ORDER BY … LIMIT idiom we rely
/// on): first the maximal degree, then the minimal node realizing it.
fn pick_max_degree_unchosen(gdb: &mut GraphDb) -> Result<Option<i64>> {
    let Some(maxdeg) = gdb
        .db
        .query(&format!("SELECT MAX(deg) FROM {CAND_UNCHOSEN}"))?
        .scalar_i64()
    else {
        return Ok(None);
    };
    gdb.db
        .query_params(
            &format!("SELECT MIN(fid) FROM {CAND_UNCHOSEN} WHERE deg = ?"),
            &[Value::Int(maxdeg)],
        )
        .map(|rs| rs.scalar_i64())
}

/// Highest-degree node no existing landmark tree reaches.
fn pick_max_degree_uncovered(gdb: &mut GraphDb) -> Result<Option<i64>> {
    let Some(maxdeg) = gdb
        .db
        .query(&format!("SELECT MAX(deg) FROM {CAND_UNCOVERED}"))?
        .scalar_i64()
    else {
        return Ok(None);
    };
    gdb.db
        .query_params(
            &format!("SELECT MIN(fid) FROM {CAND_UNCOVERED} WHERE deg = ?"),
            &[Value::Int(maxdeg)],
        )
        .map(|rs| rs.scalar_i64())
}

/// The covered node farthest from its nearest landmark; `None` once only
/// landmarks themselves remain (their min-distance is 0).
fn pick_farthest_covered(gdb: &mut GraphDb) -> Result<Option<i64>> {
    let Some(maxd) = gdb
        .db
        .query(&format!("SELECT MAX(md) FROM {COV}"))?
        .scalar_i64()
    else {
        return Ok(None);
    };
    if maxd <= 0 {
        return Ok(None);
    }
    gdb.db
        .query_params(
            &format!("SELECT MIN(nid) FROM {COV} WHERE md = ?"),
            &[Value::Int(maxd)],
        )
        .map(|rs| rs.scalar_i64())
}

/// Estimates δ(s, t) from the landmark table via one SQL aggregate per
/// bound. Returns `None` when no landmark reaches both endpoints.
pub fn estimate_distance(gdb: &mut GraphDb, s: i64, t: i64) -> Result<Option<DistanceBounds>> {
    gdb.check_node(s)?;
    gdb.check_node(t)?;
    if !gdb.db.has_table("TLandmarks") {
        return Err(SqlError::Eval(
            "no landmark table: call build_landmarks first".into(),
        ));
    }
    if s == t {
        return Ok(Some(DistanceBounds { lower: 0, upper: 0 }));
    }
    let upper = gdb
        .db
        .query_params(UPPER_SQL, &[Value::Int(s), Value::Int(t)])?
        .scalar_i64();
    let Some(upper) = upper else {
        return Ok(None);
    };
    // |x| via MAX of both signs (the engine has no ABS function — the
    // paper's SQL stays within basic arithmetic too).
    let lower = gdb
        .db
        .query_params(LOWER_FWD_SQL, &[Value::Int(s), Value::Int(t)])?
        .scalar_i64()
        .unwrap_or(0);
    let lower_rev = gdb
        .db
        .query_params(LOWER_REV_SQL, &[Value::Int(s), Value::Int(t)])?
        .scalar_i64()
        .unwrap_or(0);
    Ok(Some(DistanceBounds {
        lower: lower.max(lower_rev).max(0),
        upper,
    }))
}

/// The landmark triangle-inequality upper bound on δ(s, t), or `None` when
/// no index is built or no landmark reaches both endpoints. This is the
/// cheap single-aggregate probe the finders use to seed their Theorem-1
/// pruning bound; unlike [`estimate_distance`] it is a silent no-op
/// (`None`) on databases without an index.
pub fn upper_bound(gdb: &mut GraphDb, s: i64, t: i64) -> Result<Option<i64>> {
    if gdb.landmarks().is_none() {
        return Ok(None);
    }
    if s == t {
        return Ok(Some(0));
    }
    Ok(gdb
        .db
        .query_params(UPPER_SQL, &[Value::Int(s), Value::Int(t)])?
        .scalar_i64())
}

/// The exact-or-nothing fast path: answers (s, t) without running FEM at
/// all when the landmark bounds pin the distance exactly (upper == lower
/// — which covers every pair where `s` or `t` *is* a landmark, and any
/// pair some landmark tree threads through). Returns `None` on uncovered
/// pairs — including every pair when no index is built — so callers fall
/// back to a full search. Never touches `TVisited` or any other FEM
/// working table.
///
/// Correctness of the recovered path: when `upper == lower == D`, the
/// witness landmark `lm` realizing the upper bound satisfies
/// `d(s,lm) + d(lm,t) = D = δ(s,t)`, so `lm` lies **on** a shortest s–t
/// path; walking `s`'s and `t`'s parent chains in `lm`'s stored tree and
/// concatenating them yields a walk of weight exactly `D` (a repeated
/// node would imply a positive-weight cycle cut shorter than `D`, so the
/// walk is simple).
pub fn exact_path(gdb: &mut GraphDb, s: i64, t: i64) -> Result<Option<Path>> {
    if gdb.landmarks().is_none() {
        return Ok(None);
    }
    gdb.check_node(s)?;
    gdb.check_node(t)?;
    if s == t {
        return Ok(Some(Path {
            nodes: vec![s],
            length: 0,
        }));
    }
    let Some(b) = estimate_distance(gdb, s, t)? else {
        return Ok(None);
    };
    if b.lower != b.upper {
        return Ok(None);
    }
    let d = b.upper;
    let lm = gdb
        .db
        .query_params(WITNESS_SQL, &[Value::Int(s), Value::Int(t), Value::Int(d)])?
        .scalar_i64()
        .ok_or_else(|| SqlError::Eval("landmark upper bound has no witness row".into()))?;
    let limit = gdb.num_nodes() + 1;
    // `s → … → lm` (tree edges traversed child-to-parent are valid under
    // symmetric storage), then `lm → … → t` (parent-to-child order).
    let mut nodes = walk_tree(gdb, lm, s, limit)?;
    let mut tail = walk_tree(gdb, lm, t, limit)?;
    tail.pop(); // both walks end at lm; keep one copy
    tail.reverse();
    nodes.extend(tail);
    Ok(Some(Path { nodes, length: d }))
}

/// Parent-chain walk `from → … → lm` in `lm`'s stored tree (inclusive of
/// both endpoints).
fn walk_tree(gdb: &mut GraphDb, lm: i64, from: i64, limit: usize) -> Result<Vec<i64>> {
    let mut nodes = vec![from];
    let mut cur = from;
    while cur != lm {
        let p = gdb
            .db
            .query_params(WALK_SQL, &[Value::Int(lm), Value::Int(cur)])?
            .scalar_i64()
            .ok_or_else(|| SqlError::Eval(format!("broken landmark parent chain at node {cur}")))?;
        if p == NO_NODE || p == cur {
            return Err(SqlError::Eval(format!(
                "landmark parent chain stuck at node {cur}"
            )));
        }
        cur = p;
        nodes.push(cur);
        if nodes.len() > limit {
            return Err(SqlError::Eval("landmark parent chain has a cycle".into()));
        }
    }
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fempath_graph::generate;
    use fempath_inmem::dijkstra;

    #[test]
    fn bounds_bracket_the_true_distance() {
        let g = generate::power_law(300, 3, 1..=100, 3);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        let pairs_stored = build_landmarks(&mut gdb, &[0, 50, 150, 250]).unwrap();
        assert!(pairs_stored >= 4 * 250, "landmarks cover the graph");
        for (s, t) in [(1i64, 299i64), (17, 200), (42, 137), (99, 100)] {
            let truth = dijkstra::shortest_path(&g, s as u32, t as u32)
                .unwrap()
                .distance as i64;
            let b = estimate_distance(&mut gdb, s, t).unwrap().unwrap();
            assert!(
                b.lower <= truth && truth <= b.upper,
                "{s}->{t}: bounds [{}, {}] must bracket {truth}",
                b.lower,
                b.upper
            );
        }
    }

    #[test]
    fn landmark_endpoint_is_exact() {
        let g = generate::grid(6, 6, 1..=10, 5);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        build_landmarks(&mut gdb, &[0]).unwrap();
        // Estimating distance to the landmark itself is exact: the upper
        // bound d(s,0)+d(0,0) equals the lower bound |d(s,0)-0|.
        let truth = dijkstra::distances_from(&g, 0);
        for s in [5i64, 20, 35] {
            let b = estimate_distance(&mut gdb, s, 0).unwrap().unwrap();
            assert_eq!(b.lower, b.upper);
            assert_eq!(b.upper as u64, truth[s as usize]);
        }
    }

    #[test]
    fn disconnected_endpoints_give_none() {
        let g = fempath_graph::Graph::from_undirected_edges(4, vec![(0, 1, 1), (2, 3, 1)]);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        build_landmarks(&mut gdb, &[0]).unwrap();
        // Landmark 0 never reaches node 2.
        assert_eq!(estimate_distance(&mut gdb, 1, 2).unwrap(), None);
        assert_eq!(exact_path(&mut gdb, 1, 2).unwrap(), None);
    }

    #[test]
    fn more_landmarks_tighten_the_upper_bound() {
        let g = generate::grid(8, 8, 1..=10, 7);
        let (s, t) = (0i64, 63i64);
        let mut one = GraphDb::in_memory(&g).unwrap();
        build_landmarks(&mut one, &[27]).unwrap();
        let b1 = estimate_distance(&mut one, s, t).unwrap().unwrap();
        let mut many = GraphDb::in_memory(&g).unwrap();
        build_landmarks(&mut many, &[27, 0, 7, 56, 63]).unwrap();
        let bm = estimate_distance(&mut many, s, t).unwrap().unwrap();
        assert!(bm.upper <= b1.upper, "{} vs {}", bm.upper, b1.upper);
        assert!(bm.lower >= b1.lower);
    }

    #[test]
    fn automatic_selection_builds_a_working_index() {
        let g = generate::power_law(200, 3, 1..=100, 13);
        for selection in [LandmarkSelection::Degree, LandmarkSelection::DegreeCoverage] {
            let mut gdb = GraphDb::in_memory(&g).unwrap();
            let stats = build_landmark_index(&mut gdb, 5, selection).unwrap();
            assert_eq!(stats.landmarks.len(), 5, "{selection:?}");
            // No landmark repeats.
            let mut uniq = stats.landmarks.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 5, "{selection:?}: duplicate landmark");
            assert_eq!(gdb.landmarks().unwrap().k, 5);
            assert_eq!(gdb.landmarks().unwrap().pairs, stats.pairs);
            let b = estimate_distance(&mut gdb, 1, 199).unwrap().unwrap();
            let truth = dijkstra::shortest_path(&g, 1, 199).unwrap().distance as i64;
            assert!(b.lower <= truth && truth <= b.upper, "{selection:?}");
        }
    }

    #[test]
    fn coverage_selection_reaches_every_component() {
        // Two components; pure degree selection could stay in the first,
        // coverage must plant a landmark in both.
        let g = fempath_graph::Graph::from_undirected_edges(
            7,
            vec![(0, 1, 1), (0, 2, 1), (0, 3, 1), (4, 5, 1), (5, 6, 1)],
        );
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        let stats = build_landmark_index(&mut gdb, 2, LandmarkSelection::DegreeCoverage).unwrap();
        assert_eq!(stats.landmarks.len(), 2);
        let in_first = stats.landmarks.iter().any(|&l| l <= 3);
        let in_second = stats.landmarks.iter().any(|&l| l >= 4);
        assert!(in_first && in_second, "landmarks: {:?}", stats.landmarks);
        // Pairs inside the second component are now covered.
        assert!(estimate_distance(&mut gdb, 4, 6).unwrap().is_some());
    }

    #[test]
    fn selection_stops_early_on_tiny_graphs() {
        let g = fempath_graph::Graph::from_undirected_edges(2, vec![(0, 1, 5)]);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        let stats = build_landmark_index(&mut gdb, 10, LandmarkSelection::DegreeCoverage).unwrap();
        assert!(stats.landmarks.len() <= 2, "{:?}", stats.landmarks);
        assert_eq!(
            exact_path(&mut gdb, 0, 1).unwrap().unwrap().length,
            5,
            "both nodes are in the landmark tree"
        );
    }

    #[test]
    fn exact_path_is_a_real_shortest_walk() {
        let g = generate::grid(7, 7, 1..=9, 21);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        gdb.build_landmarks(4).unwrap();
        let mut covered = 0;
        for s in 0..49i64 {
            for t in 0..49i64 {
                let Some(p) = exact_path(&mut gdb, s, t).unwrap() else {
                    continue;
                };
                covered += 1;
                let truth = dijkstra::shortest_path(&g, s as u32, t as u32)
                    .expect("covered pair must be reachable")
                    .distance;
                assert_eq!(p.length as u64, truth, "{s}->{t}");
                assert_eq!(p.nodes.first(), Some(&s));
                assert_eq!(p.nodes.last(), Some(&t));
                let mut walked = 0u64;
                for w in p.nodes.windows(2) {
                    let arc = g
                        .out_arcs(w[0] as u32)
                        .iter()
                        .filter(|a| a.to == w[1] as u32)
                        .map(|a| a.weight)
                        .min()
                        .unwrap_or_else(|| panic!("{s}->{t}: edge {}->{} missing", w[0], w[1]));
                    walked += arc as u64;
                }
                assert_eq!(walked, truth, "{s}->{t}: walk weight");
            }
        }
        // At minimum every pair with a landmark endpoint is covered.
        assert!(covered >= 4 * 49, "only {covered} covered pairs");
    }

    #[test]
    fn fast_path_writes_no_fem_tables() {
        let g = generate::grid(5, 5, 1..=10, 2);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        let stats = gdb.build_landmarks(2).unwrap();
        let lm = stats.landmarks[0];
        gdb.reset_visited().unwrap();
        let before = gdb.db.table_len("TVisited").unwrap();
        let p = exact_path(&mut gdb, 7, lm).unwrap();
        assert!(p.is_some(), "landmark endpoint is always covered");
        assert_eq!(
            gdb.db.table_len("TVisited").unwrap(),
            before,
            "fast path must not write FEM working tables"
        );
    }
}
