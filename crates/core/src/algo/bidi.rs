//! The bidirectional search skeleton (Algorithm 2, generalized).
//!
//! BDJ, BSDJ, BBFS and BSEG share the identical control loop — initialize
//! `TVisited` with both endpoints, alternate expansion directions by
//! frontier size, stop when `minCost <= lf + lb` (§4.1) or both directions
//! exhaust — and differ **only** in their frontier policy and edge source:
//!
//! | finder | frontier policy | F-operator statements | E+M frontier | edge source |
//! |--------|-----------------|-----------------------|--------------|-------------|
//! | BDJ    | the single minimum-distance node | Listing 2(2) pick at `l`, Listing 3(2) settle by `nid` | `q.nid = mid` (Listing 2(3)) | `TEdges` |
//! | BSDJ   | *all* nodes at the minimum distance (set-at-a-time, §4.1) | mark `dist = l`, Listing 4(3) reset | `q.flag = 2` (Listing 4(2)) | `TEdges` |
//! | BBFS   | every candidate (§4.2's strawman) | mark all, Listing 4(3) reset | `q.flag = 2` | `TEdges` |
//! | BSEG   | `d2s <= k·lthd` plus the minimum (Listing 4(1)) | Listing 4(1) mark, Listing 4(3) reset | `q.flag = 2` | SegTable |
//!
//! BDJ is node-at-a-time like DJ, so it reaches `TVisited` the way DJ does
//! — through the `nid` index — and never marks: the expanding node stays
//! `flag = 0` during its own MERGE, which cannot re-open it (no source row
//! is strictly cheaper than the minimum) and is settled right after.
//!
//! Every expansion is followed by one statistics statement, Listing 4(4)
//! and 4(5) in a single scan ([`SqlGen::candidate_stats`]). Two invariants
//! of the loop let the client hold what the listings recompute:
//!
//! 1. **A direction's minimum is local to it.** An expansion writes only
//!    its own direction's `(dist, pred, flag)` and inserts rows with the
//!    other direction's distance at [`INF`], so `lf` (`lb`) read after the
//!    last forward (backward) expansion is still the minimal forward
//!    (backward) candidate distance however many expansions of the other
//!    direction ran in between. The frontier pick and BSEG's mark bind it
//!    as a parameter in place of the listings' `(SELECT MIN(..))`.
//! 2. **Touched rows are candidates.** Every row an expansion's M-operator
//!    updates or inserts comes out with `flag = 0` and a finite distance
//!    in the expanding direction, untouched rows keep their `d2s + d2t`,
//!    and distances only fall — so `min(minCost, MIN(d2s + d2t) over that
//!    direction's candidates)` equals `SELECT MIN(d2s + d2t) FROM
//!    TVisited` (Listing 4(5)) without a second scan.
//!
//! All expansions carry the Theorem-1 pruning term
//! `e.cost + q.dist + l_other < minCost` (BSDJ and BSEG take `prune =
//! false` for the ablation bench). When a landmark index exists
//! (DESIGN.md §12) the pruning ceiling starts at the triangle-inequality
//! upper bound `U + 1` instead of infinity, so Theorem-1 discards
//! candidates costlier than `U` from the very first iteration; `min_cost`
//! itself is never seeded — it must stay realized by a `TVisited` row for
//! meet-node recovery.
//!
//! On request (`GraphDb::set_certificates`) BDJ and BSDJ also return a
//! [`Certificate`]: what the finished search proved about distances
//! around `s` and `t`, which lets a cached answer outlive edge inserts
//! that cannot undercut it (DESIGN.md §16 *Inserts keep what they cannot
//! change*). The loop records one pruning floor per direction for it at
//! no cost, and one statement reads the expanded rows after it stops.

use super::{
    recover_bidi_path, seeded_ceiling, trivial_case, Expansion, PathOutcome, Runner,
    ShortestPathFinder, Stmt,
};
use crate::graphdb::{GraphDb, INF};
use crate::sqlgen::{
    expand_params_into, expanded_rows, meet_node, Dir, EdgeSource, EmMode, FrontierPred, SqlGen,
};
use crate::stats::{FemOperator, Phase, SqlStyle};
use fempath_sql::{Result, SqlError};
use fempath_storage::Value;
use std::sync::Arc;

/// Lower bounds on the distance between one endpoint of a finished
/// BDJ or BSDJ search and every node, at the graph version the search
/// ran on (DESIGN.md §16 *Inserts keep what they cannot change*).
///
/// One direction of the search proves them. A node it expanded has its
/// recorded distance `d`, exact unless Theorem-1 pruning dropped a
/// cheaper route; every other node is at least `l`, that direction's
/// smallest candidate distance when the search stopped (infinite once it
/// ran dry). Pruning drops only candidates whose distance reached the
/// direction's floor `P` — the least `min_cost − l_other` it bound into
/// a pruning term — so capping each bound at `P` makes it hold for
/// every node. A bound is therefore `min(d or l, P)`.
///
/// `PathService` keeps a cached answer of cost `c` across an inserted
/// arc `x → y` of weight `w` when `from_source(x) + w + to_target(y) ≥
/// c`, and across several when every pair of them passes the same
/// test; see `ServiceShared::survives`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// `min(l, P)` forward and backward: the bound of every node a
    /// direction does not list.
    floors: [i64; 2],
    /// How many of `near`'s entries are forward ones.
    split: usize,
    /// The forward, then the backward expanded nodes whose distance is
    /// below their direction's floor, as `(nid, distance)`, each run
    /// sorted by `nid`. Node ids fit `u32` (`fempath_graph::Graph`'s);
    /// a distance above `u32::MAX` is stored as `u32::MAX`, a smaller
    /// lower bound and so still one. Half the bytes of `i64` pairs, and
    /// a cache holds one certificate per entry.
    near: Box<[(u32, u32)]>,
}

impl Certificate {
    /// Bounds from a forward floor and the forward-expanded `(nid, d2s)`,
    /// and the same backward. Expanded nodes at or above their floor
    /// add nothing and are dropped.
    pub(crate) fn new(
        fwd_floor: i64,
        fwd: Vec<(i64, i64)>,
        bwd_floor: i64,
        bwd: Vec<(i64, i64)>,
    ) -> Certificate {
        let mut floors = [fwd_floor, bwd_floor];
        let mut near = Vec::with_capacity(fwd.len() + bwd.len());
        let mut split = 0;
        for (dir, nodes) in [fwd, bwd].into_iter().enumerate() {
            let start = near.len();
            for (nid, d) in nodes {
                if d >= floors[dir] {
                    continue;
                }
                match u32::try_from(nid) {
                    Ok(nid) => near.push((nid, u32::try_from(d).unwrap_or(u32::MAX))),
                    // Not a node id of any graph; lowering the floor to
                    // its distance keeps every bound a lower bound.
                    Err(_) => floors[dir] = floors[dir].min(d),
                }
            }
            near[start..].sort_unstable();
            if dir == 0 {
                split = near.len();
            }
        }
        Certificate {
            floors,
            split,
            near: near.into_boxed_slice(),
        }
    }

    /// Direction `dir`'s bound for `x`.
    fn bound(&self, dir: usize, x: i64) -> i64 {
        let (fwd, bwd) = self.near.split_at(self.split);
        let near = if dir == 0 { fwd } else { bwd };
        u32::try_from(x)
            .ok()
            .and_then(|x| near.binary_search_by_key(&x, |&(nid, _)| nid).ok())
            .map_or(self.floors[dir], |i| i64::from(near[i].1))
    }

    /// A lower bound on the distance from the search's source to `x`
    /// ([`INF`] for a node the source cannot reach).
    pub fn from_source(&self, x: i64) -> i64 {
        self.bound(0, x)
    }

    /// A lower bound on the distance from `y` to the search's target.
    pub fn to_target(&self, y: i64) -> i64 {
        self.bound(1, y)
    }

    /// Heap bytes held (the listed nodes), for a cache's byte budget.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.near)
    }
}

/// Prepared handles for one direction's loop statements. Built once per
/// search (cache hits across searches make this nearly free) and executed
/// inside the iteration without any per-statement planning.
struct DirStmts {
    /// The policy's F-operator statement: BDJ's pick (Listing 2(2) bound
    /// to `l`, a statistics scan like DJ's) or a set finder's mark.
    frontier: Stmt,
    /// What settles the expanded frontier: `mid` by `nid` (Listing 3(2))
    /// for BDJ, the marked set (Listing 4(3)) otherwise.
    settle: Stmt,
    expansion: Expansion,
    candidate_stats: Stmt,
    pred_of: Stmt,
}

impl DirStmts {
    fn prepare(
        db: &mut fempath_sql::Database,
        gen: &SqlGen,
        spec: &BidiSpec,
        pred: FrontierPred,
        mode: EmMode,
    ) -> Result<DirStmts> {
        let (pe, sc, fpr) = (
            Phase::PathExpansion,
            Phase::StatsCollection,
            Phase::FullPathRecovery,
        );
        let (frontier_sql, frontier_phase, settle_sql) = match spec.frontier {
            FrontierPolicy::SingleMin => (gen.select_mid_at(), sc, gen.settle_by_nid()),
            FrontierPolicy::AllMin => (gen.mark_by_dist(), pe, gen.reset_frontier()),
            FrontierPolicy::All => (gen.mark_all(), pe, gen.reset_frontier()),
            FrontierPolicy::Threshold { .. } => (gen.mark_threshold(), pe, gen.reset_frontier()),
        };
        Ok(DirStmts {
            frontier: Stmt::prepare(db, &frontier_sql, frontier_phase, FemOperator::F)?,
            settle: Stmt::prepare(db, &settle_sql, pe, FemOperator::F)?,
            expansion: Expansion::prepare(db, gen, pred, mode)?,
            candidate_stats: Stmt::prepare(db, &gen.candidate_stats(), sc, FemOperator::Aux)?,
            pred_of: Stmt::prepare(db, &gen.pred_of(), fpr, FemOperator::Aux)?,
        })
    }
}

/// How each iteration picks its frontier (the F-operator predicate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontierPolicy {
    /// One node with the minimal distance (BDJ).
    SingleMin,
    /// All nodes with the minimal distance (BSDJ).
    AllMin,
    /// Every candidate node (BBFS).
    All,
    /// `dist <= k * lthd` or the minimal distance (BSEG, Listing 4(1)).
    Threshold { lthd: i64 },
}

/// Full specification of one bidirectional run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BidiSpec {
    pub frontier: FrontierPolicy,
    pub edges: EdgeSource,
    pub style: SqlStyle,
    pub prune: bool,
    /// Seed the pruning ceiling from the landmark index when one exists.
    pub seed_bounds: bool,
    /// Issue F/E/M as separate statements through `TExp` — the Fig 6(c)
    /// per-operator measurement mode ([`EmMode::SplitMerge`]).
    pub split_operators: bool,
}

pub(crate) fn run_bidi(gdb: &mut GraphDb, s: i64, t: i64, spec: BidiSpec) -> Result<PathOutcome> {
    if spec.edges == EdgeSource::SegTable && gdb.segtable().is_none() {
        return Err(SqlError::Eval(
            "BSEG requires a SegTable: call GraphDb::build_segtable first".into(),
        ));
    }
    if let Some(out) = trivial_case(gdb, s, t)? {
        return Ok(out);
    }
    // The seeded ceiling only ever enters the pruning term.
    let bound = seeded_ceiling(gdb, s, t, spec.prune && spec.seed_bounds)?;
    let mode = gdb.reset_search(spec.style, spec.split_operators)?;
    let fgen = SqlGen::new(Dir::Fwd, spec.edges, spec.style);
    let bgen = SqlGen::new(Dir::Bwd, spec.edges, spec.style);

    // Prepare the whole statement set up front; the loop below executes
    // handles only. After the first search these prepares are plan-cache
    // hits (the TRUNCATE-based reset keeps the catalog version stable).
    // BDJ expands the one node it picked; the set finders expand what
    // they marked.
    let pred = match spec.frontier {
        FrontierPolicy::SingleMin => FrontierPred::ByNid,
        _ => FrontierPred::Marked,
    };
    // Certificates come from the Dijkstra policies over raw edges only:
    // BBFS settles distances that are not final, and BSEG's segments
    // would need their own proof.
    let certify = gdb.certificates()
        && spec.edges == EdgeSource::Edges
        && matches!(
            spec.frontier,
            FrontierPolicy::SingleMin | FrontierPolicy::AllMin
        );
    let db = &mut gdb.db;
    let (pe, fpr, aux) = (
        Phase::PathExpansion,
        Phase::FullPathRecovery,
        FemOperator::Aux,
    );
    let init_fwd = Stmt::prepare(db, &SqlGen::init(Dir::Fwd), pe, aux)?;
    let init_bwd = Stmt::prepare(db, &SqlGen::init(Dir::Bwd), pe, aux)?;
    let fwd_stmts = DirStmts::prepare(db, &fgen, &spec, pred, mode)?;
    let bwd_stmts = DirStmts::prepare(db, &bgen, &spec, pred, mode)?;
    let meet_node_stmt = Stmt::prepare(db, meet_node(), fpr, aux)?;
    let expanded_rows_stmt = certify
        .then(|| Stmt::prepare(db, expanded_rows(), fpr, aux))
        .transpose()?;

    let mut runner = Runner::new(gdb);
    runner.exec(&init_fwd, &[Value::Int(s), Value::Int(s)])?;
    runner.exec(&init_bwd, &[Value::Int(t), Value::Int(t)])?;

    // The two endpoint rows carry `d2s + d2t >= INF`, so the running
    // minimum of invariant 2 starts at INF.
    let mut min_cost = INF;
    let (mut lf, mut lb) = (0i64, 0i64);
    let (mut nf, mut nb) = (1i64, 1i64); // remaining candidates per direction
    let (mut kf, mut kb) = (1i64, 1i64); // expansion counters (BSEG's fwd/bwd)
    let (mut pf, mut pb) = (INF, INF); // pruning floors (a certificate's `P`)
    let mut params = Vec::with_capacity(4); // the E-operator's, reused

    loop {
        // Termination (§4.1): minCost is final once minCost <= lf + lb.
        if min_cost <= lf.saturating_add(lb) {
            break;
        }
        if nf <= 0 && nb <= 0 {
            break;
        }
        // Expand the direction with fewer pending candidates (Algorithm 2
        // line 7), skipping exhausted directions.
        let forward = nf > 0 && (nb <= 0 || nf <= nb);
        // `l` is this direction's minimal candidate distance (invariant 1).
        let (stmts, k, l, l_other) = if forward {
            (&fwd_stmts, &mut kf, lf, lb)
        } else {
            (&bwd_stmts, &mut kb, lb, lf)
        };

        // F-operator: pick the frontier. A direction with candidates has a
        // finite `l`; the guard keeps INF — the other direction's rows —
        // out of the `dist = ?` predicates.
        let mark = |runner: &mut Runner<'_>, params: &[Value]| {
            runner
                .exec(&stmts.frontier, params)
                .map(|out| out.rows_affected)
        };
        let mut mid = None;
        let frontier_rows = match spec.frontier {
            _ if l >= INF => 0,
            FrontierPolicy::SingleMin => {
                mid = runner.scalar(&stmts.frontier, &[Value::Int(l)])?;
                u64::from(mid.is_some())
            }
            FrontierPolicy::AllMin => mark(&mut runner, &[Value::Int(l)])?,
            FrontierPolicy::All => mark(&mut runner, &[])?,
            FrontierPolicy::Threshold { lthd } => mark(
                &mut runner,
                &[Value::Int((*k).saturating_mul(lthd)), Value::Int(l)],
            )?,
        };
        if frontier_rows == 0 {
            if forward {
                nf = 0;
            } else {
                nb = 0;
            }
            continue;
        }

        // E+M operators. Only the pruning *parameter* mixes in the seeded
        // bound; termination and meet-node recovery use the discovered
        // min_cost alone.
        let (lo, mc) = if spec.prune {
            (l_other, min_cost.min(bound))
        } else {
            (0, INF)
        };
        // A term with `mc = INF` drops nothing: distances stay far
        // below `INF`.
        if mc < INF {
            let floor = if forward { &mut pf } else { &mut pb };
            *floor = (*floor).min(mc.saturating_sub(lo));
        }
        expand_params_into(&mut params, spec.style, pred, mid, lo, mc)?;
        stmts.expansion.run(&mut runner, &params)?;
        // Settle the expanded frontier: `mid` by `nid`, or the marked set.
        runner.exec(&stmts.settle, mid.map(Value::Int).as_slice())?;
        *k += 1;

        // Statistics collection, one scan (Listing 4(4) + 4(5)): this
        // direction's new `l` and candidate count, and the smallest
        // `d2s + d2t` among its candidates — folded into the running
        // `minCost` by invariant 2.
        let stats_row = runner.row(&stmts.candidate_stats, &[])?.unwrap_or_default();
        let col = |i: usize| stats_row.get(i).and_then(|v| v.as_i64());
        let (l_new, cand) = (col(0).unwrap_or(INF), col(1).unwrap_or(0));
        min_cost = min_cost.min(col(2).unwrap_or(INF));
        if forward {
            lf = l_new;
            nf = cand;
        } else {
            lb = l_new;
            nb = cand;
        }
    }

    let certificate = match &expanded_rows_stmt {
        Some(stmt) => Some(Arc::new(read_certificate(
            &mut runner,
            stmt,
            lf.min(pf),
            lb.min(pb),
        )?)),
        None => None,
    };
    let path = if min_cost >= INF {
        None
    } else {
        let meet = runner
            .scalar(&meet_node_stmt, &[Value::Int(min_cost)])?
            .ok_or_else(|| SqlError::Eval("no node realizes minCost".into()))?;
        Some(recover_bidi_path(
            &mut runner,
            s,
            t,
            meet,
            min_cost,
            &fwd_stmts.pred_of,
            &bwd_stmts.pred_of,
        )?)
    };
    let mut out = runner.finish(path)?;
    out.certificate = certificate;
    Ok(out)
}

/// Reads a finished search's expanded rows below the two floors
/// (`min(l, P)` per direction) into its [`Certificate`].
fn read_certificate(
    runner: &mut Runner<'_>,
    stmt: &Stmt,
    fwd_floor: i64,
    bwd_floor: i64,
) -> Result<Certificate> {
    let rows = runner
        .exec(stmt, &[Value::Int(fwd_floor), Value::Int(bwd_floor)])?
        .rows
        .ok_or_else(|| SqlError::Eval("expected a result set".into()))?;
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for row in &rows.rows {
        let col = |i: usize| {
            row.get(i)
                .and_then(Value::as_i64)
                .ok_or_else(|| SqlError::Eval("an expanded TVisited row holds a NULL".into()))
        };
        let nid = col(0)?;
        if col(3)? == 1 {
            fwd.push((nid, col(1)?));
        }
        if col(4)? == 1 {
            bwd.push((nid, col(2)?));
        }
    }
    Ok(Certificate::new(fwd_floor, fwd, bwd_floor, bwd))
}

/// **BDJ** — bidirectional Dijkstra, node-at-a-time: NSQL statements,
/// Theorem-1 pruning on. The serving default.
#[derive(Debug, Clone, Copy)]
pub struct BdjFinder {
    /// Seed the pruning ceiling from the landmark index when one exists
    /// (on by default; a no-op without an index). Off only for the
    /// `landmark-ablation` experiment's unseeded run.
    pub seed_bounds: bool,
}

impl Default for BdjFinder {
    fn default() -> Self {
        BdjFinder { seed_bounds: true }
    }
}

impl ShortestPathFinder for BdjFinder {
    fn name(&self) -> &'static str {
        "BDJ"
    }

    fn find_path(&self, gdb: &mut GraphDb, s: i64, t: i64) -> Result<PathOutcome> {
        run_bidi(
            gdb,
            s,
            t,
            BidiSpec {
                frontier: FrontierPolicy::SingleMin,
                edges: EdgeSource::Edges,
                style: SqlStyle::New,
                prune: true,
                seed_bounds: self.seed_bounds,
                split_operators: false,
            },
        )
    }
}

/// **BSDJ** — bidirectional *set* Dijkstra: all nodes at the minimal
/// distance expand in one statement (the paper's key set-at-a-time
/// optimization, §4.1). Seeds its pruning ceiling from the landmark index
/// when one exists. Its knobs are the paper's operator-level experiments.
#[derive(Debug, Clone, Copy)]
pub struct BsdjFinder {
    /// NSQL or TSQL statements (Fig 6(d)).
    pub style: SqlStyle,
    /// Theorem-1 pruning (on by default; off for `ablation-prune`).
    pub prune: bool,
    /// Issue F/E/M as separately timed statements (Fig 6(c)).
    pub split_operators: bool,
}

impl Default for BsdjFinder {
    fn default() -> Self {
        BsdjFinder {
            style: SqlStyle::New,
            prune: true,
            split_operators: false,
        }
    }
}

impl ShortestPathFinder for BsdjFinder {
    fn name(&self) -> &'static str {
        "BSDJ"
    }

    fn find_path(&self, gdb: &mut GraphDb, s: i64, t: i64) -> Result<PathOutcome> {
        run_bidi(
            gdb,
            s,
            t,
            BidiSpec {
                frontier: FrontierPolicy::AllMin,
                edges: EdgeSource::Edges,
                style: self.style,
                prune: self.prune,
                seed_bounds: true,
                split_operators: self.split_operators,
            },
        )
    }
}

/// **BBFS** — bidirectional breadth-first-style relaxation: every candidate
/// expands every iteration. Fewest iterations, largest search space (§4.2).
/// NSQL statements, pruned, landmark-seeded when an index exists.
#[derive(Debug, Clone, Copy, Default)]
pub struct BbfsFinder;

impl ShortestPathFinder for BbfsFinder {
    fn name(&self) -> &'static str {
        "BBFS"
    }

    fn find_path(&self, gdb: &mut GraphDb, s: i64, t: i64) -> Result<PathOutcome> {
        run_bidi(
            gdb,
            s,
            t,
            BidiSpec {
                frontier: FrontierPolicy::All,
                edges: EdgeSource::Edges,
                style: SqlStyle::New,
                prune: true,
                seed_bounds: true,
                split_operators: false,
            },
        )
    }
}

/// **BSEG** — selective expansion over the SegTable (Algorithm 2). Requires
/// [`GraphDb::build_segtable`] to have been called; the threshold `lthd` is
/// read from the built index. NSQL statements, landmark-seeded when an
/// index exists.
#[derive(Debug, Clone, Copy)]
pub struct BsegFinder {
    /// Theorem-1 pruning (on by default; off for `ablation-prune`).
    pub prune: bool,
}

impl Default for BsegFinder {
    fn default() -> Self {
        BsegFinder { prune: true }
    }
}

impl ShortestPathFinder for BsegFinder {
    fn name(&self) -> &'static str {
        "BSEG"
    }

    fn find_path(&self, gdb: &mut GraphDb, s: i64, t: i64) -> Result<PathOutcome> {
        // Without a SegTable `run_bidi` refuses before reading `lthd`.
        let lthd = gdb.segtable().map_or(0, |seg| seg.lthd);
        run_bidi(
            gdb,
            s,
            t,
            BidiSpec {
                frontier: FrontierPolicy::Threshold { lthd },
                edges: EdgeSource::SegTable,
                style: SqlStyle::New,
                prune: self.prune,
                seed_bounds: true,
                split_operators: false,
            },
        )
    }
}
