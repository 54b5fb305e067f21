//! SQL statement generation — the paper's Listings 2–4, parameterized.
//!
//! Three orthogonal axes:
//!
//! * **direction** ([`Dir`]): forward statements use `(d2s, p2s, f)`,
//!   backward ones `(d2t, p2t, b)`. Graphs are stored symmetrically (see
//!   DESIGN.md §4), so both directions join the edge relation on `fid`.
//! * **edge source** ([`EdgeSource`]): the raw `TEdges` table or the
//!   SegTable (`TOutSegs`/`TInSegs`, whose `pid` column carries the
//!   predecessor within the pre-computed segment — §4.2).
//! * **style** ([`SqlStyle`]): NSQL (window function + MERGE) vs TSQL
//!   (aggregate-join + UPDATE/INSERT), plus the no-MERGE fallback forced by
//!   the PostgreSQL dialect (§5.2).
//!
//! Every expansion statement carries the bidirectional pruning term of
//! Theorem 1 — `e.cost + q.dist + ? < ?` with parameters `(l_other,
//! minCost)`; passing `(0, INF)` disables pruning.

use crate::graphdb::{INF, NO_NODE};
use crate::stats::SqlStyle;

/// One generated statement plus the metadata the static analyzer needs:
/// a stable corpus name and whether the statement is *hot-path* — executed
/// per search iteration (or per result-path probe), where a full scan of
/// an indexed working table is a plan-shape regression (rule FC201).
///
/// The annotation policy (DESIGN.md §15): point probes (`dist_of`,
/// `pred_of`, `settled`, `walk_tree`), the by-`nid` settle
/// (`settle_by_nid`), the by-`nid` expansions and the M-operator
/// statements that probe the visited table per expansion row are hot; the
/// F-operator scans (`select_mid`, `select_mid_at`, `candidate_stats`),
/// the set-valued frontier marks and whole-table resets are *expected* to
/// scan and stay cold.
#[derive(Debug, Clone)]
pub struct AnnotatedSql {
    /// Stable corpus name, e.g. `fwd/edges/nsql/merge_from_exp`.
    pub name: String,
    pub sql: String,
    /// Analyze with [`fempath_sql::AnalyzeOptions::hot_path`] set.
    pub hot_path: bool,
}

impl AnnotatedSql {
    pub(crate) fn hot(name: impl Into<String>, sql: impl Into<String>) -> AnnotatedSql {
        AnnotatedSql {
            name: name.into(),
            sql: sql.into(),
            hot_path: true,
        }
    }

    pub(crate) fn cold(name: impl Into<String>, sql: impl Into<String>) -> AnnotatedSql {
        AnnotatedSql {
            name: name.into(),
            sql: sql.into(),
            hot_path: false,
        }
    }
}

/// Search direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    Fwd,
    Bwd,
}

impl Dir {
    /// `(dist, pred, flag, other-dist, other-pred, other-flag)` columns.
    pub fn cols(
        self,
    ) -> (
        &'static str,
        &'static str,
        &'static str,
        &'static str,
        &'static str,
        &'static str,
    ) {
        match self {
            Dir::Fwd => ("d2s", "p2s", "f", "d2t", "p2t", "b"),
            Dir::Bwd => ("d2t", "p2t", "b", "d2s", "p2s", "f"),
        }
    }

    /// The opposite direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::Fwd => Dir::Bwd,
            Dir::Bwd => Dir::Fwd,
        }
    }
}

/// Which relation the E-operator joins against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeSource {
    /// The raw edge table.
    Edges,
    /// The SegTable (`TOutSegs` forward, `TInSegs` backward).
    SegTable,
}

impl EdgeSource {
    fn table(self, dir: Dir) -> &'static str {
        match (self, dir) {
            (EdgeSource::Edges, _) => "TEdges",
            (EdgeSource::SegTable, Dir::Fwd) => "TOutSegs",
            (EdgeSource::SegTable, Dir::Bwd) => "TInSegs",
        }
    }

    /// Column holding the predecessor to record: the expanding node itself
    /// for raw edges (`fid`), the stored within-segment predecessor for the
    /// SegTable (`pid`).
    fn pid_col(self) -> &'static str {
        match self {
            EdgeSource::Edges => "fid",
            EdgeSource::SegTable => "pid",
        }
    }
}

/// How the expansion statement identifies its frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontierPred {
    /// `q.nid = ?` — the single-node expansion of Listing 2(3). Adds one
    /// leading parameter.
    ByNid,
    /// `q.flag = 2` — the marked-set expansion of Listing 4(2).
    Marked,
}

/// Statement generator for one direction.
#[derive(Debug, Clone, Copy)]
pub struct SqlGen {
    pub dir: Dir,
    pub edges: EdgeSource,
    pub style: SqlStyle,
}

impl SqlGen {
    pub fn new(dir: Dir, edges: EdgeSource, style: SqlStyle) -> SqlGen {
        SqlGen { dir, edges, style }
    }

    /// Initialize `TVisited` with the source node (Listing 2(1)); params
    /// `[node, node]`.
    pub fn init(dir: Dir) -> String {
        match dir {
            Dir::Fwd => format!(
                "INSERT INTO TVisited (nid, d2s, p2s, f, d2t, p2t, b) \
                 VALUES (?, 0, ?, 0, {INF}, {NO_NODE}, 0)"
            ),
            Dir::Bwd => format!(
                "INSERT INTO TVisited (nid, d2s, p2s, f, d2t, p2t, b) \
                 VALUES (?, {INF}, {NO_NODE}, 0, 0, ?, 0)"
            ),
        }
    }

    /// Listing 2(2): the next node to expand (id + its distance).
    pub fn select_mid(&self) -> String {
        let (dist, _, flag, ..) = self.dir.cols();
        format!(
            "SELECT TOP 1 nid, {dist} FROM TVisited WHERE {flag} = 0 AND {dist} < {INF} \
             AND {dist} = (SELECT MIN({dist}) FROM TVisited WHERE {flag} = 0 AND {dist} < {INF})"
        )
    }

    /// Listing 2(2) for a client that already holds the minimal candidate
    /// distance `l` (the bidirectional finders read it with
    /// [`SqlGen::candidate_stats`]): the scalar subquery becomes a
    /// parameter. Same scan order and same first match as
    /// [`SqlGen::select_mid`], so the same node; params `[l]`.
    pub fn select_mid_at(&self) -> String {
        let (dist, _, flag, ..) = self.dir.cols();
        format!("SELECT TOP 1 nid FROM TVisited WHERE {flag} = 0 AND {dist} = ?")
    }

    /// Minimal candidate distance (Listing 4(4)); NULL when exhausted.
    pub fn min_candidate(&self) -> String {
        let (dist, _, flag, ..) = self.dir.cols();
        format!("SELECT MIN({dist}) FROM TVisited WHERE {flag} = 0 AND {dist} < {INF}")
    }

    /// Fused statistics statement (Listing 4(4) + 4(5)) — one scan of this
    /// direction's candidates returns their minimal distance, their count,
    /// and the smallest `d2s + d2t` among them.
    ///
    /// The third column replaces a separate `SELECT MIN(d2s + d2t) FROM
    /// TVisited`: every row an expansion's M-operator touches comes out a
    /// candidate of the expanding direction (`flag = 0`, finite `dist`),
    /// rows it did not touch kept their sum, and distances only
    /// fall — so the client's `min(minCost, third column)` right after an
    /// expansion *is* the whole-table minimum.
    pub fn candidate_stats(&self) -> String {
        let (dist, _, flag, ..) = self.dir.cols();
        format!(
            "SELECT MIN({dist}), COUNT(*), MIN(d2s + d2t) FROM TVisited \
             WHERE {flag} = 0 AND {dist} < {INF}"
        )
    }

    /// Mark all candidates at one distance (set Dijkstra); params `[dist]`.
    pub fn mark_by_dist(&self) -> String {
        let (dist, _, flag, ..) = self.dir.cols();
        format!("UPDATE TVisited SET {flag} = 2 WHERE {flag} = 0 AND {dist} = ?")
    }

    /// Mark every candidate (BFS-style).
    pub fn mark_all(&self) -> String {
        let (dist, _, flag, ..) = self.dir.cols();
        format!("UPDATE TVisited SET {flag} = 2 WHERE {flag} = 0 AND {dist} < {INF}")
    }

    /// Listing 4(1): the selective frontier of BSEG; params
    /// `[k * lthd, l]`. The listing's `(SELECT MIN(..))` is the minimal
    /// candidate distance `l` the client already holds, bound as a
    /// parameter.
    pub fn mark_threshold(&self) -> String {
        let (dist, _, flag, ..) = self.dir.cols();
        format!(
            "UPDATE TVisited SET {flag} = 2 \
             WHERE ({dist} <= ? OR {dist} = ?) AND {flag} = 0 AND {dist} < {INF}"
        )
    }

    /// Listing 4(3): flip expanded frontier nodes to settled.
    pub fn reset_frontier(&self) -> String {
        let (_, _, flag, ..) = self.dir.cols();
        format!("UPDATE TVisited SET {flag} = 1 WHERE {flag} = 2")
    }

    /// Listing 3(2): finalize one node; params `[nid]`.
    pub fn settle_by_nid(&self) -> String {
        let (_, _, flag, ..) = self.dir.cols();
        format!("UPDATE TVisited SET {flag} = 1 WHERE nid = ?")
    }

    /// The window-function E-operator source (shared by the MERGE and the
    /// temp-table paths). Parameters: `[nid?]` (ByNid only), then
    /// `[l_other, minCost]` for the Theorem-1 pruning term.
    fn window_source(&self, frontier: FrontierPred) -> String {
        let (dist, ..) = self.dir.cols();
        let et = self.edges.table(self.dir);
        let pid = self.edges.pid_col();
        let fpred = self.frontier_pred(frontier);
        format!(
            "SELECT nid, np, cost FROM ( \
               SELECT e.tid AS nid, e.{pid} AS np, e.cost + q.{dist} AS cost, \
                      ROW_NUMBER() OVER (PARTITION BY e.tid ORDER BY e.cost + q.{dist}) AS rownum \
               FROM TVisited q, {et} e \
               WHERE q.nid = e.fid AND {fpred} AND e.cost + q.{dist} + ? < ? \
             ) tmp WHERE rownum = 1"
        )
    }

    /// The aggregate-join E-operator source (TSQL, §3.3): a GROUP BY for
    /// the minimum plus a second join to recover the parent.
    fn aggregate_source(&self, frontier: FrontierPred) -> String {
        let (dist, ..) = self.dir.cols();
        let et = self.edges.table(self.dir);
        let pid = self.edges.pid_col();
        let fpred = self.frontier_pred(frontier);
        let fpred2 = fpred.replace("q.", "q2."); // same predicate on the rejoin
        format!(
            "SELECT e2.tid AS nid, MIN(e2.{pid}) AS np, m.c AS cost \
             FROM TVisited q2, {et} e2, ( \
                SELECT e.tid AS mtid, MIN(e.cost + q.{dist}) AS c \
                FROM TVisited q, {et} e \
                WHERE q.nid = e.fid AND {fpred} AND e.cost + q.{dist} + ? < ? \
                GROUP BY e.tid \
             ) m \
             WHERE q2.nid = e2.fid AND {fpred2} AND e2.tid = m.mtid \
               AND e2.cost + q2.{dist} = m.c \
             GROUP BY e2.tid, m.c"
        )
    }

    fn frontier_pred(&self, frontier: FrontierPred) -> String {
        let (_, _, flag, ..) = self.dir.cols();
        match frontier {
            FrontierPred::ByNid => "q.nid = ?".to_string(),
            FrontierPred::Marked => format!("q.{flag} = 2"),
        }
    }

    /// The fused E+M statement (Listing 4(2)): MERGE with the E-operator
    /// inline. Requires a MERGE-capable dialect and NSQL style.
    /// Params: `[nid?]`, `l_other`, `minCost` (ByNid adds the leading one,
    /// and the aggregate source repeats the pruning pair).
    pub fn expand_merge(&self, frontier: FrontierPred) -> String {
        let (dist, pred, flag, odist, opred, oflag) = self.dir.cols();
        let source = match self.style {
            SqlStyle::New => self.window_source(frontier),
            SqlStyle::Traditional => self.aggregate_source(frontier),
        };
        format!(
            "MERGE INTO TVisited AS target USING ({source}) AS source (nid, np, cost) \
             ON source.nid = target.nid \
             WHEN MATCHED AND target.{dist} > source.cost THEN \
               UPDATE SET {dist} = source.cost, {pred} = source.np, {flag} = 0 \
             WHEN NOT MATCHED THEN \
               INSERT (nid, {dist}, {pred}, {flag}, {odist}, {opred}, {oflag}) \
               VALUES (source.nid, source.cost, source.np, 0, {INF}, {NO_NODE}, 0)"
        )
    }

    /// E-operator into the `TExp` temp table (split-operator mode and the
    /// no-MERGE dialect path). Same parameters as [`SqlGen::expand_merge`].
    pub fn expand_into_exp(&self, frontier: FrontierPred) -> String {
        let source = match self.style {
            SqlStyle::New => self.window_source(frontier),
            SqlStyle::Traditional => self.aggregate_source(frontier),
        };
        format!("INSERT INTO TExp (nid, p2s, cost) {source}")
    }

    /// M-operator from `TExp` via MERGE (split-operator mode).
    pub fn merge_from_exp(&self) -> String {
        let (dist, pred, flag, odist, opred, oflag) = self.dir.cols();
        format!(
            "MERGE INTO TVisited AS target USING TExp AS source ON source.nid = target.nid \
             WHEN MATCHED AND target.{dist} > source.cost THEN \
               UPDATE SET {dist} = source.cost, {pred} = source.p2s, {flag} = 0 \
             WHEN NOT MATCHED THEN \
               INSERT (nid, {dist}, {pred}, {flag}, {odist}, {opred}, {oflag}) \
               VALUES (source.nid, source.cost, source.p2s, 0, {INF}, {NO_NODE}, 0)"
        )
    }

    /// M-operator, update half (the traditional / PostgreSQL path).
    pub fn update_from_exp(&self) -> String {
        let (dist, pred, flag, ..) = self.dir.cols();
        format!(
            "UPDATE TVisited SET {dist} = TExp.cost, {pred} = TExp.p2s, {flag} = 0 FROM TExp \
             WHERE TVisited.nid = TExp.nid AND TVisited.{dist} > TExp.cost"
        )
    }

    /// M-operator, insert half (the traditional / PostgreSQL path).
    pub fn insert_from_exp(&self) -> String {
        let (dist, pred, flag, odist, opred, oflag) = self.dir.cols();
        format!(
            "INSERT INTO TVisited (nid, {dist}, {pred}, {flag}, {odist}, {opred}, {oflag}) \
             SELECT nid, cost, p2s, 0, {INF}, {NO_NODE}, 0 FROM TExp \
             WHERE nid NOT IN (SELECT nid FROM TVisited WHERE nid IS NOT NULL)"
        )
    }

    /// Listing 3(3) / Algorithm 2 line 18: predecessor (or successor) of a
    /// node; params `[nid]`.
    pub fn pred_of(&self) -> String {
        let (_, pred, ..) = self.dir.cols();
        format!("SELECT {pred} FROM TVisited WHERE nid = ?")
    }

    /// Distance of a node in this direction; params `[nid]`.
    pub fn dist_of(&self) -> String {
        let (dist, ..) = self.dir.cols();
        format!("SELECT {dist} FROM TVisited WHERE nid = ?")
    }

    /// Listing 3(1): is the node settled in this direction? params `[nid]`.
    pub fn settled(&self) -> String {
        let (_, _, flag, ..) = self.dir.cols();
        format!("SELECT nid FROM TVisited WHERE {flag} = 1 AND nid = ?")
    }

    /// Stable corpus prefix for this generator configuration.
    fn tag(&self) -> String {
        let d = match self.dir {
            Dir::Fwd => "fwd",
            Dir::Bwd => "bwd",
        };
        let e = match self.edges {
            EdgeSource::Edges => "edges",
            EdgeSource::SegTable => "seg",
        };
        let s = match self.style {
            SqlStyle::New => "nsql",
            SqlStyle::Traditional => "tsql",
        };
        format!("{d}/{e}/{s}")
    }

    /// Every statement this generator can emit, annotated for the static
    /// analyzer ([`AnnotatedSql`]). MERGE statements are included only when
    /// `merge_supported` — the finders make the same dialect choice.
    ///
    /// Hot statements: the ByNid expansions (one index probe per expanded
    /// node) and the by-`nid` settle UPDATE (Listing 3(2)) — DJ's and BDJ's
    /// whole F/E/M sequence, where the `TVisited(nid)` index of Fig 8(c)
    /// finds the one row — the three M-operator statements (probe
    /// `TVisited` per expansion row) and the per-node result probes. The
    /// frontier picks, the statistics aggregate and the frontier marks that
    /// select by flag or distance intentionally scan and stay cold.
    pub fn annotated_corpus(&self, merge_supported: bool) -> Vec<AnnotatedSql> {
        let t = self.tag();
        let mut out = vec![
            AnnotatedSql::cold(format!("{t}/init"), SqlGen::init(self.dir)),
            AnnotatedSql::cold(format!("{t}/select_mid"), self.select_mid()),
            AnnotatedSql::cold(format!("{t}/select_mid_at"), self.select_mid_at()),
            AnnotatedSql::cold(format!("{t}/min_candidate"), self.min_candidate()),
            AnnotatedSql::cold(format!("{t}/candidate_stats"), self.candidate_stats()),
            AnnotatedSql::cold(format!("{t}/mark_by_dist"), self.mark_by_dist()),
            AnnotatedSql::cold(format!("{t}/mark_all"), self.mark_all()),
            AnnotatedSql::cold(format!("{t}/mark_threshold"), self.mark_threshold()),
            AnnotatedSql::cold(format!("{t}/reset_frontier"), self.reset_frontier()),
            AnnotatedSql::hot(format!("{t}/settle_by_nid"), self.settle_by_nid()),
            AnnotatedSql::hot(
                format!("{t}/expand_into_exp/by_nid"),
                self.expand_into_exp(FrontierPred::ByNid),
            ),
            AnnotatedSql::cold(
                format!("{t}/expand_into_exp/marked"),
                self.expand_into_exp(FrontierPred::Marked),
            ),
            AnnotatedSql::hot(format!("{t}/update_from_exp"), self.update_from_exp()),
            AnnotatedSql::hot(format!("{t}/insert_from_exp"), self.insert_from_exp()),
            AnnotatedSql::hot(format!("{t}/pred_of"), self.pred_of()),
            AnnotatedSql::hot(format!("{t}/dist_of"), self.dist_of()),
            AnnotatedSql::hot(format!("{t}/settled"), self.settled()),
        ];
        if merge_supported {
            out.push(AnnotatedSql::hot(
                format!("{t}/expand_merge/by_nid"),
                self.expand_merge(FrontierPred::ByNid),
            ));
            out.push(AnnotatedSql::cold(
                format!("{t}/expand_merge/marked"),
                self.expand_merge(FrontierPred::Marked),
            ));
            out.push(AnnotatedSql::hot(
                format!("{t}/merge_from_exp"),
                self.merge_from_exp(),
            ));
        }
        out
    }
}

/// Builds the positional parameter list for [`SqlGen::expand_merge`] /
/// [`SqlGen::expand_into_exp`]. The aggregate (TSQL) source with a
/// [`FrontierPred::ByNid`] frontier repeats the node parameter because the
/// predicate appears in both the GROUP BY subquery and the parent-recovery
/// rejoin.
pub fn expand_params(
    style: SqlStyle,
    frontier: FrontierPred,
    nid: Option<i64>,
    l_other: i64,
    min_cost: i64,
) -> fempath_sql::Result<Vec<fempath_storage::Value>> {
    use fempath_storage::Value;
    let node =
        || nid.ok_or_else(|| fempath_sql::SqlError::Eval("ByNid frontier needs a node id".into()));
    let mut p = Vec::with_capacity(4);
    if frontier == FrontierPred::ByNid {
        p.push(Value::Int(node()?));
    }
    p.push(Value::Int(l_other));
    p.push(Value::Int(min_cost));
    if style == SqlStyle::Traditional && frontier == FrontierPred::ByNid {
        p.push(Value::Int(node()?));
    }
    Ok(p)
}

/// How the batched F-operator picks each query's frontier (the per-qid
/// analogue of the single-query frontier policies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchFrontier {
    /// All candidates at the query's own minimal distance — set Dijkstra
    /// (label-setting, the BSDJ analogue): no node expands twice, but one
    /// relational iteration per distinct distance value.
    PerQueryMin,
    /// Every candidate — BFS-style relaxation (label-correcting, the BBFS
    /// analogue): nodes may re-expand when their distance improves, but the
    /// iteration count drops to the graph's hop radius. Since per-iteration
    /// table scans are the dominant batch cost, this is the throughput
    /// default.
    #[default]
    All,
}

/// Statement generator for one direction of the **batched** multi-pair
/// execution mode (DESIGN.md §8): the Listings 2–4 statements with a `qid`
/// column threaded through, so one F/E/M iteration advances every in-flight
/// (s, t) query at once.
///
/// Three structural differences from [`SqlGen`]:
///
/// * the working tables are `TBVisited` / `TBExp`, keyed by `(qid, nid)`;
/// * the client scalars of Algorithm 2 (`lf`, `lb`, `nf`, `nb`, `minCost`,
///   `done`) live in the per-query bounds table `TBounds` instead of the
///   driver program, so the F-operator and the Theorem-1 pruning term read
///   them relationally (one row per query, joined on `qid`);
/// * pruning is structural (`prune` toggles the `TBounds` join) rather than
///   parameter-driven, which keeps every loop statement parameter-free and
///   therefore a single AST-cache entry.
#[derive(Debug, Clone, Copy)]
pub struct BatchSqlGen {
    pub dir: Dir,
    pub edges: EdgeSource,
    pub style: SqlStyle,
    /// Include the per-qid Theorem-1 pruning term (bidirectional searches
    /// only; single-directional batch Dijkstra has no `l_other`/`minCost`).
    pub prune: bool,
}

impl BatchSqlGen {
    pub fn new(dir: Dir, edges: EdgeSource, style: SqlStyle, prune: bool) -> BatchSqlGen {
        BatchSqlGen {
            dir,
            edges,
            style,
            prune,
        }
    }

    /// `(l, n)` — the `TBounds` columns holding this direction's minimal
    /// candidate distance and candidate count.
    fn bounds_cols(self) -> (&'static str, &'static str) {
        match self.dir {
            Dir::Fwd => ("lf", "nf"),
            Dir::Bwd => ("lb", "nb"),
        }
    }

    /// Same for the opposite direction (the Theorem-1 `l_other`).
    fn other_bounds_cols(self) -> (&'static str, &'static str) {
        match self.dir {
            Dir::Fwd => ("lb", "nb"),
            Dir::Bwd => ("lf", "nf"),
        }
    }

    /// Seeds every `(qid, s, t)` query's endpoint for one direction in a
    /// single multi-row INSERT (the batched Listing 2(1)).
    pub fn init_batch(dir: Dir, live: &[(i64, i64, i64)]) -> String {
        let rows: Vec<String> = live
            .iter()
            .map(|&(qid, s, t)| match dir {
                Dir::Fwd => format!("({qid}, {s}, 0, {s}, 0, {INF}, {NO_NODE}, 0)"),
                Dir::Bwd => format!("({qid}, {t}, {INF}, {NO_NODE}, 0, 0, {t}, 0)"),
            })
            .collect();
        format!(
            "INSERT INTO TBVisited (qid, nid, d2s, p2s, f, d2t, p2t, b) VALUES {}",
            rows.join(", ")
        )
    }

    /// Seeds every query's bounds row in a single multi-row INSERT; `nb`
    /// starts at 0 for single-directional searches, so the backward side
    /// begins exhausted. The landmark `bound` column starts at [`INF`]
    /// (no bound) — [`seed_bounds_batch`] tightens it when an index exists.
    pub fn init_bounds_batch(live: &[(i64, i64, i64)], bidi: bool) -> String {
        let nb = i64::from(bidi);
        let rows: Vec<String> = live
            .iter()
            .map(|&(qid, s, t)| format!("({qid}, {s}, {t}, 0, 0, 1, {nb}, {INF}, {INF}, 0)"))
            .collect();
        format!(
            "INSERT INTO TBounds (qid, s, t, lf, lb, nf, nb, mincost, bound, done) VALUES {}",
            rows.join(", ")
        )
    }

    /// The batched F-operator: mark each unfinished query's frontier.
    ///
    /// With [`BatchFrontier::PerQueryMin`] that is the candidates sitting
    /// at the query's own minimal distance (set Dijkstra), read from
    /// `TBounds`; with `alternate`, only queries whose *smaller* frontier
    /// is this direction participate (Algorithm 2 line 7, evaluated per
    /// qid; forward wins ties).
    ///
    /// With [`BatchFrontier::All`] every candidate of every live query
    /// expands (BFS-style label-correcting). Finished queries' rows are
    /// deleted at retirement, so no `TBounds` join is needed at all — the
    /// statement is the same single-scan mark the single-query BBFS uses,
    /// and both directions advance every iteration.
    pub fn mark_frontier(&self, frontier: BatchFrontier, alternate: bool) -> String {
        let (dist, _, flag, ..) = self.dir.cols();
        if frontier == BatchFrontier::All && !alternate {
            return format!("UPDATE TBVisited SET {flag} = 2 WHERE {flag} = 0 AND {dist} < {INF}");
        }
        let (l, n) = self.bounds_cols();
        let (_, on) = self.other_bounds_cols();
        let dir_sel = if alternate {
            let tie = match self.dir {
                Dir::Fwd => format!("TBounds.{n} <= TBounds.{on}"),
                Dir::Bwd => format!("TBounds.{n} < TBounds.{on}"),
            };
            format!(" AND (TBounds.{on} <= 0 OR {tie})")
        } else {
            String::new()
        };
        let fpred = match frontier {
            BatchFrontier::PerQueryMin => format!("TBVisited.{dist} = TBounds.{l}"),
            BatchFrontier::All => format!("TBVisited.{dist} < {INF}"),
        };
        format!(
            "UPDATE TBVisited SET {flag} = 2 FROM TBounds \
             WHERE TBVisited.qid = TBounds.qid AND TBounds.done = 0 \
               AND TBounds.{n} > 0{dir_sel} \
               AND TBVisited.{flag} = 0 AND {fpred}"
        )
    }

    /// The window-function E-operator source, per (qid, tid): the batched
    /// Listing 4(2) inner query. With pruning, `TBounds` joins in (after
    /// the frontier filter has cut the scan down to marked rows) to supply
    /// the per-qid `l_other`/`minCost` of Theorem 1.
    fn window_source(&self) -> String {
        let (dist, _, flag, ..) = self.dir.cols();
        let et = self.edges.table(self.dir);
        let pid = self.edges.pid_col();
        let (bounds, pruning) = self.pruning_clauses();
        format!(
            "SELECT qid, nid, np, cost FROM ( \
               SELECT q.qid AS qid, e.tid AS nid, e.{pid} AS np, e.cost + q.{dist} AS cost, \
                      ROW_NUMBER() OVER (PARTITION BY q.qid, e.tid ORDER BY e.cost + q.{dist}) AS rownum \
               FROM TBVisited q{bounds}, {et} e \
               WHERE q.nid = e.fid AND q.{flag} = 2{pruning} \
             ) tmp WHERE rownum = 1"
        )
    }

    /// The aggregate-join E-operator source (TSQL, §3.3), grouped by
    /// (qid, tid) with a rejoin recovering the parent.
    fn aggregate_source(&self) -> String {
        let (dist, _, flag, ..) = self.dir.cols();
        let et = self.edges.table(self.dir);
        let pid = self.edges.pid_col();
        let (bounds, pruning) = self.pruning_clauses();
        format!(
            "SELECT q2.qid AS qid, e2.tid AS nid, MIN(e2.{pid}) AS np, m.c AS cost \
             FROM TBVisited q2, {et} e2, ( \
                SELECT q.qid AS mqid, e.tid AS mtid, MIN(e.cost + q.{dist}) AS c \
                FROM TBVisited q{bounds}, {et} e \
                WHERE q.nid = e.fid AND q.{flag} = 2{pruning} \
                GROUP BY q.qid, e.tid \
             ) m \
             WHERE q2.nid = e2.fid AND q2.{flag} = 2 AND q2.qid = m.mqid \
               AND e2.tid = m.mtid AND e2.cost + q2.{dist} = m.c \
             GROUP BY q2.qid, e2.tid, m.c"
        )
    }

    /// `(extra FROM item, extra WHERE terms)` for the Theorem-1 pruning
    /// join, or empty strings when pruning is off. The bounds are joined
    /// through a three-column projection so the per-candidate hash join
    /// carries (and copies) only what the pruning term reads.
    ///
    /// The effective pruning ceiling `wmc` is the minimum of the
    /// *discovered* `mincost` (overwritten from `TBVisited` every
    /// iteration) and the landmark-seeded `bound` (DESIGN.md §12), built
    /// with 0/1 comparison arithmetic: `a + (b < a) * (b - a)` is `b` when
    /// `b < a` and `a` otherwise. Termination and meet-node recovery keep
    /// reading `mincost` alone — the seeded bound is never claimed to be
    /// realized by a `TBVisited` row.
    fn pruning_clauses(&self) -> (String, String) {
        if !self.prune {
            return (String::new(), String::new());
        }
        let (dist, ..) = self.dir.cols();
        let (ol, _) = self.other_bounds_cols();
        (
            format!(
                ", (SELECT qid AS wqid, {ol} AS wl, \
                 mincost + (bound < mincost) * (bound - mincost) AS wmc FROM TBounds) w"
            ),
            format!(" AND w.wqid = q.qid AND e.cost + q.{dist} + w.wl < w.wmc"),
        )
    }

    /// The fused E+M statement: MERGE on the composite `(qid, nid)` key.
    /// Parameter-free.
    pub fn expand_merge(&self) -> String {
        let (dist, pred, flag, odist, opred, oflag) = self.dir.cols();
        let source = match self.style {
            SqlStyle::New => self.window_source(),
            SqlStyle::Traditional => self.aggregate_source(),
        };
        format!(
            "MERGE INTO TBVisited AS target USING ({source}) AS source (qid, nid, np, cost) \
             ON source.qid = target.qid AND source.nid = target.nid \
             WHEN MATCHED AND target.{dist} > source.cost THEN \
               UPDATE SET {dist} = source.cost, {pred} = source.np, {flag} = 0 \
             WHEN NOT MATCHED THEN \
               INSERT (qid, nid, {dist}, {pred}, {flag}, {odist}, {opred}, {oflag}) \
               VALUES (source.qid, source.nid, source.cost, source.np, 0, {INF}, {NO_NODE}, 0)"
        )
    }

    /// E-operator into `TBExp` (split-operator mode and the no-MERGE
    /// dialect path). Parameter-free.
    pub fn expand_into_exp(&self) -> String {
        let source = match self.style {
            SqlStyle::New => self.window_source(),
            SqlStyle::Traditional => self.aggregate_source(),
        };
        format!("INSERT INTO TBExp (qid, nid, p2s, cost) {source}")
    }

    /// M-operator from `TBExp` via MERGE.
    pub fn merge_from_exp(&self) -> String {
        let (dist, pred, flag, odist, opred, oflag) = self.dir.cols();
        format!(
            "MERGE INTO TBVisited AS target USING TBExp AS source \
             ON source.qid = target.qid AND source.nid = target.nid \
             WHEN MATCHED AND target.{dist} > source.cost THEN \
               UPDATE SET {dist} = source.cost, {pred} = source.p2s, {flag} = 0 \
             WHEN NOT MATCHED THEN \
               INSERT (qid, nid, {dist}, {pred}, {flag}, {odist}, {opred}, {oflag}) \
               VALUES (source.qid, source.nid, source.cost, source.p2s, 0, {INF}, {NO_NODE}, 0)"
        )
    }

    /// M-operator, update half (the traditional / PostgreSQL path).
    pub fn update_from_exp(&self) -> String {
        let (dist, pred, flag, ..) = self.dir.cols();
        format!(
            "UPDATE TBVisited SET {dist} = TBExp.cost, {pred} = TBExp.p2s, {flag} = 0 FROM TBExp \
             WHERE TBVisited.qid = TBExp.qid AND TBVisited.nid = TBExp.nid \
               AND TBVisited.{dist} > TBExp.cost"
        )
    }

    /// M-operator, insert half. The composite-key anti-join uses the
    /// single-value encoding `qid·n + nid` (as the SegTable build does for
    /// `(src, nid)`); params `[n, n]` where `n` is the node count.
    pub fn insert_from_exp(&self) -> String {
        let (dist, pred, flag, odist, opred, oflag) = self.dir.cols();
        format!(
            "INSERT INTO TBVisited (qid, nid, {dist}, {pred}, {flag}, {odist}, {opred}, {oflag}) \
             SELECT qid, nid, cost, p2s, 0, {INF}, {NO_NODE}, 0 FROM TBExp \
             WHERE qid * ? + nid NOT IN (SELECT qid * ? + nid FROM TBVisited \
             WHERE qid IS NOT NULL AND nid IS NOT NULL)"
        )
    }

    /// Flip every expanded frontier node to settled (the batched
    /// Listing 4(3)).
    pub fn reset_frontier(&self) -> String {
        let (_, _, flag, ..) = self.dir.cols();
        format!("UPDATE TBVisited SET {flag} = 1 WHERE {flag} = 2")
    }

    /// Statistics collection, step 1: default this direction's bounds to
    /// "exhausted" for every unfinished query (queries with no surviving
    /// candidates drop out of the GROUP BY refresh below).
    pub fn clear_stats(&self) -> String {
        let (l, n) = self.bounds_cols();
        format!("UPDATE TBounds SET {l} = {INF}, {n} = 0 WHERE done = 0")
    }

    /// Statistics collection, step 2: fold the per-qid minimal candidate
    /// distance and candidate count (the batched Listing 4(4)) into
    /// `TBounds` in one statement.
    pub fn refresh_stats(&self) -> String {
        let (dist, _, flag, ..) = self.dir.cols();
        let (l, n) = self.bounds_cols();
        format!(
            "UPDATE TBounds SET {l} = src.l, {n} = src.c \
             FROM (SELECT qid, MIN({dist}) AS l, COUNT(*) AS c FROM TBVisited \
                   WHERE {flag} = 0 AND {dist} < {INF} GROUP BY qid) src \
             WHERE TBounds.qid = src.qid AND TBounds.done = 0"
        )
    }

    /// Retire queries whose target node is settled in this direction — the
    /// batched Listing 3(1), used by the single-directional batch Dijkstra.
    pub fn mark_done_target_settled(&self) -> String {
        let (_, _, flag, ..) = self.dir.cols();
        format!(
            "UPDATE TBounds SET done = 1 FROM TBVisited \
             WHERE TBVisited.qid = TBounds.qid AND TBVisited.nid = TBounds.t \
               AND TBVisited.{flag} = 1 AND TBounds.done = 0"
        )
    }

    /// Retire queries whose frontier in this direction is exhausted (the
    /// target is unreachable for a single-directional search).
    pub fn mark_done_exhausted(&self) -> String {
        let (_, n) = self.bounds_cols();
        format!("UPDATE TBounds SET done = 1 WHERE done = 0 AND {n} <= 0")
    }

    /// Distance of a node in this direction for one query; params
    /// `[qid, nid]`.
    pub fn dist_of(&self) -> String {
        let (dist, ..) = self.dir.cols();
        format!("SELECT {dist} FROM TBVisited WHERE qid = ? AND nid = ?")
    }

    /// Predecessor (or successor) of a node for one query; params
    /// `[qid, nid]`.
    pub fn pred_of(&self) -> String {
        let (_, pred, ..) = self.dir.cols();
        format!("SELECT {pred} FROM TBVisited WHERE qid = ? AND nid = ?")
    }

    /// Stable corpus prefix for this generator configuration.
    fn tag(&self) -> String {
        let d = match self.dir {
            Dir::Fwd => "fwd",
            Dir::Bwd => "bwd",
        };
        let s = match self.style {
            SqlStyle::New => "nsql",
            SqlStyle::Traditional => "tsql",
        };
        let e = match self.edges {
            EdgeSource::Edges => "edges",
            EdgeSource::SegTable => "seg",
        };
        let p = if self.prune { "prune" } else { "noprune" };
        format!("batch/{d}/{e}/{s}/{p}")
    }

    /// Every statement this batch generator can emit, annotated for the
    /// static analyzer. MERGE statements only when `merge_supported`.
    ///
    /// Unlike the single-query generator, the batched *expansions* stay
    /// cold: their frontier predicate is `flag = 2` over the whole batch,
    /// an intentional scan of `TBVisited` (that one scan advancing every
    /// in-flight query is the point of batching). The M-operator halves
    /// and the per-(qid, nid) probes are hot — they must go through the
    /// composite `(qid, nid)` index.
    pub fn annotated_corpus(&self, merge_supported: bool) -> Vec<AnnotatedSql> {
        let t = self.tag();
        let mut out = vec![
            AnnotatedSql::cold(
                format!("{t}/mark_frontier/min"),
                self.mark_frontier(BatchFrontier::PerQueryMin, false),
            ),
            AnnotatedSql::cold(
                format!("{t}/mark_frontier/min_alt"),
                self.mark_frontier(BatchFrontier::PerQueryMin, true),
            ),
            AnnotatedSql::cold(
                format!("{t}/mark_frontier/all"),
                self.mark_frontier(BatchFrontier::All, false),
            ),
            AnnotatedSql::cold(
                format!("{t}/mark_frontier/all_alt"),
                self.mark_frontier(BatchFrontier::All, true),
            ),
            AnnotatedSql::cold(format!("{t}/expand_into_exp"), self.expand_into_exp()),
            AnnotatedSql::hot(format!("{t}/update_from_exp"), self.update_from_exp()),
            AnnotatedSql::hot(format!("{t}/insert_from_exp"), self.insert_from_exp()),
            AnnotatedSql::cold(format!("{t}/reset_frontier"), self.reset_frontier()),
            AnnotatedSql::cold(format!("{t}/clear_stats"), self.clear_stats()),
            AnnotatedSql::cold(format!("{t}/refresh_stats"), self.refresh_stats()),
            AnnotatedSql::cold(
                format!("{t}/mark_done_target_settled"),
                self.mark_done_target_settled(),
            ),
            AnnotatedSql::cold(
                format!("{t}/mark_done_exhausted"),
                self.mark_done_exhausted(),
            ),
            AnnotatedSql::hot(format!("{t}/dist_of"), self.dist_of()),
            AnnotatedSql::hot(format!("{t}/pred_of"), self.pred_of()),
        ];
        if merge_supported {
            out.push(AnnotatedSql::cold(
                format!("{t}/expand_merge"),
                self.expand_merge(),
            ));
            out.push(AnnotatedSql::hot(
                format!("{t}/merge_from_exp"),
                self.merge_from_exp(),
            ));
        }
        out
    }
}

/// The free-function statements of the batch driver (plus the single-query
/// temp-table helpers), annotated for the static analyzer. Statements
/// referencing `TLandmarks` are included only when `has_landmarks`.
pub fn free_statement_corpus(has_landmarks: bool) -> Vec<AnnotatedSql> {
    let live = [(0i64, 0i64, 0i64), (1, 0, 0)];
    let mut out = vec![
        AnnotatedSql::cold("batch/init_fwd", BatchSqlGen::init_batch(Dir::Fwd, &live)),
        AnnotatedSql::cold("batch/init_bwd", BatchSqlGen::init_batch(Dir::Bwd, &live)),
        AnnotatedSql::cold(
            "batch/init_bounds/bidi",
            BatchSqlGen::init_bounds_batch(&live, true),
        ),
        AnnotatedSql::cold(
            "batch/init_bounds/single",
            BatchSqlGen::init_bounds_batch(&live, false),
        ),
        AnnotatedSql::cold("batch/reset_both", batch_reset_both()),
        AnnotatedSql::cold("batch/fused_stats", batch_fused_stats()),
        AnnotatedSql::cold("batch/mark_done_drained", batch_mark_done_drained()),
        AnnotatedSql::cold("batch/mark_done_met", batch_mark_done_met()),
        AnnotatedSql::cold("batch/read_done_bounds", batch_read_done_bounds()),
        AnnotatedSql::cold("batch/delete_done_visited", batch_delete_done_visited()),
        AnnotatedSql::cold("batch/delete_done_bounds", batch_delete_done_bounds()),
        AnnotatedSql::hot("batch/meet_node", batch_meet_node()),
        AnnotatedSql::cold("batch/truncate_exp", truncate_batch_exp()),
        AnnotatedSql::cold("single/meet_node", meet_node()),
        AnnotatedSql::cold("single/truncate_exp", truncate_exp()),
    ];
    if has_landmarks {
        out.push(AnnotatedSql::cold("batch/seed_bounds", seed_bounds_batch()));
    }
    out
}

/// Seeds every in-flight query's landmark pruning bound in one statement
/// (DESIGN.md §12): per qid, the triangle-inequality upper bound
/// `U = min over lm of d(s, lm) + d(lm, t)` from `TLandmarks`, stored as
/// `U + 1` so the strict `<` of the Theorem-1 term keeps relaxations of
/// cost exactly `U` (the optimal path itself when the bound is tight).
/// Queries with no common landmark drop out of the GROUP BY and keep
/// `bound` = [`INF`]. Parameter-free; run once right after
/// [`BatchSqlGen::init_bounds_batch`].
pub fn seed_bounds_batch() -> String {
    "UPDATE TBounds SET bound = src.u + 1 \
     FROM (SELECT q.qid AS sqid, MIN(a.d + b.d) AS u \
           FROM TBounds q, TLandmarks a, TLandmarks b \
           WHERE a.nid = q.s AND b.nid = q.t AND a.lm = b.lm \
           GROUP BY q.qid) src \
     WHERE TBounds.qid = src.sqid"
        .to_string()
}

/// The fused Listing 4(3) of bidirectional batches: settle both directions'
/// expanded frontiers in one scan, exploiting 0/1 comparisons
/// (`flag - (flag = 2)` maps 2 → 1 and leaves 0 and 1 alone).
pub fn batch_reset_both() -> &'static str {
    "UPDATE TBVisited SET f = f - (f = 2), b = b - (b = 2) WHERE f = 2 OR b = 2"
}

/// The fused statistics statement of the [`BatchFrontier::All`] mode: one
/// scan of `TBVisited` folds, per qid, the current `minCost`, the count of
/// still-dirty rows (candidates in either direction), and both directions'
/// minimal dirty distances into `TBounds`. The flag indicators exploit
/// comparisons evaluating to 0/1: `dist + (flag <> 0) * INF` pushes settled
/// rows beyond [`INF`] so the `MIN` only sees dirty ones. The dirty count
/// lands in `nf` (`nb` is unused in this mode).
pub fn batch_fused_stats() -> String {
    format!(
        "UPDATE TBounds SET mincost = src.mc, nf = src.df, nb = src.db, \
                            lf = src.l, lb = src.ol \
         FROM (SELECT qid, MIN(d2s + d2t) AS mc, \
                      SUM(f = 0 AND d2s < {INF}) AS df, \
                      SUM(b = 0 AND d2t < {INF}) AS db, \
                      MIN(d2s + (f <> 0) * {INF}) AS l, \
                      MIN(d2t + (b <> 0) * {INF}) AS ol \
               FROM TBVisited GROUP BY qid) src \
         WHERE TBounds.qid = src.qid AND TBounds.done = 0"
    )
}

/// Drain termination for the [`BatchFrontier::All`] mode: a query with no
/// dirty rows left in either direction has fully propagated every
/// relaxation — its `minCost` is final.
pub fn batch_mark_done_drained() -> &'static str {
    "UPDATE TBounds SET done = 1 WHERE done = 0 AND nf <= 0 AND nb <= 0"
}

/// Bidirectional termination (§4.1), per qid: `minCost` is final once
/// `minCost <= lf + lb`. Exhausted directions hold `lf`/`lb` = [`INF`], so
/// this also retires queries with nothing left to expand.
pub fn batch_mark_done_met() -> String {
    "UPDATE TBounds SET done = 1 WHERE done = 0 AND mincost <= lf + lb".to_string()
}

/// Bounds of the queries retired this iteration, read before their rows
/// are deleted.
pub fn batch_read_done_bounds() -> &'static str {
    "SELECT qid, mincost FROM TBounds WHERE done = 1"
}

/// Drop retired queries' visited rows so later iterations only scan live
/// queries — the key to batch throughput on heterogeneous batches.
pub fn batch_delete_done_visited() -> &'static str {
    "DELETE FROM TBVisited WHERE qid IN (SELECT qid FROM TBounds WHERE done = 1)"
}

/// Drop retired queries' bounds rows.
pub fn batch_delete_done_bounds() -> &'static str {
    "DELETE FROM TBounds WHERE done = 1"
}

/// The batched Listing 4(6): a node on one query's best path; params
/// `[qid, minCost]`.
pub fn batch_meet_node() -> &'static str {
    "SELECT TOP 1 nid FROM TBVisited WHERE qid = ? AND d2s + d2t = ?"
}

/// Clears the batched expansion temp table.
pub fn truncate_batch_exp() -> &'static str {
    "TRUNCATE TABLE TBExp"
}

/// Listing 4(6): a node on the currently-best path; params `[minCost]`.
pub fn meet_node() -> &'static str {
    "SELECT TOP 1 nid FROM TVisited WHERE d2s + d2t = ?"
}

/// Clears the expansion temp table.
pub fn truncate_exp() -> &'static str {
    "TRUNCATE TABLE TExp"
}

#[cfg(test)]
mod tests {
    use super::*;
    use fempath_sql::parse_statement;

    fn all_gens() -> Vec<SqlGen> {
        let mut out = Vec::new();
        for dir in [Dir::Fwd, Dir::Bwd] {
            for edges in [EdgeSource::Edges, EdgeSource::SegTable] {
                for style in [SqlStyle::New, SqlStyle::Traditional] {
                    out.push(SqlGen::new(dir, edges, style));
                }
            }
        }
        out
    }

    #[test]
    fn every_generated_statement_parses() {
        for g in all_gens() {
            for sql in [
                g.select_mid(),
                g.select_mid_at(),
                g.min_candidate(),
                g.candidate_stats(),
                g.mark_by_dist(),
                g.mark_all(),
                g.mark_threshold(),
                g.reset_frontier(),
                g.settle_by_nid(),
                g.expand_merge(FrontierPred::Marked),
                g.expand_merge(FrontierPred::ByNid),
                g.expand_into_exp(FrontierPred::Marked),
                g.expand_into_exp(FrontierPred::ByNid),
                g.merge_from_exp(),
                g.update_from_exp(),
                g.insert_from_exp(),
                g.pred_of(),
                g.dist_of(),
                g.settled(),
            ] {
                parse_statement(&sql).unwrap_or_else(|e| panic!("{sql}\n-> {e}"));
            }
        }
        for sql in [
            SqlGen::init(Dir::Fwd),
            SqlGen::init(Dir::Bwd),
            meet_node().to_string(),
            truncate_exp().to_string(),
        ] {
            parse_statement(&sql).unwrap_or_else(|e| panic!("{sql}\n-> {e}"));
        }
    }

    fn all_batch_gens() -> Vec<BatchSqlGen> {
        let mut out = Vec::new();
        for dir in [Dir::Fwd, Dir::Bwd] {
            for style in [SqlStyle::New, SqlStyle::Traditional] {
                for prune in [false, true] {
                    out.push(BatchSqlGen::new(dir, EdgeSource::Edges, style, prune));
                }
            }
        }
        out
    }

    #[test]
    fn every_batch_statement_parses() {
        for g in all_batch_gens() {
            for sql in [
                g.mark_frontier(BatchFrontier::PerQueryMin, false),
                g.mark_frontier(BatchFrontier::PerQueryMin, true),
                g.mark_frontier(BatchFrontier::All, false),
                g.mark_frontier(BatchFrontier::All, true),
                g.expand_merge(),
                g.expand_into_exp(),
                g.merge_from_exp(),
                g.update_from_exp(),
                g.insert_from_exp(),
                g.reset_frontier(),
                g.clear_stats(),
                g.refresh_stats(),
                g.mark_done_target_settled(),
                g.mark_done_exhausted(),
                g.dist_of(),
                g.pred_of(),
            ] {
                parse_statement(&sql).unwrap_or_else(|e| panic!("{sql}\n-> {e}"));
            }
        }
        let live = [(0i64, 1i64, 2i64), (1, 3, 4)];
        for sql in [
            BatchSqlGen::init_batch(Dir::Fwd, &live),
            BatchSqlGen::init_batch(Dir::Bwd, &live),
            BatchSqlGen::init_bounds_batch(&live, true),
            BatchSqlGen::init_bounds_batch(&live, false),
            seed_bounds_batch(),
            batch_fused_stats(),
            batch_mark_done_met(),
            batch_mark_done_drained().to_string(),
            batch_reset_both().to_string(),
            batch_read_done_bounds().to_string(),
            batch_delete_done_visited().to_string(),
            batch_delete_done_bounds().to_string(),
            batch_meet_node().to_string(),
            truncate_batch_exp().to_string(),
        ] {
            parse_statement(&sql).unwrap_or_else(|e| panic!("{sql}\n-> {e}"));
        }
    }

    #[test]
    fn batch_pruning_is_structural() {
        let pruned = BatchSqlGen::new(Dir::Fwd, EdgeSource::Edges, SqlStyle::New, true);
        assert!(pruned.expand_merge().contains("w.wmc"));
        assert!(pruned.expand_merge().contains("lb AS wl"));
        // The ceiling is min(mincost, bound) via 0/1 comparison arithmetic,
        // so the landmark-seeded bound prunes even before any meet.
        assert!(pruned
            .expand_merge()
            .contains("mincost + (bound < mincost) * (bound - mincost) AS wmc"));
        let unpruned = BatchSqlGen::new(Dir::Fwd, EdgeSource::Edges, SqlStyle::New, false);
        assert!(!unpruned.expand_merge().contains("TBounds"));
        let bwd = BatchSqlGen::new(Dir::Bwd, EdgeSource::Edges, SqlStyle::New, true);
        assert!(bwd.expand_merge().contains("lf AS wl"));
        assert!(bwd.expand_merge().contains("d2t = source.cost"));
    }

    #[test]
    fn batch_frontier_directions_are_complementary() {
        let f = BatchSqlGen::new(Dir::Fwd, EdgeSource::Edges, SqlStyle::New, true);
        let b = BatchSqlGen::new(Dir::Bwd, EdgeSource::Edges, SqlStyle::New, true);
        // Forward wins ties (nf <= nb); backward takes strictly-smaller only.
        let fmin = f.mark_frontier(BatchFrontier::PerQueryMin, true);
        let bmin = b.mark_frontier(BatchFrontier::PerQueryMin, true);
        assert!(fmin.contains("TBounds.nf <= TBounds.nb"));
        assert!(bmin.contains("TBounds.nb < TBounds.nf"));
        assert!(fmin.contains("TBVisited.d2s = TBounds.lf"));
        // The BFS-style frontier marks every candidate (no minimal-distance
        // term); without alternation it needs no bounds join at all.
        let fall = f.mark_frontier(BatchFrontier::All, true);
        assert!(!fall.contains("TBVisited.d2s = TBounds.lf"));
        assert!(fall.contains("TBVisited.d2s <"));
        assert!(!f
            .mark_frontier(BatchFrontier::All, false)
            .contains("TBounds"));
        // Single-directional mode drops the alternation term entirely.
        assert!(!f
            .mark_frontier(BatchFrontier::PerQueryMin, false)
            .contains("TBounds.nb"));
    }

    #[test]
    fn backward_statements_use_backward_columns() {
        let g = SqlGen::new(Dir::Bwd, EdgeSource::Edges, SqlStyle::New);
        let m = g.expand_merge(FrontierPred::Marked);
        assert!(m.contains("d2t = source.cost"));
        assert!(m.contains("p2t = source.np"));
        assert!(m.contains("b = 0"));
        assert!(g.min_candidate().contains("MIN(d2t)"));
    }

    #[test]
    fn segtable_statements_use_seg_tables_and_pid() {
        let f = SqlGen::new(Dir::Fwd, EdgeSource::SegTable, SqlStyle::New);
        assert!(f.expand_merge(FrontierPred::Marked).contains("TOutSegs"));
        assert!(f.expand_merge(FrontierPred::Marked).contains("e.pid"));
        let b = SqlGen::new(Dir::Bwd, EdgeSource::SegTable, SqlStyle::New);
        assert!(b.expand_merge(FrontierPred::Marked).contains("TInSegs"));
    }

    #[test]
    fn traditional_style_avoids_window_functions() {
        let g = SqlGen::new(Dir::Fwd, EdgeSource::Edges, SqlStyle::Traditional);
        let m = g.expand_merge(FrontierPred::Marked);
        assert!(!m.contains("ROW_NUMBER"));
        assert!(m.to_uppercase().contains("GROUP BY"));
        let n = SqlGen::new(Dir::Fwd, EdgeSource::Edges, SqlStyle::New);
        assert!(n.expand_merge(FrontierPred::Marked).contains("ROW_NUMBER"));
    }
}
