//! SQL statement generation — the paper's Listings 2–4, parameterized.
//!
//! Three orthogonal axes:
//!
//! * **direction** ([`Dir`]): forward statements use `(d2s, p2s, f)`,
//!   backward ones `(d2t, p2t, b)`. Graphs are stored symmetrically (see
//!   DESIGN.md §4), so both directions join the edge relation on `fid`.
//! * **edge source** ([`EdgeSource`]): the raw `TEdges` table or the
//!   SegTable (`TOutSegs`, whose `pid` column carries the predecessor
//!   within the pre-computed segment — §4.2).
//! * **style** ([`SqlStyle`]): NSQL (window function + MERGE) vs TSQL
//!   (aggregate-join + UPDATE/INSERT), plus the no-MERGE fallback forced by
//!   the PostgreSQL dialect (§5.2).
//!
//! Which statements run one expansion's E and M operators — one fused
//! MERGE, or E into `TExp` followed by a MERGE or an UPDATE + INSERT — is
//! decided in one place, [`EmMode::choose`], for every shortest-path
//! search: the finders, single-source search and the SegTable build.
//!
//! Every expansion statement carries the bidirectional pruning term of
//! Theorem 1 — `e.cost + q.dist + ? < ?` with parameters `(l_other,
//! minCost)`; passing `(0, INF)` disables pruning.

use crate::graphdb::{INF, NO_NODE};
use crate::stats::{FemOperator, SqlStyle};

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
    /// femcheck analyzes the statement with `AnalyzeOptions { hot_path:
    /// true }`, so a full scan of an indexed table fails it (FC201).
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
    /// The SegTable, `TOutSegs` — read in both directions, like `TEdges`.
    SegTable,
}

impl EdgeSource {
    fn table(self) -> &'static str {
        match self {
            EdgeSource::Edges => "TEdges",
            EdgeSource::SegTable => "TOutSegs",
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

/// How one expansion runs its E and M operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmMode {
    /// One MERGE with the E-operator inline (Listing 4(2)).
    Fused,
    /// E-operator into `TExp`, then the M-operator as a MERGE from it —
    /// the Fig 6(c) per-operator measurement mode.
    SplitMerge,
    /// E-operator into `TExp`, then the M-operator as UPDATE … FROM plus an
    /// INSERT of the rest: TSQL, and every search on a dialect without
    /// MERGE.
    SplitUpdateInsert,
}

impl EmMode {
    /// The one E/M decision. TSQL and a dialect without MERGE both mean no
    /// MERGE at all (§3.3, §5.2); otherwise the E-operator is fused into
    /// the MERGE unless the caller asked for separately timed operators.
    pub fn choose(style: SqlStyle, merge_supported: bool, split_operators: bool) -> EmMode {
        if style == SqlStyle::Traditional || !merge_supported {
            EmMode::SplitUpdateInsert
        } else if split_operators {
            EmMode::SplitMerge
        } else {
            EmMode::Fused
        }
    }

    /// True when the M-operator is a MERGE.
    pub fn uses_merge(self) -> bool {
        self != EmMode::SplitUpdateInsert
    }
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
        let et = self.edges.table();
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
        let et = self.edges.table();
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

    /// This generator's E-operator source: the window function (NSQL) or
    /// the aggregate-join (TSQL).
    fn e_source(&self, frontier: FrontierPred) -> String {
        match self.style {
            SqlStyle::New => self.window_source(frontier),
            SqlStyle::Traditional => self.aggregate_source(frontier),
        }
    }

    fn frontier_pred(&self, frontier: FrontierPred) -> String {
        let (_, _, flag, ..) = self.dir.cols();
        match frontier {
            FrontierPred::ByNid => "q.nid = ?".to_string(),
            FrontierPred::Marked => format!("q.{flag} = 2"),
        }
    }

    /// The fused E+M statement (Listing 4(2)): MERGE with the E-operator
    /// inline ([`EmMode::Fused`]). Params: [`expand_params`].
    pub fn expand_merge(&self, frontier: FrontierPred) -> String {
        let (dist, pred, flag, odist, opred, oflag) = self.dir.cols();
        let source = self.e_source(frontier);
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

    /// E-operator into the `TExp` temp table (both split modes). Same
    /// parameters as [`SqlGen::expand_merge`].
    pub fn expand_into_exp(&self, frontier: FrontierPred) -> String {
        format!(
            "INSERT INTO TExp (nid, p2s, cost) {}",
            self.e_source(frontier)
        )
    }

    /// M-operator from `TExp` via MERGE ([`EmMode::SplitMerge`]).
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

    /// M-operator, update half ([`EmMode::SplitUpdateInsert`]).
    pub fn update_from_exp(&self) -> String {
        let (dist, pred, flag, ..) = self.dir.cols();
        format!(
            "UPDATE TVisited SET {dist} = TExp.cost, {pred} = TExp.p2s, {flag} = 0 FROM TExp \
             WHERE TVisited.nid = TExp.nid AND TVisited.{dist} > TExp.cost"
        )
    }

    /// M-operator, insert half ([`EmMode::SplitUpdateInsert`]).
    pub fn insert_from_exp(&self) -> String {
        let (dist, pred, flag, odist, opred, oflag) = self.dir.cols();
        format!(
            "INSERT INTO TVisited (nid, {dist}, {pred}, {flag}, {odist}, {opred}, {oflag}) \
             SELECT nid, cost, p2s, 0, {INF}, {NO_NODE}, 0 FROM TExp \
             WHERE nid NOT IN (SELECT nid FROM TVisited WHERE nid IS NOT NULL)"
        )
    }

    /// One expansion's E and M statements under `mode`, in execution order,
    /// each with the operator it is timed as. Only the E-operator statement
    /// takes parameters ([`expand_params`]); the split modes open with the
    /// `TExp` truncate.
    pub fn expansion(&self, frontier: FrontierPred, mode: EmMode) -> Vec<(FemOperator, String)> {
        if mode == EmMode::Fused {
            return vec![(FemOperator::E, self.expand_merge(frontier))];
        }
        let mut out = vec![
            (FemOperator::Aux, truncate_exp().to_string()),
            (FemOperator::E, self.expand_into_exp(frontier)),
        ];
        if mode.uses_merge() {
            out.push((FemOperator::M, self.merge_from_exp()));
        } else {
            out.push((FemOperator::M, self.update_from_exp()));
            out.push((FemOperator::M, self.insert_from_exp()));
        }
        out
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
    /// [`EmMode::choose`] can pick one for this style and dialect
    /// (`merge_supported`): the corpus holds what the searches can run.
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
        if EmMode::choose(self.style, merge_supported, false).uses_merge() {
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
    let mut p = Vec::with_capacity(4);
    expand_params_into(&mut p, style, frontier, nid, l_other, min_cost)?;
    Ok(p)
}

/// [`expand_params`] into `out` (cleared first), so a search loop reuses
/// one parameter buffer across its expansions.
pub fn expand_params_into(
    out: &mut Vec<fempath_storage::Value>,
    style: SqlStyle,
    frontier: FrontierPred,
    nid: Option<i64>,
    l_other: i64,
    min_cost: i64,
) -> fempath_sql::Result<()> {
    use fempath_storage::Value;
    let node =
        || nid.ok_or_else(|| fempath_sql::SqlError::Eval("ByNid frontier needs a node id".into()));
    out.clear();
    if frontier == FrontierPred::ByNid {
        out.push(Value::Int(node()?));
    }
    out.push(Value::Int(l_other));
    out.push(Value::Int(min_cost));
    if style == SqlStyle::Traditional && frontier == FrontierPred::ByNid {
        out.push(Value::Int(node()?));
    }
    Ok(())
}

/// The free-function statements of the bidirectional finders, annotated
/// for the static analyzer.
pub fn free_statement_corpus() -> Vec<AnnotatedSql> {
    vec![
        AnnotatedSql::cold("single/meet_node", meet_node()),
        AnnotatedSql::cold("single/expanded_rows", expanded_rows()),
        AnnotatedSql::cold("single/truncate_exp", truncate_exp()),
    ]
}

/// Listing 4(6): a node on the currently-best path; params `[minCost]`.
pub fn meet_node() -> &'static str {
    "SELECT TOP 1 nid FROM TVisited WHERE d2s + d2t = ?"
}

/// The rows a finished bidirectional search expanded, forward below one
/// distance or backward below another: what a
/// [`crate::Certificate`] lists. Params `[forward floor, backward floor]`.
pub fn expanded_rows() -> &'static str {
    "SELECT nid, d2s, d2t, f, b FROM TVisited WHERE (f = 1 AND d2s < ?) OR (b = 1 AND d2t < ?)"
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
        // Both directions read the one SegTable, as both read `TEdges`.
        for dir in [Dir::Fwd, Dir::Bwd] {
            let g = SqlGen::new(dir, EdgeSource::SegTable, SqlStyle::New);
            let m = g.expand_merge(FrontierPred::Marked);
            assert!(m.contains("TOutSegs e") && m.contains("e.pid"), "{m}");
        }
    }

    #[test]
    fn traditional_style_avoids_window_functions() {
        let g = SqlGen::new(Dir::Fwd, EdgeSource::Edges, SqlStyle::Traditional);
        let m = g.expand_into_exp(FrontierPred::Marked);
        assert!(!m.contains("ROW_NUMBER"));
        assert!(m.to_uppercase().contains("GROUP BY"));
        let n = SqlGen::new(Dir::Fwd, EdgeSource::Edges, SqlStyle::New);
        assert!(n.expand_merge(FrontierPred::Marked).contains("ROW_NUMBER"));
    }

    #[test]
    fn one_em_decision_for_every_style_and_dialect() {
        use EmMode::*;
        use SqlStyle::*;
        // (style, merge supported, split operators) -> mode
        let table = [
            ((New, true, false), Fused),
            ((New, true, true), SplitMerge),
            ((New, false, false), SplitUpdateInsert),
            ((New, false, true), SplitUpdateInsert),
            ((Traditional, true, false), SplitUpdateInsert),
            ((Traditional, true, true), SplitUpdateInsert),
            ((Traditional, false, false), SplitUpdateInsert),
            ((Traditional, false, true), SplitUpdateInsert),
        ];
        for ((style, merge, split), want) in table {
            assert_eq!(
                EmMode::choose(style, merge, split),
                want,
                "{style:?} {merge} {split}"
            );
        }
        // The statements follow the mode: TSQL issues no MERGE, and only
        // the E-operator statement is parameterized.
        for (style, mode, ops) in [
            (New, Fused, "E"),
            (New, SplitMerge, "Aux E M"),
            (Traditional, SplitUpdateInsert, "Aux E M M"),
        ] {
            let g = SqlGen::new(Dir::Bwd, EdgeSource::Edges, style);
            let stmts = g.expansion(FrontierPred::Marked, mode);
            let got: Vec<String> = stmts.iter().map(|(op, _)| format!("{op:?}")).collect();
            assert_eq!(got.join(" "), ops, "{mode:?}");
            for (op, sql) in &stmts {
                assert_eq!(sql.contains('?'), *op == FemOperator::E, "{sql}");
            }
            let merges = stmts.iter().filter(|(_, sql)| sql.starts_with("MERGE"));
            assert_eq!(merges.count(), usize::from(mode.uses_merge()), "{mode:?}");
        }
    }
}
