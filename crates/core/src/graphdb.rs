//! [`GraphDb`]: a relational database instance holding one graph.
//!
//! Owns the `fempath_sql::Database`, loads `TNodes`/`TEdges` with the
//! configured index strategy, and manages the per-query working tables
//! (`TVisited`, `TExp`) and the SegTable index (`TOutSegs`).

use crate::algo::SearchLimits;
use crate::landmarks::{LandmarkSelection, LandmarkStats};
use crate::segtable::SegTableStats;
use crate::sqlgen::EmMode;
use crate::stats::SqlStyle;
use fempath_graph::{load_graph, load_graph_bulk, BulkLoadOptions, Graph, IndexKind, LoadOptions};
use fempath_sql::{Catalog, Database, DbSnapshot, Dialect, Result, SqlError};

/// The "infinity" distance constant (the paper's `Max` in Listing 4(2)).
/// Large enough that `INF + any path length` never overflows `i64`.
pub const INF: i64 = 4_000_000_000_000_000;

/// Sentinel for "no predecessor/successor".
pub const NO_NODE: i64 = -1;

/// Row-tier edge insert template ([`GraphDb::insert_edge`]). Module-level
/// const so the femcheck corpus ([`GraphDb::for_each_corpus_statement`])
/// holds exactly the statement the mutation path executes.
pub(crate) const INSERT_EDGE_SQL: &str = "INSERT INTO TEdges (fid, tid, cost) VALUES (?, ?, ?)";

/// Row-tier edge delete template ([`GraphDb::delete_edge`]): removes every
/// parallel `(fid, tid)` edge in one direction.
pub(crate) const DELETE_EDGE_SQL: &str = "DELETE FROM TEdges WHERE fid = ? AND tid = ?";

/// Configuration for a [`GraphDb`]. The default serves: an in-memory
/// pool and segmented `TEdges` ([`GraphDbOptions::segmented_edges`]).
#[derive(Debug, Clone)]
pub struct GraphDbOptions {
    /// Buffer-pool capacity in 8 KiB pages.
    pub buffer_pages: usize,
    /// Store pages in a temporary file (disk-resident, the experiments'
    /// default) or in memory.
    pub on_disk: bool,
    /// SQL dialect (DBMS-x or PostgreSQL).
    pub dialect: Dialect,
    /// Index strategy for the row tier's `TEdges(fid)` (and SegTable) —
    /// Fig 8(c). The segmented tier takes only `Clustered`, the default:
    /// its segment tree is the fid access path, so [`GraphDb::new`]
    /// refuses `NoIndex` and `Secondary` there.
    pub edges_index: IndexKind,
    /// Index strategy for `TVisited(nid)` — Fig 8(c).
    pub visited_index: IndexKind,
    /// Load `TNodes`/`TEdges` through the bottom-up bulk loaders instead of
    /// per-row SQL INSERT (DESIGN.md §14). Same catalog end-state, so plans
    /// and query results are identical; only the build path changes.
    pub bulk_load: bool,
    /// Store `TEdges` as delta-compressed adjacency segments instead of
    /// heap/clustered rows (DESIGN.md §14) — the default, and the tier
    /// that serves. Implies `bulk_load` (segments can only be bulk-built)
    /// and makes `TEdges` read-only to SQL (edge mutations go through
    /// [`GraphDb::insert_edge`] / [`GraphDb::delete_edge`]). The SegTable
    /// lives in its edge table's storage: [`GraphDb::build_segtable`]
    /// stores `TOutSegs` as segments too. `false` selects the row tier,
    /// which exists for Fig 8's index ablation and for row-tier SQL.
    pub segmented_edges: bool,
}

impl Default for GraphDbOptions {
    fn default() -> Self {
        GraphDbOptions {
            buffer_pages: 4096, // 32 MiB
            on_disk: false,
            dialect: Dialect::DBMS_X,
            edges_index: IndexKind::Clustered,
            visited_index: IndexKind::Secondary,
            bulk_load: false,
            segmented_edges: true,
        }
    }
}

/// Info about a built SegTable.
#[derive(Debug, Clone, Copy)]
pub struct SegTableInfo {
    /// Index threshold `lthd` (§4.2).
    pub lthd: i64,
    /// Number of rows in `TOutSegs` (the paper's "encoding number").
    pub segments: u64,
}

/// Info about a built landmark distance index (DESIGN.md §12).
#[derive(Debug, Clone, Copy)]
pub struct LandmarkInfo {
    /// Number of landmarks whose trees are stored.
    pub k: usize,
    /// `(lm, nid)` rows in `TLandmarks`.
    pub pairs: u64,
}

/// A relational database with one graph loaded.
pub struct GraphDb {
    pub db: Database,
    num_nodes: usize,
    num_arcs: usize,
    min_weight: u32,
    visited_index: IndexKind,
    edges_index: IndexKind,
    segtable: Option<SegTableInfo>,
    landmarks: Option<LandmarkInfo>,
    /// A landmark index disabled by an edge mutation (stale bounds would
    /// break admissibility — DESIGN.md §16). Remembered so
    /// [`GraphDb::rebuild_landmarks`] knows the previous `k`.
    stale_landmarks: Option<LandmarkInfo>,
    /// What stops this session's searches short of an answer.
    limits: SearchLimits,
    /// Whether BDJ and BSDJ return a [`crate::Certificate`].
    certificates: bool,
}

impl GraphDb {
    /// Builds a database with `opts` and loads `graph`. Errors with
    /// [`SqlError::Catalog`] when `opts` asks for segmented edges under a
    /// row-tier `edges_index` (`NoIndex` or `Secondary`), which the
    /// segment tree could not honour.
    pub fn new(graph: &Graph, opts: &GraphDbOptions) -> Result<GraphDb> {
        if opts.segmented_edges && opts.edges_index != IndexKind::Clustered {
            return Err(SqlError::Catalog(format!(
                "edges_index {:?} needs the row tier (segmented_edges: false); \
                 segmented TEdges is keyed on fid by its segment tree",
                opts.edges_index
            )));
        }
        let db = if opts.on_disk {
            Database::on_temp_file(opts.buffer_pages)?
        } else {
            Database::in_memory(opts.buffer_pages)
        };
        let mut db = db.with_dialect(opts.dialect);
        if opts.bulk_load || opts.segmented_edges {
            load_graph_bulk(
                &mut db,
                graph,
                &BulkLoadOptions {
                    edges_index: opts.edges_index,
                    with_nodes: true,
                    segmented: opts.segmented_edges,
                },
            )?;
        } else {
            load_graph(
                &mut db,
                graph,
                &LoadOptions {
                    edges_index: opts.edges_index,
                    with_nodes: true,
                    batch_size: 256,
                },
            )?;
        }
        Ok(GraphDb {
            db,
            num_nodes: graph.num_nodes(),
            num_arcs: graph.num_arcs(),
            min_weight: graph.min_weight(),
            visited_index: opts.visited_index,
            edges_index: opts.edges_index,
            segtable: None,
            landmarks: None,
            stale_landmarks: None,
            limits: SearchLimits::default(),
            certificates: false,
        })
    }

    /// Sets the deadline and cancel flag of this session's searches, up
    /// to the next call; [`SearchLimits::default`] lifts them.
    pub fn set_limits(&mut self, limits: SearchLimits) {
        self.limits = limits;
    }

    /// The deadline and cancel flag this session's searches run under.
    pub(crate) fn limits(&self) -> &SearchLimits {
        &self.limits
    }

    /// Whether BDJ and BSDJ searches on this session return a
    /// [`crate::Certificate`] in [`crate::PathOutcome::certificate`]:
    /// one more statement per search, a scan of `TVisited` after it
    /// terminates. Off by default; [`crate::PathService`] turns it on
    /// for its workers when its result cache is on.
    pub(crate) fn set_certificates(&mut self, on: bool) {
        self.certificates = on;
    }

    /// Whether this session's searches return certificates.
    pub(crate) fn certificates(&self) -> bool {
        self.certificates
    }

    /// In-memory database with default options: segmented `TEdges`.
    pub fn in_memory(graph: &Graph) -> Result<GraphDb> {
        GraphDb::new(graph, &GraphDbOptions::default())
    }

    /// Disk-resident database with the given buffer budget and otherwise
    /// default options: segmented `TEdges`.
    pub fn on_temp_file(graph: &Graph, buffer_pages: usize) -> Result<GraphDb> {
        GraphDb::new(
            graph,
            &GraphDbOptions {
                buffer_pages,
                on_disk: true,
                ..Default::default()
            },
        )
    }

    /// Number of nodes in the loaded graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed arcs in the loaded graph.
    pub fn num_arcs(&self) -> usize {
        self.num_arcs
    }

    /// Minimal edge weight `w_min` (bounds in Theorems 2/3).
    pub fn min_weight(&self) -> u32 {
        self.min_weight
    }

    /// Index strategy used for `TEdges` / SegTable.
    pub fn edges_index(&self) -> IndexKind {
        self.edges_index
    }

    /// The SegTable built for this database, if any — `None` again after
    /// an edge mutation until [`GraphDb::build_segtable`] reruns.
    pub fn segtable(&self) -> Option<SegTableInfo> {
        self.segtable
    }

    pub(crate) fn set_segtable(&mut self, info: SegTableInfo) {
        self.segtable = Some(info);
    }

    /// Builds (or rebuilds) the SegTable index with threshold `lthd` —
    /// delegates to [`crate::segtable::build_segtable`].
    pub fn build_segtable(&mut self, lthd: i64) -> Result<SegTableStats> {
        crate::segtable::build_segtable(self, lthd)
    }

    /// The landmark index built for this database, if any.
    pub fn landmarks(&self) -> Option<LandmarkInfo> {
        self.landmarks
    }

    pub(crate) fn set_landmarks(&mut self, info: LandmarkInfo) {
        self.landmarks = Some(info);
        self.stale_landmarks = None;
    }

    /// Builds (or rebuilds) a `k`-landmark distance index with the default
    /// degree-and-coverage selection — delegates to
    /// [`crate::landmarks::build_landmark_index`]. Once built, the DJ/BDJ
    /// family seeds its Theorem-1 pruning bound from the index and
    /// [`crate::landmarks::exact_path`] answers covered pairs without FEM;
    /// build it before [`GraphDb::freeze`] to serve it concurrently.
    pub fn build_landmarks(&mut self, k: usize) -> Result<LandmarkStats> {
        crate::landmarks::build_landmark_index(self, k, LandmarkSelection::default())
    }

    /// [`GraphDb::build_landmarks`] with an explicit selection policy.
    pub fn build_landmarks_with(
        &mut self,
        k: usize,
        selection: LandmarkSelection,
    ) -> Result<LandmarkStats> {
        crate::landmarks::build_landmark_index(self, k, selection)
    }

    /// Monotone graph-content version. Starts at 0 and is bumped by every
    /// [`GraphDb::insert_edge`] / [`GraphDb::delete_edge`]; frozen into
    /// [`GraphSnapshot::graph_version`]. Result caches stamp entries with
    /// it, so an entry computed before a mutation answers after it only
    /// when the mutation cannot have changed it (DESIGN.md §16). Prepared
    /// plans are *not* invalidated — the schema never changes, only row
    /// content.
    pub fn graph_version(&self) -> u64 {
        self.db.data_version()
    }

    /// True when `TEdges` lives in the segment-compressed tier, where
    /// mutations go through the row-store delta overlay.
    pub(crate) fn edges_segmented(&self) -> bool {
        self.db
            .catalog()
            .table("TEdges")
            .is_ok_and(|t| t.is_segmented())
    }

    /// Disables the landmark index after a mutation: its distances
    /// describe the pre-mutation graph, and an edge *delete* can increase
    /// true distances, so Theorem-1 "upper" bounds and
    /// [`crate::landmarks::exact_path`] answers could both understate —
    /// admissibility would be violated. Disabled, not rebuilt: the gate
    /// is O(1) and [`GraphDb::rebuild_landmarks`] restores the fast path
    /// when the caller chooses to pay for it.
    ///
    /// The SegTable goes out of service for the same reason: a segment
    /// over a deleted edge is a path that no longer exists, and BSEG
    /// would answer with it. [`GraphDb::build_segtable`] restores it.
    fn invalidate_indexes(&mut self) {
        if let Some(info) = self.landmarks.take() {
            self.stale_landmarks = Some(info);
        }
        self.segtable = None;
    }

    /// Rebuilds the landmark index disabled by an edge mutation (same `k`
    /// as before), re-enabling the landmark fast path and Theorem-1 bound
    /// seeding. Errors when no landmark index was ever built. Intended
    /// for the primary [`GraphDb`] (it issues DDL internally, which
    /// frozen-snapshot sessions should never do).
    pub fn rebuild_landmarks(&mut self) -> Result<LandmarkStats> {
        let info = self
            .landmarks
            .or(self.stale_landmarks)
            .ok_or_else(|| SqlError::Eval("no landmark index to rebuild".into()))?;
        let stats = self.build_landmarks(info.k)?;
        self.stale_landmarks = None;
        Ok(stats)
    }

    /// Inserts an undirected edge `{u, v}` with weight `w`, storing both
    /// directed arcs (one when `u == v`) to match the paper's symmetric
    /// `TEdges` layout. Works on both storage tiers: row-tier tables take
    /// the SQL INSERT directly, segmented tables route it into their
    /// delta overlay. Bumps [`GraphDb::graph_version`], disables any
    /// landmark index (see [`GraphDb::rebuild_landmarks`]) and takes the
    /// SegTable out of service: its segments describe the old edge set,
    /// so [`crate::BsegFinder`] errors until [`GraphDb::build_segtable`]
    /// runs again. Returns the number of arcs added.
    pub fn insert_edge(&mut self, u: i64, v: i64, w: i64) -> Result<u64> {
        use fempath_storage::Value;
        self.check_node(u)?;
        self.check_node(v)?;
        if w <= 0 {
            return Err(SqlError::Eval(format!(
                "edge weight must be positive, got {w}"
            )));
        }
        let mut added = self
            .db
            .execute_params(
                INSERT_EDGE_SQL,
                &[Value::Int(u), Value::Int(v), Value::Int(w)],
            )?
            .rows_affected;
        if u != v {
            added += self
                .db
                .execute_params(
                    INSERT_EDGE_SQL,
                    &[Value::Int(v), Value::Int(u), Value::Int(w)],
                )?
                .rows_affected;
        }
        self.num_arcs += added as usize;
        self.min_weight = self.min_weight.min(w as u32);
        self.db.bump_data_version();
        self.invalidate_indexes();
        Ok(added)
    }

    /// Deletes the undirected edge `{u, v}`: every parallel arc in both
    /// directions (row tier via SQL DELETE, segmented tier via the delta
    /// overlay's tombstones). Bumps [`GraphDb::graph_version`], disables
    /// any landmark index and takes the SegTable out of service (as
    /// [`GraphDb::insert_edge`] does) even when nothing matched.
    /// `min_weight` is left alone, which is conservative and keeps the
    /// Theorem 2/3 bounds sound (the true minimum can only grow).
    /// Returns the number of arcs removed (0 when the edge was absent).
    pub fn delete_edge(&mut self, u: i64, v: i64) -> Result<u64> {
        use fempath_storage::Value;
        self.check_node(u)?;
        self.check_node(v)?;
        let removed = if self.edges_segmented() {
            let mut n = self.db.delta_delete_edge("TEdges", u, v)?;
            if u != v {
                n += self.db.delta_delete_edge("TEdges", v, u)?;
            }
            n
        } else {
            let mut n = self
                .db
                .execute_params(DELETE_EDGE_SQL, &[Value::Int(u), Value::Int(v)])?
                .rows_affected;
            if u != v {
                n += self
                    .db
                    .execute_params(DELETE_EDGE_SQL, &[Value::Int(v), Value::Int(u)])?
                    .rows_affected;
            }
            n
        };
        self.num_arcs -= removed as usize;
        self.db.bump_data_version();
        self.invalidate_indexes();
        Ok(removed)
    }

    /// Validates a node id.
    pub fn check_node(&self, v: i64) -> Result<()> {
        if v < 0 || v as usize >= self.num_nodes {
            return Err(SqlError::Eval(format!(
                "node {v} out of range (graph has {} nodes)",
                self.num_nodes
            )));
        }
        Ok(())
    }

    /// (Re)creates the `TVisited` working table with the configured index
    /// strategy. Called at the start of every path query.
    ///
    /// When the table already exists (any query after the first) it is
    /// TRUNCATEd instead of dropped and re-created: TRUNCATE is not DDL,
    /// so the catalog version — and with it every cached physical plan —
    /// stays valid across queries (DESIGN.md §9).
    pub fn reset_visited(&mut self) -> Result<()> {
        if self.db.has_table("TVisited") {
            self.db.execute("TRUNCATE TABLE TVisited")?;
            return Ok(());
        }
        self.db.execute(
            "CREATE TABLE TVisited (nid INT, d2s INT, p2s INT, f INT, d2t INT, p2t INT, b INT)",
        )?;
        match self.visited_index {
            IndexKind::NoIndex => {}
            IndexKind::Secondary => {
                self.db
                    .execute("CREATE UNIQUE INDEX idx_tvisited_nid ON TVisited(nid)")?;
            }
            IndexKind::Clustered => {
                self.db
                    .execute("CREATE UNIQUE CLUSTERED INDEX idx_tvisited_nid ON TVisited(nid)")?;
            }
        }
        Ok(())
    }

    /// (Re)creates the `TExp` temp table the split [`EmMode`]s expand
    /// into (TRUNCATE when it already exists, like
    /// [`GraphDb::reset_visited`]).
    pub fn reset_exp(&mut self) -> Result<()> {
        if self.db.has_table("TExp") {
            self.db.execute("TRUNCATE TABLE TExp")?;
            return Ok(());
        }
        self.db
            .execute("CREATE TABLE TExp (nid INT, p2s INT, cost INT)")?;
        Ok(())
    }

    /// How a FEM search on this database runs its E and M operators: the
    /// one decision of [`EmMode::choose`], under this database's dialect.
    pub fn em_mode(&self, style: SqlStyle, split_operators: bool) -> EmMode {
        EmMode::choose(style, self.db.dialect().supports_merge, split_operators)
    }

    /// Starts a FEM search: empties `TVisited`, and `TExp` when the search's
    /// [`GraphDb::em_mode`] goes through it, and returns that mode.
    pub fn reset_search(&mut self, style: SqlStyle, split_operators: bool) -> Result<EmMode> {
        self.reset_visited()?;
        let mode = self.em_mode(style, split_operators);
        if mode != EmMode::Fused {
            self.reset_exp()?;
        }
        Ok(mode)
    }

    /// The steady-state reset statements (every table already exists after
    /// the first query, so resets are TRUNCATEs — DESIGN.md §9).
    fn reset_statement_corpus(&self) -> Vec<crate::sqlgen::AnnotatedSql> {
        use crate::sqlgen::AnnotatedSql;
        vec![
            AnnotatedSql::cold("rst/truncate_visited", "TRUNCATE TABLE TVisited"),
            AnnotatedSql::cold("rst/truncate_exp", "TRUNCATE TABLE TExp"),
        ]
    }

    /// The edge-mutation statements ([`GraphDb::insert_edge`] /
    /// [`GraphDb::delete_edge`], row tier) — same consts the mutation
    /// path executes, so femcheck pins exactly what runs.
    fn mutation_statement_corpus(&self) -> Vec<crate::sqlgen::AnnotatedSql> {
        use crate::sqlgen::AnnotatedSql;
        let mut out = vec![AnnotatedSql::cold("mut/insert_edge", INSERT_EDGE_SQL)];
        if !self.edges_segmented() {
            // The segmented tier deletes through the delta overlay, not
            // SQL (DELETE is rejected on segment-compressed storage).
            out.push(AnnotatedSql::cold("mut/delete_edge", DELETE_EDGE_SQL));
        }
        out
    }

    /// Calls `f` once per statement the finders (DJ/BDJ/BSDJ/BBFS/BSEG),
    /// the landmark index, the SegTable build, the edge mutations and the
    /// working-table resets can issue — under **both** supported dialects,
    /// DBMS-X first — with the catalog the statement would run against.
    /// Nothing is executed or analyzed here; femcheck's corpus gate
    /// (`crates/femcheck/tests/analyze_corpus.rs`) analyzes each statement
    /// and names it `"<dialect>::<corpus path>"`, e.g.
    /// `"DBMS-X::fwd/edges/nsql/merge_from_exp"`.
    ///
    /// Working tables are (re)created first through the idempotent resets.
    /// Corpora that reference optional structures are gated on their
    /// tables existing: the SegTable-sourced finder statements and the
    /// build corpus need `TOutSegs`, the landmark corpus needs
    /// `TLandmarks`. The build's own `TSegV`/`TSegExp` (dropped after a
    /// real build) are brought back for the duration of the walk and
    /// dropped again on every path, an `Err` from `f` included; the walk
    /// stops at the first `Err` and returns it.
    pub fn for_each_corpus_statement(
        &mut self,
        mut f: impl FnMut(&Catalog, Dialect, &crate::sqlgen::AnnotatedSql) -> Result<()>,
    ) -> Result<()> {
        self.reset_visited()?;
        self.reset_exp()?;
        let has_segs = self.db.has_table("TOutSegs");
        let temp_segv = has_segs && !self.db.has_table("TSegV");
        let created = if temp_segv {
            crate::segtable::create_working_tables(&mut self.db)
        } else {
            Ok(())
        };
        let mut walked = created.and_then(|()| self.walk_corpus(has_segs, &mut f));
        if temp_segv {
            // Both drops run whatever the walk returned; its `Err`, if
            // any, is the one reported.
            for sql in ["DROP TABLE IF EXISTS TSegV", "DROP TABLE IF EXISTS TSegExp"] {
                let dropped = self.db.execute(sql);
                walked = walked.and(dropped.map(|_| ()));
            }
        }
        walked
    }

    fn walk_corpus(
        &self,
        has_segs: bool,
        f: &mut impl FnMut(&Catalog, Dialect, &crate::sqlgen::AnnotatedSql) -> Result<()>,
    ) -> Result<()> {
        use crate::sqlgen::{AnnotatedSql, Dir, EdgeSource, SqlGen};

        let has_lms = self.db.has_table("TLandmarks");
        for dialect in [Dialect::DBMS_X, Dialect::POSTGRES] {
            let merge = dialect.supports_merge;
            let mut corpus: Vec<AnnotatedSql> = self.reset_statement_corpus();
            corpus.extend(self.mutation_statement_corpus());
            for dir in [Dir::Fwd, Dir::Bwd] {
                for style in [SqlStyle::New, SqlStyle::Traditional] {
                    corpus
                        .extend(SqlGen::new(dir, EdgeSource::Edges, style).annotated_corpus(merge));
                    if has_segs {
                        corpus.extend(
                            SqlGen::new(dir, EdgeSource::SegTable, style).annotated_corpus(merge),
                        );
                    }
                }
            }
            corpus.extend(crate::sqlgen::free_statement_corpus());
            if has_lms {
                corpus.extend(crate::landmarks::statement_corpus());
            }
            if has_segs {
                let segmented = self.edges_segmented();
                for style in [SqlStyle::New, SqlStyle::Traditional] {
                    corpus.extend(crate::segtable::build_statement_corpus(
                        style, merge, segmented,
                    ));
                }
            }
            for a in &corpus {
                f(self.db.catalog(), dialect, a)?;
            }
        }
        Ok(())
    }

    /// Freezes this database into an immutable [`GraphSnapshot`] that many
    /// worker sessions can share (DESIGN.md §10).
    ///
    /// Every working table ([`GraphDb::reset_visited`] and friends) is
    /// created *before* the freeze, so sessions never issue DDL: the
    /// catalog version is identical across sessions and one shared plan
    /// cache serves all of them. Build optional static structures — the
    /// SegTable, landmark tables — before calling this so they land in
    /// the shared read-only image.
    pub fn freeze(mut self) -> Result<GraphSnapshot> {
        self.reset_visited()?;
        self.reset_exp()?;
        Ok(GraphSnapshot {
            num_nodes: self.num_nodes,
            num_arcs: self.num_arcs,
            min_weight: self.min_weight,
            visited_index: self.visited_index,
            edges_index: self.edges_index,
            segtable: self.segtable,
            landmarks: self.landmarks,
            snap: self.db.freeze()?,
        })
    }
}

/// An immutable, `Arc`-shareable image of a [`GraphDb`]: the frozen page
/// image holding `TNodes`/`TEdges` (and any SegTable / landmark tables),
/// the catalog template, and a plan cache shared by every session.
///
/// [`GraphSnapshot::session`] stamps out independent [`GraphDb`] sessions:
/// reads hit the shared pages, writes (the per-query working tables
/// `TVisited`/`TExp`) land in each session's private copy-on-write
/// overlay. `Send + Sync`, so sessions can be created from any thread —
/// [`crate::PathService`] builds its worker pool on exactly this.
pub struct GraphSnapshot {
    snap: DbSnapshot,
    num_nodes: usize,
    num_arcs: usize,
    min_weight: u32,
    visited_index: IndexKind,
    edges_index: IndexKind,
    segtable: Option<SegTableInfo>,
    landmarks: Option<LandmarkInfo>,
}

impl GraphSnapshot {
    /// A new private session over the shared graph image.
    pub fn session(&self) -> GraphDb {
        GraphDb {
            db: self.snap.session(),
            num_nodes: self.num_nodes,
            num_arcs: self.num_arcs,
            min_weight: self.min_weight,
            visited_index: self.visited_index,
            edges_index: self.edges_index,
            segtable: self.segtable,
            landmarks: self.landmarks,
            stale_landmarks: None,
            limits: SearchLimits::default(),
            certificates: false,
        }
    }

    /// The graph-content version frozen into this snapshot (see
    /// [`GraphDb::graph_version`]). Sessions start from it; a session
    /// that replays later mutations advances its private copy in step.
    pub fn graph_version(&self) -> u64 {
        self.snap.data_version()
    }

    /// Number of nodes in the frozen graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed arcs in the frozen graph.
    pub fn num_arcs(&self) -> usize {
        self.num_arcs
    }

    /// Pages in the shared read-only image.
    pub fn base_pages(&self) -> u64 {
        self.snap.base_pages()
    }

    /// The SegTable frozen into the image, if one was built.
    pub fn segtable(&self) -> Option<SegTableInfo> {
        self.segtable
    }

    /// The landmark index frozen into the image, if one was built.
    pub fn landmarks(&self) -> Option<LandmarkInfo> {
        self.landmarks
    }

    /// Consult/publish counters and plan count of the cross-session
    /// shared plan cache (DESIGN.md §13): one mutex around an LRU bounded
    /// like each session's own cache, consulted only on local misses.
    /// `publishes` converges on the distinct statement count however many
    /// workers warm up concurrently.
    pub fn shared_plan_stats(&self) -> fempath_sql::SharedPlanCacheStats {
        self.snap.shared_plan_stats()
    }
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GraphSnapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use fempath_graph::generate;

    #[test]
    fn loads_graph_tables() {
        let g = generate::grid(4, 4, 1..=10, 1);
        let gdb = GraphDb::in_memory(&g).unwrap();
        assert_eq!(gdb.num_nodes(), 16);
        assert_eq!(gdb.db.table_len("TEdges").unwrap(), g.num_arcs() as u64);
        assert_eq!(gdb.db.table_len("TNodes").unwrap(), 16);
    }

    #[test]
    fn default_serves_segmented_edges() {
        let g = generate::grid(3, 3, 1..=10, 1);
        assert!(GraphDb::in_memory(&g).unwrap().edges_segmented());
        let rows = GraphDbOptions {
            segmented_edges: false,
            ..Default::default()
        };
        assert!(!GraphDb::new(&g, &rows).unwrap().edges_segmented());
    }

    #[test]
    fn segmented_edges_refuse_a_row_tier_index() {
        let g = generate::grid(3, 3, 1..=10, 1);
        for edges_index in [IndexKind::NoIndex, IndexKind::Secondary] {
            let opts = GraphDbOptions {
                edges_index,
                ..Default::default()
            };
            let err = GraphDb::new(&g, &opts).err().expect("must refuse");
            assert!(
                matches!(err, SqlError::Catalog(_)),
                "{edges_index:?}: {err}"
            );
            let rows = GraphDbOptions {
                segmented_edges: false,
                ..opts
            };
            let gdb = GraphDb::new(&g, &rows).unwrap();
            assert_eq!(gdb.edges_index(), edges_index);
        }
    }

    #[test]
    fn reset_visited_is_idempotent() {
        let g = generate::grid(3, 3, 1..=10, 1);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        gdb.reset_visited().unwrap();
        gdb.db
            .execute("INSERT INTO TVisited VALUES (0, 0, 0, 0, 0, 0, 0)")
            .unwrap();
        gdb.reset_visited().unwrap();
        assert_eq!(gdb.db.table_len("TVisited").unwrap(), 0);
    }

    #[test]
    fn edge_mutations_bump_version_and_gate_landmarks() {
        let g = generate::grid(4, 4, 1..=10, 1);
        for segmented in [false, true] {
            let mut gdb = GraphDb::new(
                &g,
                &GraphDbOptions {
                    segmented_edges: segmented,
                    ..Default::default()
                },
            )
            .unwrap();
            gdb.build_landmarks(2).unwrap();
            assert!(gdb.landmarks().is_some());
            let arcs = gdb.num_arcs();
            let v0 = gdb.graph_version();

            // Insert: two arcs (symmetric), version bump, landmarks off.
            assert_eq!(gdb.insert_edge(0, 15, 3).unwrap(), 2);
            assert_eq!(gdb.num_arcs(), arcs + 2);
            assert_eq!(gdb.graph_version(), v0 + 1);
            assert!(gdb.landmarks().is_none(), "stale landmarks must be off");
            let rs = gdb
                .db
                .query("SELECT cost FROM TEdges WHERE fid = 0 AND tid = 15")
                .unwrap();
            assert_eq!(rs.len(), 1);

            // Delete removes both arcs and bumps again.
            assert_eq!(gdb.delete_edge(15, 0).unwrap(), 2);
            assert_eq!(gdb.num_arcs(), arcs);
            assert_eq!(gdb.graph_version(), v0 + 2);
            // Deleting an absent edge still bumps (cheap, conservative).
            assert_eq!(gdb.delete_edge(0, 15).unwrap(), 0);

            // Rebuild restores the fast path.
            gdb.rebuild_landmarks().unwrap();
            assert!(gdb.landmarks().is_some());

            // Bad arguments are rejected.
            assert!(gdb.insert_edge(0, 99, 1).is_err());
            assert!(gdb.insert_edge(0, 1, 0).is_err());

            // The version survives freeze.
            let snap = gdb.freeze().unwrap();
            assert_eq!(snap.graph_version(), v0 + 3);
            let mut session = snap.session();
            assert_eq!(session.graph_version(), v0 + 3);
            // Sessions can replay mutations into their private overlay.
            session.insert_edge(1, 2, 7).unwrap();
            assert_eq!(session.graph_version(), v0 + 4);
        }
    }

    #[test]
    fn check_node_bounds() {
        let g = generate::grid(2, 2, 1..=10, 1);
        let gdb = GraphDb::in_memory(&g).unwrap();
        assert!(gdb.check_node(0).is_ok());
        assert!(gdb.check_node(3).is_ok());
        assert!(gdb.check_node(4).is_err());
        assert!(gdb.check_node(-1).is_err());
    }

    #[test]
    fn visited_index_strategies() {
        let g = generate::grid(3, 3, 1..=10, 1);
        for kind in [
            IndexKind::NoIndex,
            IndexKind::Secondary,
            IndexKind::Clustered,
        ] {
            let mut gdb = GraphDb::new(
                &g,
                &GraphDbOptions {
                    visited_index: kind,
                    ..Default::default()
                },
            )
            .unwrap();
            gdb.reset_visited().unwrap();
            gdb.db
                .execute("INSERT INTO TVisited VALUES (5, 0, -1, 0, 0, -1, 0)")
                .unwrap();
            let rs = gdb
                .db
                .query("SELECT d2s FROM TVisited WHERE nid = 5")
                .unwrap();
            assert_eq!(rs.len(), 1);
        }
    }
}
