//! The database engine facade: parse, plan, execute.
//!
//! [`Database`] owns the buffer pool and catalog and exposes a JDBC-like
//! surface: `execute` / `execute_params` run a statement and report affected
//! rows (the paper's SQLCA), `query` returns a result set.
//!
//! Statements execute through **physical plans** ([`crate::plan`]):
//! [`Database::prepare`] compiles a statement once — resolving tables,
//! choosing access paths and join strategies, binding every expression to
//! fixed column offsets — and returns a [`PreparedStmt`] handle whose
//! executions skip all of that work. `execute_params` goes through the same
//! machinery via a plan cache keyed by SQL string, so driving the engine
//! with the same parameterized statements each iteration — exactly what the
//! FEM algorithms do — pays the parse *and plan* cost once. DDL bumps the
//! catalog version and stale plans are rebuilt transparently.

use crate::ast::Stmt;
use crate::catalog::{Catalog, SegmentLoad};
use crate::dialect::Dialect;
use crate::error::{Result, SqlError};
use crate::parser::parse_statement;
use crate::plan::{self, PlanKind, PreparedPlan};
use fempath_storage::{BufferPool, IoStats, SnapshotPages, Value};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Result of executing one statement.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Rows inserted/updated/deleted (the SQLCA "affected tuples" counter
    /// the paper's Algorithms 1 and 2 read).
    pub rows_affected: u64,
    /// Result set for SELECT statements.
    pub rows: Option<ResultSet>,
}

/// A materialized query result.
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Column names, shared with the plan that produced them.
    pub columns: Arc<[String]>,
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// First value of the first row, if any.
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }

    /// First value of the first row as an integer (None when absent/NULL).
    pub fn scalar_i64(&self) -> Option<i64> {
        self.scalar().and_then(|v| v.as_i64())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// A compiled statement handle returned by [`Database::prepare`].
///
/// Cheap to clone (it shares the plan with the engine's cache). Executing
/// a handle skips parsing, name resolution, access-path choice and
/// expression binding; only `?` parameters and uncorrelated subqueries are
/// evaluated per execution. Handles survive DDL: a stale handle is
/// re-planned transparently on its next execution (and errors cleanly if
/// the statement no longer compiles, e.g. after `DROP TABLE`).
#[derive(Clone)]
pub struct PreparedStmt {
    plan: Arc<PreparedPlan>,
}

impl PreparedStmt {
    /// The statement text this handle was prepared from.
    pub fn sql(&self) -> &str {
        self.plan.sql()
    }

    /// Number of `?` parameters the statement expects.
    pub fn param_count(&self) -> usize {
        self.plan.param_count()
    }

    /// The catalog version the plan was compiled against.
    pub fn catalog_version(&self) -> u64 {
        self.plan.catalog_version()
    }

    /// Human-readable plan shape, one line per operator.
    pub fn describe(&self) -> Vec<String> {
        self.plan.describe()
    }
}

/// Plan-cache size bound: statements beyond this are still planned, but
/// the cache evicts (stale versions first, then true LRU) to stay bounded
/// when callers execute unbounded families of literal SQL strings.
const PLAN_CACHE_CAP: usize = 512;

/// A session-local plan cache: per-SQL-string entries stamped with the
/// catalog version they were compiled against, bounded by
/// [`PLAN_CACHE_CAP`] with LRU eviction.
///
/// Entries from superseded catalog versions are dropped eagerly the first
/// time the cache is consulted after DDL bumps the version — they can
/// never be returned again, and before this eager sweep a long-lived
/// session that kept issuing *new* statement texts after DDL would retain
/// every stale plan until the cap was hit (the plan-cache leak fixed in
/// this revision).
#[derive(Default)]
struct PlanCache {
    entries: HashMap<String, (Arc<PreparedPlan>, u64)>,
    /// Monotonic access counter backing LRU eviction.
    tick: u64,
    /// Catalog version the last stale sweep ran against.
    swept_version: u64,
}

impl PlanCache {
    /// Drops every entry compiled against a superseded catalog version.
    /// Cheap no-op while the version is unchanged.
    fn sweep_stale(&mut self, version: u64) {
        if self.swept_version == version {
            return;
        }
        self.entries
            .retain(|_, (p, _)| p.catalog_version() == version);
        self.swept_version = version;
    }

    fn get(&mut self, sql: &str, version: u64) -> Option<Arc<PreparedPlan>> {
        let (plan, last_used) = self.entries.get_mut(sql)?;
        if plan.catalog_version() != version {
            return None;
        }
        self.tick += 1;
        *last_used = self.tick;
        Some(plan.clone())
    }

    fn insert(&mut self, plan: Arc<PreparedPlan>) {
        if self.entries.len() >= PLAN_CACHE_CAP && !self.entries.contains_key(plan.sql()) {
            // Evict the least-recently-used entry; stale entries were
            // already swept, so this only fires when the workload truly
            // churns distinct current-version statements.
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(sql, _)| sql.clone())
            {
                self.entries.remove(&victim);
            }
        }
        self.tick += 1;
        self.entries
            .insert(plan.sql().to_string(), (plan, self.tick));
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Consult/publish counters of a snapshot's shared plan cache
/// ([`DbSnapshot::shared_plan_stats`]). `hits`/`misses` count consults
/// (local plan-cache misses that reached the shared cache); `publishes`
/// counts plans actually published — with publish-once semantics it
/// converges on the number of distinct statements, however many sessions
/// warm up concurrently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedPlanCacheStats {
    /// Consults answered from the shared cache.
    pub hits: u64,
    /// Consults that fell through to a fresh compile.
    pub misses: u64,
    /// Plans published (≈ distinct statements compiled).
    pub publishes: u64,
    /// Plans currently visible.
    pub plans: usize,
}

/// The plan cache shared by every session of one [`DbSnapshot`]: a
/// session's own [`PlanCache`] (same LRU, cap and version stamps) and its
/// counters behind one mutex. Sessions consult it only when their local
/// cache misses, so the lock is taken a few times per distinct statement,
/// never per execution. Snapshot sessions never run DDL (the working
/// tables are created before freezing), so their catalog versions all
/// stay at the freeze version and one compiled plan serves every worker;
/// an entry whose stamp mismatches a reader's version is a miss, and the
/// next publisher replaces it.
#[derive(Default)]
struct SharedPlanCache(Mutex<(PlanCache, SharedPlanCacheStats)>);

impl SharedPlanCache {
    fn lock(&self) -> MutexGuard<'_, (PlanCache, SharedPlanCacheStats)> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn get(&self, sql: &str, version: u64) -> Option<Arc<PreparedPlan>> {
        let (cache, stats) = &mut *self.lock();
        let found = cache.get(sql, version);
        match found {
            Some(_) => stats.hits += 1,
            None => stats.misses += 1,
        }
        found
    }

    /// Publishes `plan` unless an entry with the same SQL and catalog
    /// version is already visible (the thundering-herd warmup case: every
    /// worker compiles the same statement, one publish wins).
    fn insert(&self, plan: &Arc<PreparedPlan>) {
        let (cache, stats) = &mut *self.lock();
        if cache.get(plan.sql(), plan.catalog_version()).is_none() {
            cache.insert(plan.clone());
            stats.publishes += 1;
        }
    }

    fn stats(&self) -> SharedPlanCacheStats {
        let (cache, stats) = &*self.lock();
        SharedPlanCacheStats {
            plans: cache.len(),
            ..*stats
        }
    }
}

/// A frozen, immutable image of a [`Database`]: the flushed page image
/// behind an `Arc`, the catalog as a cloneable template, and a plan
/// cache shared by its sessions. [`DbSnapshot::session`] stamps out independent
/// [`Database`] sessions whose reads share the frozen pages and whose
/// writes (working tables, indexes) go to private copy-on-write overlays —
/// the shared-snapshot / per-session-state architecture of DESIGN.md §10.
pub struct DbSnapshot {
    pages: SnapshotPages,
    catalog: Catalog,
    dialect: Dialect,
    buffer_pages: usize,
    shared_plans: Arc<SharedPlanCache>,
    data_version: u64,
}

impl DbSnapshot {
    /// A new session over the snapshot (buffer capacity inherited from the
    /// frozen database).
    pub fn session(&self) -> Database {
        self.session_with_buffer(self.buffer_pages)
    }

    /// A new session with an explicit buffer-pool capacity in pages.
    pub fn session_with_buffer(&self, buffer_pages: usize) -> Database {
        let mut db = Database::with_pool(BufferPool::on_snapshot(self.pages.clone(), buffer_pages));
        db.catalog = self.catalog.clone();
        db.dialect = self.dialect;
        db.shared_plans = Some(self.shared_plans.clone());
        db.data_version = self.data_version;
        db
    }

    /// Number of pages in the shared base image.
    pub fn base_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Catalog version sessions start from.
    pub fn catalog_version(&self) -> u64 {
        self.catalog.version()
    }

    /// Data version frozen into the snapshot (see
    /// [`Database::data_version`]); sessions start from it.
    pub fn data_version(&self) -> u64 {
        self.data_version
    }

    /// Consult/publish counters of the shared plan cache.
    pub fn shared_plan_stats(&self) -> SharedPlanCacheStats {
        self.shared_plans.stats()
    }
}

/// An embedded relational database instance.
pub struct Database {
    pool: BufferPool,
    catalog: Catalog,
    dialect: Dialect,
    plan_cache: PlanCache,
    /// Present on snapshot sessions: the cache shared with every sibling
    /// session of the same [`DbSnapshot`].
    shared_plans: Option<Arc<SharedPlanCache>>,
    statements_executed: u64,
    /// Monotone **data** epoch, advanced only by callers that declare a
    /// content mutation ([`Database::bump_data_version`]) — deliberately
    /// *not* by DML in general, and never by DDL. It is the versioning
    /// half of the catalog-version trick (DESIGN.md §9) for row content:
    /// cached plans survive a bump (the schema did not change) while
    /// version-keyed result caches are invalidated by it (DESIGN.md §16).
    data_version: u64,
}

// A session (and its prepared handles) must be movable to a worker
// thread, and a snapshot must be shareable between spawners.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<Database>();
    assert_send::<PreparedStmt>();
    assert_sync::<PreparedStmt>();
    assert_send::<DbSnapshot>();
    assert_sync::<DbSnapshot>();
};

impl Database {
    /// A database whose pages live in memory (tests, small examples).
    pub fn in_memory(buffer_pages: usize) -> Database {
        Database::with_pool(BufferPool::in_memory(buffer_pages))
    }

    /// A database backed by an anonymous temporary file — the disk-resident
    /// configuration used by the experiments.
    pub fn on_temp_file(buffer_pages: usize) -> Result<Database> {
        Ok(Database::with_pool(BufferPool::temp_file(buffer_pages)?))
    }

    /// Wraps an existing buffer pool.
    pub fn with_pool(pool: BufferPool) -> Database {
        Database {
            pool,
            catalog: Catalog::new(),
            dialect: Dialect::default(),
            plan_cache: PlanCache::default(),
            shared_plans: None,
            statements_executed: 0,
            data_version: 0,
        }
    }

    /// Freezes the database into an immutable, shareable [`DbSnapshot`].
    ///
    /// Flushes every dirty page and copies the disk image behind an
    /// `Arc`; the catalog becomes the template each
    /// [`DbSnapshot::session`] clones. Create every table the sessions
    /// will use (including working tables) *before* freezing so sessions
    /// never need DDL — their catalog versions then all match and the
    /// snapshot's shared plan cache serves every worker.
    pub fn freeze(mut self) -> Result<DbSnapshot> {
        let pages = self.pool.snapshot_pages()?;
        Ok(DbSnapshot {
            pages,
            buffer_pages: self.pool.capacity(),
            catalog: self.catalog,
            dialect: self.dialect,
            shared_plans: Arc::default(),
            data_version: self.data_version,
        })
    }

    /// Sets the SQL dialect (builder style).
    pub fn with_dialect(mut self, dialect: Dialect) -> Database {
        self.dialect = dialect;
        self
    }

    /// The active dialect.
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// Executes a statement without parameters.
    pub fn execute(&mut self, sql: &str) -> Result<ExecOutcome> {
        self.execute_params(sql, &[])
    }

    /// Executes a statement with `?` parameters bound from `params`.
    ///
    /// This is the prepared path: the statement is compiled to a physical
    /// plan on first sight (or after DDL invalidated it) and the cached
    /// plan executes directly on every later call.
    pub fn execute_params(&mut self, sql: &str, params: &[Value]) -> Result<ExecOutcome> {
        let plan = self.prepare_plan(sql)?;
        self.exec_plan(&plan, params)
    }

    /// Compiles a statement into a reusable [`PreparedStmt`] handle.
    ///
    /// Plans are cached per SQL string and stamped with the catalog
    /// version; `prepare` on a cached, still-valid statement is a hash
    /// lookup.
    pub fn prepare(&mut self, sql: &str) -> Result<PreparedStmt> {
        Ok(PreparedStmt {
            plan: self.prepare_plan(sql)?,
        })
    }

    /// Executes a prepared handle. A handle whose plan was invalidated by
    /// DDL is re-planned transparently (the refreshed plan lands in the
    /// cache, so only the first post-DDL execution pays for it).
    pub fn execute_prepared(
        &mut self,
        stmt: &PreparedStmt,
        params: &[Value],
    ) -> Result<ExecOutcome> {
        let plan = if stmt.plan.catalog_version() == self.catalog.version() {
            stmt.plan.clone()
        } else {
            self.prepare_plan(stmt.plan.sql())?
        };
        self.exec_plan(&plan, params)
    }

    fn prepare_plan(&mut self, sql: &str) -> Result<Arc<PreparedPlan>> {
        let version = self.catalog.version();
        // Eagerly drop plans from superseded catalog versions (they can
        // never be served again) so long-lived sessions don't leak them.
        self.plan_cache.sweep_stale(version);
        if let Some(p) = self.plan_cache.get(sql, version) {
            return Ok(p);
        }
        // Snapshot sessions: a sibling may have compiled it already.
        if let Some(shared) = &self.shared_plans {
            if let Some(p) = shared.get(sql, version) {
                self.plan_cache.insert(p.clone());
                return Ok(p);
            }
        }
        let compiled = Arc::new(self.compile(sql, &parse_statement(sql)?)?);
        if let Some(shared) = &self.shared_plans {
            shared.insert(&compiled);
        }
        self.plan_cache.insert(compiled.clone());
        Ok(compiled)
    }

    /// Compiles one parsed statement against the current catalog.
    fn compile(&self, sql: &str, stmt: &Stmt) -> Result<PreparedPlan> {
        Ok(PreparedPlan {
            sql: sql.to_string(),
            catalog_version: self.catalog.version(),
            n_params: plan::build::count_params(stmt),
            kind: plan::build::build_plan(&self.catalog, stmt)?,
        })
    }

    /// Executes one compiled plan.
    fn exec_plan(&mut self, plan: &PreparedPlan, params: &[Value]) -> Result<ExecOutcome> {
        // The interpreter binds every expression (and so touches every `?`)
        // eagerly per execution; mirror that by rejecting short parameter
        // lists up front instead of only when a row happens to reach the
        // parameterized expression.
        if params.len() < plan.param_count() {
            return Err(SqlError::ParamCount {
                expected: plan.param_count(),
                got: params.len(),
            });
        }
        self.statements_executed += 1;
        let no_rows = |n: u64| ExecOutcome {
            rows_affected: n,
            rows: None,
        };
        match &plan.kind {
            PlanKind::Select(sp) => {
                let rows = plan::vexec::run_select_rows(&mut self.pool, &self.catalog, params, sp)?;
                Ok(ExecOutcome {
                    rows_affected: 0,
                    rows: Some(ResultSet {
                        columns: sp.out_names.clone(),
                        rows,
                    }),
                })
            }
            PlanKind::Insert(ip) => Ok(no_rows(plan::vexec::run_insert(
                &mut self.pool,
                &mut self.catalog,
                params,
                ip,
            )?)),
            PlanKind::Update(up) => Ok(no_rows(plan::vexec::run_update(
                &mut self.pool,
                &mut self.catalog,
                params,
                up,
            )?)),
            PlanKind::Delete(dp) => Ok(no_rows(plan::vexec::run_delete(
                &mut self.pool,
                &mut self.catalog,
                params,
                dp,
            )?)),
            PlanKind::Merge(mp) => {
                self.require_merge()?;
                Ok(no_rows(plan::vexec::run_merge(
                    &mut self.pool,
                    &mut self.catalog,
                    params,
                    mp,
                )?))
            }
            PlanKind::Ddl(stmt) => self.run_ddl(stmt, params),
        }
    }

    /// Runs a semicolon-separated script, returning the last outcome.
    /// Each statement is planned and executed once without entering the
    /// plan cache, so one-shot literal statements (a shell session, a
    /// data-loading script) never evict the hot parameterized plans.
    pub fn execute_script(&mut self, sql: &str) -> Result<ExecOutcome> {
        let stmts = crate::parser::parse_statements(sql)?;
        let mut last = ExecOutcome {
            rows_affected: 0,
            rows: None,
        };
        for stmt in stmts {
            let plan = self.compile("", &stmt)?;
            last = self.exec_plan(&plan, &[])?;
        }
        Ok(last)
    }

    /// Convenience: runs a SELECT and returns its result set.
    pub fn query(&mut self, sql: &str) -> Result<ResultSet> {
        self.query_params(sql, &[])
    }

    /// Convenience: parameterized SELECT.
    pub fn query_params(&mut self, sql: &str, params: &[Value]) -> Result<ResultSet> {
        let out = self.execute_params(sql, params)?;
        out.rows
            .ok_or_else(|| SqlError::Eval("statement did not return rows".into()))
    }

    /// MERGE is refused under a dialect without it (PostgreSQL 9.0).
    fn require_merge(&self) -> Result<()> {
        if self.dialect.supports_merge {
            Ok(())
        } else {
            Err(SqlError::UnsupportedByDialect {
                feature: "MERGE statement".into(),
                dialect: self.dialect.name.to_string(),
            })
        }
    }

    /// Runs a statement the physical planner leaves alone: DDL, TRUNCATE
    /// and EXPLAIN (which plans and runs its SELECT like any other).
    fn run_ddl(&mut self, stmt: &Stmt, params: &[Value]) -> Result<ExecOutcome> {
        let no_rows = |n: u64| ExecOutcome {
            rows_affected: n,
            rows: None,
        };
        match stmt {
            Stmt::Explain(inner) => {
                let Stmt::Select(_) = inner.as_ref() else {
                    return Err(SqlError::Eval(
                        "EXPLAIN currently supports SELECT statements only".into(),
                    ));
                };
                // The plan that is printed is the plan that runs: the same
                // planner and executor `prepare`/`execute_prepared` use.
                let plan = self.compile("", inner)?;
                let PlanKind::Select(sp) = &plan.kind else {
                    unreachable!("a SELECT statement plans to a SELECT plan")
                };
                let rows = plan::vexec::run_select_rows(&mut self.pool, &self.catalog, params, sp)?;
                let mut lines = plan.describe();
                lines.push(format!("RESULT {} row(s)", rows.len()));
                Ok(ExecOutcome {
                    rows_affected: 0,
                    rows: Some(ResultSet {
                        columns: Arc::from(["plan".to_string()]),
                        rows: lines.into_iter().map(|l| vec![Value::Text(l)]).collect(),
                    }),
                })
            }
            Stmt::CreateTable(ct) => {
                self.catalog.create_table(
                    &mut self.pool,
                    &ct.name,
                    ct.columns.clone(),
                    ct.primary_key.clone(),
                )?;
                Ok(no_rows(0))
            }
            Stmt::CreateIndex(ci) => {
                self.catalog.create_index(&mut self.pool, ci)?;
                Ok(no_rows(0))
            }
            Stmt::CreateView { name, query } => {
                self.catalog.create_view(name, (**query).clone())?;
                Ok(no_rows(0))
            }
            Stmt::DropTable { name, if_exists } => {
                self.catalog.drop_table(&mut self.pool, name, *if_exists)?;
                Ok(no_rows(0))
            }
            Stmt::DropIndex { name } => {
                self.catalog.drop_index(&mut self.pool, name)?;
                Ok(no_rows(0))
            }
            Stmt::DropView { name } => {
                self.catalog.drop_view(name)?;
                Ok(no_rows(0))
            }
            Stmt::Truncate { table } => {
                let t = self.catalog.table_mut(table)?;
                let n = t.len();
                t.truncate(&mut self.pool)?;
                Ok(no_rows(n))
            }
            Stmt::Select(_)
            | Stmt::Insert(_)
            | Stmt::Update(_)
            | Stmt::Delete(_)
            | Stmt::Merge(_) => Err(SqlError::Eval(
                "SELECT and DML statements run as physical plans".into(),
            )),
        }
    }

    /// Creates a segment-compressed edge table (see
    /// [`crate::catalog::Catalog::create_segmented_table`]); fill it with
    /// [`Database::bulk_load_segments`]. Later single-edge mutations go
    /// through the delta overlay (INSERT statements and
    /// [`Database::delta_delete_edge`]).
    pub fn create_segmented_table(
        &mut self,
        name: &str,
        columns: Vec<crate::ast::ColumnDef>,
    ) -> Result<()> {
        self.catalog
            .create_segmented_table(&mut self.pool, name, columns)
    }

    /// Bulk-fills an empty segmented table from `(fid, tid, cost)` edges
    /// sorted ascending — delta-encoded segments, bottom-up tree build.
    pub fn bulk_load_segments(
        &mut self,
        table: &str,
        edges: impl IntoIterator<Item = (i64, i64, i64)>,
    ) -> Result<u64> {
        self.catalog
            .table_mut(table)?
            .bulk_load_segments(&mut self.pool, edges)
    }

    /// Bulk-fills the empty segmented table `table` (either width) with
    /// the rows `fill` pushes into its [`SegmentLoad`], in the load's
    /// order; `fill` may read the catalog's other tables meanwhile,
    /// through the same pool (see [`crate::catalog::Table::segment_load`]).
    /// Returns the rows loaded.
    pub fn bulk_load_segments_with(
        &mut self,
        table: &str,
        fill: impl FnOnce(&Catalog, &mut BufferPool, &mut SegmentLoad) -> Result<()>,
    ) -> Result<u64> {
        let mut load = self.catalog.table(table)?.segment_load(&mut self.pool)?;
        fill(&self.catalog, &mut self.pool, &mut load)?;
        self.catalog
            .table_mut(table)?
            .finish_segment_load(&mut self.pool, load)
    }

    /// Deletes every `(fid, tid)` edge of a segmented table through its
    /// delta overlay (see [`crate::catalog::Table::delta_delete_edge`]);
    /// SQL DELETE on segmented storage stays rejected.
    pub fn delta_delete_edge(&mut self, table: &str, fid: i64, tid: i64) -> Result<u64> {
        self.catalog
            .table_mut(table)?
            .delta_delete_edge(&mut self.pool, fid, tid)
    }

    /// Bulk-loads an empty table (heap or clustered) bottom-up, bypassing
    /// per-row INSERT (see [`crate::catalog::Table::bulk_load_rows`]).
    pub fn bulk_load_rows(
        &mut self,
        table: &str,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<u64> {
        let table = self.catalog.table_mut(table)?;
        let rows = table.insert_source(table.source_chunk(rows, None)?, None)?;
        table.bulk_load_rows(&mut self.pool, &rows)
    }

    /// Number of rows currently in `table`.
    pub fn table_len(&self, table: &str) -> Result<u64> {
        Ok(self.catalog.table(table)?.len())
    }

    /// True when the catalog knows `table`.
    pub fn has_table(&self, table: &str) -> bool {
        self.catalog.has_table(table)
    }

    /// Buffer-pool / disk counters.
    pub fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Zeroes the I/O counters.
    pub fn reset_io_stats(&mut self) {
        self.pool.reset_stats();
    }

    /// Total statements executed since creation.
    pub fn statements_executed(&self) -> u64 {
        self.statements_executed
    }

    /// Current catalog (schema) version — advanced by DDL, used to
    /// validate cached plans.
    pub fn catalog_version(&self) -> u64 {
        self.catalog.version()
    }

    /// Current data epoch — advanced only by [`Database::bump_data_version`].
    pub fn data_version(&self) -> u64 {
        self.data_version
    }

    /// Declares a content mutation: advances the data epoch and returns
    /// the new value. Prepared plans stay valid (the schema is
    /// unchanged); anything keyed by data version — e.g. the serving
    /// tier's result cache — treats older entries as stale.
    pub fn bump_data_version(&mut self) -> u64 {
        self.data_version += 1;
        self.data_version
    }

    /// Number of plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.plan_cache.len()
    }

    /// Resizes the buffer pool (pages) — the paper's buffer-size sweeps.
    pub fn set_buffer_capacity(&mut self, pages: usize) -> Result<()> {
        Ok(self.pool.set_capacity(pages)?)
    }

    /// Current buffer-pool capacity in pages.
    pub fn buffer_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Pages currently resident in the buffer pool (peak occupancy is
    /// bounded by [`Database::buffer_capacity`]).
    pub fn buffer_resident(&self) -> usize {
        self.pool.resident()
    }

    /// Total pages allocated in the backing store — the on-disk data size
    /// in pages, independent of what is cached.
    pub fn data_pages(&self) -> u64 {
        self.pool.num_disk_pages()
    }

    /// Flushes dirty pages to the backend.
    pub fn flush(&mut self) -> Result<()> {
        Ok(self.pool.flush_all()?)
    }

    /// Direct catalog access (diagnostics, the SQL shell example).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Lends the buffer pool and the catalog together, for an executor
    /// that lives outside this crate — the reference interpreter the
    /// differential tests compare the planned path against. What runs
    /// on them bypasses the plan cache and the statement counter.
    pub fn pool_and_catalog_mut(&mut self) -> (&mut BufferPool, &mut Catalog) {
        (&mut self.pool, &mut self.catalog)
    }

    /// Statically analyzes `sql` against the current catalog under the
    /// database's dialect without executing it: name resolution, type
    /// checks, 3VL lints and a plan-shape verdict per table access. `Err`
    /// only on parse failure; semantic findings come back in the report.
    pub fn analyze(&self, sql: &str) -> Result<crate::analyze::Report> {
        crate::analyze::analyze_sql(
            &self.catalog,
            self.dialect,
            sql,
            &crate::analyze::AnalyzeOptions::default(),
        )
    }

    /// Like [`Database::analyze`], with the statement annotated *hot-path*:
    /// a full scan of an indexed table becomes an FC201 error.
    pub fn analyze_hot_path(&self, sql: &str) -> Result<crate::analyze::Report> {
        crate::analyze::analyze_sql(
            &self.catalog,
            self.dialect,
            sql,
            &crate::analyze::AnalyzeOptions { hot_path: true },
        )
    }
}
