//! **Batched multi-pair execution** (DESIGN.md §8): one F/E/M relational
//! iteration advances a whole batch of (s, t) queries at once.
//!
//! The working tables carry a `qid` column — `TBVisited(qid, nid, …)` is
//! the per-query visited-node table, `TBounds(qid, …)` holds the client
//! scalars of Algorithm 2 (`lf`, `lb`, `nf`, `nb`, `minCost`) *relationally*,
//! one row per query, because a single statement must read a different
//! scalar for every qid it touches. Termination, the Theorem-1 pruning
//! bound, and path recovery are all per qid.
//!
//! Two finders instantiate the pattern:
//!
//! | finder | shape | single-query analogue |
//! |--------|-------|----------------------|
//! | [`BatchDjFinder`]  | single-directional Dijkstra | DJ (§3.4) |
//! | [`BatchBdjFinder`] | bidirectional search        | BDJ/BSDJ/BBFS (§4.1–4.2) |
//!
//! Within each query the batched F-operator is inherently *set-at-a-time*
//! (one statement cannot pick one node per qid and still touch every qid).
//! [`BatchFrontier`] chooses the set: each query's minimal-distance
//! candidates (set Dijkstra, the §4.1 recommendation) or every candidate
//! (BFS-style label-correcting, the throughput default — per-iteration
//! scans over the shared table are the dominant batch cost, so fewer,
//! fatter iterations win). Either way distances match the single-query
//! finders exactly; equal-weight paths may break ties differently.
//!
//! Three mechanisms carry the throughput claim (see the `batch-throughput`
//! experiment in `fempath-bench`): a batch of `B` queries costs O(1)
//! statements per iteration instead of O(B); finished queries are retired
//! *immediately* — paths recovered, rows deleted — so iterations only scan
//! live queries; and large batches are tiled into chunks of
//! [`DEFAULT_BATCH_CHUNK`] in-flight queries, where per-statement savings
//! outweigh the larger working set.

use super::{need, walk_links, Path, Runner};
use crate::graphdb::{GraphDb, INF};
use crate::sqlgen::{
    batch_delete_done_bounds, batch_delete_done_visited, batch_fused_stats,
    batch_mark_done_drained, batch_mark_done_met, batch_meet_node, batch_read_done_bounds,
    batch_reset_both, seed_bounds_batch, truncate_batch_exp, BatchFrontier, BatchSqlGen, Dir,
    EdgeSource,
};
use crate::stats::{FemOperator, Phase, QueryStats, SqlStyle};
use fempath_sql::{Database, PreparedStmt, Result, SqlError};
use fempath_storage::Value;
use std::collections::HashMap;

/// Result of a batched shortest-path query: one entry per input pair (in
/// input order, `None` when unreachable) and the measurements of the whole
/// batch run.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// `paths[i]` answers `pairs[i]`.
    pub paths: Vec<Option<Path>>,
    /// Aggregate stats for the batch (expansions count iterations ×
    /// directions, visited nodes count `TBVisited` rows across all qids).
    pub stats: QueryStats,
}

/// A relational shortest-path algorithm answering many (s, t) pairs in one
/// FEM iteration stream.
pub trait BatchShortestPathFinder {
    /// Short name ("BatchDJ", "BatchBDJ", …).
    fn name(&self) -> &'static str;

    /// Finds the shortest path for every pair; `paths[i]` answers
    /// `pairs[i]`. Pairs may repeat and may be trivial (`s == t`).
    fn find_paths(&self, gdb: &mut GraphDb, pairs: &[(i64, i64)]) -> Result<BatchOutcome>;
}

/// Full specification of one batched run.
#[derive(Debug, Clone, Copy)]
struct BatchSpec {
    name: &'static str,
    /// Bidirectional (expand from both endpoints, meet in the middle) or
    /// single-directional (forward until the target settles).
    bidi: bool,
    /// Per-query frontier policy. Single-directional searches require
    /// [`BatchFrontier::PerQueryMin`]: their settled-target termination is
    /// only sound label-setting.
    frontier: BatchFrontier,
    style: SqlStyle,
    /// Theorem-1 pruning via the bounds table (bidirectional only).
    prune: bool,
    /// Seed each query's `TBounds.bound` from the landmark index.
    seed_bounds: bool,
}

/// Default tile size for batched execution: per-iteration scans grow with
/// the live working set while per-statement savings stay flat, so
/// throughput peaks at a moderate in-flight batch (measured ~8–16 on the
/// `batch-throughput` experiment's graphs).
pub const DEFAULT_BATCH_CHUNK: usize = 8;

/// Runs `pairs` through [`run_batch`] in tiles of `chunk` (0 = one tile),
/// concatenating the per-pair answers and folding the measurements.
fn run_batch_chunked(
    gdb: &mut GraphDb,
    pairs: &[(i64, i64)],
    spec: BatchSpec,
    chunk: usize,
) -> Result<BatchOutcome> {
    if chunk == 0 || pairs.len() <= chunk {
        return run_batch(gdb, pairs, spec);
    }
    let mut paths = Vec::with_capacity(pairs.len());
    let mut stats = QueryStats::default();
    for tile in pairs.chunks(chunk) {
        let out = run_batch(gdb, tile, spec)?;
        paths.extend(out.paths);
        stats.absorb(&out.stats);
    }
    Ok(BatchOutcome { paths, stats })
}

/// Prepared handles for one direction of the batched loop.
struct BatchDirStmts {
    mark: PreparedStmt,
    expand_merge: Option<PreparedStmt>,
    expand_into_exp: Option<PreparedStmt>,
    merge_from_exp: Option<PreparedStmt>,
    update_from_exp: Option<PreparedStmt>,
    insert_from_exp: Option<PreparedStmt>,
    reset_frontier: PreparedStmt,
    pred_of: PreparedStmt,
}

impl BatchDirStmts {
    fn prepare(
        db: &mut Database,
        gen: &BatchSqlGen,
        spec: &BatchSpec,
        use_merge: bool,
        merge_supported: bool,
    ) -> Result<BatchDirStmts> {
        Ok(BatchDirStmts {
            mark: db.prepare(&gen.mark_frontier(spec.frontier, spec.bidi))?,
            expand_merge: if use_merge {
                Some(db.prepare(&gen.expand_merge())?)
            } else {
                None
            },
            expand_into_exp: if use_merge {
                None
            } else {
                Some(db.prepare(&gen.expand_into_exp())?)
            },
            merge_from_exp: if !use_merge && merge_supported {
                Some(db.prepare(&gen.merge_from_exp())?)
            } else {
                None
            },
            update_from_exp: if !use_merge && !merge_supported {
                Some(db.prepare(&gen.update_from_exp())?)
            } else {
                None
            },
            insert_from_exp: if !use_merge && !merge_supported {
                Some(db.prepare(&gen.insert_from_exp())?)
            } else {
                None
            },
            reset_frontier: db.prepare(&gen.reset_frontier())?,
            pred_of: db.prepare(&gen.pred_of())?,
        })
    }
}

/// Prepared handles shared by both directions of the batched loop.
struct BatchSharedStmts {
    truncate_exp: Option<PreparedStmt>,
    reset_both: Option<PreparedStmt>,
    // Bidirectional statistics/termination.
    fused_stats: Option<PreparedStmt>,
    mark_done_met: Option<PreparedStmt>,
    mark_done_drained: Option<PreparedStmt>,
    // Single-directional statistics/termination.
    clear_stats: Option<PreparedStmt>,
    refresh_stats: Option<PreparedStmt>,
    mark_done_target: Option<PreparedStmt>,
    mark_done_exhausted: Option<PreparedStmt>,
    // Retirement.
    read_done_bounds: PreparedStmt,
    meet_node: Option<PreparedStmt>,
    dist_of_fwd: PreparedStmt,
    delete_done_visited: PreparedStmt,
    delete_done_bounds: PreparedStmt,
}

impl BatchSharedStmts {
    fn prepare(
        db: &mut Database,
        fgen: &BatchSqlGen,
        spec: &BatchSpec,
        use_merge: bool,
    ) -> Result<BatchSharedStmts> {
        Ok(BatchSharedStmts {
            truncate_exp: if use_merge {
                None
            } else {
                Some(db.prepare(truncate_batch_exp())?)
            },
            reset_both: if spec.bidi {
                Some(db.prepare(batch_reset_both())?)
            } else {
                None
            },
            fused_stats: if spec.bidi {
                Some(db.prepare(&batch_fused_stats())?)
            } else {
                None
            },
            mark_done_met: if spec.bidi {
                Some(db.prepare(&batch_mark_done_met())?)
            } else {
                None
            },
            mark_done_drained: if spec.bidi {
                Some(db.prepare(batch_mark_done_drained())?)
            } else {
                None
            },
            clear_stats: if spec.bidi {
                None
            } else {
                Some(db.prepare(&fgen.clear_stats())?)
            },
            refresh_stats: if spec.bidi {
                None
            } else {
                Some(db.prepare(&fgen.refresh_stats())?)
            },
            mark_done_target: if spec.bidi {
                None
            } else {
                Some(db.prepare(&fgen.mark_done_target_settled())?)
            },
            mark_done_exhausted: if spec.bidi {
                None
            } else {
                Some(db.prepare(&fgen.mark_done_exhausted())?)
            },
            read_done_bounds: db.prepare(batch_read_done_bounds())?,
            meet_node: if spec.bidi {
                Some(db.prepare(batch_meet_node())?)
            } else {
                None
            },
            dist_of_fwd: db.prepare(&fgen.dist_of())?,
            delete_done_visited: db.prepare(batch_delete_done_visited())?,
            delete_done_bounds: db.prepare(batch_delete_done_bounds())?,
        })
    }
}

fn run_batch(gdb: &mut GraphDb, pairs: &[(i64, i64)], spec: BatchSpec) -> Result<BatchOutcome> {
    for &(s, t) in pairs {
        gdb.check_node(s)?;
        gdb.check_node(t)?;
    }
    let mut paths: Vec<Option<Path>> = vec![None; pairs.len()];
    // Trivial pairs are answered client-side; the qid of a live pair is its
    // index into `pairs`, so results map back without bookkeeping.
    let live: Vec<(i64, i64, i64)> = pairs
        .iter()
        .enumerate()
        .filter(|&(_, &(s, t))| s != t)
        .map(|(qid, &(s, t))| (qid as i64, s, t))
        .collect();
    for (qid, &(s, t)) in pairs.iter().enumerate() {
        if s == t {
            paths[qid] = Some(Path {
                nodes: vec![s],
                length: 0,
            });
        }
    }
    if live.is_empty() {
        return Ok(BatchOutcome {
            paths,
            stats: QueryStats::default(),
        });
    }

    gdb.reset_batch_tables()?;
    let use_merge = gdb.merge_supported() && spec.style == SqlStyle::New;
    if !use_merge {
        gdb.reset_batch_exp()?;
    }
    let prune = spec.prune && spec.bidi;
    let fgen = BatchSqlGen::new(Dir::Fwd, EdgeSource::Edges, spec.style, prune);
    let bgen = BatchSqlGen::new(Dir::Bwd, EdgeSource::Edges, spec.style, prune);
    let n = gdb.num_nodes() as i64;
    let max_iters = 2 * gdb.num_nodes() as u64 + 16;

    // Prepare the loop statement set once per batch; after the first batch
    // these are plan-cache hits (TRUNCATE-based resets keep the catalog
    // version stable).
    let merge_supported = gdb.merge_supported();
    // Landmark seeding fills each query's `TBounds.bound` with its
    // triangle-inequality upper bound + 1 in one set-oriented UPDATE
    // (DESIGN.md §12); queries without a common landmark keep INF.
    let seed_stmt = if prune && spec.seed_bounds && gdb.landmarks().is_some() {
        Some(gdb.db.prepare(&seed_bounds_batch())?)
    } else {
        None
    };
    let fwd_stmts = BatchDirStmts::prepare(&mut gdb.db, &fgen, &spec, use_merge, merge_supported)?;
    let bwd_stmts = if spec.bidi {
        Some(BatchDirStmts::prepare(
            &mut gdb.db,
            &bgen,
            &spec,
            use_merge,
            merge_supported,
        )?)
    } else {
        None
    };
    let shared = BatchSharedStmts::prepare(&mut gdb.db, &fgen, &spec, use_merge)?;

    let mut runner = Runner::new(gdb);
    // Multi-row initialization: one INSERT per table seeds the whole batch
    // (the statements are batch-specific literals, so they are planned
    // once and stay out of the plan cache).
    runner.exec_once(
        Phase::PathExpansion,
        FemOperator::Aux,
        &BatchSqlGen::init_batch(Dir::Fwd, &live),
    )?;
    if spec.bidi {
        runner.exec_once(
            Phase::PathExpansion,
            FemOperator::Aux,
            &BatchSqlGen::init_batch(Dir::Bwd, &live),
        )?;
    }
    runner.exec_once(
        Phase::PathExpansion,
        FemOperator::Aux,
        &BatchSqlGen::init_bounds_batch(&live, spec.bidi),
    )?;
    if let Some(seed) = &seed_stmt {
        runner.exec_prepared(Phase::PathExpansion, FemOperator::Aux, seed, &[])?;
    }

    let live_map: HashMap<i64, (i64, i64)> = live.iter().map(|&(q, s, t)| (q, (s, t))).collect();
    let mut active = live.len() as u64;
    let mut iters = 0u64;
    let mut visited_retired = 0u64;
    loop {
        // F-operator, per direction: each unfinished query marks its
        // frontier in its smaller direction.
        let marked_f = runner
            .exec_prepared(Phase::PathExpansion, FemOperator::F, &fwd_stmts.mark, &[])?
            .rows_affected;
        let marked_b = if let Some(bwd) = &bwd_stmts {
            runner
                .exec_prepared(Phase::PathExpansion, FemOperator::F, &bwd.mark, &[])?
                .rows_affected
        } else {
            0
        };

        // E+M operators for each direction that marked anything.
        for (stmts, marked) in [(Some(&fwd_stmts), marked_f), (bwd_stmts.as_ref(), marked_b)] {
            let Some(stmts) = stmts else { continue };
            if marked == 0 {
                continue;
            }
            if let Some(expand) = &stmts.expand_merge {
                runner.exec_prepared(Phase::PathExpansion, FemOperator::E, expand, &[])?;
            } else {
                runner.exec_prepared(
                    Phase::PathExpansion,
                    FemOperator::Aux,
                    need(&shared.truncate_exp, "truncate_exp")?,
                    &[],
                )?;
                runner.exec_prepared(
                    Phase::PathExpansion,
                    FemOperator::E,
                    need(&stmts.expand_into_exp, "expand_into_exp")?,
                    &[],
                )?;
                if let Some(merge) = &stmts.merge_from_exp {
                    runner.exec_prepared(Phase::PathExpansion, FemOperator::M, merge, &[])?;
                } else {
                    runner.exec_prepared(
                        Phase::PathExpansion,
                        FemOperator::M,
                        need(&stmts.update_from_exp, "update_from_exp")?,
                        &[],
                    )?;
                    runner.exec_prepared(
                        Phase::PathExpansion,
                        FemOperator::M,
                        need(&stmts.insert_from_exp, "insert_from_exp")?,
                        &[Value::Int(n), Value::Int(n)],
                    )?;
                }
            }
            if !spec.bidi {
                runner.exec_prepared(
                    Phase::PathExpansion,
                    FemOperator::F,
                    &stmts.reset_frontier,
                    &[],
                )?;
            }
            runner.stats.expansions += 1;
        }
        // Bidirectional batches settle both directions' frontiers in one
        // fused scan (neither expansion touches the other side's flags, so
        // deferring the settle past the second expansion changes nothing).
        if spec.bidi && marked_f + marked_b > 0 {
            runner.exec_prepared(
                Phase::PathExpansion,
                FemOperator::F,
                need(&shared.reset_both, "reset_both")?,
                &[],
            )?;
        }

        // Statistics collection and per-qid termination. Bidirectional
        // batches fold minCost, both frontier minima and both candidate
        // counts into one scan, then retire queries whose minCost is proven
        // final (or whose candidates drained); the single-directional mode
        // refreshes its forward bounds and checks its target.
        let newly_done = if spec.bidi {
            runner.exec_prepared(
                Phase::StatsCollection,
                FemOperator::Aux,
                need(&shared.fused_stats, "fused_stats")?,
                &[],
            )?;
            runner
                .exec_prepared(
                    Phase::StatsCollection,
                    FemOperator::Aux,
                    need(&shared.mark_done_met, "mark_done_met")?,
                    &[],
                )?
                .rows_affected
                + runner
                    .exec_prepared(
                        Phase::StatsCollection,
                        FemOperator::Aux,
                        need(&shared.mark_done_drained, "mark_done_drained")?,
                        &[],
                    )?
                    .rows_affected
        } else {
            runner.exec_prepared(
                Phase::StatsCollection,
                FemOperator::Aux,
                need(&shared.clear_stats, "clear_stats")?,
                &[],
            )?;
            runner.exec_prepared(
                Phase::StatsCollection,
                FemOperator::Aux,
                need(&shared.refresh_stats, "refresh_stats")?,
                &[],
            )?;
            runner
                .exec_prepared(
                    Phase::StatsCollection,
                    FemOperator::Aux,
                    need(&shared.mark_done_target, "mark_done_target")?,
                    &[],
                )?
                .rows_affected
                + runner
                    .exec_prepared(
                        Phase::StatsCollection,
                        FemOperator::Aux,
                        need(&shared.mark_done_exhausted, "mark_done_exhausted")?,
                        &[],
                    )?
                    .rows_affected
        };
        // Retire finished queries immediately: recover their paths, then
        // drop their rows so later iterations only scan live queries. Every
        // done-marking statement touches distinct live bounds rows, so the
        // affected counts track the active population exactly.
        if newly_done > 0 {
            visited_retired += retire_done(
                &mut runner,
                &spec,
                &shared,
                &fwd_stmts,
                bwd_stmts.as_ref(),
                &live_map,
                &mut paths,
            )?;
            active = active.saturating_sub(newly_done);
        }
        if active == 0 {
            break;
        }
        if marked_f + marked_b == 0 {
            return Err(SqlError::Eval(format!(
                "{}: {} queries active but no frontier marked — likely a bug",
                spec.name, active
            )));
        }
        iters += 1;
        if iters > max_iters {
            return Err(SqlError::Eval(format!(
                "{} exceeded the iteration bound — likely a bug",
                spec.name
            )));
        }
    }
    // Retirement deleted each finished query's rows as it went, so the
    // final table count alone would under-report the visited set — add
    // back what retirement removed.
    let mut stats = runner.finish_stats("TBVisited");
    stats.visited_nodes += visited_retired;
    Ok(BatchOutcome { paths, stats })
}

/// Recovers the paths of every query marked done this iteration (the
/// batched Listings 3(3)/4(6), per qid), then deletes those queries' rows
/// from `TBVisited` and `TBounds`. Returns the number of visited rows
/// removed (for the batch's `visited_nodes` statistic).
fn retire_done(
    runner: &mut Runner<'_>,
    spec: &BatchSpec,
    shared: &BatchSharedStmts,
    fwd_stmts: &BatchDirStmts,
    bwd_stmts: Option<&BatchDirStmts>,
    live_map: &HashMap<i64, (i64, i64)>,
    paths: &mut [Option<Path>],
) -> Result<u64> {
    let bounds = runner.exec_prepared(
        Phase::FullPathRecovery,
        FemOperator::Aux,
        &shared.read_done_bounds,
        &[],
    )?;
    let done_rows = bounds
        .rows
        .ok_or_else(|| SqlError::Eval("expected bounds rows".into()))?
        .rows;
    let limit = runner.gdb.num_nodes() + 1;
    for row in done_rows {
        let (Some(qid), Some(min_cost)) = (row[0].as_i64(), row[1].as_i64()) else {
            continue;
        };
        let &(s, t) = live_map
            .get(&qid)
            .ok_or_else(|| SqlError::Eval(format!("bounds row for unknown qid {qid}")))?;
        if spec.bidi {
            if min_cost >= INF {
                continue; // unreachable: paths[qid] stays None
            }
            let meet = runner
                .scalar_prepared(
                    Phase::FullPathRecovery,
                    FemOperator::Aux,
                    need(&shared.meet_node, "meet_node")?,
                    &[Value::Int(qid), Value::Int(min_cost)],
                )?
                .ok_or_else(|| {
                    SqlError::Eval(format!("qid {qid}: no node realizes minCost {min_cost}"))
                })?;
            let mut nodes = walk_links(runner, &fwd_stmts.pred_of, Some(qid), meet, s, limit)?;
            nodes.reverse();
            nodes.push(meet);
            nodes.extend(walk_links(
                runner,
                &bwd_stmts
                    .ok_or_else(|| SqlError::Eval("batch mode bug: bwd statements missing".into()))?
                    .pred_of,
                Some(qid),
                meet,
                t,
                limit,
            )?);
            debug_assert_eq!(nodes.first(), Some(&s));
            debug_assert_eq!(nodes.last(), Some(&t));
            paths[qid as usize] = Some(Path {
                nodes,
                length: min_cost,
            });
        } else {
            // The target row exists iff the forward search reached it, and
            // its distance is final once the query is done.
            let Some(length) = runner.scalar_prepared(
                Phase::FullPathRecovery,
                FemOperator::Aux,
                &shared.dist_of_fwd,
                &[Value::Int(qid), Value::Int(t)],
            )?
            else {
                continue;
            };
            let mut nodes = walk_links(runner, &fwd_stmts.pred_of, Some(qid), t, s, limit)?;
            nodes.reverse();
            nodes.push(t);
            paths[qid as usize] = Some(Path { nodes, length });
        }
    }
    let visited_deleted = runner
        .exec_prepared(
            Phase::StatsCollection,
            FemOperator::Aux,
            &shared.delete_done_visited,
            &[],
        )?
        .rows_affected;
    runner.exec_prepared(
        Phase::StatsCollection,
        FemOperator::Aux,
        &shared.delete_done_bounds,
        &[],
    )?;
    Ok(visited_deleted)
}

/// **BatchDJ** — batched single-directional Dijkstra: every query expands
/// its minimal-distance candidate set forward until its target settles or
/// its frontier exhausts.
#[derive(Debug, Clone, Copy)]
pub struct BatchDjFinder {
    /// NSQL (window + MERGE) or TSQL (aggregate-join + UPDATE/INSERT).
    pub style: SqlStyle,
    /// Pairs in flight per tile ([`DEFAULT_BATCH_CHUNK`]; 0 = unlimited).
    pub chunk: usize,
}

impl Default for BatchDjFinder {
    fn default() -> Self {
        BatchDjFinder {
            style: SqlStyle::New,
            chunk: DEFAULT_BATCH_CHUNK,
        }
    }
}

impl BatchShortestPathFinder for BatchDjFinder {
    fn name(&self) -> &'static str {
        "BatchDJ"
    }

    fn find_paths(&self, gdb: &mut GraphDb, pairs: &[(i64, i64)]) -> Result<BatchOutcome> {
        run_batch_chunked(
            gdb,
            pairs,
            BatchSpec {
                name: "BatchDJ",
                bidi: false,
                frontier: BatchFrontier::PerQueryMin,
                style: self.style,
                prune: false,
                seed_bounds: false,
            },
            self.chunk,
        )
    }
}

/// **BatchBDJ** — batched bidirectional search: every query alternates
/// directions by its own frontier sizes, prunes expansions with its own
/// Theorem-1 bound from `TBounds`, and stops when its own
/// `minCost <= lf + lb`.
///
/// The per-query frontier defaults to [`BatchFrontier::All`] (BFS-style
/// label-correcting): per-iteration table scans are the dominant batch
/// cost, so fewer, fatter iterations win. [`BatchFrontier::PerQueryMin`]
/// gives the strict set-Dijkstra behaviour of the single-query BSDJ.
#[derive(Debug, Clone, Copy)]
pub struct BatchBdjFinder {
    pub style: SqlStyle,
    /// Theorem-1 pruning (on by default; off for the ablation bench).
    pub prune: bool,
    /// Seed each query's pruning ceiling from the landmark index when one
    /// exists (on by default; a no-op without an index).
    pub seed_bounds: bool,
    /// Per-query frontier policy.
    pub frontier: BatchFrontier,
    /// Pairs in flight per tile ([`DEFAULT_BATCH_CHUNK`]; 0 = unlimited).
    pub chunk: usize,
}

impl Default for BatchBdjFinder {
    fn default() -> Self {
        BatchBdjFinder {
            style: SqlStyle::New,
            prune: true,
            seed_bounds: true,
            frontier: BatchFrontier::default(),
            chunk: DEFAULT_BATCH_CHUNK,
        }
    }
}

impl BatchShortestPathFinder for BatchBdjFinder {
    fn name(&self) -> &'static str {
        "BatchBDJ"
    }

    fn find_paths(&self, gdb: &mut GraphDb, pairs: &[(i64, i64)]) -> Result<BatchOutcome> {
        run_batch_chunked(
            gdb,
            pairs,
            BatchSpec {
                name: "BatchBDJ",
                bidi: true,
                frontier: self.frontier,
                style: self.style,
                prune: self.prune,
                seed_bounds: self.seed_bounds,
            },
            self.chunk,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fempath_graph::generate;

    fn finders() -> Vec<Box<dyn BatchShortestPathFinder>> {
        vec![
            Box::new(BatchDjFinder::default()),
            Box::new(BatchDjFinder {
                style: SqlStyle::Traditional,
                ..Default::default()
            }),
            Box::new(BatchBdjFinder::default()),
            Box::new(BatchBdjFinder {
                frontier: BatchFrontier::PerQueryMin,
                ..Default::default()
            }),
            Box::new(BatchBdjFinder {
                prune: false,
                ..Default::default()
            }),
            Box::new(BatchBdjFinder {
                style: SqlStyle::Traditional,
                ..Default::default()
            }),
        ]
    }

    #[test]
    fn batch_matches_single_query_distances_on_grid() {
        let g = generate::grid(5, 5, 1..=10, 9);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        let pairs: Vec<(i64, i64)> = vec![(0, 24), (3, 21), (12, 12), (24, 0), (0, 24)];
        let single = crate::algo::BsdjFinder::default();
        let expected: Vec<Option<i64>> = pairs
            .iter()
            .map(|&(s, t)| {
                use crate::algo::ShortestPathFinder;
                single
                    .find_path(&mut gdb, s, t)
                    .unwrap()
                    .path
                    .map(|p| p.length)
            })
            .collect();
        for f in finders() {
            let out = f.find_paths(&mut gdb, &pairs).unwrap();
            let got: Vec<Option<i64>> = out
                .paths
                .iter()
                .map(|p| p.as_ref().map(|p| p.length))
                .collect();
            assert_eq!(got, expected, "{} distances", f.name());
            for (i, p) in out.paths.iter().enumerate() {
                let p = p.as_ref().unwrap();
                assert_eq!(p.nodes.first(), Some(&pairs[i].0), "{} start", f.name());
                assert_eq!(p.nodes.last(), Some(&pairs[i].1), "{} end", f.name());
            }
            // Retirement deletes rows as queries finish; the stat must
            // still report the visited set, not the (empty) final table.
            assert!(
                out.stats.visited_nodes > 0,
                "{} visited_nodes must survive retirement",
                f.name()
            );
        }
    }

    #[test]
    fn batch_handles_unreachable_and_trivial_pairs() {
        // Two components: 0–1–2 and 3–4; node 5 isolated.
        let g =
            fempath_graph::Graph::from_undirected_edges(6, vec![(0, 1, 2), (1, 2, 3), (3, 4, 1)]);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        let pairs = vec![(0, 2), (0, 4), (5, 5), (2, 5), (3, 4)];
        for f in finders() {
            let out = f.find_paths(&mut gdb, &pairs).unwrap();
            assert_eq!(out.paths[0].as_ref().map(|p| p.length), Some(5));
            assert!(
                out.paths[1].is_none(),
                "{}: 0->4 crosses components",
                f.name()
            );
            assert_eq!(
                out.paths[2].as_ref().map(|p| p.nodes.clone()),
                Some(vec![5]),
                "{}: trivial pair",
                f.name()
            );
            assert!(out.paths[3].is_none(), "{}: isolated target", f.name());
            assert_eq!(out.paths[4].as_ref().map(|p| p.length), Some(1));
        }
    }

    #[test]
    fn batch_rejects_invalid_nodes() {
        let g = generate::grid(2, 2, 1..=10, 1);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        assert!(BatchBdjFinder::default()
            .find_paths(&mut gdb, &[(0, 9)])
            .is_err());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let g = generate::grid(2, 2, 1..=10, 1);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        let out = BatchBdjFinder::default().find_paths(&mut gdb, &[]).unwrap();
        assert!(out.paths.is_empty());
        assert_eq!(out.stats.sql_statements, 0);
    }
}
