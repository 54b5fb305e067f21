//! Plan-shape verdicts: one [`TableAccess`] per base-table access of the
//! plan `plan::build` compiles for the statement — the plan that runs —
//! read off the [`ProbePath`] each index access recorded. Nothing here
//! chooses a path, so the verdicts cannot drift from the executor.

use super::{AccessKind, JoinKind, TableAccess};
use crate::catalog::{Catalog, ProbePath};
use crate::plan::{
    InputPlan, InsertSourcePlan, JoinPlan, PlanKind, ProbePlan, RightPlan, SelectPlan, SourcePlan,
    SubPlan, UpdateKind,
};

/// Every base-table access of `plan`, in pipeline order, subplans last.
pub(crate) fn plan_accesses(catalog: &Catalog, plan: &PlanKind) -> Vec<TableAccess> {
    let mut w = Walk {
        catalog,
        out: Vec::new(),
    };
    match plan {
        PlanKind::Select(sp) => w.select(sp, false),
        PlanKind::Insert(ip) => {
            if let InsertSourcePlan::Query(q) = &ip.source {
                w.select(q, false);
            }
            w.subplans(&ip.subplans);
        }
        PlanKind::Update(up) => {
            match &up.kind {
                UpdateKind::Plain { target, .. } => w.source(&target.access, false),
                UpdateKind::From { source, probe, .. } => {
                    w.source(source, false);
                    w.probe(&up.table, probe);
                }
            }
            w.subplans(&up.subplans);
        }
        PlanKind::Delete(dp) => {
            w.source(&dp.target.access, false);
            w.subplans(&dp.subplans);
        }
        PlanKind::Merge(mp) => {
            w.source(&mp.source, false);
            w.probe(&mp.target, &mp.probe);
            w.subplans(&mp.subplans);
        }
        PlanKind::Ddl(_) => {}
    }
    w.out
}

struct Walk<'a> {
    catalog: &'a Catalog,
    out: Vec<TableAccess>,
}

impl Walk<'_> {
    /// A SELECT's pipeline; derived tables and views inherit
    /// `in_subquery`, scalar/IN/EXISTS subqueries set it.
    fn select(&mut self, sp: &SelectPlan, in_subquery: bool) {
        self.source(&sp.from.source, in_subquery);
        for j in &sp.from.joins {
            match j {
                JoinPlan::IndexLoop {
                    table,
                    binding,
                    path_cols,
                    path,
                    ..
                } => self.record(
                    table,
                    binding,
                    *path,
                    path_cols,
                    JoinKind::IndexNestedLoop,
                    in_subquery,
                ),
                JoinPlan::Hash { right, .. } => self.right(right, JoinKind::HashJoin, in_subquery),
                JoinPlan::Loop { right, .. } => {
                    self.right(right, JoinKind::NestedLoop, in_subquery)
                }
            }
        }
        self.subplans(&sp.subplans);
    }

    fn subplans(&mut self, subs: &[SubPlan]) {
        for s in subs {
            let (SubPlan::Scalar(p) | SubPlan::List(p) | SubPlan::Exists(p)) = s;
            self.select(p, true);
        }
    }

    fn source(&mut self, sp: &SourcePlan, in_subquery: bool) {
        let join = JoinKind::Source;
        match &sp.input {
            InputPlan::Nothing => {}
            InputPlan::Scan { table, binding, .. } => {
                self.record(table, binding, ProbePath::Scan, &[], join, in_subquery)
            }
            InputPlan::Lookup {
                table,
                binding,
                cols,
                path,
                ..
            } => self.record(table, binding, *path, cols, join, in_subquery),
            InputPlan::Derived(sub) => self.select(sub, in_subquery),
        }
    }

    /// The per-source-row probe of an `UPDATE … FROM` / MERGE target. The
    /// plan keeps no alias for it, so the table name stands in.
    fn probe(&mut self, table: &str, probe: &ProbePlan) {
        self.record(
            table,
            table,
            probe.path,
            &probe.cols,
            JoinKind::Probe,
            false,
        );
    }

    /// The build side of a hash or nested-loop join. The plan keeps no
    /// alias for a base table there, so its name stands in.
    fn right(&mut self, right: &RightPlan, join: JoinKind, in_subquery: bool) {
        match right {
            RightPlan::Table { name, .. } => {
                self.record(name, name, ProbePath::Scan, &[], join, in_subquery)
            }
            RightPlan::Derived(sub) => self.select(sub, in_subquery),
        }
    }

    fn record(
        &mut self,
        table: &str,
        binding: &str,
        path: ProbePath,
        cols: &[usize],
        join: JoinKind,
        in_subquery: bool,
    ) {
        let Ok(t) = self.catalog.table(table) else {
            return;
        };
        let (access, cols) = match path {
            ProbePath::Secondary { point: true, .. } => (AccessKind::IndexEq, cols),
            ProbePath::Clustered | ProbePath::Segments | ProbePath::Secondary { .. } => {
                (AccessKind::IndexRange, cols)
            }
            ProbePath::Scan => (AccessKind::FullScan, &[][..]),
        };
        self.out.push(TableAccess {
            table: t.schema.name.clone(),
            binding: binding.to_string(),
            access,
            join,
            index_cols: cols
                .iter()
                .map(|&c| t.schema.columns[c].name.clone())
                .collect(),
            has_index: t.has_index(),
            in_subquery,
        });
    }
}
