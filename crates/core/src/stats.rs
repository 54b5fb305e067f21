//! Measurement machinery for the experiments.
//!
//! The paper reports, per query: wall time, number of expansions (`Exps`),
//! visited-node count (`Vst`), time per *phase* — path expansion (PE),
//! statistics collection (SC), full path recovery (FPR) — Fig 6(b), and
//! time per *operator* (F/E/M) — Fig 6(c). [`QueryStats`] carries all of
//! them plus SQL-statement and buffer-pool I/O counts.

use fempath_storage::IoStats;
use std::time::Duration;

/// The three phases of Algorithm 1/2 (Fig 6(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Path expansion: F/E/M operator statements.
    PathExpansion,
    /// Statistics collection: `min(d2s)`, `min(d2s+d2t)`, frontier counts,
    /// termination probes.
    StatsCollection,
    /// Full path recovery along the `p2s`/`p2t` links.
    FullPathRecovery,
}

/// FEM operator attribution (Fig 6(c)). `Aux` covers auxiliary statements
/// (initialization, sign flips) that the paper folds into the framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FemOperator {
    F,
    E,
    M,
    Aux,
}

/// Per-query measurements.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Number of expansion iterations (the paper's `Exps`).
    pub expansions: u64,
    /// Rows in `TVisited` when the search stopped (the paper's `Vst`).
    pub visited_nodes: u64,
    /// SQL statements issued.
    pub sql_statements: u64,
    /// Wall time per phase: [PE, SC, FPR].
    pub phase_times: [Duration; 3],
    /// Wall time per operator: [F, E, M, Aux]. In combined-statement mode
    /// the fused E+M MERGE is attributed to E; use split-operator mode
    /// (Fig 6(c)) for an exact breakdown.
    pub operator_times: [Duration; 4],
    /// Buffer-pool/disk deltas over the query.
    pub io: IoStats,
    /// Total wall time.
    pub total_time: Duration,
}

impl QueryStats {
    pub(crate) fn record(&mut self, phase: Phase, op: FemOperator, dt: Duration) {
        self.sql_statements += 1;
        self.phase_times[phase as usize] += dt;
        self.operator_times[op_index(op)] += dt;
    }

    /// Phase time accessor.
    pub fn phase(&self, phase: Phase) -> Duration {
        self.phase_times[phase as usize]
    }

    /// Operator time accessor.
    pub fn operator(&self, op: FemOperator) -> Duration {
        self.operator_times[op_index(op)]
    }

    /// Folds another run's measurements into this one (used by
    /// multi-pair runs to report whole-batch totals).
    pub fn absorb(&mut self, other: &QueryStats) {
        self.expansions += other.expansions;
        self.visited_nodes += other.visited_nodes;
        self.sql_statements += other.sql_statements;
        for (a, b) in self.phase_times.iter_mut().zip(&other.phase_times) {
            *a += *b;
        }
        for (a, b) in self.operator_times.iter_mut().zip(&other.operator_times) {
            *a += *b;
        }
        self.io.buffer_hits += other.io.buffer_hits;
        self.io.buffer_misses += other.io.buffer_misses;
        self.io.evictions += other.io.evictions;
        self.io.disk_reads += other.io.disk_reads;
        self.io.disk_writes += other.io.disk_writes;
        self.io.allocations += other.io.allocations;
        self.total_time += other.total_time;
    }
}

fn op_index(op: FemOperator) -> usize {
    match op {
        FemOperator::F => 0,
        FemOperator::E => 1,
        FemOperator::M => 2,
        FemOperator::Aux => 3,
    }
}

/// NSQL vs TSQL (§3.3, Fig 6(d)/9(f)): whether statements use the new SQL
/// features (window function + MERGE) or the traditional formulation
/// (aggregate + join, UPDATE followed by INSERT).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SqlStyle {
    /// Window function + MERGE (paper: NSQL).
    #[default]
    New,
    /// Aggregate-join E-operator, UPDATE+INSERT M-operator (paper: TSQL).
    Traditional,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut s = QueryStats::default();
        s.record(
            Phase::PathExpansion,
            FemOperator::E,
            Duration::from_millis(5),
        );
        s.record(
            Phase::PathExpansion,
            FemOperator::M,
            Duration::from_millis(3),
        );
        s.record(
            Phase::StatsCollection,
            FemOperator::Aux,
            Duration::from_millis(2),
        );
        assert_eq!(s.sql_statements, 3);
        assert_eq!(s.phase(Phase::PathExpansion), Duration::from_millis(8));
        assert_eq!(s.phase(Phase::StatsCollection), Duration::from_millis(2));
        assert_eq!(s.operator(FemOperator::E), Duration::from_millis(5));
        assert_eq!(s.operator(FemOperator::M), Duration::from_millis(3));
    }
}
