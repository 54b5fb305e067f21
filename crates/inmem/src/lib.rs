//! # fempath-inmem
//!
//! In-memory graph algorithms: the paper's **MDJ** (Dijkstra) and **MBDJ**
//! (bidirectional Dijkstra) baselines from §5.1. These are both benchmark
//! competitors (Fig 8(d)) and the correctness oracles every relational
//! shortest-path finder is tested against.

#![forbid(unsafe_code)]

pub mod bidijkstra;
pub mod dijkstra;

/// Result of an in-memory shortest-path query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathResult {
    /// Shortest distance.
    pub distance: u64,
    /// Node sequence from source to target (inclusive).
    pub nodes: Vec<u32>,
    /// Number of settled (finalized) nodes — the search-space metric.
    pub settled: u64,
}
