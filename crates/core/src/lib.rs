//! # fempath-core
//!
//! The paper's primary contribution: the **FEM framework** for graph search
//! in a relational database, and relational shortest-path discovery with
//! its two optimizations — **bidirectional set Dijkstra** and the
//! **SegTable** index of pre-computed local shortest segments.
//!
//! * [`GraphDb`] — a database instance with one graph loaded,
//! * [`algo`] — DJ, BDJ, BSDJ, BBFS and BSEG (§3.4, §4), each an F/E/M
//!   iteration whose statements run through one executor that charges
//!   every statement to its phase and operator; any of them answers many
//!   (s, t) pairs through [`BatchShortestPathFinder`],
//! * [`segtable`] — SegTable construction (§4.2),
//! * [`landmarks`] — the landmark distance index: triangle-inequality
//!   bounds seeded into Theorem-1 pruning and an exact fast path for
//!   covered pairs (DESIGN.md §12),
//! * [`service`] — the concurrent [`PathService`] over `Arc`-shared
//!   read-only graph snapshots (DESIGN.md §10), one job per pair on one
//!   shared queue ([`dispatch`], DESIGN.md §13),
//! * [`stats`] — per-phase / per-operator measurement.
//!
//! The paper's "FEM is general" searches of §3.1 — reachability, Prim's
//! minimal spanning tree, label-path matching — are not served by
//! anything here; they live in the `fem_framework` example, written
//! against this crate's public API.
//!
//! ```
//! use fempath_core::{BsdjFinder, GraphDb, ShortestPathFinder};
//! use fempath_graph::generate;
//!
//! let g = generate::grid(6, 6, 1..=10, 7);
//! let mut db = GraphDb::in_memory(&g).unwrap();
//! let out = BsdjFinder::default().find_path(&mut db, 0, 35).unwrap();
//! let path = out.path.expect("grid is connected");
//! assert_eq!(path.nodes.first(), Some(&0));
//! assert_eq!(path.nodes.last(), Some(&35));
//! ```

#![forbid(unsafe_code)]

pub mod algo;
pub mod cache;
pub mod dispatch;
pub mod graphdb;
pub mod landmarks;
pub mod segtable;
pub mod service;
pub mod sqlgen;
pub mod sssp;
pub mod stats;

pub use algo::{
    BatchBdjFinder, BatchOutcome, BatchShortestPathFinder, BbfsFinder, BdjFinder, BsdjFinder,
    BsegFinder, CancelFlag, DjFinder, FrontierPolicy, Path, PathOutcome, SearchLimits,
    ShortestPathFinder,
};
pub use cache::{CacheStats, ResultCache};
pub use dispatch::{QueueStats, StealQueues, WaitHistogram};
pub use graphdb::{
    GraphDb, GraphDbOptions, GraphSnapshot, LandmarkInfo, SegTableInfo, INF, NO_NODE,
};
pub use landmarks::{
    build_landmark_index, build_landmarks, estimate_distance, DistanceBounds, LandmarkSelection,
    LandmarkStats,
};
pub use segtable::{build_segtable, build_segtable_with, SegTableStats};
pub use service::{
    PathService, PathServiceOptions, ServiceAlgorithm, ServiceStats, DEFAULT_CACHE_BYTES,
};
pub use sssp::{single_source, SsspEntry, SsspResult};
pub use stats::{FemOperator, Phase, QueryStats, SqlStyle};

/// Result alias shared with the SQL layer.
pub type Result<T> = fempath_sql::Result<T>;
