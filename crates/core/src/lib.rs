//! # fempath-core
//!
//! The paper's primary contribution: the **FEM framework** for graph search
//! in a relational database, and relational shortest-path discovery with
//! its two optimizations — **bidirectional set Dijkstra** and the
//! **SegTable** index of pre-computed local shortest segments.
//!
//! * [`GraphDb`] — a database instance with one graph loaded,
//! * [`fem`] — the generic F/E/M iteration skeleton (§3.1),
//! * [`algo`] — DJ, BDJ, BSDJ, BBFS and BSEG (§3.4, §4); any of them
//!   answers many (s, t) pairs through [`BatchShortestPathFinder`],
//! * [`segtable`] — SegTable construction (§4.2),
//! * [`landmarks`] — the landmark distance index: triangle-inequality
//!   bounds seeded into Theorem-1 pruning and an exact fast path for
//!   covered pairs (DESIGN.md §12),
//! * [`service`] — the concurrent [`PathService`] over `Arc`-shared
//!   read-only graph snapshots (DESIGN.md §10) with work-stealing
//!   dispatch of one job per pair ([`dispatch`], DESIGN.md §13),
//! * [`prim`] — Prim's MST via FEM (the §3.1 extension),
//! * [`stats`] — per-phase / per-operator measurement.
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
pub mod fem;
pub mod graphdb;
pub mod landmarks;
pub mod pattern;
pub mod prim;
pub mod reach;
pub mod segtable;
pub mod service;
pub mod sqlgen;
pub mod sssp;
pub mod stats;

pub use algo::{
    BatchBdjFinder, BatchOutcome, BatchShortestPathFinder, BbfsFinder, BdjFinder, BsdjFinder,
    BsegFinder, DjFinder, FrontierPolicy, Path, PathOutcome, ShortestPathFinder,
};
pub use cache::{CacheStats, ResultCache};
pub use dispatch::{StealQueues, WaitHistogram};
pub use fem::{run_fem, FemSearch};
pub use graphdb::{
    GraphDb, GraphDbOptions, GraphSnapshot, LandmarkInfo, SegTableInfo, INF, NO_NODE,
};
pub use landmarks::{
    build_landmark_index, build_landmarks, estimate_distance, DistanceBounds, LandmarkSelection,
    LandmarkStats,
};
pub use pattern::{match_label_path, set_labels};
pub use prim::{prim_mst, MstResult};
pub use reach::{component_size, reachable};
pub use segtable::{build_segtable, build_segtable_with, SegTableStats};
pub use service::{
    PathService, PathServiceOptions, ServiceAlgorithm, ServiceStats, WorkerStats,
    DEFAULT_CACHE_BYTES,
};
pub use sssp::{single_source, SsspEntry, SsspResult};
pub use stats::{FemOperator, Phase, QueryStats, SqlStyle};

/// Result alias shared with the SQL layer.
pub type Result<T> = fempath_sql::Result<T>;
