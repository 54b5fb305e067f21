//! # fempath
//!
//! A relational approach to shortest-path discovery over large graphs — a
//! from-scratch Rust reproduction of Gao et al., *"Relational Approach for
//! Shortest Path Discovery over Large Graphs"*, PVLDB 5(4), 2011.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`storage`] — pages, buffer pool, heap files, B+trees,
//! * [`sql`] — the SQL engine (window functions, MERGE, views, prepared
//!   statements),
//! * [`graph`] — graph model, synthetic generators, relational loaders,
//! * [`inmem`] — in-memory baselines (MDJ/MBDJ),
//! * [`core`] — the FEM framework, the five relational shortest-path
//!   algorithms (DJ, BDJ, BSDJ, BBFS, BSEG), the SegTable index, and the
//!   concurrent [`PathService`](core::PathService) (DESIGN.md §10).
//!
//! ## Quickstart
//!
//! ```
//! use fempath::core::{GraphDb, BsdjFinder, ShortestPathFinder};
//! use fempath::graph::generate;
//!
//! // A small weighted power-law graph, loaded into relational tables.
//! let g = generate::power_law(500, 3, 1..=100, 42);
//! let mut db = GraphDb::in_memory(&g).unwrap();
//!
//! // Bi-directional set Dijkstra, driven entirely by SQL statements.
//! let finder = BsdjFinder::default();
//! let outcome = finder.find_path(&mut db, 0, 250).unwrap();
//! if let Some(path) = &outcome.path {
//!     assert!(path.length > 0);
//! }
//! ```
//!
//! ## Many pairs
//!
//! Every finder answers a slice of (s, t) pairs in one session through
//! `find_paths`, which loops `find_path` and sums the measurements:
//!
//! ```
//! use fempath::core::{BatchShortestPathFinder, BdjFinder, GraphDb};
//! use fempath::graph::generate;
//!
//! let g = generate::power_law(500, 3, 1..=100, 42);
//! let mut db = GraphDb::in_memory(&g).unwrap();
//!
//! let pairs = vec![(0, 250), (7, 431), (123, 123), (250, 0)];
//! let out = BdjFinder::default().find_paths(&mut db, &pairs).unwrap();
//! assert_eq!(out.paths.len(), pairs.len()); // paths[i] answers pairs[i]
//! ```
//!
//! ## Concurrent serving
//!
//! [`PathService`](core::PathService) freezes the graph into an
//! `Arc`-shared read-only snapshot and answers queries from a pool of
//! worker sessions, each with private working tables (DESIGN.md §10);
//! a batch runs as one job per distinct pair:
//!
//! ```
//! use fempath::core::PathService;
//! use fempath::graph::generate;
//!
//! let g = generate::power_law(500, 3, 1..=100, 42);
//! let svc = PathService::new(&g, 4).unwrap();
//! let out = svc.query(0, 250).unwrap();           // callable from any thread
//! let paths = svc.query_batch(&[(0, 250), (7, 431)]).unwrap();
//! assert_eq!(paths.len(), 2);
//! ```

pub use fempath_core as core;
pub use fempath_graph as graph;
pub use fempath_inmem as inmem;
pub use fempath_sql as sql;
pub use fempath_storage as storage;
