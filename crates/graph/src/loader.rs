//! Loading graphs into relational tables (§2.1, Figure 1 of the paper):
//! `TNodes(nid)` and `TEdges(fid, tid, cost)`, with the index strategy of
//! Fig 8(c) applied to `TEdges`.

use crate::graph::Graph;
use fempath_sql::{Database, Result};
use fempath_storage::Value;

/// Physical index configuration for a table — the three strategies the
/// paper sweeps in Fig 8(c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexKind {
    /// No index at all: every access is a scan.
    NoIndex,
    /// Non-clustered secondary B+tree.
    Secondary,
    /// Clustered (index-organized) B+tree — the paper's default for
    /// `TEdges(fid)` and the SegTable.
    #[default]
    Clustered,
}

/// Loader options.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Index on `TEdges(fid)`.
    pub edges_index: IndexKind,
    /// Also create the `TNodes` table (needed for SegTable construction).
    pub with_nodes: bool,
    /// Rows per multi-row INSERT statement.
    pub batch_size: usize,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            edges_index: IndexKind::Clustered,
            with_nodes: true,
            batch_size: 256,
        }
    }
}

/// Creates and populates `TNodes` / `TEdges` from `graph`.
pub fn load_graph(db: &mut Database, graph: &Graph, opts: &LoadOptions) -> Result<()> {
    db.execute("CREATE TABLE TEdges (fid INT, tid INT, cost INT)")?;
    if opts.with_nodes {
        db.execute("CREATE TABLE TNodes (nid INT, PRIMARY KEY(nid))")?;
        let mut batch: Vec<i64> = Vec::with_capacity(opts.batch_size);
        for u in 0..graph.num_nodes() as i64 {
            batch.push(u);
            if batch.len() == opts.batch_size {
                insert_nodes(db, &batch)?;
                batch.clear();
            }
        }
        if !batch.is_empty() {
            insert_nodes(db, &batch)?;
        }
    }
    let mut batch: Vec<(i64, i64, i64)> = Vec::with_capacity(opts.batch_size);
    for arc in arcs_in_key_order(graph) {
        batch.push(arc);
        if batch.len() == opts.batch_size {
            insert_edges(db, &batch)?;
            batch.clear();
        }
    }
    if !batch.is_empty() {
        insert_edges(db, &batch)?;
    }
    match opts.edges_index {
        IndexKind::NoIndex => {}
        IndexKind::Secondary => {
            db.execute("CREATE INDEX idx_tedges_fid ON TEdges(fid)")?;
        }
        IndexKind::Clustered => {
            db.execute("CREATE CLUSTERED INDEX idx_tedges_fid ON TEdges(fid)")?;
        }
    }
    Ok(())
}

/// Bulk-loader options: the same physical end states as [`LoadOptions`]
/// plus the segment-compressed edge store.
#[derive(Debug, Clone)]
pub struct BulkLoadOptions {
    /// Index on `TEdges(fid)` — ignored when `segmented` is set (the
    /// segment store has the fid access path built in).
    pub edges_index: IndexKind,
    /// Also create the `TNodes` table.
    pub with_nodes: bool,
    /// Store `TEdges` as delta-encoded compressed segments (read-only)
    /// instead of heap/clustered rows.
    pub segmented: bool,
}

impl Default for BulkLoadOptions {
    fn default() -> Self {
        BulkLoadOptions {
            edges_index: IndexKind::Clustered,
            with_nodes: true,
            segmented: false,
        }
    }
}

/// Bulk-load variant of [`load_graph`]: creates the same `TNodes` /
/// `TEdges` catalog (identical names and index end-state, so plans are
/// interchangeable), then streams the graph's CSR arcs straight into
/// page-packing heap batches and bottom-up-built B+trees — bypassing
/// per-row SQL INSERT entirely. Indexes are created *before* the fill:
/// reorganising an empty table is free, and the fill then bulk-builds
/// every tree from sorted input.
pub fn load_graph_bulk(db: &mut Database, graph: &Graph, opts: &BulkLoadOptions) -> Result<()> {
    use fempath_sql::ast::ColumnDef;
    use fempath_storage::DataType;
    if opts.segmented {
        let cols = ["fid", "tid", "cost"]
            .iter()
            .map(|n| ColumnDef {
                name: (*n).into(),
                dtype: DataType::Int,
            })
            .collect();
        db.create_segmented_table("TEdges", cols)?;
    } else {
        db.execute("CREATE TABLE TEdges (fid INT, tid INT, cost INT)")?;
        match opts.edges_index {
            IndexKind::NoIndex => {}
            IndexKind::Secondary => {
                db.execute("CREATE INDEX idx_tedges_fid ON TEdges(fid)")?;
            }
            IndexKind::Clustered => {
                db.execute("CREATE CLUSTERED INDEX idx_tedges_fid ON TEdges(fid)")?;
            }
        }
    }
    if opts.with_nodes {
        db.execute("CREATE TABLE TNodes (nid INT, PRIMARY KEY(nid))")?;
        db.bulk_load_rows(
            "TNodes",
            (0..graph.num_nodes() as i64).map(|u| vec![Value::Int(u)]),
        )?;
    }
    if opts.segmented {
        db.bulk_load_segments("TEdges", arcs_in_key_order(graph))?;
    } else {
        db.bulk_load_rows(
            "TEdges",
            arcs_in_key_order(graph)
                .map(|(f, t, c)| vec![Value::Int(f), Value::Int(t), Value::Int(c)]),
        )?;
    }
    Ok(())
}

/// The graph's arcs in `(fid, tid, cost)` order, the order every
/// `TEdges` load writes. Segment packing needs it, and the row tier
/// writes it too, so both tiers keep a fid's arcs in the same order and
/// every statement whose answer follows `TEdges` order agrees across
/// them. CSR arc order is already sorted on fid; each node's run is
/// sorted on the fly.
fn arcs_in_key_order(graph: &Graph) -> impl Iterator<Item = (i64, i64, i64)> + '_ {
    (0..graph.num_nodes()).flat_map(|u| {
        let mut run: Vec<(i64, i64, i64)> = graph
            .out_arcs(u as u32)
            .iter()
            .map(|a| (u as i64, i64::from(a.to), i64::from(a.weight)))
            .collect();
        run.sort_unstable();
        run
    })
}

/// Reads a SNAP-style edge list from `path` and bulk-loads it — the
/// million-node ingest path of the scaled fig6/fig7 harness.
pub fn load_snap_file_bulk(
    db: &mut Database,
    path: impl AsRef<std::path::Path>,
    opts: &BulkLoadOptions,
) -> Result<Graph> {
    let graph = crate::io::read_arcs(path)
        .map_err(|e| fempath_sql::SqlError::Eval(format!("reading edge list: {e}")))?;
    load_graph_bulk(db, &graph, opts)?;
    Ok(graph)
}

fn insert_nodes(db: &mut Database, nids: &[i64]) -> Result<()> {
    // Multi-row VALUES with parameters, batched so the AST cache stays
    // effective (one cached statement per distinct batch size).
    let placeholders: Vec<&str> = nids.iter().map(|_| "(?)").collect();
    let sql = format!(
        "INSERT INTO TNodes (nid) VALUES {}",
        placeholders.join(", ")
    );
    let params: Vec<Value> = nids.iter().map(|&n| Value::Int(n)).collect();
    db.execute_params(&sql, &params)?;
    Ok(())
}

fn insert_edges(db: &mut Database, arcs: &[(i64, i64, i64)]) -> Result<()> {
    let placeholders: Vec<&str> = arcs.iter().map(|_| "(?, ?, ?)").collect();
    let sql = format!(
        "INSERT INTO TEdges (fid, tid, cost) VALUES {}",
        placeholders.join(", ")
    );
    let mut params = Vec::with_capacity(arcs.len() * 3);
    for &(f, t, c) in arcs {
        params.push(Value::Int(f));
        params.push(Value::Int(t));
        params.push(Value::Int(c));
    }
    db.execute_params(&sql, &params)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn load_small_graph_all_strategies() {
        let g = generate::grid(5, 5, 1..=10, 1);
        for kind in [
            IndexKind::NoIndex,
            IndexKind::Secondary,
            IndexKind::Clustered,
        ] {
            let mut db = Database::in_memory(256);
            load_graph(
                &mut db,
                &g,
                &LoadOptions {
                    edges_index: kind,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(db.table_len("TEdges").unwrap(), g.num_arcs() as u64);
            assert_eq!(db.table_len("TNodes").unwrap(), 25);
            // Neighbor query works under every strategy.
            let rs = db
                .query_params(
                    "SELECT tid, cost FROM TEdges WHERE fid = ?",
                    &[Value::Int(12)],
                )
                .unwrap();
            assert_eq!(rs.len(), 4, "interior grid node has 4 neighbours");
        }
    }

    #[test]
    fn bulk_load_matches_row_load_every_strategy() {
        let g = generate::power_law(300, 3, 1..=10, 4);
        for kind in [
            IndexKind::NoIndex,
            IndexKind::Secondary,
            IndexKind::Clustered,
        ] {
            let mut row_db = Database::in_memory(512);
            load_graph(
                &mut row_db,
                &g,
                &LoadOptions {
                    edges_index: kind,
                    ..Default::default()
                },
            )
            .unwrap();
            let mut bulk_db = Database::in_memory(512);
            load_graph_bulk(
                &mut bulk_db,
                &g,
                &BulkLoadOptions {
                    edges_index: kind,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(
                row_db.table_len("TEdges").unwrap(),
                bulk_db.table_len("TEdges").unwrap()
            );
            assert_eq!(bulk_db.table_len("TNodes").unwrap(), 300);
            for probe in [0i64, 7, 123, 299] {
                let sql = "SELECT tid, cost FROM TEdges WHERE fid = ? ORDER BY tid, cost";
                let a = row_db.query_params(sql, &[Value::Int(probe)]).unwrap();
                let b = bulk_db.query_params(sql, &[Value::Int(probe)]).unwrap();
                assert_eq!(a.rows, b.rows, "kind={kind:?} fid={probe}");
            }
        }
    }

    #[test]
    fn segmented_bulk_load_answers_neighbor_queries() {
        let g = generate::power_law(300, 3, 1..=10, 4);
        let mut row_db = Database::in_memory(512);
        load_graph(&mut row_db, &g, &LoadOptions::default()).unwrap();
        let mut seg_db = Database::in_memory(512);
        load_graph_bulk(
            &mut seg_db,
            &g,
            &BulkLoadOptions {
                segmented: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(seg_db.table_len("TEdges").unwrap(), g.num_arcs() as u64);
        for probe in [0i64, 1, 99, 299] {
            let sql = "SELECT tid, cost FROM TEdges WHERE fid = ? ORDER BY tid, cost";
            let a = row_db.query_params(sql, &[Value::Int(probe)]).unwrap();
            let b = seg_db.query_params(sql, &[Value::Int(probe)]).unwrap();
            assert_eq!(a.rows, b.rows, "fid={probe}");
        }
        // Full-table aggregates agree too.
        let a = row_db
            .query("SELECT COUNT(*), SUM(cost) FROM TEdges")
            .unwrap();
        let b = seg_db
            .query("SELECT COUNT(*), SUM(cost) FROM TEdges")
            .unwrap();
        assert_eq!(a.rows, b.rows);
    }

    /// Regression for node-id width audits: u32::MAX-magnitude weights
    /// must survive the row-building path into i64 columns unmangled.
    #[test]
    fn extreme_weights_survive_bulk_load() {
        let w = u32::MAX;
        let g = crate::graph::Graph::from_undirected_edges(3, vec![(0, 1, w), (1, 2, w - 1)]);
        for segmented in [false, true] {
            let mut db = Database::in_memory(128);
            load_graph_bulk(
                &mut db,
                &g,
                &BulkLoadOptions {
                    segmented,
                    ..Default::default()
                },
            )
            .unwrap();
            let rs = db
                .query("SELECT cost FROM TEdges WHERE fid = 0 AND tid = 1")
                .unwrap();
            assert_eq!(
                rs.rows[0][0],
                Value::Int(u32::MAX as i64),
                "segmented={segmented}"
            );
        }
    }

    #[test]
    fn edge_weights_roundtrip() {
        let g = crate::graph::Graph::from_undirected_edges(3, vec![(0, 1, 42), (1, 2, 7)]);
        let mut db = Database::in_memory(64);
        load_graph(&mut db, &g, &LoadOptions::default()).unwrap();
        let rs = db
            .query("SELECT cost FROM TEdges WHERE fid = 0 AND tid = 1")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(42));
    }
}
