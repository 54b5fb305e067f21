//! Graph pattern matching in the FEM framework — the paper's first listed
//! future-work item, sketched in §3.1.
//!
//! §3.1 describes the scheme for general patterns: the visited set holds
//! *tuples* `(d⁰, …, dᵏ)` of data nodes matched to the query nodes handled
//! so far, and each iteration extends every tuple by one query node whose
//! label and connectivity requirements hold. This module implements the
//! path-pattern case (`l₀ → l₁ → … → lₖ`): iteration `k` joins the tuple
//! table with `TEdges` and `TLabels`, exactly one F/E/M round per query
//! node. The tuple table grows one column per iteration — relational
//! schema evolution standing in for the paper's tuple notation.

use fempath::core::GraphDb;
use fempath::sql::{Result, SqlError};
use fempath::storage::Value;

/// Installs (or replaces) node labels: `labels[v]` is the label of node
/// `v`. Creates `TLabels(nid, label)` with an index on `label`.
pub fn set_labels(gdb: &mut GraphDb, labels: &[i64]) -> Result<()> {
    if labels.len() != gdb.num_nodes() {
        return Err(SqlError::Eval(format!(
            "expected {} labels, got {}",
            gdb.num_nodes(),
            labels.len()
        )));
    }
    gdb.db.execute("DROP TABLE IF EXISTS TLabels")?;
    gdb.db
        .execute("CREATE TABLE TLabels (nid INT, label INT, PRIMARY KEY(nid))")?;
    for (chunk_start, chunk) in labels.chunks(256).enumerate().map(|(i, c)| (i * 256, c)) {
        let placeholders: Vec<&str> = chunk.iter().map(|_| "(?, ?)").collect();
        let sql = format!(
            "INSERT INTO TLabels (nid, label) VALUES {}",
            placeholders.join(", ")
        );
        let mut params = Vec::with_capacity(chunk.len() * 2);
        for (off, &l) in chunk.iter().enumerate() {
            params.push(Value::Int((chunk_start + off) as i64));
            params.push(Value::Int(l));
        }
        gdb.db.execute_params(&sql, &params)?;
    }
    gdb.db
        .execute("CREATE INDEX idx_tlabels_label ON TLabels(label)")?;
    Ok(())
}

/// Matches a label path `l₀ → l₁ → … → lₖ` and returns every embedding as
/// a node tuple. `isomorphic` additionally requires all tuple nodes to be
/// pairwise distinct (subgraph isomorphism vs homomorphism).
pub fn match_label_path(
    gdb: &mut GraphDb,
    labels: &[i64],
    isomorphic: bool,
) -> Result<Vec<Vec<i64>>> {
    if labels.is_empty() {
        return Ok(Vec::new());
    }
    if !gdb.db.has_table("TLabels") {
        return Err(SqlError::Eval(
            "no labels installed: call set_labels first".into(),
        ));
    }
    let cols = |k: usize| -> Vec<String> { (0..=k).map(|i| format!("n{i}")).collect() };

    // Iteration 0: seed tuples from the label index.
    gdb.db.execute("DROP TABLE IF EXISTS TMatch0")?;
    gdb.db.execute("CREATE TABLE TMatch0 (n0 INT)")?;
    gdb.db.execute_params(
        "INSERT INTO TMatch0 (n0) SELECT nid FROM TLabels WHERE label = ?",
        &[Value::Int(labels[0])],
    )?;

    // Iterations 1..k: extend each tuple by one edge + label check.
    #[allow(clippy::needless_range_loop)] // k names tables, not just labels[k]
    for k in 1..labels.len() {
        let col_defs: Vec<String> = cols(k).iter().map(|c| format!("{c} INT")).collect();
        gdb.db.execute(&format!("DROP TABLE IF EXISTS TMatch{k}"))?;
        gdb.db
            .execute(&format!("CREATE TABLE TMatch{k} ({})", col_defs.join(", ")))?;
        let qualified_prev: Vec<String> = cols(k - 1).iter().map(|c| format!("m.{c}")).collect();
        let mut distinct = String::new();
        if isomorphic {
            for c in cols(k - 1) {
                distinct.push_str(&format!(" AND e.tid <> m.{c}"));
            }
        }
        let sql = format!(
            "INSERT INTO TMatch{k} ({}) \
             SELECT {}, e.tid FROM TMatch{prev} m, TEdges e, TLabels l \
             WHERE m.n{prev} = e.fid AND l.nid = e.tid AND l.label = ?{distinct}",
            cols(k).join(", "),
            qualified_prev.join(", "),
            prev = k - 1,
        );
        gdb.db.execute_params(&sql, &[Value::Int(labels[k])])?;
        gdb.db.execute(&format!("DROP TABLE TMatch{}", k - 1))?;
    }

    let last = labels.len() - 1;
    let rs = gdb.db.query(&format!(
        "SELECT {} FROM TMatch{last}",
        cols(last).join(", ")
    ))?;
    gdb.db.execute(&format!("DROP TABLE TMatch{last}"))?;
    Ok(rs
        .rows
        .into_iter()
        .map(|r| r.iter().map(|v| v.as_i64().unwrap_or(-1)).collect())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fempath::graph::Graph;

    /// Brute-force oracle for label-path matching.
    fn oracle(g: &Graph, labels_of: &[i64], pattern: &[i64], iso: bool) -> Vec<Vec<i64>> {
        let mut tuples: Vec<Vec<i64>> = (0..g.num_nodes() as i64)
            .filter(|&v| labels_of[v as usize] == pattern[0])
            .map(|v| vec![v])
            .collect();
        for &want in &pattern[1..] {
            let mut next = Vec::new();
            for t in &tuples {
                let last = *t.last().unwrap() as u32;
                for a in g.out_arcs(last) {
                    let v = a.to as i64;
                    if labels_of[v as usize] != want {
                        continue;
                    }
                    if iso && t.contains(&v) {
                        continue;
                    }
                    let mut nt = t.clone();
                    nt.push(v);
                    next.push(nt);
                }
            }
            tuples = next;
        }
        tuples
    }

    fn sorted(mut v: Vec<Vec<i64>>) -> Vec<Vec<i64>> {
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn path_pattern_on_labeled_triangle() {
        // Triangle 0-1-2 with labels A=0, B=1, C=2.
        let g = Graph::from_undirected_edges(3, vec![(0, 1, 1), (1, 2, 1), (0, 2, 1)]);
        let labels = vec![0i64, 1, 2];
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        set_labels(&mut gdb, &labels).unwrap();
        let m = match_label_path(&mut gdb, &[0, 1, 2], true).unwrap();
        assert_eq!(sorted(m), vec![vec![0, 1, 2]]);
        // Pattern B -> A -> C.
        let m = match_label_path(&mut gdb, &[1, 0, 2], true).unwrap();
        assert_eq!(sorted(m), vec![vec![1, 0, 2]]);
        // No D label anywhere.
        assert!(match_label_path(&mut gdb, &[3], true).unwrap().is_empty());
    }

    #[test]
    fn matches_brute_force_on_random_labeled_graph() {
        // xorshift64: a fixed pseudo-random graph and labelling.
        let mut state = 9u64;
        let mut below = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let edges: Vec<(u32, u32, u32)> = (0..60)
            .map(|_| (below(30) as u32, below(30) as u32, 1))
            .filter(|(u, v, _)| u != v)
            .collect();
        let g = Graph::from_undirected_edges(30, edges);
        let labels: Vec<i64> = (0..30).map(|_| below(3) as i64).collect();
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        set_labels(&mut gdb, &labels).unwrap();
        for pattern in [vec![0i64, 1], vec![2, 2, 0], vec![1, 0, 2, 1]] {
            for iso in [false, true] {
                let got = sorted(match_label_path(&mut gdb, &pattern, iso).unwrap());
                let want = sorted(oracle(&g, &labels, &pattern, iso));
                assert_eq!(got, want, "pattern {pattern:?} iso={iso}");
            }
        }
    }

    #[test]
    fn homomorphic_allows_revisits_isomorphic_does_not() {
        // Path graph 0(A) - 1(B): pattern A-B-A.
        let g = Graph::from_undirected_edges(2, vec![(0, 1, 1)]);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        set_labels(&mut gdb, &[0, 1]).unwrap();
        let homo = match_label_path(&mut gdb, &[0, 1, 0], false).unwrap();
        assert_eq!(sorted(homo), vec![vec![0, 1, 0]]);
        let iso = match_label_path(&mut gdb, &[0, 1, 0], true).unwrap();
        assert!(iso.is_empty());
    }

    #[test]
    fn label_arity_checked() {
        let g = Graph::from_undirected_edges(3, vec![(0, 1, 1)]);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        assert!(set_labels(&mut gdb, &[0, 1]).is_err());
        assert!(
            match_label_path(&mut gdb, &[0], true).is_err(),
            "labels not installed"
        );
    }
}
