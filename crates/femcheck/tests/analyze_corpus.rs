//! femcheck corpus gate (DESIGN.md §15): every statement the finders,
//! the landmark index, the SegTable build, and the resets can issue
//! must analyze to **zero diagnostics** under both dialects — and the
//! gate must actually have teeth, so injected regressions
//! (dropped hot-path index, unguarded `NOT IN`, type mismatch) are pinned
//! to their diagnostic codes.

use femcheck::{analyze, analyze_hot_path, analyze_sql, AnalyzeOptions, Report, Rule};
use fempath_core::sqlgen::{Dir, EdgeSource, FrontierPred, SqlGen};
use fempath_core::{build_segtable, GraphDb, GraphDbOptions, SqlStyle};
use fempath_graph::generate;
use fempath_sql::plan::{AccessKind, JoinKind};
use fempath_sql::SqlError;

/// A small graph on the row tier, whose SegTable build issues the SQL
/// step 2 (`seg/nsql/*/copy_segments`, `residual_*`); the segmented tier
/// has its own gate, [`segmented_corpus_is_clean`].
fn small_gdb() -> GraphDb {
    let g = generate::power_law(60, 3, 1..=50, 7);
    let opts = GraphDbOptions {
        segmented_edges: false,
        ..Default::default()
    };
    GraphDb::new(&g, &opts).unwrap()
}

/// Analyzes every statement of the corpus walk: one `(name, report)` pair
/// per statement, named `"<dialect>::<corpus path>"`, e.g.
/// `"DBMS-X::fwd/edges/nsql/merge_from_exp"`.
fn analyze_corpus(gdb: &mut GraphDb) -> Vec<(String, Report)> {
    let mut out = Vec::new();
    gdb.for_each_corpus_statement(|catalog, dialect, a| {
        let opts = AnalyzeOptions {
            hot_path: a.hot_path,
        };
        let report = analyze_sql(catalog, dialect, &a.sql, &opts)?;
        out.push((format!("{}::{}", dialect.name, a.name), report));
        Ok(())
    })
    .unwrap();
    out
}

/// Walks the corpus with every optional structure built and requires
/// zero diagnostics.
fn full_corpus(mut gdb: GraphDb) -> Vec<(String, Report)> {
    build_segtable(&mut gdb, 120).unwrap();
    gdb.build_landmarks(2).unwrap();
    let reports = analyze_corpus(&mut gdb);
    // Both dialects × (finders over TEdges and the SegTable, free
    // statements, landmarks, seg build) — a floor guards
    // against the walker silently skipping whole corpora.
    assert!(reports.len() > 300, "only {} reports", reports.len());
    let dirty: Vec<&(String, Report)> = reports.iter().filter(|(_, r)| !r.is_clean()).collect();
    assert!(
        dirty.is_empty(),
        "{} corpus statements have diagnostics:\n{}",
        dirty.len(),
        dirty
            .iter()
            .map(|(n, r)| format!("--- {n}\n{}", r.render()))
            .collect::<Vec<_>>()
            .join("\n")
    );
    reports
}

/// The full corpus — optional structures built — is clean.
#[test]
fn full_corpus_is_clean() {
    full_corpus(small_gdb());
}

/// The same gate on the storage `uniform-disk` serves from: `TEdges`
/// segment-compressed, SegTable and landmarks built. The hot by-`nid`
/// expansion joins `TEdges` through the segment tree, so a segmented `fid`
/// lookup read as a scan would fail it with FC201; its verdict is pinned
/// too, and so is that of BSEG's expansion into `TOutSegs`, which the
/// segmented tier stores as segments too. The SegTable build's corpus
/// holds only what that tier's build runs: step 2 issues no SQL there.
#[test]
fn segmented_corpus_is_clean() {
    let g = generate::power_law(60, 3, 1..=50, 7);
    let opts = GraphDbOptions {
        segmented_edges: true,
        ..Default::default()
    };
    let reports = full_corpus(GraphDb::new(&g, &opts).unwrap());
    let (_, expand) = reports
        .iter()
        .find(|(n, _)| n.ends_with("fwd/edges/nsql/expand_merge/by_nid"))
        .unwrap();
    let edges = expand
        .accesses
        .iter()
        .find(|a| a.table == "TEdges")
        .unwrap();
    assert_eq!(
        (edges.access, edges.join),
        (AccessKind::IndexRange, JoinKind::IndexNestedLoop)
    );
    assert_eq!(edges.index_cols, ["fid"]);
    for dir in ["fwd", "bwd"] {
        let (_, expand) = reports
            .iter()
            .find(|(n, _)| n.ends_with(&format!("{dir}/seg/nsql/expand_merge/marked")))
            .unwrap();
        let segs = expand
            .accesses
            .iter()
            .find(|a| a.table == "TOutSegs")
            .unwrap();
        assert_eq!(
            (segs.access, segs.join, &segs.index_cols[..]),
            (
                AccessKind::IndexRange,
                JoinKind::IndexNestedLoop,
                &["fid".to_string()][..]
            ),
            "{dir}"
        );
    }
    for step2 in ["copy_segments", "residual_merge", "residual_antijoin"] {
        assert!(
            !reports.iter().any(|(n, _)| n.ends_with(step2)),
            "the segmented build runs no {step2}"
        );
    }
    assert!(reports
        .iter()
        .any(|(n, _)| n.ends_with("seg/nsql/merge/expand_merge")));
}

/// A bare database (no SegTable, no landmarks) still walks clean — the
/// walker gates the optional corpora instead of erroring or flagging.
#[test]
fn bare_corpus_is_clean() {
    let mut gdb = small_gdb();
    let reports = analyze_corpus(&mut gdb);
    assert!(reports.len() > 150, "only {} reports", reports.len());
    for (name, r) in &reports {
        assert!(r.is_clean(), "{name}:\n{}", r.render());
    }
    // Optional corpora really were skipped.
    assert!(
        !reports
            .iter()
            .any(|(n, _)| n.contains("lm/") || n.contains("seg/")),
        "optional corpora leaked into the bare walk"
    );
}

/// The walker leaves no residue: the SegTable build's working tables are
/// resurrected for the walk and dropped again, also when the caller's
/// closure fails and the walk stops early.
#[test]
fn walker_restores_table_state() {
    let mut gdb = small_gdb();
    build_segtable(&mut gdb, 120).unwrap();
    assert!(!gdb.db.has_table("TSegV"));
    analyze_corpus(&mut gdb);
    assert!(!gdb.db.has_table("TSegV"), "walker leaked TSegV");
    assert!(!gdb.db.has_table("TSegExp"), "walker leaked TSegExp");

    let mut calls = 0;
    let err = gdb
        .for_each_corpus_statement(|_, _, a| {
            calls += 1;
            Err(SqlError::Eval(format!("stop at {}", a.name)))
        })
        .unwrap_err();
    assert_eq!(calls, 1, "the walk goes on after an Err");
    assert!(matches!(err, SqlError::Eval(_)), "{err}");
    assert!(!gdb.db.has_table("TSegV"), "failed walk leaked TSegV");
    assert!(!gdb.db.has_table("TSegExp"), "failed walk leaked TSegExp");
}

/// Injected regression: the hot-path probe loses its index — the working
/// table is still indexed (on another column), so the probe becomes a
/// full scan of an indexed table and FC201 must fire.
#[test]
fn dropped_index_is_caught_as_fc201() {
    let mut gdb = small_gdb();
    gdb.reset_visited().unwrap();
    let dist_of = "SELECT d2s FROM TVisited WHERE nid = ?";
    // BDJ's and DJ's by-nid settle and expansion take the same index path.
    let gen = SqlGen::new(Dir::Bwd, EdgeSource::Edges, SqlStyle::New);
    let settle_by_nid = &gen.settle_by_nid();
    let expand_by_nid = &gen.expand_merge(FrontierPred::ByNid);
    for sql in [dist_of, settle_by_nid, expand_by_nid] {
        assert!(analyze_hot_path(&gdb.db, sql).unwrap().is_clean(), "{sql}");
    }
    gdb.db.execute("DROP INDEX idx_tvisited_nid").unwrap();
    gdb.db
        .execute("CREATE INDEX idx_tvisited_flags ON TVisited(f)")
        .unwrap();
    for sql in [dist_of, settle_by_nid, expand_by_nid] {
        let report = analyze_hot_path(&gdb.db, sql).unwrap();
        assert!(
            report.has_rule(Rule::HotPathFullScan),
            "expected FC201:\n{}",
            report.render()
        );
    }
    // The cold analysis of the same statement stays silent: FC201 is a
    // hot-path-only lint.
    assert!(analyze(&gdb.db, dist_of).unwrap().is_clean());
}

/// Injected regression: an anti-join without the `IS NOT NULL` guard —
/// the 3VL pitfall the corpus statements were hardened against — must
/// produce FC101. One unguarded variant per hardened site.
#[test]
fn unguarded_not_in_is_caught_as_fc101() {
    let mut gdb = small_gdb();
    build_segtable(&mut gdb, 120).unwrap();
    gdb.build_landmarks(1).unwrap();
    gdb.reset_visited().unwrap();
    gdb.reset_exp().unwrap();
    // Resurrect the build's working tables for the TSegV variant.
    gdb.db
        .execute("CREATE TABLE TSegV (src INT, nid INT, d2s INT, p2s INT, f INT)")
        .unwrap();
    let unguarded = [
        // sqlgen single-query insert_from_exp
        "INSERT INTO TVisited (nid, d2s, p2s, f, d2t, p2t, b) \
         SELECT nid, cost, p2s, 0, 2000000000, -1, 0 FROM TExp \
         WHERE nid NOT IN (SELECT nid FROM TVisited)",
        // landmark candidate pools
        "SELECT MAX(deg) FROM (SELECT fid, COUNT(*) AS deg FROM TEdges \
         WHERE fid NOT IN (SELECT lm FROM TLandmarks) GROUP BY fid) cand",
        "SELECT MAX(deg) FROM (SELECT fid, COUNT(*) AS deg FROM TEdges \
         WHERE fid NOT IN (SELECT nid FROM TLandmarks) GROUP BY fid) cand",
        // segtable insert_new and residual anti-join
        "INSERT INTO TSegV (src, nid, d2s, p2s, f) \
         SELECT src, nid, cost, p2s, 0 FROM TSegExp \
         WHERE src * ? + nid NOT IN (SELECT src * ? + nid FROM TSegV)",
        "INSERT INTO TOutSegs (fid, tid, pid, cost) \
         SELECT fid, tid, fid, cost FROM TEdges \
         WHERE fid * ? + tid NOT IN (SELECT fid * ? + tid FROM TOutSegs)",
    ];
    gdb.db
        .execute("CREATE TABLE TSegExp (src INT, nid INT, p2s INT, cost INT)")
        .unwrap();
    for sql in unguarded {
        let report = analyze(&gdb.db, sql).unwrap();
        assert!(
            report.has_rule(Rule::NotInNullable),
            "expected FC101 for unguarded anti-join:\n{}",
            report.render()
        );
    }
}

/// Injected regression: comparing a numeric working-table column against
/// text must produce FC003.
#[test]
fn type_mismatch_is_caught_as_fc003() {
    let mut gdb = small_gdb();
    gdb.reset_visited().unwrap();
    let report = analyze(&gdb.db, "SELECT nid FROM TVisited WHERE d2s = 'far'").unwrap();
    assert!(
        report.has_rule(Rule::TypeMismatch),
        "expected FC003:\n{}",
        report.render()
    );
}

/// The hardened corpus statements themselves carry the guard and stay
/// FC101-free — pinned per site so a revert shows up by name.
#[test]
fn hardened_anti_joins_stay_guarded() {
    let mut gdb = small_gdb();
    build_segtable(&mut gdb, 120).unwrap();
    gdb.build_landmarks(1).unwrap();
    let reports = analyze_corpus(&mut gdb);
    let must_have_guard = [
        "fwd/edges/nsql/insert_from_exp",
        "lm/pick_unchosen/max",
        "lm/pick_uncovered/max",
        "seg/nsql/nomerge/insert_new",
        "seg/nsql/nomerge/residual_antijoin",
    ];
    for needle in must_have_guard {
        let hits: Vec<_> = reports
            .iter()
            .filter(|(name, _)| name.ends_with(needle))
            .collect();
        assert!(!hits.is_empty(), "{needle} missing from the corpus");
        for (name, r) in hits {
            assert!(
                !r.has_rule(Rule::NotInNullable),
                "{name} regressed to an unguarded anti-join:\n{}",
                r.render()
            );
        }
    }
}
