//! Tier-1 gate: the workspace source auditor must be clean.
//!
//! Failing here means a source change introduced an undocumented `unsafe`
//! block, an uncommented atomic ordering in library code, a
//! `todo!`/`dbg!` left behind, an unwrap-budget drift in either
//! direction (see `crates/xtask/unwrap-allowlist.txt`), or one of the
//! design rules (reference, E/M decision, executor) broken.

use std::fs;

#[test]
fn workspace_sources_pass_the_auditor() {
    let root = xtask::workspace_root();
    let violations = xtask::lint(&root).expect("lint walks the workspace");
    assert!(
        violations.is_empty(),
        "xtask lint found {} violation(s):\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Rule 8 (executor-follows-the-plan): the vectorized executor names no
/// probe-path or storage variant, in code or comments; the catalog and the
/// planner may.
#[test]
fn storage_variants_are_spotted_in_the_executor_only() {
    let probe_variant = format!("        {}Scan => scan(),\n", ["Probe", "Path::"].concat());
    let storage_variant = format!("// like {}Heap\n", ["Table", "Storage::"].concat());
    let dir = std::env::temp_dir().join(format!("xtask-exec-{}", std::process::id()));
    for (rel, text) in [
        (
            "crates/sql/src/plan/vexec.rs",
            format!("{probe_variant}{storage_variant}"),
        ),
        ("crates/sql/src/plan/build.rs", probe_variant.clone()),
        ("crates/sql/src/catalog.rs", storage_variant.clone()),
    ] {
        let path = dir.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, text).unwrap();
    }
    let found = xtask::lint(&dir).unwrap();
    fs::remove_dir_all(&dir).unwrap();
    let hits: Vec<(&str, usize, &str)> = found
        .iter()
        .map(|v| (v.file.as_str(), v.line, v.rule))
        .collect();
    assert_eq!(
        hits,
        [
            (
                "crates/sql/src/plan/vexec.rs",
                1,
                "executor-follows-the-plan"
            ),
            (
                "crates/sql/src/plan/vexec.rs",
                2,
                "executor-follows-the-plan"
            ),
        ]
    );
}

/// Rule 2 (ordering-comment): an uncommented relaxed/acquire/release
/// ordering is flagged in any library source, not only in named files;
/// a nearby justification, `SeqCst`, test modules and integration tests
/// pass.
#[test]
fn uncommented_orderings_are_spotted_in_any_library_source() {
    let ordering = ["Ord", "ering::"].concat();
    let bare = format!("    self.hits.fetch_add(1, {ordering}Relaxed);\n");
    let justified = format!(
        "    // {}: Relaxed — a diagnostic counter.\n{bare}",
        ["ORD", "ERING"].concat()
    );
    let seq_cst = format!("    flag.store(true, {ordering}SeqCst);\n");
    let in_tests = format!(
        "#[cfg({})]\nmod tests {{\n{bare}}}\n",
        ["te", "st"].concat()
    );
    let dir = std::env::temp_dir().join(format!("xtask-ordering-{}", std::process::id()));
    for (rel, text) in [
        ("crates/core/src/cache.rs", bare.clone()),
        ("crates/bench/src/experiments/service.rs", bare.clone()),
        ("crates/core/src/dispatch.rs", justified),
        ("crates/storage/src/flag.rs", seq_cst),
        ("crates/sql/src/stats.rs", in_tests),
        ("crates/core/tests/counters.rs", bare),
    ] {
        let path = dir.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, text).unwrap();
    }
    let found = xtask::lint(&dir).unwrap();
    fs::remove_dir_all(&dir).unwrap();
    let hits: Vec<(&str, usize, &str)> = found
        .iter()
        .map(|v| (v.file.as_str(), v.line, v.rule))
        .collect();
    assert_eq!(
        hits,
        [
            (
                "crates/bench/src/experiments/service.rs",
                1,
                "ordering-comment"
            ),
            ("crates/core/src/cache.rs", 1, "ordering-comment"),
        ]
    );
}
