//! femcheck layer 2 — the workspace *source* auditor (DESIGN.md §15).
//!
//! Where the SQL analyzer (layer 1, the dev-only `femcheck` crate) checks
//! the statements the engine generates, this crate checks the engine's own
//! source. Eight plain-text, line-level rules, no dependencies, no proc
//! macros:
//!
//! 1. **safety-comment** — every `unsafe` occurrence needs a `SAFETY:`
//!    comment on the same line or within the preceding lines.
//! 2. **ordering-comment** — every `Ordering::Relaxed`/`Acquire`/
//!    `Release`/`AcqRel` in library code (`src/`, outside `#[cfg(test)]`
//!    regions) needs an `ORDERING:` comment justifying why that ordering
//!    suffices. (`SeqCst` is exempt: it is the conservative default, not
//!    a claim that needs defending.)
//! 3. **unwrap-ratchet** — library code (`src/`, outside `#[cfg(test)]`
//!    regions) must not call `.unwrap()` / `.expect("…")` except where
//!    `unwrap-allowlist.txt` says so — and the allowlist must match
//!    reality *exactly*, so fixing an unwrap without tightening the
//!    allowlist also fails. The ratchet only goes down.
//! 4. **no-debug-macros** — `todo!(` and `dbg!(` appear nowhere, tests
//!    included.
//! 5. **no-env-knobs** — the library crates (`core`, `sql`, `storage`,
//!    `graph`, `inmem`) never read an environment variable: behaviour is
//!    chosen by arguments and by what the code can observe in its input,
//!    so there is one configuration to test and to benchmark.
//! 6. **reference-stays-naive** — no line under `crates/sql-reference/src/`
//!    (the interpreter) names the planner's access-path choice
//!    (`Table::longest_prefix`, `Table::probe_path`, `ProbePath`) or the
//!    equality probe (`Table::probe_eq`): the reference scans and
//!    nested-loops, so a wrong access-path decision cannot show up on both
//!    sides of a differential test. That the interpreter serves nothing
//!    needs no rule: it is a crate that only `fempath-sql`'s tests link.
//! 7. **one-em-decision** — under `crates/core/src/`, only `graphdb.rs`
//!    reads the dialect's MERGE support (`supports_merge`), in
//!    `GraphDb::em_mode`, and a `MERGE INTO` statement is spelled only by
//!    the two generators that decision gates (`sqlgen.rs`, `segtable.rs`):
//!    every search takes its E/M statements from that one decision
//!    (`EmMode::choose`), so no search can spell its expansion
//!    differently from the others.
//! 8. **executor-follows-the-plan** — the vectorized executor
//!    (`crates/sql/src/plan/vexec.rs`) names no `ProbePath::` or
//!    `TableStorage::` variant, in code or comments: it hands the path the
//!    plan recorded to the one probe (`Table::probe_eq`) and lets the
//!    catalog's one storage dispatch serve it, so no storage can be read
//!    one way for queries and another for DML.
//!
//! The rule needles are assembled at runtime from fragments so this
//! crate's own source never contains them verbatim (the auditor audits
//! itself too).

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One rule violation at a file:line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line, or 0 for whole-file findings (allowlist mismatches).
    pub line: usize,
    /// Stable rule identifier, e.g. `unwrap-ratchet`.
    pub rule: &'static str,
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.file, self.rule, self.msg)
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file, self.line, self.rule, self.msg
            )
        }
    }
}

/// How many lines above an `unsafe` occurrence the `SAFETY:` comment may
/// sit. Wide enough for a multi-line justification above a pair of
/// `unsafe impl`s.
const SAFETY_WINDOW: usize = 8;
/// Same for `ORDERING:` above an atomic access — wide enough for one
/// comment to cover a counter-snapshot struct literal.
const ORDERING_WINDOW: usize = 8;

/// The needles, built from fragments so they never appear verbatim in
/// this crate's own (audited) source.
struct Needles {
    unsafe_kw: String,
    safety_tag: String,
    ordering_prefixes: Vec<String>,
    ordering_tag: String,
    unwrap_call: String,
    expect_call: String,
    todo_macro: String,
    dbg_macro: String,
    cfg_test: String,
    planner_names: [String; 4],
    env_read: String,
    merge_support: String,
    merge_into: String,
    storage_variants: [String; 2],
}

impl Needles {
    fn new() -> Needles {
        let bang = "!(";
        Needles {
            unsafe_kw: ["uns", "afe"].concat(),
            safety_tag: ["SAF", "ETY:"].concat(),
            ordering_prefixes: ["Relaxed", "Acquire", "Release", "AcqRel"]
                .iter()
                .map(|o| format!("{}::{o}", ["Ord", "ering"].concat()))
                .collect(),
            ordering_tag: ["ORD", "ERING:"].concat(),
            unwrap_call: [".unw", "rap()"].concat(),
            expect_call: [".exp", "ect(\""].concat(),
            todo_macro: format!("{}{bang}", ["to", "do"].concat()),
            dbg_macro: format!("{}{bang}", ["d", "bg"].concat()),
            cfg_test: format!("#[cfg({}]", ["te", "st)"].concat()),
            planner_names: [
                ["longest_pr", "efix("].concat(),
                ["probe_pa", "th("].concat(),
                ["probe", "_eq"].concat(),
                ["Probe", "Path"].concat(),
            ],
            env_read: ["env::", "var"].concat(),
            merge_support: ["supports_", "merge"].concat(),
            merge_into: ["MERGE", " INTO"].concat(),
            storage_variants: [
                ["Probe", "Path::"].concat(),
                ["Table", "Storage::"].concat(),
            ],
        }
    }
}

/// `needle` occurs in `hay` delimited by non-identifier characters.
fn contains_word(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !hay[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = !hay[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = after;
    }
    false
}

/// The code part of a line: everything before the first `//`. Good enough
/// for this codebase — no string literal here contains a double slash.
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// True when any of `lines[from.saturating_sub(window)..=from]` mentions
/// `tag` (typically inside a comment).
fn tagged_nearby(lines: &[&str], from: usize, window: usize, tag: &str) -> bool {
    let lo = from.saturating_sub(window);
    lines[lo..=from].iter().any(|l| l.contains(tag))
}

/// The interpreter's sources, which rule 6 keeps free of access paths.
const REFERENCE_SRC: &str = "crates/sql-reference/src/";

/// The access-path name `line` mentions, if any (rule 6).
fn planner_name<'n>(line: &str, needles: &'n Needles) -> Option<&'n str> {
    needles
        .planner_names
        .iter()
        .map(String::as_str)
        .find(|name| line.contains(name))
}

/// The crate whose FEM searches rule 7 holds to one E/M decision, the one
/// file in it that may read the dialect's MERGE support, and the two
/// generators that decision gates — the only files that may spell a MERGE.
const EM_DECISION_SRC: &str = "crates/core/src/";
const EM_DECISION_OWNER: &str = "crates/core/src/graphdb.rs";
const EM_MERGE_GENERATORS: [&str; 2] = ["crates/core/src/sqlgen.rs", "crates/core/src/segtable.rs"];

/// The executor rule 8 keeps off the storage dispatch.
const PLAN_EXECUTOR: &str = "crates/sql/src/plan/vexec.rs";

/// The crates rule 5 keeps free of environment reads.
const KNOB_FREE_SRC: [&str; 5] = [
    "crates/core/src/",
    "crates/sql/src/",
    "crates/storage/src/",
    "crates/graph/src/",
    "crates/inmem/src/",
];

/// Parses `unwrap-allowlist.txt`: one `path count` pair per line, `#`
/// comments and blank lines ignored.
fn parse_allowlist(text: &str) -> Result<BTreeMap<String, usize>, String> {
    let mut map = BTreeMap::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(path), Some(count), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("allowlist line {}: expected `path count`", i + 1));
        };
        let count: usize = count
            .parse()
            .map_err(|_| format!("allowlist line {}: bad count {count}", i + 1))?;
        if map.insert(path.to_string(), count).is_some() {
            return Err(format!("allowlist line {}: duplicate entry {path}", i + 1));
        }
    }
    Ok(map)
}

fn is_rs(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "rs")
}

/// Collects every `.rs` file under `crates/`, sorted for stable output.
fn collect_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            if entry.file_type()?.is_dir() {
                // `target/` never appears under crates/, but guard anyway.
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if is_rs(&path) {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs every rule over the workspace at `root` (the directory holding
/// the top-level `Cargo.toml`). Returns all violations, sorted by file.
pub fn lint(root: &Path) -> io::Result<Vec<Violation>> {
    let needles = Needles::new();
    let allowlist_path = root.join("crates/xtask/unwrap-allowlist.txt");
    let allowlist = match fs::read_to_string(&allowlist_path) {
        Ok(text) => parse_allowlist(&text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(BTreeMap::new()),
        Err(e) => return Err(e),
    };
    let mut violations = Vec::new();
    let allowlist = match allowlist {
        Ok(map) => map,
        Err(msg) => {
            violations.push(Violation {
                file: "crates/xtask/unwrap-allowlist.txt".into(),
                line: 0,
                rule: "unwrap-ratchet",
                msg,
            });
            BTreeMap::new()
        }
    };

    let mut unwrap_counts: BTreeMap<String, usize> = BTreeMap::new();
    for path in collect_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(&path)?;
        let lines: Vec<&str> = text.lines().collect();
        let is_library_src = rel.contains("/src/");
        let knob_free = KNOB_FREE_SRC.iter().any(|p| rel.starts_with(p));
        let is_reference = rel.starts_with(REFERENCE_SRC);
        let em_decided_elsewhere = rel.starts_with(EM_DECISION_SRC) && rel != EM_DECISION_OWNER;
        let merge_spelled_elsewhere =
            rel.starts_with(EM_DECISION_SRC) && !EM_MERGE_GENERATORS.contains(&rel.as_str());
        let mut in_test_region = false;

        for (i, &line) in lines.iter().enumerate() {
            if line.contains(&needles.cfg_test) {
                // Test modules sit at the bottom of each file; treat the
                // rest of the file as test code for the ratchet rules.
                in_test_region = true;
            }
            let code = code_part(line);
            let lineno = i + 1;

            // Rule 4: debug macros, everywhere (tests included).
            for (needle, what) in [
                (&needles.todo_macro, "unfinished-code marker"),
                (&needles.dbg_macro, "debug print"),
            ] {
                if code.contains(needle.as_str()) {
                    violations.push(Violation {
                        file: rel.clone(),
                        line: lineno,
                        rule: "no-debug-macros",
                        msg: format!("{what} `{needle}` must not be committed"),
                    });
                }
            }

            // Rule 1: unsafe needs a SAFETY: comment nearby. Test regions
            // are exempt (test fixtures may spell the keyword in strings).
            if !in_test_region
                && contains_word(code, &needles.unsafe_kw)
                && !tagged_nearby(&lines, i, SAFETY_WINDOW, &needles.safety_tag)
            {
                violations.push(Violation {
                    file: rel.clone(),
                    line: lineno,
                    rule: "safety-comment",
                    msg: format!(
                        "`{}` without a `{}` comment within {} lines",
                        needles.unsafe_kw, needles.safety_tag, SAFETY_WINDOW
                    ),
                });
            }

            // Rule 2: subtle atomic orderings need an ORDERING: comment.
            if is_library_src
                && !in_test_region
                && needles
                    .ordering_prefixes
                    .iter()
                    .any(|p| code.contains(p.as_str()))
                && !tagged_nearby(&lines, i, ORDERING_WINDOW, &needles.ordering_tag)
            {
                violations.push(Violation {
                    file: rel.clone(),
                    line: lineno,
                    rule: "ordering-comment",
                    msg: format!(
                        "relaxed/acquire/release atomic without a `{}` comment within {} lines",
                        needles.ordering_tag, ORDERING_WINDOW
                    ),
                });
            }

            // Rule 5: no environment reads in the library crates, test
            // modules included (`var`, `var_os` and `vars` share the needle).
            if knob_free && code.contains(needles.env_read.as_str()) {
                violations.push(Violation {
                    file: rel.clone(),
                    line: lineno,
                    rule: "no-env-knobs",
                    msg: format!(
                        "`{}` read in a library crate — take an argument, or decide \
                         from the input, instead of an environment knob",
                        needles.env_read
                    ),
                });
            }

            // Rule 6: the reference makes no access-path decision — not in
            // code, comments or tests.
            if is_reference {
                if let Some(name) = planner_name(line, &needles) {
                    violations.push(Violation {
                        file: rel.clone(),
                        line: lineno,
                        rule: "reference-stays-naive",
                        msg: format!(
                            "`{name}` names an access path inside the interpreter, \
                             which must stay a full-scan, nested-loop reference"
                        ),
                    });
                }
            }

            // Rule 7: the dialect's MERGE support is read in one place.
            if em_decided_elsewhere && code.contains(needles.merge_support.as_str()) {
                violations.push(Violation {
                    file: rel.clone(),
                    line: lineno,
                    rule: "one-em-decision",
                    msg: format!(
                        "`{}` read outside `{EM_DECISION_OWNER}` — take the expansion's \
                         statements from `GraphDb::em_mode` / `EmMode::choose`",
                        needles.merge_support
                    ),
                });
            }
            if merge_spelled_elsewhere && code.contains(needles.merge_into.as_str()) {
                violations.push(Violation {
                    file: rel.clone(),
                    line: lineno,
                    rule: "one-em-decision",
                    msg: format!(
                        "`{}` spelled outside the generators `EmMode::choose` gates \
                         ({}) — take the statement from `SqlGen::expansion`",
                        needles.merge_into,
                        EM_MERGE_GENERATORS.join(", ")
                    ),
                });
            }

            // Rule 8: the executor follows the plan through the one probe.
            if rel == PLAN_EXECUTOR {
                if let Some(v) = needles.storage_variants.iter().find(|v| line.contains(*v)) {
                    violations.push(Violation {
                        file: rel.clone(),
                        line: lineno,
                        rule: "executor-follows-the-plan",
                        msg: format!(
                            "`{v}` named in the executor — hand the planned path to \
                             `Table::probe_eq` and leave the storage dispatch to the catalog"
                        ),
                    });
                }
            }

            // Rule 3 (counting pass): unwraps in library code.
            if is_library_src
                && !in_test_region
                && (code.contains(needles.unwrap_call.as_str())
                    || code.contains(needles.expect_call.as_str()))
            {
                *unwrap_counts.entry(rel.clone()).or_insert(0) += 1;
            }
        }
    }

    // Rule 3 (ratchet pass): counts must match the allowlist exactly.
    for (file, &count) in &unwrap_counts {
        let allowed = allowlist.get(file).copied().unwrap_or(0);
        if count > allowed {
            violations.push(Violation {
                file: file.clone(),
                line: 0,
                rule: "unwrap-ratchet",
                msg: format!(
                    "{count} unwrap/expect call(s) in library code, allowlist permits {allowed} \
                     — return a typed error instead"
                ),
            });
        }
    }
    for (file, &allowed) in &allowlist {
        let actual = unwrap_counts.get(file).copied().unwrap_or(0);
        if actual < allowed {
            violations.push(Violation {
                file: file.clone(),
                line: 0,
                rule: "unwrap-ratchet",
                msg: format!(
                    "allowlist permits {allowed} unwrap/expect call(s) but only {actual} remain \
                     — tighten crates/xtask/unwrap-allowlist.txt (the ratchet only goes down)"
                ),
            });
        }
    }

    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(violations)
}

/// The workspace root, from this crate's own manifest directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_boundaries() {
        assert!(contains_word("unsafe { x }", "unsafe"));
        assert!(contains_word("unsafe impl Send for T {}", "unsafe"));
        assert!(!contains_word("deny(unsafe_op_in_unsafe_fn)", "unsafe"));
        assert!(!contains_word("forbid(unsafe_code)", "unsafe"));
    }

    #[test]
    fn comment_part_is_ignored() {
        assert_eq!(code_part("let x = 1; // .unwr"), "let x = 1; ");
        assert_eq!(code_part("plain code"), "plain code");
    }

    #[test]
    fn access_paths_are_spotted_in_the_reference_only() {
        let n = Needles::new();
        let prefix = format!("let picks = table.{}&cols)?;\n", n.planner_names[0]);
        let lookup = format!("// served by Table::{}\n", n.planner_names[2]);
        let path = format!("use crate::catalog::{};\n", n.planner_names[3]);
        assert_eq!(planner_name(&prefix, &n), Some(n.planner_names[0].as_str()));
        assert_eq!(
            planner_name(&format!("t.{}&[0])", n.planner_names[1]), &n),
            Some(n.planner_names[1].as_str())
        );
        assert_eq!(planner_name("table.scan(pool, |_, row| true)?", &n), None);
        let dir = std::env::temp_dir().join(format!("xtask-ref-{}", std::process::id()));
        for (rel, text) in [
            ("crates/sql-reference/src/exec/from.rs", prefix.as_str()),
            ("crates/sql-reference/src/exec/dml.rs", lookup.as_str()),
            ("crates/sql-reference/src/lib.rs", path.as_str()),
            ("crates/sql/src/plan/build.rs", prefix.as_str()),
            ("crates/sql/src/catalog.rs", path.as_str()),
        ] {
            let file = dir.join(rel);
            fs::create_dir_all(file.parent().unwrap()).unwrap();
            fs::write(file, text).unwrap();
        }
        let found = lint(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        let hits: Vec<(&str, &str)> = found.iter().map(|v| (v.file.as_str(), v.rule)).collect();
        assert_eq!(
            hits,
            [
                (
                    "crates/sql-reference/src/exec/dml.rs",
                    "reference-stays-naive"
                ),
                (
                    "crates/sql-reference/src/exec/from.rs",
                    "reference-stays-naive"
                ),
                ("crates/sql-reference/src/lib.rs", "reference-stays-naive"),
            ]
        );
    }

    #[test]
    fn em_decisions_are_spotted_outside_graphdb_only() {
        let n = Needles::new();
        let dir = std::env::temp_dir().join(format!("xtask-em-{}", std::process::id()));
        let read = format!("let merge = db.dialect().{};\n", n.merge_support);
        let commented = format!(
            "let m = gdb.em_mode(style, false); // not {}\n",
            n.merge_support
        );
        for (rel, text) in [
            ("crates/core/src/algo/dj.rs", read.as_str()),
            ("crates/core/src/sssp.rs", commented.as_str()),
            ("crates/core/src/graphdb.rs", read.as_str()),
            ("crates/sql/src/engine.rs", read.as_str()),
            ("crates/core/tests/algo.rs", read.as_str()),
        ] {
            let path = dir.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        }
        let found = lint(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        let hits: Vec<(&str, &str)> = found.iter().map(|v| (v.file.as_str(), v.rule)).collect();
        assert_eq!(hits, [("crates/core/src/algo/dj.rs", "one-em-decision")]);
    }

    #[test]
    fn merge_statements_are_spotted_outside_the_gated_generators_only() {
        let n = Needles::new();
        let dir = std::env::temp_dir().join(format!("xtask-merge-{}", std::process::id()));
        // A hand-written relaxation in the style of a Prim search over FEM.
        let spelled = format!("        \"{} TMst AS target USING ( \\\n", n.merge_into);
        let commented = format!("// the fused {} of Listing 4(2)\n", n.merge_into);
        for (rel, text) in [
            ("crates/core/src/prim.rs", spelled.as_str()),
            ("crates/core/src/algo/bidi.rs", commented.as_str()),
            ("crates/core/src/sqlgen.rs", spelled.as_str()),
            ("crates/core/src/segtable.rs", spelled.as_str()),
            ("crates/core/tests/algo.rs", spelled.as_str()),
            ("crates/sql/src/engine.rs", spelled.as_str()),
        ] {
            let path = dir.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        }
        let found = lint(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        let hits: Vec<(&str, &str)> = found.iter().map(|v| (v.file.as_str(), v.rule)).collect();
        assert_eq!(hits, [("crates/core/src/prim.rs", "one-em-decision")]);
    }

    #[test]
    fn env_reads_are_spotted_in_library_crates_only() {
        let n = Needles::new();
        let dir = std::env::temp_dir().join(format!("xtask-env-{}", std::process::id()));
        let read = format!("let k = std::{}(\"FEMPATH_MODE\");\n", n.env_read);
        let os_read = format!(
            "let k = {}_os(\"X\"); // in a test module too\n",
            n.env_read
        );
        for (rel, text) in [
            ("crates/core/src/algo/knob.rs", read.as_str()),
            ("crates/storage/src/knob.rs", os_read.as_str()),
            ("crates/bench/src/knob.rs", read.as_str()),
            ("crates/core/tests/knob.rs", read.as_str()),
            ("crates/graph/src/tmp.rs", "let p = std::env::temp_dir();\n"),
        ] {
            let path = dir.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        }
        let found = lint(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        let hits: Vec<(&str, &str)> = found.iter().map(|v| (v.file.as_str(), v.rule)).collect();
        assert_eq!(
            hits,
            [
                ("crates/core/src/algo/knob.rs", "no-env-knobs"),
                ("crates/storage/src/knob.rs", "no-env-knobs"),
            ]
        );
    }

    #[test]
    fn allowlist_parses_and_rejects() {
        let map = parse_allowlist("# hi\ncrates/a/src/x.rs 3\n\ncrates/b/src/y.rs 1\n").unwrap();
        assert_eq!(map.get("crates/a/src/x.rs"), Some(&3));
        assert_eq!(map.len(), 2);
        assert!(parse_allowlist("too many words here 3").is_err());
        assert!(parse_allowlist("crates/a.rs NaN").is_err());
        assert!(parse_allowlist("crates/a.rs 1\ncrates/a.rs 2").is_err());
    }
}
