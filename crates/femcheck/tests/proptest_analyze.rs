//! Property tests for the femcheck semantic analyzer.
//!
//! Positive direction: statements generated *well-typed by construction*
//! against a fixed catalog must analyze to zero diagnostics under both
//! dialects — the analyzer may not cry wolf on the statement family the
//! SQL generators actually emit (projections, aggregates, joins, guarded
//! NOT IN, DML). Negative direction: a table of one-line counterexamples,
//! one per rule in the catalog, pinned to the exact rule it must trigger,
//! plus a randomized unknown-identifier injection.
//!
//! Case count honours `PROPTEST_CASES` (the CI admissibility job runs 512).

use femcheck::{analyze, analyze_hot_path, Rule};
use fempath_sql::{Database, Dialect};
use proptest::prelude::*;

/// The fixed catalog: the paper's working tables plus a text-bearing one.
/// `TEdges` is clustered on `fid`, `TVisited` uniquely indexed on `nid`,
/// `TExp` and `TNames` are plain heaps.
fn db(dialect: Dialect) -> Database {
    let mut db = Database::in_memory(64).with_dialect(dialect);
    for sql in [
        "CREATE TABLE TEdges (fid INT, tid INT, cost INT)",
        "CREATE CLUSTERED INDEX idx_tedges ON TEdges(fid)",
        "CREATE TABLE TVisited (nid INT, d2s INT, p2s INT, f INT)",
        "CREATE UNIQUE INDEX idx_tvisited_nid ON TVisited(nid)",
        "CREATE TABLE TExp (nid INT, p2s INT, cost INT)",
        "CREATE TABLE TNames (id INT, name TEXT)",
    ] {
        db.execute(sql).unwrap();
    }
    db
}

/// (table, integer columns) pairs the generator draws from.
const TABLES: &[(&str, &[&str])] = &[
    ("TEdges", &["fid", "tid", "cost"]),
    ("TVisited", &["nid", "d2s", "p2s", "f"]),
    ("TExp", &["nid", "p2s", "cost"]),
];

fn arb_table() -> impl Strategy<Value = usize> {
    0..TABLES.len()
}

/// A column index into the chosen table's column list. Sampled wide and
/// taken modulo the actual column count at render time.
fn arb_col() -> impl Strategy<Value = usize> {
    0usize..8
}

fn arb_cmp() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("="),
        Just("<>"),
        Just("<"),
        Just("<="),
        Just(">"),
        Just(">=")
    ]
}

fn arb_lit() -> impl Strategy<Value = i64> {
    -100i64..100
}

/// One well-typed predicate over table `t` (rendered later).
#[derive(Debug, Clone)]
enum Pred {
    ColLit(usize, &'static str, i64),
    ColCol(usize, &'static str, usize),
    IsNull(usize, bool),
    /// Guarded `NOT IN`: the subquery column carries an `IS NOT NULL`
    /// filter, so FC101 must stay silent.
    GuardedNotIn(usize, usize, usize),
    And(Box<Pred>, Box<Pred>),
}

fn arb_leaf() -> impl Strategy<Value = Pred> {
    prop_oneof![
        (arb_col(), arb_cmp(), arb_lit()).prop_map(|(c, op, l)| Pred::ColLit(c, op, l)),
        (arb_col(), arb_cmp(), arb_col()).prop_map(|(a, op, b)| Pred::ColCol(a, op, b)),
        (arb_col(), prop::bool::ANY).prop_map(|(c, n)| Pred::IsNull(c, n)),
        (arb_col(), arb_table(), arb_col()).prop_map(|(c, t, sc)| Pred::GuardedNotIn(c, t, sc)),
    ]
}

fn arb_pred() -> impl Strategy<Value = Pred> {
    prop_oneof![
        arb_leaf(),
        (arb_leaf(), arb_leaf()).prop_map(|(a, b)| Pred::And(Box::new(a), Box::new(b))),
    ]
}

fn col(t: usize, c: usize) -> &'static str {
    let cols = TABLES[t].1;
    cols[c % cols.len()]
}

fn render_pred(t: usize, p: &Pred) -> String {
    match p {
        Pred::ColLit(c, op, l) => format!("{} {op} {l}", col(t, *c)),
        Pred::ColCol(a, op, b) => format!("{} {op} {}", col(t, *a), col(t, *b)),
        Pred::IsNull(c, neg) => format!("{} IS {}NULL", col(t, *c), if *neg { "NOT " } else { "" }),
        Pred::GuardedNotIn(c, st, sc) => {
            let (stab, _) = TABLES[*st];
            let scol = col(*st, *sc);
            format!(
                "{} NOT IN (SELECT {scol} FROM {stab} WHERE {scol} IS NOT NULL)",
                col(t, *c)
            )
        }
        Pred::And(a, b) => format!("{} AND {}", render_pred(t, a), render_pred(t, b)),
    }
}

/// A well-typed statement: the generator only combines integer columns of
/// one table with integer literals, so no rule has grounds to fire.
#[derive(Debug, Clone)]
enum Stmt {
    Select {
        t: usize,
        cols: Vec<usize>,
        pred: Option<Pred>,
        order: Option<usize>,
    },
    Agg {
        t: usize,
        func: &'static str,
        arg: usize,
        group: Option<usize>,
        pred: Option<Pred>,
    },
    Arith(usize, usize, i64, Option<Pred>),
    Insert(i64, i64, i64),
    Update(usize, i64, Pred),
    Delete(Pred),
}

fn arb_stmt() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        (
            arb_table(),
            prop::collection::vec(arb_col(), 1..4),
            prop::option::of(arb_pred()),
            prop::option::of(arb_col()),
        )
            .prop_map(|(t, cols, pred, order)| Stmt::Select {
                t,
                cols,
                pred,
                order
            }),
        (
            arb_table(),
            prop_oneof![
                Just("MIN"),
                Just("MAX"),
                Just("SUM"),
                Just("AVG"),
                Just("COUNT")
            ],
            arb_col(),
            prop::option::of(arb_col()),
            prop::option::of(arb_pred()),
        )
            .prop_map(|(t, func, arg, group, pred)| Stmt::Agg {
                t,
                func,
                arg,
                group,
                pred
            }),
        (
            arb_table(),
            arb_col(),
            arb_lit(),
            prop::option::of(arb_pred())
        )
            .prop_map(|(t, c, l, p)| Stmt::Arith(t, c, l, p)),
        (arb_lit(), arb_lit(), arb_lit()).prop_map(|(a, b, c)| Stmt::Insert(a, b, c)),
        (arb_col(), arb_lit(), arb_pred()).prop_map(|(c, l, p)| Stmt::Update(c, l, p)),
        arb_pred().prop_map(Stmt::Delete),
    ]
}

fn render_stmt(s: &Stmt) -> String {
    match s {
        Stmt::Select {
            t,
            cols,
            pred,
            order,
        } => {
            let (tab, _) = TABLES[*t];
            let proj: Vec<&str> = cols.iter().map(|&c| col(*t, c)).collect();
            let mut sql = format!("SELECT {} FROM {tab}", proj.join(", "));
            if let Some(p) = pred {
                sql.push_str(&format!(" WHERE {}", render_pred(*t, p)));
            }
            if let Some(o) = order {
                sql.push_str(&format!(" ORDER BY {}", col(*t, *o)));
            }
            sql
        }
        Stmt::Agg {
            t,
            func,
            arg,
            group,
            pred,
        } => {
            let (tab, _) = TABLES[*t];
            let agg = format!("{func}({})", col(*t, *arg));
            let mut sql = match group {
                Some(g) => format!("SELECT {}, {agg} FROM {tab}", col(*t, *g)),
                None => format!("SELECT {agg} FROM {tab}"),
            };
            if let Some(p) = pred {
                sql.push_str(&format!(" WHERE {}", render_pred(*t, p)));
            }
            if let Some(g) = group {
                sql.push_str(&format!(" GROUP BY {}", col(*t, *g)));
            }
            sql
        }
        Stmt::Arith(t, c, l, pred) => {
            let (tab, _) = TABLES[*t];
            let mut sql = format!("SELECT {} + {l} FROM {tab}", col(*t, *c));
            if let Some(p) = pred {
                sql.push_str(&format!(" WHERE {}", render_pred(*t, p)));
            }
            sql
        }
        Stmt::Insert(a, b, c) => {
            format!("INSERT INTO TExp (nid, p2s, cost) VALUES ({a}, {b}, {c})")
        }
        Stmt::Update(c, l, p) => {
            // Table 1 is TVisited.
            format!(
                "UPDATE TVisited SET {} = {l} WHERE {}",
                col(1, *c),
                render_pred(1, p)
            )
        }
        Stmt::Delete(p) => format!("DELETE FROM TExp WHERE {}", render_pred(2, p)),
    }
}

proptest! {
    /// Every generated well-typed statement is diagnostic-free in both
    /// dialects (cold analysis — hot-path policy is exercised separately).
    #[test]
    fn well_typed_statements_analyze_clean(s in arb_stmt(), pg in prop::bool::ANY) {
        let dialect = if pg { Dialect::POSTGRES } else { Dialect::DBMS_X };
        let sql = render_stmt(&s);
        let r = analyze(&db(dialect), &sql).unwrap();
        prop_assert!(r.is_clean(), "false positive:\n{}", r.render());
    }

    /// Injecting an unknown identifier into an otherwise well-typed SELECT
    /// always surfaces FC002 — the resolver cannot be fooled by context.
    #[test]
    fn unknown_identifier_is_always_caught(t in arb_table(), pred in prop::option::of(arb_pred())) {
        let (tab, _) = TABLES[t];
        let mut sql = format!("SELECT zz9_missing FROM {tab}");
        if let Some(p) = &pred {
            sql.push_str(&format!(" WHERE {}", render_pred(t, p)));
        }
        let r = analyze(&db(Dialect::DBMS_X), &sql).unwrap();
        prop_assert!(r.has_rule(Rule::UnknownColumn), "missed:\n{}", r.render());
    }
}

/// One pinned counterexample per rule: the statement must trigger exactly
/// the named rule (other rules may ride along, but the named one is the
/// contract).
#[test]
fn every_rule_has_a_live_counterexample() {
    let cases: &[(Rule, &str)] = &[
        (Rule::UnknownTable, "SELECT x FROM Nope"),
        (Rule::UnknownColumn, "SELECT nope FROM TEdges"),
        (
            Rule::TypeMismatch,
            "SELECT fid FROM TEdges WHERE cost = 'far'",
        ),
        (Rule::NonNumericArith, "SELECT name + 1 FROM TNames"),
        (
            Rule::StatementShape,
            "INSERT INTO TExp (nid, p2s) VALUES (1, 2, 3)",
        ),
        (
            Rule::NotInNullable,
            "SELECT nid FROM TVisited WHERE nid NOT IN (SELECT p2s FROM TVisited)",
        ),
        (
            Rule::AlwaysNullPredicate,
            "SELECT fid FROM TEdges WHERE fid = NULL",
        ),
    ];
    let d = db(Dialect::DBMS_X);
    for (rule, sql) in cases {
        let r = analyze(&d, sql).unwrap();
        assert!(
            r.has_rule(*rule),
            "{} not triggered by `{sql}`:\n{}",
            rule.code(),
            r.render()
        );
    }
}

/// FC006: MERGE is rejected under a dialect without MERGE support and
/// accepted under one with it.
#[test]
fn merge_dialect_gate() {
    let merge = "MERGE INTO TVisited AS target USING TExp AS source \
                 ON source.nid = target.nid \
                 WHEN MATCHED AND target.d2s > source.cost THEN \
                   UPDATE SET d2s = source.cost, p2s = source.p2s, f = 0 \
                 WHEN NOT MATCHED THEN \
                   INSERT (nid, d2s, p2s, f) VALUES (source.nid, source.cost, source.p2s, 0)";
    let r = analyze(&db(Dialect::POSTGRES), merge).unwrap();
    assert!(
        r.has_rule(Rule::DialectUnsupported),
        "FC006 missed:\n{}",
        r.render()
    );
    let r = analyze(&db(Dialect::DBMS_X), merge).unwrap();
    assert!(r.is_clean(), "false positive:\n{}", r.render());
}

/// FC201: the same probe is clean cold, flagged hot when it full-scans an
/// indexed table, and clean hot when it rides the index.
#[test]
fn hot_path_full_scan_gate() {
    let d = db(Dialect::DBMS_X);
    let scan = "SELECT d2s FROM TVisited WHERE f = 0";
    assert!(analyze(&d, scan).unwrap().is_clean());
    let r = analyze_hot_path(&d, scan).unwrap();
    assert!(
        r.has_rule(Rule::HotPathFullScan),
        "FC201 missed:\n{}",
        r.render()
    );
    let probe = "SELECT d2s FROM TVisited WHERE nid = 7";
    assert!(analyze_hot_path(&d, probe).unwrap().is_clean());
}
