//! The rule driver: one pass per statement kind over the AST, then the
//! plan-shape verdicts and the hot-path gate (FC201) over the accesses of
//! the compiled plan.

mod select;
mod typeck;

use fempath_sql::ast::{
    CreateIndex, CreateTable, Delete, Expr, Insert, InsertSource, Merge, Stmt, Update,
};
use fempath_sql::plan::scope::split_conjuncts;
use fempath_sql::plan::{table_accesses, AccessKind, TableAccess};
use fempath_sql::{parse_statement, Catalog, Database, Dialect, Result};
use select::{analyze_select, refine_and_check, resolve_source};
use typeck::{infer, storable, TSchema};

/// Diagnostic severity. Errors describe statements that will misbehave or
/// be rejected; warnings describe constructs that are semantically
/// hazardous (three-valued-logic traps) but may be intentional.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

/// The lint catalog. Every diagnostic carries one of these rules; codes
/// are stable and documented in DESIGN.md §15.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// FC001: reference to a table or view the catalog does not contain.
    UnknownTable,
    /// FC002: column reference that does not resolve (unknown or
    /// ambiguous).
    UnknownColumn,
    /// FC003: comparison or IN probe between Text and a numeric type —
    /// ordered by storage type tag, never equal.
    TypeMismatch,
    /// FC004: arithmetic (or SUM/AVG) over a Text operand.
    NonNumericArith,
    /// FC005: malformed statement shape — INSERT arity, scalar subquery
    /// column count, derived-table column list, or any other reason the
    /// planner refuses the statement (e.g. a MERGE/UPDATE-FROM without a
    /// target equality to probe on).
    StatementShape,
    /// FC006: statement needs a feature the active dialect lacks (MERGE
    /// without `supports_merge`).
    DialectUnsupported,
    /// FC101: `NOT IN (SELECT …)` where the subquery column is nullable —
    /// a single NULL makes the predicate UNKNOWN for every non-match.
    NotInNullable,
    /// FC102: a comparison with an operand that is NULL on every row.
    AlwaysNullPredicate,
    /// FC201: a statement annotated hot-path full-scans a table that has
    /// an index.
    HotPathFullScan,
}

impl Rule {
    /// Stable rule code (`FC…`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::UnknownTable => "FC001",
            Rule::UnknownColumn => "FC002",
            Rule::TypeMismatch => "FC003",
            Rule::NonNumericArith => "FC004",
            Rule::StatementShape => "FC005",
            Rule::DialectUnsupported => "FC006",
            Rule::NotInNullable => "FC101",
            Rule::AlwaysNullPredicate => "FC102",
            Rule::HotPathFullScan => "FC201",
        }
    }

    /// Severity class of the rule.
    pub fn severity(self) -> Severity {
        match self {
            Rule::NotInNullable | Rule::AlwaysNullPredicate => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: Rule,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.rule.severity() {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "[{} {sev}] {}", self.rule.code(), self.message)
    }
}

/// Analysis options.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyzeOptions {
    /// The statement is annotated *hot-path*: it runs per search iteration
    /// (or per result probe) and must not full-scan an indexed table.
    pub hot_path: bool,
}

/// Everything the analyzer found for one statement.
#[derive(Debug, Clone)]
pub struct Report {
    /// The analyzed SQL text.
    pub sql: String,
    pub diagnostics: Vec<Diagnostic>,
    pub accesses: Vec<TableAccess>,
}

impl Report {
    /// True when no diagnostics (errors *or* warnings) were produced.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when some diagnostic carries `rule`.
    pub fn has_rule(&self, rule: Rule) -> bool {
        self.diagnostics.iter().any(|d| d.rule == rule)
    }

    /// One line per diagnostic, prefixed with the offending SQL on the
    /// first line — the shape test failures print.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.sql);
        for d in &self.diagnostics {
            out.push_str("\n  ");
            out.push_str(&d.to_string());
        }
        out
    }
}

/// Shared analysis state.
pub(crate) struct Ctx<'a> {
    pub(crate) catalog: &'a Catalog,
    pub(crate) dialect: Dialect,
    pub(crate) diags: Vec<Diagnostic>,
}

impl Ctx<'_> {
    pub(crate) fn diag(&mut self, rule: Rule, message: String) {
        self.diags.push(Diagnostic { rule, message });
    }
}

/// Parses and analyzes one statement against `catalog` under `dialect`.
/// `Err` only on parse failure; semantic problems come back as
/// [`Report::diagnostics`].
pub fn analyze_sql(
    catalog: &Catalog,
    dialect: Dialect,
    sql: &str,
    opts: &AnalyzeOptions,
) -> Result<Report> {
    let stmt = parse_statement(sql)?;
    Ok(analyze_stmt(catalog, dialect, &stmt, sql, opts))
}

/// Analyzes `sql` against `db`'s current catalog under its dialect,
/// without executing it.
pub fn analyze(db: &Database, sql: &str) -> Result<Report> {
    analyze_sql(db.catalog(), db.dialect(), sql, &AnalyzeOptions::default())
}

/// Like [`analyze`], with the statement annotated *hot-path*: a full scan
/// of an indexed table becomes an FC201 error.
pub fn analyze_hot_path(db: &Database, sql: &str) -> Result<Report> {
    analyze_sql(
        db.catalog(),
        db.dialect(),
        sql,
        &AnalyzeOptions { hot_path: true },
    )
}

fn analyze_stmt(
    catalog: &Catalog,
    dialect: Dialect,
    stmt: &Stmt,
    sql: &str,
    opts: &AnalyzeOptions,
) -> Report {
    let mut cx = Ctx {
        catalog,
        dialect,
        diags: Vec::new(),
    };
    dispatch(&mut cx, stmt);
    let accesses = match table_accesses(catalog, stmt) {
        Ok(accesses) => accesses,
        Err(e) => {
            // An error found above already explains the refusal.
            if !cx
                .diags
                .iter()
                .any(|d| d.rule.severity() == Severity::Error)
            {
                cx.diag(Rule::StatementShape, e.to_string());
            }
            Vec::new()
        }
    };
    if opts.hot_path {
        for a in &accesses {
            if !a.in_subquery && a.access == AccessKind::FullScan && a.has_index {
                cx.diags.push(Diagnostic {
                    rule: Rule::HotPathFullScan,
                    message: format!(
                        "hot-path statement full-scans indexed table {} (as {})",
                        a.table, a.binding
                    ),
                });
            }
        }
    }
    Report {
        sql: sql.to_string(),
        diagnostics: cx.diags,
        accesses,
    }
}

fn dispatch(cx: &mut Ctx<'_>, stmt: &Stmt) {
    match stmt {
        Stmt::Select(sel) => {
            analyze_select(cx, sel);
        }
        Stmt::Insert(ins) => analyze_insert(cx, ins),
        Stmt::Update(upd) => analyze_update(cx, upd),
        Stmt::Delete(del) => analyze_delete(cx, del),
        Stmt::Merge(m) => analyze_merge(cx, m),
        Stmt::Truncate { table } => {
            if !cx.catalog.has_table(table) {
                cx.diag(Rule::UnknownTable, format!("no such table {table}"));
            }
        }
        Stmt::CreateTable(ct) => analyze_create_table(cx, ct),
        Stmt::CreateIndex(ci) => analyze_create_index(cx, ci),
        Stmt::CreateView { query, .. } => {
            analyze_select(cx, query);
        }
        Stmt::DropTable { name, if_exists } => {
            if !if_exists && !cx.catalog.has_table(name) && cx.catalog.view(name).is_none() {
                cx.diag(Rule::UnknownTable, format!("no such table {name}"));
            }
        }
        // Index/view names live in catalog maps the analyzer does not
        // model; dropping them is not statically checked.
        Stmt::DropIndex { .. } | Stmt::DropView { .. } => {}
        Stmt::Explain(inner) => dispatch(cx, inner),
    }
}

fn analyze_create_table(cx: &mut Ctx<'_>, ct: &CreateTable) {
    for (i, a) in ct.columns.iter().enumerate() {
        if ct.columns[i + 1..]
            .iter()
            .any(|b| b.name.eq_ignore_ascii_case(&a.name))
        {
            cx.diag(
                Rule::StatementShape,
                format!("duplicate column {} in CREATE TABLE {}", a.name, ct.name),
            );
        }
    }
    if let Some(pk) = &ct.primary_key {
        for col in pk {
            if !ct.columns.iter().any(|c| c.name.eq_ignore_ascii_case(col)) {
                cx.diag(
                    Rule::UnknownColumn,
                    format!("PRIMARY KEY column {col} is not a column of {}", ct.name),
                );
            }
        }
    }
}

fn analyze_create_index(cx: &mut Ctx<'_>, ci: &CreateIndex) {
    let Ok(table) = cx.catalog.table(&ci.table) else {
        cx.diag(Rule::UnknownTable, format!("no such table {}", ci.table));
        return;
    };
    for col in &ci.columns {
        if table.schema.col_index(col).is_none() {
            cx.diag(
                Rule::UnknownColumn,
                format!("unknown column {col} in index on {}", ci.table),
            );
        }
    }
}

fn analyze_insert(cx: &mut Ctx<'_>, ins: &Insert) {
    let Ok(table) = cx.catalog.table(&ins.table) else {
        cx.diag(Rule::UnknownTable, format!("no such table {}", ins.table));
        return;
    };
    // Target column positions: the explicit list, or all columns.
    let targets: Vec<usize> = match &ins.columns {
        Some(cols) => {
            let mut out = Vec::with_capacity(cols.len());
            for c in cols {
                match table.schema.col_index(c) {
                    Some(i) => out.push(i),
                    None => {
                        cx.diag(
                            Rule::UnknownColumn,
                            format!("unknown column {c} in INSERT INTO {}", ins.table),
                        );
                        return;
                    }
                }
            }
            out
        }
        None => (0..table.schema.columns.len()).collect(),
    };
    let dtypes: Vec<_> = targets
        .iter()
        .map(|&i| table.schema.columns[i].clone())
        .collect();
    // Borrow of `table` ends here; the checks below re-derive nothing
    // from the catalog.
    match &ins.source {
        InsertSource::Values(rows) => {
            let empty = TSchema::default();
            for row in rows {
                if row.len() != dtypes.len() {
                    cx.diag(
                        Rule::StatementShape,
                        format!(
                            "INSERT INTO {} expects {} values, got {}",
                            ins.table,
                            dtypes.len(),
                            row.len()
                        ),
                    );
                    continue;
                }
                for (v, col) in row.iter().zip(&dtypes) {
                    let t = infer(cx, &empty, v, false);
                    if !storable(col.dtype, t.ty) {
                        cx.diag(
                            Rule::TypeMismatch,
                            format!(
                                "column {}.{} expects {}, got {}",
                                ins.table, col.name, col.dtype, t.ty
                            ),
                        );
                    }
                }
            }
        }
        InsertSource::Query(sel) => {
            let out = analyze_select(cx, sel);
            if out.open {
                return;
            }
            if out.cols.len() != dtypes.len() {
                cx.diag(
                    Rule::StatementShape,
                    format!(
                        "INSERT INTO {} expects {} columns, SELECT returns {}",
                        ins.table,
                        dtypes.len(),
                        out.cols.len()
                    ),
                );
                return;
            }
            for (c, col) in out.cols.iter().zip(&dtypes) {
                if !storable(col.dtype, c.ty) {
                    cx.diag(
                        Rule::TypeMismatch,
                        format!(
                            "column {}.{} expects {}, got {}",
                            ins.table, col.name, col.dtype, c.ty
                        ),
                    );
                }
            }
        }
    }
}

fn analyze_update(cx: &mut Ctx<'_>, upd: &Update) {
    let Ok(table) = cx.catalog.table(&upd.table) else {
        cx.diag(Rule::UnknownTable, format!("no such table {}", upd.table));
        return;
    };
    let binding = upd.alias.as_deref().unwrap_or(&upd.table).to_string();
    let target = TSchema::from_table(&binding, table);
    let conjuncts: Vec<Expr> = upd.filter.as_ref().map(split_conjuncts).unwrap_or_default();
    let assign_cols: Vec<(String, Option<fempath_storage::DataType>)> = upd
        .assignments
        .iter()
        .map(|(name, _)| {
            let dtype = table
                .schema
                .col_index(name)
                .map(|i| table.schema.columns[i].dtype);
            (name.clone(), dtype)
        })
        .collect();

    let combined = match &upd.from {
        None => target,
        Some(tref) => target.concat(&resolve_source(cx, tref)),
    };

    let ts = refine_and_check(cx, combined, &conjuncts);
    for ((name, dtype), (_, value)) in assign_cols.iter().zip(&upd.assignments) {
        let Some(dtype) = dtype else {
            cx.diag(
                Rule::UnknownColumn,
                format!("unknown column {name} in UPDATE {}", upd.table),
            );
            continue;
        };
        let t = infer(cx, &ts, value, false);
        if !storable(*dtype, t.ty) {
            cx.diag(
                Rule::TypeMismatch,
                format!("column {}.{name} expects {dtype}, got {}", upd.table, t.ty),
            );
        }
    }
}

fn analyze_delete(cx: &mut Ctx<'_>, del: &Delete) {
    let Ok(table) = cx.catalog.table(&del.table) else {
        cx.diag(Rule::UnknownTable, format!("no such table {}", del.table));
        return;
    };
    let target = TSchema::from_table(&del.table, table);
    let conjuncts: Vec<Expr> = del.filter.as_ref().map(split_conjuncts).unwrap_or_default();
    refine_and_check(cx, target, &conjuncts);
}

fn analyze_merge(cx: &mut Ctx<'_>, m: &Merge) {
    if !cx.dialect.supports_merge {
        cx.diag(
            Rule::DialectUnsupported,
            format!("MERGE is not supported by dialect {}", cx.dialect.name),
        );
    }
    let Ok(table) = cx.catalog.table(&m.target) else {
        cx.diag(Rule::UnknownTable, format!("no such table {}", m.target));
        return;
    };
    let binding = m.target_alias.as_deref().unwrap_or(&m.target).to_string();
    let target = TSchema::from_table(&binding, table);
    let target_cols = table.schema.columns.clone();
    let target_name = table.schema.name.clone();

    let combined = target.concat(&resolve_source(cx, &m.source));
    let ts = refine_and_check(cx, combined, &split_conjuncts(&m.on));

    if let Some(matched) = &m.when_matched {
        if let Some(cond) = &matched.condition {
            infer(cx, &ts, cond, false);
        }
        for (name, value) in &matched.assignments {
            let Some(i) = target_cols
                .iter()
                .position(|c| c.name.eq_ignore_ascii_case(name))
            else {
                cx.diag(
                    Rule::UnknownColumn,
                    format!("unknown column {name} in MERGE UPDATE of {target_name}"),
                );
                continue;
            };
            let t = infer(cx, &ts, value, false);
            if !storable(target_cols[i].dtype, t.ty) {
                cx.diag(
                    Rule::TypeMismatch,
                    format!(
                        "column {target_name}.{name} expects {}, got {}",
                        target_cols[i].dtype, t.ty
                    ),
                );
            }
        }
    }
    if let Some(not_matched) = &m.when_not_matched {
        if not_matched.values.len() != not_matched.columns.len() {
            cx.diag(
                Rule::StatementShape,
                format!(
                    "MERGE INSERT lists {} columns but {} values",
                    not_matched.columns.len(),
                    not_matched.values.len()
                ),
            );
        }
        for (name, value) in not_matched.columns.iter().zip(&not_matched.values) {
            let Some(i) = target_cols
                .iter()
                .position(|c| c.name.eq_ignore_ascii_case(name))
            else {
                cx.diag(
                    Rule::UnknownColumn,
                    format!("unknown column {name} in MERGE INSERT of {target_name}"),
                );
                continue;
            };
            // NOT MATCHED values are evaluated against the source row; the
            // combined schema is a superset, so no false unknown-column
            // findings.
            let t = infer(cx, &ts, value, false);
            if !storable(target_cols[i].dtype, t.ty) {
                cx.diag(
                    Rule::TypeMismatch,
                    format!(
                        "column {target_name}.{name} expects {}, got {}",
                        target_cols[i].dtype, t.ty
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fempath_sql::plan::JoinKind;

    fn db() -> Database {
        let mut db = Database::in_memory(64);
        db.execute("CREATE TABLE TEdges (fid INT, tid INT, cost INT)")
            .unwrap();
        db.execute("CREATE CLUSTERED INDEX idx_tedges ON TEdges(fid)")
            .unwrap();
        db.execute("CREATE TABLE TVisited (nid INT, d2s INT, p2s INT, f INT)")
            .unwrap();
        db.execute("CREATE UNIQUE INDEX idx_tvisited_nid ON TVisited(nid)")
            .unwrap();
        db.execute("CREATE TABLE TExp (nid INT, p2s INT, cost INT)")
            .unwrap();
        db
    }

    fn rules(r: &Report) -> Vec<Rule> {
        r.diagnostics.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn clean_statements_stay_clean() {
        let db = db();
        for sql in [
            "SELECT nid, d2s FROM TVisited WHERE nid = ?",
            "SELECT COUNT(*), MIN(d2s) FROM TVisited WHERE f = 0",
            "SELECT e.tid, q.d2s + e.cost FROM TVisited q, TEdges e WHERE q.nid = e.fid AND q.f = 0",
            "DELETE FROM TExp WHERE cost > ?",
            "INSERT INTO TExp (nid, p2s, cost) VALUES (?, ?, ?)",
            "UPDATE TVisited SET f = 1 WHERE nid = ?",
            "SELECT v.nid FROM (SELECT nid FROM TVisited WHERE f = 0) v",
        ] {
            let r = analyze(&db, sql).unwrap();
            assert!(r.is_clean(), "unexpected diagnostics:\n{}", r.render());
        }
    }

    #[test]
    fn fc001_unknown_table() {
        let db = db();
        let r = analyze(&db, "SELECT x FROM Nope").unwrap();
        assert!(r.has_rule(Rule::UnknownTable), "{}", r.render());
        // The open schema suppresses cascading unknown-column noise.
        assert!(!r.has_rule(Rule::UnknownColumn), "{}", r.render());
        assert!(analyze(&db, "TRUNCATE TABLE Nope")
            .unwrap()
            .has_rule(Rule::UnknownTable));
        assert!(analyze(&db, "DROP TABLE Nope")
            .unwrap()
            .has_rule(Rule::UnknownTable));
        assert!(analyze(&db, "DROP TABLE IF EXISTS Nope")
            .unwrap()
            .is_clean());
    }

    #[test]
    fn fc002_unknown_column() {
        let db = db();
        let r = analyze(&db, "SELECT ghost FROM TVisited").unwrap();
        assert_eq!(rules(&r), vec![Rule::UnknownColumn], "{}", r.render());
        let r = analyze(&db, "UPDATE TVisited SET ghost = 1 WHERE nid = ?").unwrap();
        assert!(r.has_rule(Rule::UnknownColumn), "{}", r.render());
    }

    #[test]
    fn fc003_type_mismatch() {
        let mut db = db();
        db.execute("CREATE TABLE Names (nid INT, label TEXT)")
            .unwrap();
        let r = analyze(&db, "SELECT nid FROM Names WHERE label = 3").unwrap();
        assert!(r.has_rule(Rule::TypeMismatch), "{}", r.render());
        let r = analyze(
            &db,
            "SELECT nid FROM Names WHERE label IN (SELECT nid FROM TVisited)",
        )
        .unwrap();
        assert!(r.has_rule(Rule::TypeMismatch), "{}", r.render());
        let r = analyze(&db, "INSERT INTO Names (nid, label) VALUES (1, 2)").unwrap();
        assert!(r.has_rule(Rule::TypeMismatch), "{}", r.render());
    }

    #[test]
    fn fc004_non_numeric_arith() {
        let mut db = db();
        db.execute("CREATE TABLE Names (nid INT, label TEXT)")
            .unwrap();
        let r = analyze(&db, "SELECT label + 1 FROM Names").unwrap();
        assert!(r.has_rule(Rule::NonNumericArith), "{}", r.render());
        let r = analyze(&db, "SELECT SUM(label) FROM Names").unwrap();
        assert!(r.has_rule(Rule::NonNumericArith), "{}", r.render());
    }

    #[test]
    fn fc005_statement_shape() {
        let db = db();
        let r = analyze(&db, "INSERT INTO TExp (nid, p2s, cost) VALUES (1, 2)").unwrap();
        assert!(r.has_rule(Rule::StatementShape), "{}", r.render());
        let r = analyze(
            &db,
            "SELECT nid FROM TVisited WHERE d2s = (SELECT nid, d2s FROM TVisited)",
        )
        .unwrap();
        assert!(r.has_rule(Rule::StatementShape), "{}", r.render());
        // UPDATE-FROM without a target equality: the planner rejects it.
        let r = analyze(
            &db,
            "UPDATE TVisited SET f = 1 FROM TExp WHERE TExp.cost > 0",
        )
        .unwrap();
        assert!(r.has_rule(Rule::StatementShape), "{}", r.render());
    }

    #[test]
    fn fc006_dialect_unsupported() {
        let db = db();
        let merge = "MERGE INTO TVisited USING TExp ON TVisited.nid = TExp.nid \
                     WHEN MATCHED THEN UPDATE SET d2s = TExp.cost";
        let r = analyze_sql(
            db.catalog(),
            Dialect::POSTGRES,
            merge,
            &AnalyzeOptions::default(),
        )
        .unwrap();
        assert!(r.has_rule(Rule::DialectUnsupported), "{}", r.render());
        let r = analyze_sql(
            db.catalog(),
            Dialect::DBMS_X,
            merge,
            &AnalyzeOptions::default(),
        )
        .unwrap();
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn fc101_not_in_nullable() {
        let db = db();
        let bad = "SELECT nid FROM TExp WHERE nid NOT IN (SELECT nid FROM TVisited)";
        let r = analyze(&db, bad).unwrap();
        assert_eq!(rules(&r), vec![Rule::NotInNullable], "{}", r.render());
        // The IS NOT NULL guard makes the subquery column non-nullable.
        let good = "SELECT nid FROM TExp WHERE nid NOT IN \
                    (SELECT nid FROM TVisited WHERE nid IS NOT NULL)";
        let r = analyze(&db, good).unwrap();
        assert!(r.is_clean(), "{}", r.render());
        // Positive IN over a nullable column is fine.
        let r = analyze(
            &db,
            "SELECT nid FROM TExp WHERE nid IN (SELECT nid FROM TVisited)",
        )
        .unwrap();
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn fc101_strictness_transfers_through_predicates() {
        let db = db();
        // `nid = ?` null-rejects nid, so the NOT IN sees non-nullable output.
        let guarded = "SELECT nid FROM TExp WHERE nid NOT IN \
                       (SELECT nid FROM TVisited WHERE nid = 4)";
        let r = analyze(&db, guarded).unwrap();
        assert!(r.is_clean(), "{}", r.render());
        // An OR predicate rejects nothing: nid stays nullable.
        let unguarded = "SELECT nid FROM TExp WHERE nid NOT IN \
                         (SELECT nid FROM TVisited WHERE nid = 4 OR f = 1)";
        let r = analyze(&db, unguarded).unwrap();
        assert!(r.has_rule(Rule::NotInNullable), "{}", r.render());
    }

    #[test]
    fn fc102_always_null_predicate() {
        let db = db();
        let r = analyze(&db, "SELECT nid FROM TVisited WHERE d2s = NULL").unwrap();
        assert!(r.has_rule(Rule::AlwaysNullPredicate), "{}", r.render());
        let r = analyze(&db, "SELECT nid FROM TVisited WHERE d2s IS NULL").unwrap();
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn fc201_hot_path_full_scan() {
        let db = db();
        // Point lookup: fine hot.
        let r = analyze_hot_path(&db, "SELECT d2s FROM TVisited WHERE nid = ?").unwrap();
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.accesses[0].access, AccessKind::IndexEq);
        // Full scan of an indexed table: hot error, cold fine.
        let scan = "SELECT nid FROM TVisited WHERE f = 0";
        assert!(analyze(&db, scan).unwrap().is_clean());
        let r = analyze_hot_path(&db, scan).unwrap();
        assert!(r.has_rule(Rule::HotPathFullScan), "{}", r.render());
        // Full scan of an unindexed table: fine even hot.
        let r = analyze_hot_path(&db, "SELECT nid FROM TExp WHERE cost < ?").unwrap();
        assert!(r.is_clean(), "{}", r.render());
        // Scalar subquery interiors are exempt (evaluated once).
        let r = analyze_hot_path(
            &db,
            "SELECT nid FROM TExp WHERE cost = (SELECT MIN(d2s) FROM TVisited)",
        )
        .unwrap();
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn plan_shape_verdicts() {
        let db = db();
        // Index nested-loop join through the clustered edge index.
        let r = analyze(
            &db,
            "SELECT e.tid FROM TVisited q, TEdges e WHERE q.nid = e.fid AND q.f = 0",
        )
        .unwrap();
        assert!(r.is_clean(), "{}", r.render());
        let e = r
            .accesses
            .iter()
            .find(|a| a.table.eq_ignore_ascii_case("TEdges"))
            .unwrap();
        assert_eq!(e.join, JoinKind::IndexNestedLoop);
        assert_eq!(e.access, AccessKind::IndexRange);
        assert_eq!(e.index_cols, ["fid"]);
        // MERGE probes the unique visited index.
        let r = analyze(
            &db,
            "MERGE INTO TVisited USING TExp ON TVisited.nid = TExp.nid \
                 WHEN MATCHED THEN UPDATE SET d2s = TExp.cost",
        )
        .unwrap();
        assert!(r.is_clean(), "{}", r.render());
        let t = r
            .accesses
            .iter()
            .find(|a| a.join == JoinKind::Probe)
            .unwrap();
        assert_eq!(t.access, AccessKind::IndexEq);
        assert_eq!(t.index_cols, ["nid"]);
    }

    #[test]
    fn parse_error_is_err() {
        let db = db();
        assert!(analyze(&db, "SELEC nid FROM TVisited").is_err());
    }
}
