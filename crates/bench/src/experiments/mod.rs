//! One module per paper artifact. Every experiment prints a table shaped
//! like the corresponding table/figure series in §5 of the paper.

pub mod ablation;
pub mod fig6;
pub mod fig6_scaled;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod landmark;
pub mod service;
pub mod table2;
pub mod table3;

use crate::harness::BenchConfig;
use fempath_sql::Result;

/// All experiment ids, in paper order.
pub const ALL: &[&str] = &[
    "table2",
    "table3",
    "fig6a",
    "fig6b",
    "fig6c",
    "fig6d",
    "fig6-scaled",
    "fig7a",
    "fig7b",
    "fig7c",
    "fig7d",
    "fig8a",
    "fig8b",
    "fig8c",
    "fig8d",
    "fig9a",
    "fig9b",
    "fig9c",
    "fig9d",
    "fig9e",
    "fig9f",
    "fig9g",
    "fig9h",
    "ablation-prune",
    "landmark-ablation",
    "service-throughput",
];

/// Runs one experiment by id. With `cfg.json` set, the experiment's
/// printed table is also persisted as `BENCH_<id>.json` in the working
/// directory (captured from [`crate::harness::print_table`], so every
/// experiment gets it for free).
pub fn run(id: &str, cfg: &BenchConfig) -> Result<()> {
    crate::harness::take_last_table(); // drop any stale capture
    dispatch(id, cfg)?;
    if cfg.json {
        match crate::harness::take_last_table() {
            Some(table) => crate::harness::write_bench_json(cfg, id, &table),
            None => eprintln!("[--json: experiment {id} printed no table]"),
        }
    }
    Ok(())
}

fn dispatch(id: &str, cfg: &BenchConfig) -> Result<()> {
    match id {
        "table2" => table2::run(cfg),
        "table3" => table3::run(cfg),
        "fig6a" => fig6::fig6a(cfg),
        "fig6b" => fig6::fig6b(cfg),
        "fig6c" => fig6::fig6c(cfg),
        "fig6d" => fig6::fig6d(cfg),
        "fig6-scaled" => fig6_scaled::run(cfg),
        "fig7a" => fig7::fig7a(cfg),
        "fig7b" => fig7::fig7b(cfg),
        "fig7c" => fig7::fig7c(cfg),
        "fig7d" => fig7::fig7d(cfg),
        "fig8a" => fig8::fig8a(cfg),
        "fig8b" => fig8::fig8b(cfg),
        "fig8c" => fig8::fig8c(cfg),
        "fig8d" => fig8::fig8d(cfg),
        "fig9a" => fig9::fig9a(cfg),
        "fig9b" => fig9::fig9b(cfg),
        "fig9c" => fig9::fig9c(cfg),
        "fig9d" => fig9::fig9d(cfg),
        "fig9e" => fig9::fig9e(cfg),
        "fig9f" => fig9::fig9f(cfg),
        "fig9g" => fig9::fig9g(cfg),
        "fig9h" => fig9::fig9h(cfg),
        "ablation-prune" => ablation::prune(cfg),
        "landmark-ablation" => landmark::ablation(cfg),
        "service-throughput" => service::throughput(cfg),
        other => Err(fempath_sql::SqlError::Eval(format!(
            "unknown experiment {other}; known: {}",
            ALL.join(", ")
        ))),
    }
}
