#![forbid(unsafe_code)]
//! Shared infrastructure for the figure-regeneration binaries.
//!
//! Every table/figure in the paper's evaluation has a binary in
//! `src/bin/` (`fig04` … `fig14`) that regenerates its data series; the
//! functions here compute those series so that integration tests can check
//! them without re-parsing stdout. See `DESIGN.md` §4 for the experiment
//! index and `EXPERIMENTS.md` for paper-vs-measured results.

pub mod figures;
pub mod harness;
pub mod points;
pub mod sweep;

pub use harness::{
    bench_workload, compare_baseline, parse_report, report_filename, run_bench, workload_matrix,
    BaselineSummary, BenchParams, BenchReport, WorkloadResult,
};
pub use points::{DesignPoint, DESIGN_POINTS};

/// Reads an environment-variable override for experiment sizing, so the
/// full paper-scale runs (`NOC_TRIALS=10000`, `NOC_MEASURE=10000`, …) and
/// quick smoke runs use the same binaries.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Formats an `f64` that may be NaN (unsaturated/no-data points).
pub fn fmt(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}
