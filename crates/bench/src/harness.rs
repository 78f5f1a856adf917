//! Self-profiling perf-regression harness behind `noc bench`.
//!
//! Runs a fixed workload matrix (both evaluated topologies at three load
//! points each), measures simulator throughput in cycles/sec on the
//! *default* (uninstrumented) path, attributes wall time to the router
//! pipeline phases with a separate profiled run on the same engine, and
//! emits one
//! machine-readable report. A committed baseline report turns any later
//! run into a pass/fail regression check (`compare_baseline`).
//!
//! # Report schema (`noc-bench/v1`)
//!
//! ```json
//! {
//!   "schema": "noc-bench/v1",
//!   "created_unix": 1754500000,
//!   "quick": true,
//!   "warmup": 500,
//!   "measure": 1500,
//!   "reps": 1,
//!   "workloads": [
//!     {
//!       "name": "mesh8x8_c2_r0.05",
//!       "offered": 0.05,
//!       "avg_latency": 21.4,
//!       "latency_p99": 44.0,
//!       "throughput": 0.05,
//!       "cycles": 2000,
//!       "wall_nanos": 104000000,
//!       "cycles_per_sec": 19230769.2,
//!       "profile": { ... see `noc_obs::Profiler::to_json` ... }
//!     }
//!   ]
//! }
//! ```
//!
//! `cycles_per_sec` is the median over `reps` timed runs of the default
//! path (no tracing, no profiling), so the number a baseline locks in is
//! the one users actually experience. The `profile` object comes from one
//! extra instrumented run and is informational: it shows *where* the time
//! goes (route / vc_alloc / sw_alloc / traversal / credit shares), which
//! is the first thing to look at when a regression check fails.

use noc_obs::{JsonValue, Profiler};
use noc_sim::{run_sim_engine, Engine, Run, SimConfig, SimResult, TopologyKind};
use std::fmt::Write as _;
use std::time::Instant;

/// Report schema identifier; bump on breaking layout changes.
pub const SCHEMA: &str = "noc-bench/v1";

/// Sizing of one bench pass.
#[derive(Clone, Copy, Debug)]
pub struct BenchParams {
    /// Use the CI-sized quick matrix (shorter runs).
    pub quick: bool,
    /// Warmup cycles per run.
    pub warmup: u64,
    /// Measured cycles per run.
    pub measure: u64,
    /// Timed repetitions per workload (median wins).
    pub reps: usize,
    /// Cycle-loop engine driving the timed runs. All engines produce
    /// identical simulation results; this picks whose *speed* the report
    /// records.
    pub engine: Engine,
}

impl BenchParams {
    /// Full-size parameters: 2000 + 6000 cycles, median of 3 runs.
    pub fn full() -> Self {
        BenchParams {
            quick: false,
            warmup: 2_000,
            measure: 6_000,
            reps: 3,
            engine: Engine::Sequential,
        }
    }

    /// CI-sized parameters: 500 + 1500 cycles. Median of 3 reps — short
    /// runs are noisy on shared CI machines, and a single outlier must
    /// not trip the regression gate.
    pub fn quick() -> Self {
        BenchParams {
            quick: true,
            warmup: 500,
            measure: 1_500,
            reps: 3,
            engine: Engine::Sequential,
        }
    }
}

/// The fixed workload matrix: each evaluated topology at load points
/// below, near, and at the knee of the latency curve, plus a heavy 0.4
/// mesh point where the parallel engine's speedup is measured (at high
/// load nearly every router is busy every cycle, so this is the
/// compute-bound case sharding helps most).
pub fn workload_matrix() -> Vec<(String, SimConfig)> {
    let mut out = Vec::new();
    for (tag, topo, rates) in [
        (
            "mesh8x8",
            TopologyKind::Mesh8x8,
            &[0.05, 0.15, 0.25, 0.4][..],
        ),
        (
            "fbfly4x4",
            TopologyKind::FlattenedButterfly4x4,
            &[0.10, 0.20, 0.30][..],
        ),
    ] {
        for &rate in rates {
            let cfg = SimConfig {
                injection_rate: rate,
                ..SimConfig::paper_baseline(topo, 2)
            };
            out.push((format!("{tag}_c2_r{rate}"), cfg));
        }
    }
    out
}

/// One workload's measurements.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Stable workload name (the key `compare_baseline` matches on).
    pub name: String,
    /// Summary of the last timed run.
    pub result: SimResult,
    /// Simulated cycles per timed run.
    pub cycles: u64,
    /// Median wall time of the timed default-path runs, nanoseconds.
    pub wall_nanos: u64,
    /// Median simulated cycles per wall-clock second (the regression
    /// metric).
    pub cycles_per_sec: f64,
    /// Phase attribution from the separate profiled run, on the engine
    /// the timed runs used (the parallel engine profiles on its in-order
    /// body: phase timing needs the routers stepped on one thread).
    pub profile: Profiler,
}

/// A complete bench pass.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Unix timestamp of the run (seconds).
    pub created_unix: u64,
    /// Parameters the pass ran with.
    pub params: BenchParams,
    /// Per-workload measurements, in matrix order.
    pub workloads: Vec<WorkloadResult>,
}

/// Canonical report filename for a timestamp: `BENCH_<unix>.json`.
pub fn report_filename(created_unix: u64) -> String {
    format!("BENCH_{created_unix}.json")
}

/// Times and profiles one workload with `params`.
pub fn bench_workload(name: String, cfg: &SimConfig, params: &BenchParams) -> WorkloadResult {
    let cycles = params.warmup + params.measure;
    let mut times = Vec::new();
    let t0 = Instant::now();
    let mut result = run_sim_engine(cfg, params.warmup, params.measure, params.engine);
    times.push(t0.elapsed().as_nanos() as u64);
    for _ in 1..params.reps.max(1) {
        let t0 = Instant::now();
        result = run_sim_engine(cfg, params.warmup, params.measure, params.engine);
        times.push(t0.elapsed().as_nanos() as u64);
    }
    times.sort_unstable();
    let wall_nanos = times[times.len() / 2];
    let run = Run::new(cfg, params.warmup, params.measure).engine(params.engine);
    let profiled = run.profile().finish();
    WorkloadResult {
        name,
        result,
        cycles,
        wall_nanos,
        cycles_per_sec: cycles as f64 / (wall_nanos as f64 * 1e-9),
        profile: profiled.profile.unwrap_or_default(),
    }
}

/// Runs the full workload matrix with `params`, reporting progress lines
/// through `progress` (pass `|_| {}` for silence).
pub fn run_bench(params: &BenchParams, mut progress: impl FnMut(&str)) -> BenchReport {
    let created_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut workloads = Vec::new();
    for (name, cfg) in workload_matrix() {
        let w = bench_workload(name, &cfg, params);
        progress(&format!(
            "{}: {:.2} Mcycles/sec ({} reps)",
            w.name,
            w.cycles_per_sec / 1e6,
            params.reps.max(1)
        ));
        workloads.push(w);
    }
    BenchReport {
        schema: SCHEMA.to_string(),
        created_unix,
        params: *params,
        workloads,
    }
}

impl BenchReport {
    /// Serializes the report in the `noc-bench/v1` schema.
    pub fn to_json(&self) -> String {
        let num = |v: f64| {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        };
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"schema\":\"{}\",\"created_unix\":{},\"quick\":{},\
             \"warmup\":{},\"measure\":{},\"reps\":{},\"engine\":\"{}\",\"workloads\":[",
            self.schema,
            self.created_unix,
            self.params.quick,
            self.params.warmup,
            self.params.measure,
            self.params.reps,
            self.params.engine.label()
        );
        for (i, w) in self.workloads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"offered\":{},\"avg_latency\":{},\"latency_p99\":{},\
                 \"throughput\":{},\"cycles\":{},\"wall_nanos\":{},\"cycles_per_sec\":{},\
                 \"profile\":{}}}",
                w.name,
                num(w.result.offered),
                num(w.result.avg_latency),
                num(w.result.latency_p99),
                num(w.result.throughput),
                w.cycles,
                w.wall_nanos,
                num(w.cycles_per_sec),
                w.profile.to_json()
            );
        }
        out.push_str("]}");
        out
    }
}

/// The subset of a report a regression check needs: workload name →
/// cycles/sec, plus the metadata that decides comparability.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineSummary {
    /// Schema of the parsed report.
    pub schema: String,
    /// Timestamp of the parsed report.
    pub created_unix: u64,
    /// Whether it was a quick pass.
    pub quick: bool,
    /// Engine label the report's timings were taken on (`"seq"` for
    /// reports written before the field existed).
    pub engine: String,
    /// `(workload name, cycles_per_sec)` in file order.
    pub workloads: Vec<(String, f64)>,
}

/// Parses a `noc-bench/v1` report (typically a committed baseline).
pub fn parse_report(json: &str) -> Result<BaselineSummary, String> {
    let v = JsonValue::parse(json)?;
    let schema = v
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("report has no schema field")?
        .to_string();
    if schema != SCHEMA {
        return Err(format!(
            "unsupported bench schema '{schema}' (want {SCHEMA})"
        ));
    }
    let created_unix = v
        .get("created_unix")
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0) as u64;
    let quick = v.get("quick").and_then(JsonValue::as_bool).unwrap_or(false);
    let engine = v
        .get("engine")
        .and_then(JsonValue::as_str)
        .unwrap_or("seq")
        .to_string();
    let mut workloads = Vec::new();
    for w in v
        .get("workloads")
        .and_then(JsonValue::as_array)
        .ok_or("report has no workloads array")?
    {
        let name = w
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("workload without a name")?
            .to_string();
        let cps = w.num_or_nan("cycles_per_sec");
        workloads.push((name, cps));
    }
    Ok(BaselineSummary {
        schema,
        created_unix,
        quick,
        engine,
        workloads,
    })
}

/// Compares a fresh report against a baseline: every workload present in
/// both must be no more than `tolerance_pct` percent slower (by
/// cycles/sec) than the baseline. Returns one human-readable line per
/// compared workload on pass, or the list of regressions on failure.
/// Workloads missing from either side are skipped (the matrix may grow),
/// but comparing zero workloads is an error.
pub fn compare_baseline(
    current: &BenchReport,
    baseline: &BaselineSummary,
    tolerance_pct: f64,
) -> Result<Vec<String>, Vec<String>> {
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    let mut compared = 0usize;
    for w in &current.workloads {
        let Some((_, base)) = baseline.workloads.iter().find(|(n, _)| *n == w.name) else {
            continue;
        };
        if !base.is_finite() || *base <= 0.0 || !w.cycles_per_sec.is_finite() {
            continue;
        }
        compared += 1;
        let delta_pct = (w.cycles_per_sec / base - 1.0) * 100.0;
        let line = format!(
            "{}: {:.2} Mcycles/sec vs baseline {:.2} ({:+.1}%)",
            w.name,
            w.cycles_per_sec / 1e6,
            base / 1e6,
            delta_pct
        );
        if delta_pct < -tolerance_pct {
            regressions.push(line);
        } else {
            lines.push(line);
        }
    }
    if compared == 0 {
        return Err(vec![
            "no common workloads between report and baseline".to_string()
        ]);
    }
    if regressions.is_empty() {
        Ok(lines)
    } else {
        Err(regressions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_both_topologies_plus_heavy_mesh_point() {
        let m = workload_matrix();
        assert_eq!(m.len(), 7);
        assert_eq!(m.iter().filter(|(n, _)| n.starts_with("mesh")).count(), 4);
        assert_eq!(m.iter().filter(|(n, _)| n.starts_with("fbfly")).count(), 3);
        assert!(m.iter().any(|(n, _)| n == "mesh8x8_c2_r0.4"));
        let names: std::collections::HashSet<_> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), 7, "workload names must be unique keys");
    }

    #[test]
    fn filename_embeds_timestamp() {
        assert_eq!(report_filename(17), "BENCH_17.json");
    }
}
