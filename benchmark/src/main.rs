#![forbid(unsafe_code)]
//! The repo benchmark: six workloads, ten end-to-end metrics, and a
//! per-layer ladder from allocator kernel to serve request. Every layer is
//! measured from outside, by timing calls into its public functions. See
//! `README.md` in this directory.

mod alloc_family;
mod cases;
mod common;
mod compare;
mod expected;
mod meter;
mod metrics;
mod micro;
mod report;
mod serve_family;
mod sim_family;
mod stats;
mod sweep_family;
mod trace;

use common::{Checks, Env, Values};
use expected::Expectations;
use meter::{Budget, Meter, Samples};
use metrics::{Family, MetricDef};
use report::{Provenance, ResultFile, WorkloadResult};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use trace::Tracer;

/// `run_seconds` of `BENCHMARK.json`: how long the workload's own family
/// is measured in an untraced run.
pub const DEFAULT_SECONDS: f64 = 8.0;
/// Set-ups per run; `setup_s` is estimated over them.
const SETUP_REPS: usize = 3;

const USAGE: &str = "usage:
  noc-benchmark [--dir DIR] [--workload W] [--seed S] [--seconds N]
                [--trace 0|1 | --traced] [--runs N] [--out FILE] [--commit HASH]
  noc-benchmark [--dir DIR] --bless
  noc-benchmark compare A.json B.json

With --workload and no --runs the workload runs in this process and the last
stdout line is its result object. Otherwise every chosen workload runs --runs
times (default 1), one process per run, run r with seed S + r, and the set is
written to --out (default DIR/out/result[-traced].json).";

struct Options {
    dir: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: Option<usize>,
    out: Option<PathBuf>,
    commit: String,
    bless: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        dir: PathBuf::from("benchmark"),
        workload: None,
        seed: cases::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: None,
        out: None,
        commit: "unknown".to_string(),
        bless: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--dir" => o.dir = PathBuf::from(value()?),
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                o.seed = parse_seed(v).ok_or_else(|| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                o.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {v}"))?;
            }
            "--trace" => match value()?.as_str() {
                "0" => o.trace = false,
                "1" => o.trace = true,
                v => return Err(format!("bad --trace {v} (0 or 1)")),
            },
            "--traced" => o.trace = true,
            "--runs" => {
                let v = value()?;
                o.runs = Some(
                    v.parse()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or_else(|| format!("bad --runs {v}"))?,
                );
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--commit" => o.commit = value()?.clone(),
            "--bless" => o.bless = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if let Some(w) = &o.workload {
        if metrics::workload(w).is_none() {
            let names: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {w} (one of {})", names.join(" ")));
        }
    }
    Ok(o)
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn print_metric(defs: &[MetricDef], name: &str, value: f64, note: &str) {
    let unit = defs.iter().find(|d| d.name == name).map_or("", |d| d.unit);
    println!("{name:<52} {value:>16.6} {unit:<15} {note}");
}

/// An untraced run: the workload's family for `seconds`, then a short
/// probe of each other family, so every end-to-end metric is measured.
fn untraced(plan: &cases::Plan, env: &Env, seconds: f64, checks: &mut Checks) -> Values {
    let defs = metrics::end_to_end();
    let mut meter = Meter::new(1);
    // `run_sweep` keeps every core busy; calibrate it the same way.
    let mut wide_meter = Meter::new(nproc());
    let mut values = Values::new();
    let mut order = vec![plan.native];
    order.extend(
        [Family::Sim, Family::Alloc, Family::Sweep, Family::Serve]
            .into_iter()
            .filter(|f| *f != plan.native),
    );
    for family in order {
        let native = family == plan.native;
        let setup_reps = if native { SETUP_REPS } else { 1 };
        // A case's rep count is a floor under the time budget for the
        // workload's own family and the whole budget for a probe.
        let budget = |reps: usize| {
            if native {
                Budget::Seconds {
                    secs: seconds,
                    min_reps: reps,
                }
            } else {
                Budget::Reps(reps)
            }
        };
        let (setup, found, note): (Samples, Values, String) = match family {
            Family::Sim => {
                let m = sim_family::measure(
                    &plan.sim,
                    &mut meter,
                    budget(plan.sim.det_reps),
                    setup_reps,
                    checks,
                );
                let note = format!(
                    "{} reps of {}+{} cycles, raw median {:.4} s/rep",
                    m.reps.reps(),
                    plan.sim.warmup,
                    plan.sim.measure,
                    m.reps.wall_median()
                );
                (m.setup, m.values, note)
            }
            Family::Alloc => {
                let m = alloc_family::measure(
                    &plan.alloc,
                    &mut meter,
                    budget(plan.alloc.reps),
                    setup_reps,
                    checks,
                );
                let note = format!(
                    "{} reps of the 32-cell mix, raw median {:.4} s/rep",
                    m.reps.reps(),
                    m.reps.wall_median()
                );
                (m.setup, m.values, note)
            }
            Family::Sweep => {
                let m = sweep_family::measure(
                    &plan.sweep,
                    env,
                    &mut wide_meter,
                    budget(plan.sweep.reps),
                    setup_reps,
                    checks,
                );
                let note = format!(
                    "{} reps of {} points, raw median {:.4} s/rep",
                    m.reps.reps(),
                    plan.sweep.spec.expand().len(),
                    m.reps.wall_median()
                );
                (m.setup, m.values, note)
            }
            Family::Serve => {
                let m = serve_family::measure(
                    &plan.serve,
                    env,
                    &mut meter,
                    budget(plan.serve.min_requests),
                    setup_reps,
                    checks,
                );
                let note = format!(
                    "{} requests in {:.3} s, closed loop, {} clients, {} samples beyond p90; p99 {:.3} ms with {} beyond{}",
                    m.requests,
                    m.wall_s,
                    serve_family::CLIENTS,
                    stats::samples_beyond(m.requests, 0.9),
                    m.p99_ms,
                    stats::samples_beyond(m.requests, 0.99),
                    if stats::percentile_supported(m.requests, 0.99) {
                        ""
                    } else {
                        " (fewer than 10: not reportable)"
                    }
                );
                (m.setup, m.values, note)
            }
        };
        let tag = if native { "native" } else { "probe" };
        for (name, value) in &found {
            print_metric(&defs, name, *value, &format!("[{tag}] {note}"));
        }
        if native {
            let value = setup.cal_estimate();
            print_metric(
                &defs,
                "setup_s",
                value,
                &format!(
                    "[native] {} set-ups, raw median {:.4} s",
                    setup.reps(),
                    setup.wall_median()
                ),
            );
            values.push(("setup_s".to_string(), value));
        }
        values.extend(found);
    }
    let rss = peak_rss_mb();
    print_metric(&defs, "peak_rss_mb", rss, "VmHWM of this process");
    values.push(("peak_rss_mb".to_string(), rss));
    values
}

/// A traced run: every rung of the ladder, with spans around each public
/// call, on the workload's own inputs where a rung takes any.
fn traced(
    plan: &cases::Plan,
    workload: &str,
    seed: u64,
    env: &Env,
    checks: &mut Checks,
) -> Result<Values, String> {
    let defs = metrics::per_layer();
    let tracer = Tracer::new(true);
    let sim = sim_family::ladder(&plan.sim, &tracer, &Expectations::embedded(), checks);
    let alloc = alloc_family::ladder(&plan.alloc, &tracer, checks);
    let sweep = sweep_family::ladder(&plan.sweep, env, &tracer, checks);
    let serve = serve_family::ladder(&plan.serve, env, &tracer, checks);
    let micro = micro::ladder(seed, &sim.json, &tracer);
    let overhead = match plan.native {
        Family::Sim => sim.trace_overhead_share,
        Family::Alloc => alloc.trace_overhead_share,
        Family::Sweep => sweep.trace_overhead_share,
        Family::Serve => serve.trace_overhead_share,
    };
    let mut values = vec![("trace_overhead_share".to_string(), overhead)];
    values.extend(micro);
    values.extend(alloc.values);
    values.extend(sim.values);
    values.extend(sweep.values);
    values.extend(serve.values);
    for def in &defs {
        if let Some((_, v)) = values.iter().find(|(n, _)| *n == def.name) {
            print_metric(&defs, &def.name, *v, "");
        }
    }
    println!(
        "simulated, for reference: latency {:.4} cycles, accepted {:.5} flits/cycle/terminal ({})",
        sim.result.avg_latency, sim.result.throughput, plan.sim.label
    );
    let path = env.out_dir().join(format!("trace-{workload}.json"));
    let spans = tracer.spans();
    std::fs::write(&path, trace::to_json(workload, &spans))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{} spans written to {}", spans.len(), path.display());
    Ok(values)
}

/// Runs one workload in this process; the result object is the last line.
fn run_one(o: &Options, workload: &str) -> Result<bool, String> {
    let plan = cases::plan(workload, o.seed).ok_or("unknown workload")?;
    let env = Env::new(&o.dir)?;
    let mut checks = Checks::default();
    println!(
        "workload {workload} ({})",
        metrics::workload(workload).map_or("", |w| w.why)
    );
    println!(
        "seed {:#x} seconds {} trace {} nproc {} cpu {}",
        o.seed,
        o.seconds,
        u8::from(o.trace),
        nproc(),
        cpu_model()
    );
    let (defs, values) = if o.trace {
        let values = traced(&plan, workload, o.seed, &env, &mut checks)?;
        (metrics::per_layer(), values)
    } else {
        let values = untraced(&plan, &env, o.seconds, &mut checks);
        (metrics::end_to_end(), values)
    };
    let line = report::result_line(&defs, &values, &mut checks);
    println!(
        "ops_attempted {} ops_failed {}",
        checks.attempted.max(1),
        checks.failed
    );
    println!("{line}");
    Ok(checks.failed == 0)
}

/// Runs the chosen workloads `runs` times, one process per run, and writes
/// the set to the result file.
fn run_set(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let runs = o.runs.unwrap_or(1);
    let names: Vec<&str> = metrics::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| o.workload.as_deref().is_none_or(|w| w == *n))
        .collect();
    let mut results: Vec<WorkloadResult> = names
        .iter()
        .map(|n| WorkloadResult {
            name: (*n).to_string(),
            ..WorkloadResult::default()
        })
        .collect();
    let mut ok = true;
    for run in 0..runs {
        for (name, result) in names.iter().zip(&mut results) {
            let seed = o.seed.wrapping_add(run as u64);
            let started = std::time::Instant::now();
            let output = Command::new(&exe)
                .arg("--dir")
                .arg(&o.dir)
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if o.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            println!(
                "run {run} of {name} took {:.1} s",
                started.elapsed().as_secs_f64()
            );
            ok &= output.status.success();
            match stdout.lines().last() {
                Some(line) if line.starts_with('{') => result.absorb(line)?,
                _ => return Err(format!("{name}: run {run} printed no result object")),
            }
        }
    }
    let file = ResultFile {
        provenance: Provenance {
            commit: o.commit.clone(),
            cpu: cpu_model(),
            nproc: nproc(),
            seed: o.seed,
            runs,
            seconds: o.seconds,
            trace: o.trace,
        },
        workloads: results,
    };
    let path = o.out.clone().unwrap_or_else(|| {
        let name = if o.trace {
            "result-traced.json"
        } else {
            "result.json"
        };
        o.dir.join("out").join(name)
    });
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(&path, file.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let failed: u64 = file.workloads.iter().map(|w| w.failed).sum();
    println!(
        "{} workloads x {runs} runs written to {} — ops_failed {failed}",
        file.workloads.len(),
        path.display()
    );
    Ok(ok && failed == 0)
}

fn read_result(path: &str) -> Result<ResultFile, String> {
    let text =
        std::fs::read_to_string(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))?;
    ResultFile::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &[String]) -> Result<bool, String> {
    // `run.sh` puts `--dir DIR` in front of whatever it was given.
    if let Some(i) = args.iter().position(|a| a == "compare") {
        let [a, b] = &args[i + 1..] else {
            return Err(format!("compare takes two result files\n{USAGE}"));
        };
        let rows = compare::compare(&read_result(a)?, &read_result(b)?);
        print!("{}", compare::render(&rows));
        return Ok(rows
            .iter()
            .all(|r| r.verdict != compare::Verdict::Regressed));
    }
    let o = parse_options(args)?;
    if o.bless {
        expected::bless(&o.dir)?;
        return Ok(true);
    }
    match (&o.workload, o.runs) {
        (Some(w), None) => run_one(&o, w),
        _ => run_set(&o),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("noc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
