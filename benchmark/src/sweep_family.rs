//! The sweep family: `run_sweep` into empty directories — the write side
//! of the content-addressed store, and what regenerating Fig. 13/14 costs.

use crate::common::{remove_dir, Checks, Env, Values};
use crate::meter::{Budget, Meter, Samples};
use crate::stats;
use crate::trace::Tracer;
use noc_bench::sweep::journal::read_status;
use noc_bench::sweep::{
    run_sweep, Journal, JournalHeader, ResultCache, SweepOptions, SweepOutcome, SweepSpec,
};
use noc_sim::{run_many, run_sim_engine};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Store / load / append calls each micro-metric is the median of.
const STORE_OPS: usize = 16;
/// `expand` / digest repetitions each micro-metric is the median of.
const SPEC_OPS: usize = 5;
/// Cold sweeps per side (tracing off / on) in the ladder.
const LADDER_REPS: usize = 3;

/// One sweep of the benchmark.
#[derive(Clone, Debug)]
pub struct SweepCase {
    pub spec: SweepSpec,
    /// A few points of the same grids, swept into a throw-away directory
    /// during set-up as the warm-up rep.
    pub warm_spec: SweepSpec,
    /// Timed reps: at least this many for the workload itself, exactly this
    /// many for a probe.
    pub reps: usize,
}

struct Dirs {
    root: PathBuf,
    opts: SweepOptions,
}

impl Dirs {
    fn options(cache_dir: PathBuf, out_dir: PathBuf) -> SweepOptions {
        SweepOptions {
            cache_dir,
            out_dir,
            engine: None,
            quiet: true,
            require_journal: false,
            telemetry: false,
            anatomy: false,
        }
    }

    fn fresh(env: &Env) -> Dirs {
        let root = env.fresh_dir("sweep");
        let opts = Dirs::options(root.join("cache"), root.join("out"));
        Dirs { root, opts }
    }
}

fn setup(case: &SweepCase, env: &Env) {
    let points = case.spec.expand();
    black_box(points.iter().map(|p| p.digest()).collect::<Vec<_>>());
    let dirs = Dirs::fresh(env);
    black_box(run_sweep(&case.warm_spec, &dirs.opts).map(|o| o.computed)).ok();
    remove_dir(&dirs.root);
}

/// The output checks of one cold sweep.
fn check_cold(
    case: &SweepCase,
    outcome: &Result<SweepOutcome, String>,
    opts: &SweepOptions,
    checks: &mut Checks,
) {
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            checks.op(false, || format!("run_sweep failed: {e}"));
            return;
        }
    };
    let missing = outcome.total.saturating_sub(outcome.computed);
    checks.ops(
        outcome.total as u64,
        missing as u64,
        "sweep points not computed",
    );
    let records = read_status(&outcome.journal_path).map_or(0, |(_, done)| done);
    checks.op(records == outcome.total, || {
        format!(
            "journal holds {records} records for {} points",
            outcome.total
        )
    });
    // Cache round-trip of the first and last point.
    let points = case.spec.expand();
    let round_trip = ResultCache::new(&opts.cache_dir).is_ok_and(|cache| {
        [0, points.len() - 1].into_iter().all(|i| {
            cache
                .load(&points[i].digest())
                .is_some_and(|r| r.to_json_full() == outcome.results[i].to_json_full())
        })
    });
    checks.op(round_trip, || "cache round-trip differs".to_string());
}

pub struct SweepMeasured {
    pub setup: Samples,
    pub reps: Samples,
    pub values: Values,
}

/// Set-up, the timed cold sweeps, and their output checks.
pub fn measure(
    case: &SweepCase,
    env: &Env,
    meter: &mut Meter,
    budget: Budget,
    setup_reps: usize,
    checks: &mut Checks,
) -> SweepMeasured {
    let setup = meter.run(Budget::Reps(setup_reps), |_| setup(case, env));
    let points = case.spec.expand().len();
    let start = Instant::now();
    let mut reps = Samples::default();
    while budget.more(reps.reps(), start.elapsed().as_secs_f64()) {
        let dirs = Dirs::fresh(env);
        let (outcome, sample) = meter.timed(|| run_sweep(&case.spec, &dirs.opts));
        reps.0.push(sample);
        check_cold(case, &outcome, &dirs.opts, checks);
        remove_dir(&dirs.root);
    }
    let values = vec![(
        "points_per_s".to_string(),
        points as f64 / reps.cal_estimate(),
    )];
    SweepMeasured {
        setup,
        reps,
        values,
    }
}

pub struct SweepLadder {
    pub values: Values,
    pub trace_overhead_share: f64,
}

fn median_us(mut op: impl FnMut(usize), n: usize) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|i| {
            let start = Instant::now();
            op(i);
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&times)
}

/// The sweep rung: spec handling, the store's three operations, worker
/// utilisation of the cold sweep, and the warm and resume paths.
pub fn ladder(case: &SweepCase, env: &Env, tracer: &Tracer, checks: &mut Checks) -> SweepLadder {
    let mut values = Values::new();
    let points = case.spec.expand();
    let n = points.len() as f64;
    values.push((
        "sweep.expand_us_per_point".to_string(),
        median_us(|_| drop(black_box(case.spec.expand())), SPEC_OPS) / n,
    ));
    values.push((
        "sweep.digest_us_per_point".to_string(),
        median_us(
            |_| {
                drop(black_box(
                    points.iter().map(|p| p.digest()).collect::<Vec<_>>(),
                ))
            },
            SPEC_OPS,
        ) / n,
    ));

    // Cold, tracing off and on taking turns after the set-up's warm-up, so
    // neither side pays the process's first sweep. The last traced sweep's
    // directories stay for the warm and resume paths.
    setup(case, env);
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut kept: Option<(Dirs, Result<SweepOutcome, String>)> = None;
    for _ in 0..LADDER_REPS {
        let untraced = Dirs::fresh(env);
        let start = Instant::now();
        let outcome = run_sweep(&case.spec, &untraced.opts);
        untraced_s.push(start.elapsed().as_secs_f64());
        check_cold(case, &outcome, &untraced.opts, checks);
        remove_dir(&untraced.root);
        if let Some((stale, _)) = kept.take() {
            remove_dir(&stale.root);
        }
        let traced = Dirs::fresh(env);
        let start = Instant::now();
        let outcome = tracer.scope("sweep.run_sweep.cold", None, 1, |_| {
            run_sweep(&case.spec, &traced.opts)
        });
        traced_s.push(start.elapsed().as_secs_f64());
        check_cold(case, &outcome, &traced.opts, checks);
        kept = Some((traced, outcome));
    }
    let (cold, outcome) = kept.expect("LADDER_REPS is at least 1");
    let (untraced_s, cold_s) = (stats::median(&untraced_s), stats::median(&traced_s));

    // The same points through `run_sim_engine` alone, on the same worker
    // pool: what the sweep would cost if the store were free.
    let direct: Vec<f64> = tracer.scope("sweep.direct_points", None, 2, |_| {
        run_many(points.len(), |i| {
            let p = &points[i];
            let start = Instant::now();
            black_box(run_sim_engine(&p.cfg, p.warmup, p.measure, p.engine));
            start.elapsed().as_secs_f64()
        })
    });
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    let utilisation = direct.iter().sum::<f64>() / (workers as f64 * cold_s);

    // The store's operations, one at a time.
    if let Ok(outcome) = &outcome {
        let sample = &outcome.results[0];
        let store_dir = env.fresh_dir("store");
        match ResultCache::new(&store_dir.join("cache")) {
            Ok(cache) => {
                let digest = |i: usize| format!("{i:032x}");
                let mut failed = 0;
                values.push((
                    "sweep.cache_store_us".to_string(),
                    median_us(
                        |i| failed += u64::from(cache.store(&digest(i), sample).is_err()),
                        STORE_OPS,
                    ),
                ));
                values.push((
                    "sweep.cache_load_us".to_string(),
                    median_us(
                        |i| failed += u64::from(black_box(cache.load(&digest(i))).is_none()),
                        STORE_OPS,
                    ),
                ));
                checks.ops(
                    2 * STORE_OPS as u64,
                    failed,
                    "cache store/load calls failed",
                );
            }
            Err(e) => checks.op(false, || e),
        }
        let header = JournalHeader {
            name: "bench".to_string(),
            spec_digest: case.spec.digest(),
            points: STORE_OPS,
        };
        match Journal::open(&store_dir.join("bench.journal"), &header) {
            Ok((journal, _)) => {
                let mut failed = 0;
                values.push((
                    "sweep.journal_append_us".to_string(),
                    median_us(
                        |i| {
                            let r =
                                journal.append(&format!("{i:032x}"), "bench point", "computed", 1);
                            failed += u64::from(r.is_err());
                        },
                        STORE_OPS,
                    ),
                ));
                checks.ops(STORE_OPS as u64, failed, "journal appends failed");
            }
            Err(e) => checks.op(false, || e),
        }
        remove_dir(&store_dir);
    }
    values.push(("sweep.worker_utilisation".to_string(), utilisation));
    values.push(("sweep.overhead_share".to_string(), 1.0 - utilisation));

    // Warm: populated cache, fresh journal. Resume: both populated.
    let warm_opts = Dirs::options(cold.opts.cache_dir.clone(), cold.root.join("warm-out"));
    for (name, span, want) in [
        ("sweep.warm_points_per_s", "sweep.run_sweep.warm", "cache"),
        (
            "sweep.resume_points_per_s",
            "sweep.run_sweep.resume",
            "journal",
        ),
    ] {
        let start = Instant::now();
        let outcome = tracer.scope(span, None, 3, |_| run_sweep(&case.spec, &warm_opts));
        let wall = start.elapsed().as_secs_f64();
        let served = outcome.as_ref().map_or(0, |o| match want {
            "cache" => o.cache_hits,
            _ => o.journal_skips,
        });
        checks.op(served == points.len(), || {
            format!(
                "{span}: {served} of {} points came from the {want}",
                points.len()
            )
        });
        values.push((name.to_string(), n / wall));
    }
    remove_dir(&cold.root);

    SweepLadder {
        values,
        trace_overhead_share: cold_s / untraced_s - 1.0,
    }
}
