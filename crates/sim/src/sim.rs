//! Simulation drivers: single runs, latency-vs-injection-rate curves
//! (Figures 13/14) and saturation-rate extraction.

use crate::config::SimConfig;
use crate::network::Network;
use crate::router::RouterStats;
use crate::stats::NetStats;
use crate::steady;
use crate::verify::StrictChecker;
use noc_obs::{
    AnatomyCollector, FlightRecorder, HdrHistogram, JsonValue, JsonWriter, NopSink,
    PercentileTable, Profiler, RouterBreakdown, RouterObs, TelemetrySummary, TraceSink,
    WindowSnapshot, DEFAULT_QUANTILES,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Average latency beyond which a run is declared saturated.
pub const LATENCY_CAP: f64 = 400.0;

/// Result of one simulation run at a fixed injection rate.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Offered load, flits/cycle/terminal.
    pub offered: f64,
    /// Average packet latency over the measurement window (cycles); `NaN`
    /// if nothing was delivered.
    pub avg_latency: f64,
    /// Average request-packet latency.
    pub request_latency: f64,
    /// Average reply-packet latency.
    pub reply_latency: f64,
    /// Sample standard deviation of packet latency (cycles).
    pub latency_std_dev: f64,
    /// 99th-percentile packet latency, interpolated from the log-linear
    /// histogram (≤ ~3% relative error).
    pub latency_p99: f64,
    /// Accepted throughput, flits/cycle/terminal.
    pub throughput: f64,
    /// True if the network kept up with the offered load (latency under
    /// [`LATENCY_CAP`] and no unbounded source backlog).
    pub stable: bool,
    /// Half-width of the 95% confidence interval on `avg_latency`, from
    /// replicate means ([`Run::seeds`]); NaN for single runs, which carry
    /// no interval estimate.
    pub ci95: f64,
    /// Independent seeds aggregated into this result (1 for single runs).
    pub seeds: usize,
    /// Warmup cycle count chosen by MSER steady-state detection for a
    /// replicated run ([`Run::seeds`]); `None` when the warmup was fixed
    /// by the caller.
    pub warmup_detected: Option<u64>,
    /// Whole-run telemetry summary (per-window matching efficiency, flit
    /// motion and in-flight series), when the run was recorded
    /// ([`TelemetryOptions::recording`]); `None` otherwise.
    pub telemetry: Option<TelemetrySummary>,
    /// Full latency histogram over the measurement window (merged across
    /// replicates for replicated runs).
    pub hist: HdrHistogram,
    /// Aggregated router counters.
    pub router_stats: RouterStats,
    /// Per-router digests (throughput and worst-stalled port), in
    /// router-id order.
    pub routers: Vec<RouterBreakdown>,
}

impl SimResult {
    /// Highest per-router link throughput (flits/cycle); NaN without
    /// breakdown data.
    pub fn max_router_throughput(&self) -> f64 {
        self.routers
            .iter()
            .map(|r| r.throughput)
            .fold(f64::NAN, f64::max)
    }

    /// Lowest per-router link throughput (flits/cycle); NaN without
    /// breakdown data.
    pub fn min_router_throughput(&self) -> f64 {
        self.routers
            .iter()
            .map(|r| r.throughput)
            .fold(f64::NAN, f64::min)
    }

    /// The router with the worst-stalled input port, as
    /// `(router, port, stall fraction)`.
    pub fn worst_stall(&self) -> Option<(usize, usize, f64)> {
        self.routers
            .iter()
            .max_by(|a, b| a.worst_port_stall.total_cmp(&b.worst_port_stall))
            .map(|r| (r.router, r.worst_port, r.worst_port_stall))
    }

    /// Serializes the result (including the per-router breakdown) as one
    /// JSON object.
    pub fn to_json(&self) -> String {
        self.write(false)
    }

    /// As [`SimResult::to_json`], extended with the raw histogram state so
    /// the result round-trips losslessly through [`SimResult::from_json`]
    /// (the cache-file format of the sweep orchestrator). The derived
    /// members of [`SimResult::to_json`] (`percentiles`, router throughput
    /// extremes) stay in place, so a full record is also a superset of the
    /// plain report.
    pub fn to_json_full(&self) -> String {
        self.write(true)
    }

    fn write(&self, full: bool) -> String {
        let s = &self.router_stats;
        let mut w = JsonWriter::default();
        w.begin_object()
            .field("offered", self.offered)
            .field("avg_latency", self.avg_latency)
            .field("request_latency", self.request_latency)
            .field("reply_latency", self.reply_latency)
            .field("latency_std_dev", self.latency_std_dev)
            .field("latency_p99", self.latency_p99)
            .field("throughput", self.throughput)
            .field("stable", self.stable)
            .field("ci95", self.ci95)
            .field("seeds", self.seeds)
            .field("warmup_detected", self.warmup_detected)
            .opt_field("telemetry", self.telemetry.as_ref())
            .field(
                "percentiles",
                PercentileTable(&self.hist.percentile_table(&DEFAULT_QUANTILES)),
            )
            .key("router_stats")
            .begin_object()
            .field("nonspec_grants", s.nonspec_grants)
            .field("spec_requests", s.spec_requests)
            .field("spec_grants", s.spec_grants)
            .field("spec_masked", s.spec_masked)
            .field("spec_invalid", s.spec_invalid)
            .field("vca_requests", s.vca_requests)
            .field("vca_grants", s.vca_grants)
            .end_object();
        if !self.routers.is_empty() {
            w.field("max_router_throughput", self.max_router_throughput())
                .field("min_router_throughput", self.min_router_throughput())
                .key("routers")
                .begin_array();
            for r in &self.routers {
                w.begin_object()
                    .field("router", r.router)
                    .field("throughput", r.throughput)
                    .field("worst_port", r.worst_port)
                    .field("worst_port_stall", r.worst_port_stall)
                    .end_object();
            }
            w.end_array();
        }
        if full {
            w.field("hist", &self.hist);
        }
        w.end_object();
        w.finish()
    }

    /// Reconstructs a result from [`SimResult::to_json_full`] output.
    ///
    /// The round-trip is bit-exact: floats are serialized with Rust's
    /// shortest-roundtrip formatting and NaN maps through `null`, so
    /// `from_json(r.to_json_full())` re-serializes to the identical
    /// string (asserted by `full_json_round_trip_is_bit_exact`). The
    /// derived members (`percentiles`, the router throughput extremes) are
    /// recomputed, not read.
    pub fn from_json(s: &str) -> Result<SimResult, String> {
        let v = JsonValue::parse(s)?;
        let router_stats = |s: &JsonValue| -> Result<RouterStats, String> {
            Ok(RouterStats {
                nonspec_grants: s.u64_at("nonspec_grants")?,
                spec_requests: s.u64_at("spec_requests")?,
                spec_grants: s.u64_at("spec_grants")?,
                spec_masked: s.u64_at("spec_masked")?,
                spec_invalid: s.u64_at("spec_invalid")?,
                vca_requests: s.u64_at("vca_requests")?,
                vca_grants: s.u64_at("vca_grants")?,
            })
        };
        let router = |r: &JsonValue| -> Result<RouterBreakdown, String> {
            Ok(RouterBreakdown {
                router: r.usize_at("router")?,
                throughput: r.f64_at("throughput")?,
                worst_port: r.usize_at("worst_port")?,
                worst_port_stall: r.f64_at("worst_port_stall")?,
            })
        };
        Ok(SimResult {
            offered: v.f64_at("offered")?,
            avg_latency: v.f64_at("avg_latency")?,
            request_latency: v.f64_at("request_latency")?,
            reply_latency: v.f64_at("reply_latency")?,
            latency_std_dev: v.f64_at("latency_std_dev")?,
            latency_p99: v.f64_at("latency_p99")?,
            throughput: v.f64_at("throughput")?,
            stable: v.bool_at("stable")?,
            ci95: v.f64_at("ci95")?,
            seeds: v.usize_at("seeds")?,
            warmup_detected: v.opt_at("warmup_detected", JsonValue::to_u64)?,
            telemetry: v.opt_at("telemetry", TelemetrySummary::from_value)?,
            hist: v.at("hist", HdrHistogram::from_value)?,
            router_stats: v.at("router_stats", router_stats)?,
            routers: v
                .opt_at("routers", |rows| {
                    rows.to_array()?.iter().map(router).collect()
                })?
                .unwrap_or_default(),
        })
    }
}

/// Runs one simulation: `warmup` cycles to reach steady state, then a
/// `measure`-cycle window.
pub fn run_sim(cfg: &SimConfig, warmup: u64, measure: u64) -> SimResult {
    Run::new(cfg, warmup, measure).finish().result
}

/// Retired: `benchmark/` compiles against it, deleted by ROADMAP 3(c).
/// There is one cycle loop, so every variant is [`Network::run`].
#[derive(Clone, Copy, Debug)]
pub enum Engine {
    Sequential,
    Parallel(usize),
    ActiveSet,
}

impl Engine {
    /// Retired: `benchmark/` compiles against it, deleted by ROADMAP 3(c).
    pub fn run<S: TraceSink>(self, net: &mut Network<S>, cycles: u64) {
        net.run(cycles);
    }
}

/// Retired: `benchmark/` compiles against it, deleted by ROADMAP 3(c).
pub fn run_sim_engine(cfg: &SimConfig, warmup: u64, measure: u64, _: Engine) -> SimResult {
    run_sim(cfg, warmup, measure)
}

/// As [`run_sim`], with phase profiling on (see [`Run::profile`]).
pub fn run_sim_profiled(cfg: &SimConfig, warmup: u64, measure: u64) -> (SimResult, Profiler) {
    let out = Run::new(cfg, warmup, measure).profile().finish();
    (out.result, out.profile.unwrap_or_default())
}

/// Builds a [`SimResult`] from a network that has finished running.
pub fn summarize<S: TraceSink>(net: &Network<S>) -> SimResult {
    let cfg = net.config();
    let terminals = net.topo.num_terminals();
    let avg = net.stats.avg_latency();
    let throughput = net.stats.throughput(terminals);
    // Stability: the measured backlog per terminal must stay small and the
    // latency bounded.
    let backlog = net.total_backlog() as f64 / terminals as f64;
    let stable = avg.is_finite() && avg < LATENCY_CAP && backlog < 12.0;
    SimResult {
        offered: cfg.injection_rate,
        avg_latency: avg,
        request_latency: net.stats.class_avg_latency(0),
        reply_latency: net.stats.class_avg_latency(1),
        latency_std_dev: net.stats.latency_std_dev(),
        latency_p99: net.stats.latency_percentile(0.99),
        throughput,
        stable,
        // One run carries no interval estimate.
        ci95: f64::NAN,
        seeds: 1,
        warmup_detected: None,
        // The guard's bounded ring summarizes nothing a caller asked for.
        telemetry: (net.telemetry.as_ref())
            .filter(|rec| rec.keeps_every_window())
            .map(FlightRecorder::summary),
        hist: net.stats.histogram().clone(),
        router_stats: net.router_stats(),
        routers: net.router_breakdowns(),
    }
}

/// The flight recorder a run carries ([`Run::telemetry`]): one of its two
/// fixed modes, and the stall watchdog.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryOptions {
    /// Stall-watchdog threshold in consecutive motionless windows (zero
    /// flit motion with flits in flight); `None` disables the watchdog.
    pub watchdog: Option<u64>,
    /// [`FlightRecorder::recording`] rather than
    /// [`FlightRecorder::watchdog_only`].
    recording: bool,
}

impl TelemetryOptions {
    /// A recorded run ([`FlightRecorder::recording`]: 100-cycle windows,
    /// a matching sample every window, every window kept), watchdog at
    /// 100 motionless windows (10k cycles).
    pub fn recording() -> TelemetryOptions {
        TelemetryOptions {
            watchdog: Some(100),
            recording: true,
        }
    }

    /// The guard of an unrecorded run ([`FlightRecorder::watchdog_only`]:
    /// 500-cycle windows, no matching sampling, the last 64 windows kept
    /// for the post-mortem dump), watchdog at 20 motionless windows (10k
    /// cycles).
    pub fn watchdog_only() -> TelemetryOptions {
        TelemetryOptions {
            watchdog: Some(20),
            recording: false,
        }
    }

    fn recorder(&self) -> FlightRecorder {
        if self.recording {
            FlightRecorder::recording()
        } else {
            FlightRecorder::watchdog_only()
        }
    }
}

/// A stall-watchdog termination: the network went `stalled_windows`
/// consecutive windows with zero flit motion while `in_flight` flits were
/// stuck in the network — the dynamic signature of a deadlock or total
/// livelock. Carries the flight recorder for the post-mortem dump.
#[derive(Debug)]
pub struct WatchdogTrip {
    /// Cycle count when the watchdog fired.
    pub cycle: u64,
    /// Consecutive motionless windows observed.
    pub stalled_windows: u64,
    /// Flits in flight when motion stopped.
    pub in_flight: u64,
    /// The recorder, ring intact, for the post-mortem dump.
    pub recorder: FlightRecorder,
}

impl WatchdogTrip {
    /// One-line diagnosis for error messages.
    pub fn describe(&self) -> String {
        format!(
            "no flit motion for {} windows ({} cycles) with {} flits in flight at cycle {} \
             — possible deadlock/livelock",
            self.stalled_windows,
            self.stalled_windows * self.recorder.window(),
            self.in_flight,
            self.cycle
        )
    }
}

/// One simulation run, described and then executed: the single driver
/// behind [`run_sim`], `noc sim` and the sweep runner.
///
/// `Run::new(&cfg, warmup, measure)` is the plain run; builder methods
/// attach observers or replicate it over seeds ([`Run::seeds`]), and
/// [`Run::run`] (or [`Run::finish`]) executes it. Every observer is a
/// pure observer, so any combination yields the same [`SimResult`],
/// trace, and dumps as each observer attached alone.
pub struct Run<'a, S: TraceSink = NopSink> {
    cfg: &'a SimConfig,
    warmup: u64,
    measure: u64,
    sink: S,
    profile: bool,
    telemetry: Option<TelemetryOptions>,
    /// Waterfalls the per-packet latency ledger keeps, when attached.
    anatomy: Option<usize>,
    verify: bool,
    /// Latency-timeline window of an MSER pilot run.
    timeline: Option<u64>,
    seeds: usize,
}

/// Everything a finished [`Run`] produced. Observer fields are `Some`
/// exactly when the observer was attached.
pub struct RunOutput {
    /// Standard run summary (its `telemetry` block is present iff the run
    /// was recorded).
    pub result: SimResult,
    /// The network's measurement statistics.
    pub stats: NetStats,
    /// Per-router observability counters, in router-id order.
    pub router_obs: Vec<RouterObs>,
    /// Phase attribution, stamped with the run's wall time and cycle
    /// count so shares and cycles/sec are ready to read ([`Run::profile`]).
    pub profile: Option<Profiler>,
    /// The flight recorder, ring intact ([`Run::telemetry`]).
    pub recorder: Option<FlightRecorder>,
    /// The per-packet latency ledger ([`Run::anatomy`]).
    pub anatomy: Option<AnatomyCollector>,
    /// The invariant checker's report ([`Run::verify`]).
    pub verify: Option<StrictChecker>,
}

/// Most seeds one replicated run takes ([`Run::seeds`]). Every seed is a
/// whole simulation, and past 30 replicates the t-multiplier of the
/// confidence interval is already the normal 1.96.
pub const MAX_SEEDS: usize = 1_000;

impl<'a> Run<'a> {
    /// A plain run of `cfg` measuring `[warmup, warmup + measure)`, with
    /// no observer attached.
    pub fn new(cfg: &'a SimConfig, warmup: u64, measure: u64) -> Self {
        Run {
            cfg,
            warmup,
            measure,
            sink: NopSink,
            profile: false,
            telemetry: None,
            anatomy: None,
            verify: false,
            timeline: None,
            seeds: 1,
        }
    }

    /// Replicates the run over `n` seeds (`cfg.seed, cfg.seed+1, ...`, so
    /// seed sets nest); `n = 1` is the plain run, and an `n` of 0 or above
    /// [`MAX_SEEDS`] panics. A pilot run over all `warmup + measure`
    /// cycles lets MSER pick the warmup ([`SimResult::warmup_detected`]),
    /// then each replicate measures `[warmup, warmup + measure)` on the
    /// [`run_many`] pool. The result
    /// pools them: mean of means with a Student-t 95% CI, merged
    /// histograms, summed router counters, the first replicate's router
    /// breakdown, stable only if every replicate was. The rest of the
    /// [`RunOutput`] is the pilot's.
    ///
    /// The pilot and every replicate carry the run's recorder, so the
    /// stall watchdog guards each: a trip returns the pilot's, else the
    /// lowest-index replicate's. No window callback is made. A replicated
    /// run takes no sink, profiler, ledger or checker.
    pub fn seeds(mut self, n: usize) -> Self {
        assert!(
            (1..=MAX_SEEDS).contains(&n),
            "a run takes 1 to {MAX_SEEDS} seeds, not {n}"
        );
        self.seeds = n;
        self
    }
}

impl<'a, S: TraceSink> Run<'a, S> {
    /// Reports every flit event to `sink`, which the caller keeps.
    pub fn sink<T: TraceSink>(self, sink: &'a mut T) -> Run<'a, &'a mut T> {
        assert_eq!(self.seeds, 1, "a replicated run takes no sink");
        Run {
            sink,
            cfg: self.cfg,
            warmup: self.warmup,
            measure: self.measure,
            profile: self.profile,
            telemetry: self.telemetry,
            anatomy: self.anatomy,
            verify: self.verify,
            timeline: self.timeline,
            seeds: self.seeds,
        }
    }

    /// Attributes wall time and event counts to the router pipeline
    /// phases ([`RunOutput::profile`]).
    pub fn profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Attaches the flight recorder: [`Run::run`] then drives the network
    /// in window-sized chunks (chunking is cycle-exact), hands each
    /// snapshot to its callback as the window closes, and
    /// checks the stall watchdog between chunks.
    pub fn telemetry(mut self, opts: TelemetryOptions) -> Self {
        self.telemetry = Some(opts);
        self
    }

    /// Attaches the per-packet latency ledger: every router stamps its
    /// waiting heads each cycle and ejections fold into an
    /// [`AnatomyCollector`] (`noc_obs::ANATOMY_CAPACITY` per-packet rows
    /// retained, `top_k` slowest waterfalls kept).
    pub fn anatomy(mut self, top_k: usize) -> Self {
        self.anatomy = Some(top_k);
        self
    }

    /// Audits the runtime invariants after every cycle (see
    /// [`crate::verify`]).
    pub fn verify(mut self) -> Self {
        self.verify = true;
        self
    }

    /// Executes the run. `on_window` receives each telemetry snapshot as
    /// its window closes (the live `noc top` / `--record` streaming hook;
    /// never called without [`Run::telemetry`], nor for a replicated
    /// run). Fails only when the recorder's stall watchdog fires.
    pub fn run(
        self,
        mut on_window: impl FnMut(&WindowSnapshot),
    ) -> Result<RunOutput, Box<WatchdogTrip>> {
        if self.seeds > 1 {
            return self.replicate();
        }
        let mut net = Network::with_sink(self.cfg.clone(), self.sink);
        let total = self.warmup + self.measure;
        net.stats.set_window(self.warmup, total);
        if let Some(window) = self.timeline {
            net.stats.enable_timeline(window);
        }
        if let Some(opts) = &self.telemetry {
            net.enable_telemetry(opts.recorder());
        }
        if let Some(top_k) = self.anatomy {
            net.enable_anatomy(top_k);
        }
        if self.verify {
            net.enable_verify();
        }
        // Only a recorder has windows to report and a watchdog to check
        // between them; every other run is one uninterrupted call.
        let chunk = net.telemetry.as_ref().map_or(total, FlightRecorder::window);
        let mut profile = self.profile.then(Profiler::default);
        let start = Instant::now();
        while net.now < total {
            let cycles = chunk.min(total - net.now);
            match &mut profile {
                Some(prof) => net.run_in_order(cycles, true, prof),
                None => net.run(cycles),
            }
            let (Some(opts), Some(rec)) = (&self.telemetry, &net.telemetry) else {
                continue;
            };
            if let Some(snap) = rec.latest().filter(|snap| snap.cycle == net.now) {
                on_window(snap);
            }
            let stalled = rec.stalled_windows();
            if opts.watchdog.is_some_and(|threshold| stalled >= threshold) {
                let in_flight = rec.latest().map_or(0, |snap| snap.in_flight);
                let Some(recorder) = net.telemetry.take() else {
                    unreachable!("the recorder was read just above")
                };
                return Err(Box::new(WatchdogTrip {
                    cycle: net.now,
                    stalled_windows: stalled,
                    in_flight,
                    recorder,
                }));
            }
        }
        if let Some(prof) = &mut profile {
            prof.wall_nanos = start.elapsed().as_nanos() as u64;
            prof.cycles = total;
        }
        Ok(RunOutput {
            result: summarize(&net),
            router_obs: net.router_obs(),
            profile,
            stats: net.stats,
            recorder: net.telemetry,
            anatomy: net.anatomy,
            verify: net.checker,
        })
    }

    /// The replicated run of [`Run::seeds`]: the MSER pilot, then the
    /// replicates, pooled.
    fn replicate(self) -> Result<RunOutput, Box<WatchdogTrip>> {
        assert!(
            !self.profile && self.anatomy.is_none() && !self.verify,
            "a replicated run takes no profiler, ledger or checker"
        );
        let (cfg, telemetry) = (self.cfg, self.telemetry);
        let total = self.warmup + self.measure;
        let window = timeline_window_for(total);
        let pilot = Run {
            telemetry,
            timeline: Some(window),
            ..Run::new(cfg, 0, total)
        };
        let mut out = pilot.run(|_| {})?;
        let warmup = steady::mser_truncation(&out.stats.timeline_means()) as u64 * window;
        // A trip fails the run, and each holds a recorder: replicates above
        // a tripped one are skipped. All below it run, so the lowest-index
        // trip is found whatever the scheduling.
        let first_trip = AtomicUsize::new(usize::MAX);
        let replicates = run_many(self.seeds, |i| {
            // RELAXED: a skip hint; results travel through run_many.
            if i > first_trip.load(Ordering::Relaxed) {
                return None;
            }
            let cfg_i = SimConfig {
                seed: cfg.seed.wrapping_add(i as u64),
                ..cfg.clone()
            };
            let replicate = Run {
                telemetry,
                ..Run::new(&cfg_i, warmup, total - warmup)
            };
            let rep = replicate.run(|_| {}).map(|rep| rep.result);
            if rep.is_err() {
                // RELAXED: as above.
                first_trip.fetch_min(i, Ordering::Relaxed);
            }
            Some(rep)
        });
        let runs = replicates
            .into_iter()
            .flatten()
            .collect::<Result<Vec<_>, _>>()?;
        out.result = pool(cfg, warmup, runs);
        Ok(out)
    }

    /// Executes the run with no per-window callback and the stall watchdog
    /// off, so it cannot fail.
    pub fn finish(mut self) -> RunOutput {
        if let Some(opts) = &mut self.telemetry {
            opts.watchdog = None;
        }
        match self.run(|_| {}) {
            Ok(out) => out,
            Err(trip) => unreachable!("watchdog is off: {}", trip.describe()),
        }
    }
}

/// Pools the replicates of a [`Run::seeds`] run (see there).
fn pool(cfg: &SimConfig, warmup: u64, runs: Vec<SimResult>) -> SimResult {
    let mean_of = |get: fn(&SimResult) -> f64| {
        let xs: Vec<f64> = runs.iter().map(get).filter(|x| x.is_finite()).collect();
        if xs.is_empty() {
            f64::NAN
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let rep_means: Vec<f64> = runs.iter().map(|r| r.avg_latency).collect();
    let mut hist = HdrHistogram::new();
    let mut router_stats = RouterStats::default();
    for r in &runs {
        hist.merge(&r.hist);
        router_stats += r.router_stats;
    }
    SimResult {
        offered: cfg.injection_rate,
        avg_latency: mean_of(|r| r.avg_latency),
        request_latency: mean_of(|r| r.request_latency),
        reply_latency: mean_of(|r| r.reply_latency),
        latency_std_dev: mean_of(|r| r.latency_std_dev),
        latency_p99: hist.percentile(0.99),
        throughput: mean_of(|r| r.throughput),
        stable: runs.iter().all(|r| r.stable),
        ci95: steady::ci95_half_width(&rep_means),
        seeds: runs.len(),
        warmup_detected: Some(warmup),
        telemetry: None,
        hist,
        router_stats,
        routers: runs
            .into_iter()
            .next()
            .map(|r| r.routers)
            .unwrap_or_default(),
    }
}

/// Timeline window length (cycles) for an MSER pilot of `total` cycles:
/// ~1% of the run, clamped so short runs still get several windows and
/// long runs keep per-window counts meaningful.
fn timeline_window_for(total: u64) -> u64 {
    (total / 100).clamp(50, 1_000)
}

/// Runs `jobs` independent closures on a bounded worker pool (at most
/// [`std::thread::available_parallelism`] OS threads) and collects their
/// results in index order. Shared by [`latency_curve`], [`Run::seeds`]
/// and the sweep runner; previously every job spawned its own thread,
/// which oversubscribed small CI machines on wide sweeps.
///
/// A panicking job aborts the pool and re-raises the panic on the calling
/// thread with the originating job index and the original payload, instead
/// of surfacing later as an inexplicable missing result.
pub fn run_many<T, F>(jobs: usize, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(jobs);
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<T>> = (0..jobs).map(|_| OnceLock::new()).collect();
    type Failure = Option<(usize, Box<dyn std::any::Any + Send>)>;
    let failure: Mutex<Failure> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // RELAXED: pure work-stealing ticket; each slot is written
                // once through its own OnceLock, which carries the ordering.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                // Catch instead of letting the scope propagate: the scope
                // would surface "a scoped thread panicked" with no hint of
                // which job died.
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                    Ok(v) => {
                        if slots[i].set(v).is_err() {
                            unreachable!("job {i} claimed twice");
                        }
                    }
                    Err(payload) => {
                        let mut fail = failure.lock().unwrap_or_else(|e| e.into_inner());
                        fail.get_or_insert((i, payload));
                        break;
                    }
                }
            });
        }
    });
    if let Some((i, payload)) = failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        panic!("run_many job {i} panicked: {msg}");
    }
    slots
        .into_iter()
        .map(|s| {
            // Workers either fill their slot or record a failure, and a
            // failure re-raised above, so every slot is filled here.
            s.into_inner()
                .unwrap_or_else(|| unreachable!("scoped workers fill every slot before join"))
        })
        .collect()
}

/// Runs one simulation per injection rate, each produced by `run`, in
/// parallel on a bounded worker pool (each run is independent and
/// deterministic). Pass `&run_sim` to simulate directly; a cache-backed
/// runner (the sweep orchestrator's) plugs in here to make curve
/// computation resumable.
pub fn latency_curve<F>(
    base: &SimConfig,
    rates: &[f64],
    warmup: u64,
    measure: u64,
    run: &F,
) -> Vec<SimResult>
where
    F: Fn(&SimConfig, u64, u64) -> SimResult + Sync + ?Sized,
{
    run_many(rates.len(), |i| {
        let cfg = SimConfig {
            injection_rate: rates[i],
            ..base.clone()
        };
        run(&cfg, warmup, measure)
    })
}

/// Finds the saturation rate by bisection: the highest offered load the
/// network sustains with bounded latency and backlog. Every probe run is
/// produced by `run` (`&run_sim` simulates directly); the probe sequence
/// is deterministic, so a content-addressed cache makes even this
/// adaptive search fully resumable.
pub fn saturation_rate<F>(base: &SimConfig, warmup: u64, measure: u64, run: &F) -> f64
where
    F: Fn(&SimConfig, u64, u64) -> SimResult + Sync + ?Sized,
{
    let stable_at = |rate: f64| {
        let cfg = SimConfig {
            injection_rate: rate,
            ..base.clone()
        };
        run(&cfg, warmup, measure).stable
    };
    // Exponential probe upward from a safe floor.
    let mut lo = 0.02f64;
    if !stable_at(lo) {
        return 0.0;
    }
    let mut hi = 0.04f64;
    while hi < 1.0 && stable_at(hi) {
        lo = hi;
        hi *= 1.5;
    }
    let mut hi = hi.min(1.0);
    // Bisect to ~1% resolution.
    for _ in 0..7 {
        let mid = 0.5 * (lo + hi);
        if stable_at(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyKind;
    use noc_obs::{check_reconciliation, Phase, ToJson};

    /// A recorded run: the summary plus the recorder.
    fn recorded(
        cfg: &SimConfig,
        warmup: u64,
        measure: u64,
        opts: TelemetryOptions,
    ) -> Result<(SimResult, FlightRecorder), Box<WatchdogTrip>> {
        let run = Run::new(cfg, warmup, measure).telemetry(opts);
        run.run(|_| {})
            .map(|out| (out.result, out.recorder.expect("recorder attached")))
    }

    /// An anatomy run: the summary plus the ledger.
    fn anatomy(
        cfg: &SimConfig,
        warmup: u64,
        measure: u64,
        top_k: usize,
    ) -> (SimResult, AnatomyCollector) {
        let out = Run::new(cfg, warmup, measure).anatomy(top_k).finish();
        (out.result, out.anatomy.expect("ledger attached"))
    }

    #[test]
    fn low_load_runs_are_stable() {
        let cfg = SimConfig {
            injection_rate: 0.05,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1)
        };
        let r = run_sim(&cfg, 1_000, 3_000);
        assert!(r.stable);
        assert!(r.avg_latency.is_finite());
        assert!(r.throughput > 0.03, "throughput {}", r.throughput);
    }

    #[test]
    fn overload_is_detected_as_unstable() {
        let cfg = SimConfig {
            injection_rate: 0.95,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1)
        };
        let r = run_sim(&cfg, 1_000, 3_000);
        assert!(!r.stable, "0.95 flits/cycle cannot be stable on a mesh");
    }

    #[test]
    fn latency_grows_with_load() {
        let base = SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2);
        let curve = latency_curve(&base, &[0.05, 0.25], 1_500, 4_000, &run_sim);
        assert!(curve[1].avg_latency > curve[0].avg_latency);
    }

    #[test]
    fn throughput_tracks_offered_load_below_saturation() {
        let base = SimConfig {
            injection_rate: 0.2,
            ..SimConfig::paper_baseline(TopologyKind::FlattenedButterfly4x4, 2)
        };
        let r = run_sim(&base, 2_000, 6_000);
        assert!(r.stable);
        assert!(
            (r.throughput - 0.2).abs() < 0.02,
            "accepted {} vs offered 0.2",
            r.throughput
        );
    }

    #[test]
    fn run_many_propagates_worker_panics_with_job_index() {
        let result = std::panic::catch_unwind(|| {
            run_many(8, |i| {
                if i == 5 {
                    panic!("boom at job {i}");
                }
                i
            })
        });
        let payload = result.expect_err("worker panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("job 5"), "message should name the job: {msg}");
        assert!(
            msg.contains("boom at job 5"),
            "message should carry the original payload: {msg}"
        );
    }

    #[test]
    fn full_json_round_trip_is_bit_exact() {
        let cfg = SimConfig {
            injection_rate: 0.12,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        };
        let r = run_sim(&cfg, 500, 1_500);
        let full = r.to_json_full();
        let back = SimResult::from_json(&full).expect("round-trip parse");
        // Bit-exact re-serialization: every float (shortest-roundtrip
        // formatted), the histogram (so derived percentiles too), router
        // rows and counters survive the cache file format unchanged.
        assert_eq!(back.to_json_full(), full);
        assert_eq!(back.to_json(), r.to_json());
        assert_eq!(back.hist, r.hist);
        assert_eq!(back.hist.percentile(0.999), r.hist.percentile(0.999));
    }

    #[test]
    fn from_json_rejects_malformed_records() {
        assert!(SimResult::from_json("{}").is_err());
        assert!(SimResult::from_json("not json").is_err());
        // A plain (non-full) record has no histogram and must be refused
        // rather than silently reconstructed with an empty one.
        let r = run_sim(
            &SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1),
            200,
            500,
        );
        assert!(SimResult::from_json(&r.to_json()).is_err());
    }

    #[test]
    fn recorded_run_matches_plain_run_and_attaches_telemetry() {
        let cfg = SimConfig {
            injection_rate: 0.1,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        };
        let plain = run_sim(&cfg, 500, 1_500);
        let mut windows_seen = 0u64;
        let out = Run::new(&cfg, 500, 1_500)
            .telemetry(TelemetryOptions::recording())
            .run(|_| windows_seen += 1)
            .expect("healthy run must not trip the watchdog");
        let (rec_res, rec) = (out.result, out.recorder.expect("recorder attached"));
        // Telemetry must be a pure observer: every simulation metric is
        // identical to the unrecorded run.
        assert_eq!(rec_res.avg_latency.to_bits(), plain.avg_latency.to_bits());
        assert_eq!(rec_res.throughput.to_bits(), plain.throughput.to_bits());
        assert_eq!(rec_res.hist, plain.hist);
        assert_eq!(rec.windows(), 20); // 2000 cycles / 100-cycle windows
        assert_eq!(windows_seen, 20);
        let summary = rec_res.telemetry.as_ref().expect("telemetry attached");
        assert_eq!(summary.windows, 20);
        // Uniform traffic at 0.1 keeps flits moving: mean matching
        // efficiency is a real number in (0, 1].
        let eff = summary.mean_efficiency();
        assert!(eff > 0.0 && eff <= 1.0, "mean efficiency {eff}");
        // The telemetry block survives the JSON round trip bit-exactly.
        let back = SimResult::from_json(&rec_res.to_json_full()).expect("parse");
        assert_eq!(back.to_json(), rec_res.to_json());
        assert_eq!(back.telemetry.unwrap().to_json(), summary.to_json());
    }

    #[test]
    fn anatomy_run_is_a_pure_observer() {
        let cfg = SimConfig {
            injection_rate: 0.1,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        };
        let plain = run_sim(&cfg, 500, 1_500);
        let (res, col) = anatomy(&cfg, 500, 1_500, 4);
        // Every simulation metric must be bit-identical to the plain run.
        assert_eq!(res.avg_latency.to_bits(), plain.avg_latency.to_bits());
        assert_eq!(res.throughput.to_bits(), plain.throughput.to_bits());
        assert_eq!(res.hist, plain.hist);
        assert_eq!(res.to_json(), plain.to_json());
        assert!(col.totals.packets > 0);
    }

    #[test]
    fn anatomy_reconciles_exactly_with_measured_latency() {
        let cfg = SimConfig {
            injection_rate: 0.2,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        };
        let (res, col) = anatomy(&cfg, 500, 1_500, 8);
        assert!(col.totals.packets > 100, "window too thin to be meaningful");
        assert_eq!(col.totals.dropped, 0);
        assert_eq!(col.records.len() as u64, col.totals.packets);
        // The tentpole invariant, packet by packet: the seven stages
        // partition eject - birth with no cycle lost or double-counted.
        for p in &col.records {
            assert!(p.reconciles(), "{p:?}");
        }
        for w in col.slowest() {
            assert!(w.packet.reconciles(), "{:?}", w.packet);
            for h in &w.hops {
                assert!(h.reconciles(), "{h:?}");
            }
        }
        // And in aggregate: the stage sums rebuild the measured average
        // latency bit for bit (same population, same dividend).
        let mean = col.totals.total_sum() as f64 / col.totals.packets as f64;
        assert_eq!(
            mean.to_bits(),
            res.avg_latency.to_bits(),
            "anatomy mean {mean} != measured {}",
            res.avg_latency
        );
    }

    #[test]
    fn check_reconciliation_accepts_a_real_ledger_and_refuses_a_broken_one() {
        let cfg = SimConfig {
            injection_rate: 0.2,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        };
        let (res, col) = anatomy(&cfg, 500, 1_500, 4);
        let n = col.records.len();
        assert!(n > 0);
        let receipt = check_reconciliation(&col, res.avg_latency).expect("a real run reconciles");
        assert!(
            receipt.contains(&format!("{n}/{n} retained packets exact")),
            "{receipt}"
        );
        // A measured mean one ulp away from the stage-sum mean is refused.
        let off = f64::from_bits(res.avg_latency.to_bits() + 1);
        let e = check_reconciliation(&col, off).unwrap_err();
        assert!(e.contains("stage-sum mean"), "{e}");
        // So is a retained row whose stages do not sum to eject - birth.
        let mut broken = col.clone();
        broken.records[n / 2].stages[0] += 1;
        let e = check_reconciliation(&broken, res.avg_latency).unwrap_err();
        assert!(e.contains(&format!("1/{n} retained packets")), "{e}");
    }

    #[test]
    fn watchdog_trips_on_torus_without_dateline() {
        // The no-dateline torus fixture deadlocks under load: packets wrap
        // around the rings and form cyclic credit dependencies. The
        // watchdog must terminate the run with a usable post-mortem, and
        // guard every replicate of a replicated run.
        let fixture = |rate, seed| SimConfig {
            topology: TopologyKind::Torus8x8,
            injection_rate: rate,
            seed,
            routing_override: Some(crate::routing::RoutingKind::TorusNoDateline),
            ..SimConfig::paper_baseline(TopologyKind::Torus8x8, 1)
        };
        let opts = TelemetryOptions {
            watchdog: Some(10),
            ..TelemetryOptions::recording()
        };
        let paper_seed = SimConfig::paper_baseline(TopologyKind::Torus8x8, 1).seed;
        // At rate 0.32 seed 1 keeps moving and seed 2 deadlocks, so the
        // MSER pilot (seed 1) passes and only the second replicate trips.
        let lively = fixture(0.32, 1);
        let alone = Run::new(&lively, 0, 10_000).telemetry(opts).run(|_| {});
        assert!(alone.is_ok(), "seed 1 alone must not trip");
        for (cfg, seeds, warmup, measure) in [
            (fixture(0.35, paper_seed), 1, 5_000, 45_000),
            (fixture(0.35, paper_seed), 2, 5_000, 45_000),
            (lively, 2, 0, 10_000),
        ] {
            let run = Run::new(&cfg, warmup, measure).seeds(seeds);
            let Err(trip) = run.telemetry(opts).run(|_| {}) else {
                panic!("{seeds}-seed no-dateline torus must deadlock");
            };
            assert_eq!(trip.stalled_windows, 10);
            assert!(trip.in_flight > 0, "a stall needs stuck flits");
            assert!(
                trip.recorder.latest().is_some(),
                "post-mortem ring must hold the stalled windows"
            );
            assert!(trip.describe().contains("possible deadlock"));
        }
    }

    #[test]
    fn watchdog_stays_quiet_on_dateline_torus() {
        // Same load on the correct dateline routing: no trip.
        let cfg = SimConfig {
            topology: TopologyKind::Torus8x8,
            injection_rate: 0.35,
            ..SimConfig::paper_baseline(TopologyKind::Torus8x8, 1)
        };
        let opts = TelemetryOptions {
            watchdog: Some(10),
            ..TelemetryOptions::recording()
        };
        let (res, rec) = recorded(&cfg, 2_000, 8_000, opts).expect("no trip");
        assert!(res.throughput > 0.0);
        assert_eq!(rec.summary().max_stalled_windows, 0);
    }

    #[test]
    fn profiled_idle_network_attributes_nothing_to_vc_allocation() {
        // Every router of an idle network is skipped, clock reads and all:
        // the profile is stamped, and no allocation phase was ever timed.
        let cfg = SimConfig {
            injection_rate: 0.0,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1)
        };
        let out = Run::new(&cfg, 0, 200).profile().finish();
        let prof = out.profile.expect("profiler attached");
        assert_eq!(prof.cycles, 200);
        assert!(prof.wall_nanos > 0, "profile not stamped");
        assert_eq!(prof.nanos(Phase::VcAlloc), 0);
    }

    #[test]
    fn retired_engine_names_are_run_sim() {
        // `benchmark/` counts `sim.engine_mismatches` over these.
        let cfg = SimConfig {
            injection_rate: 0.1,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        };
        let plain = run_sim(&cfg, 500, 1_500).to_json_full();
        for engine in [Engine::ActiveSet, Engine::Parallel(2)] {
            let retired = run_sim_engine(&cfg, 500, 1_500, engine);
            assert_eq!(retired.to_json_full(), plain, "{engine:?}");
        }
    }

    #[test]
    fn finish_runs_a_recorded_run_without_its_watchdog() {
        // The deadlocking fixture that trips `run` completes under `finish`.
        let cfg = SimConfig {
            topology: TopologyKind::Torus8x8,
            injection_rate: 0.35,
            routing_override: Some(crate::routing::RoutingKind::TorusNoDateline),
            ..SimConfig::paper_baseline(TopologyKind::Torus8x8, 1)
        };
        let opts = TelemetryOptions {
            watchdog: Some(2),
            ..TelemetryOptions::recording()
        };
        let out = Run::new(&cfg, 1_000, 9_500).telemetry(opts).finish();
        let rec = out.recorder.expect("recorder attached");
        assert_eq!(rec.windows(), 105);
        assert!(
            rec.summary().max_stalled_windows >= 2,
            "fixture did not stall"
        );
    }

    #[test]
    fn saturation_rate_is_in_plausible_band() {
        // Uniform random traffic on a k x k DOR mesh loads the bisection
        // channels to its bound at 4/k flits per terminal per cycle (Dally &
        // Towles ch. 3): 0.5 at k = 8. Mesh 2x1x1 must saturate below that
        // and above half of it (Figure 13(a) shows ~0.3; this setup finds
        // ~0.36).
        let base = SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1);
        let bound = 4.0 / base.topology.build().width as f64;
        let sat = saturation_rate(&base, 1_500, 3_000, &run_sim);
        assert!(
            0.5 * bound < sat && sat < bound,
            "mesh 2x1x1 saturation {sat} vs channel-load bound {bound}"
        );
        // Below saturation the network delivers what it is offered: accepted
        // load within 3 % of offered at 0.2 to 0.8 x saturation. Sampling
        // alone moves the ratio by up to ~2 % at 0.2 x over 6,000 cycles;
        // terminals that lose one packet in twenty fall outside the band.
        for fraction in [0.2, 0.4, 0.6, 0.8] {
            let offered = fraction * sat;
            let cfg = SimConfig {
                injection_rate: offered,
                ..base.clone()
            };
            let accepted = run_sim(&cfg, 1_500, 6_000).throughput;
            assert!(
                (accepted / offered - 1.0).abs() < 0.03,
                "at {fraction} x saturation: accepted {accepted} vs offered {offered}"
            );
        }
    }
}
