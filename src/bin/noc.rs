#![forbid(unsafe_code)]
//! `noc` — command-line front end for the allocator study toolkit.
//!
//! Subcommands:
//!
//! * `noc sim`     — run one network simulation and print latency/throughput
//!   (with `--anatomy`, decomposed into pipeline stages)
//! * `noc check`   — statically verify a design (deadlock freedom, liveness,
//!   allocator wiring)
//! * `noc synth`   — synthesize a VC or switch allocator design point
//! * `noc quality` — measure open-loop matching quality
//! * `noc fig`     — print any figure or ablation of the registry
//! * `noc sweep`   — run/resume cached, journaled experiment sweeps
//! * `noc serve`   — sweep-as-a-service daemon deduplicating concurrent clients
//! * `noc client`  — send one sweep/preset/status request to a serve daemon
//! * `noc top`     — draw a recorded dump's congestion + matching-efficiency frame
//! * `noc replay`  — recompute a run summary from a telemetry dump
//!
//! Run `noc help` (or any subcommand with `--help`) for flags. Argument
//! parsing is deliberately dependency-free.

use noc_bench::sweep::{cached_runner, run_sweep, ResultCache, SweepOptions, SweepSpec};
use noc_bench::{figure, preset_spec, workload_matrix, Figure, FIGURES};
use noc_check::{check_design, check_fixture, fixtures, RouteModel};
use noc_core::{AllocatorKind, SpecMode, SwitchAllocatorKind, VcAllocSpec};
use noc_obs::json::Raw;
use noc_obs::{
    check_reconciliation, chrome_trace, metrics_csv, metrics_jsonl, render_top, render_waterfall,
    write_anatomy_dump, write_telemetry_dump, AnatomyCollector, FlightRecorder, JsonWriter,
    Profiler, TelemetryDump, ToJson, VecSink, WindowSnapshot, ANATOMY_SCHEMA, PHASES,
    TELEMETRY_SCHEMA,
};
use noc_sim::{
    ConfigError, RoutingKind, Run, SimConfig, TelemetryOptions, TopologyKind, TrafficPattern,
    MAX_SEEDS,
};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

const HELP: &str = "\
noc — allocator implementations for network-on-chip routers (SC'09 reproduction)

USAGE:
  noc sim     [--topology mesh|fbfly|torus] [--vcs C] [--rate R] [--sa KIND]
              [--alloc KIND] [--spec nonspec|spec_gnt|spec_req] [--pattern P]
              [--buf-depth N] [--burst B] [--warmup N] [--measure N] [--seed S]
              [--seeds N] [--profile] [--trace FILE] [--metrics FILE]
              [--json] [--verify] [--record FILE] [--top]
              [--routing dor|dateline|nodateline] [--no-watchdog]
              [--anatomy] [--anatomy-out FILE] [--top-k K]
  noc check   [--topology mesh|fbfly|torus] [--vcs C] [--all]
              [--fixture no-dateline|cyclic-vc]
  noc synth   (vca|swa) [--topology mesh|fbfly|torus] [--vcs C] [--alloc KIND]
              [--dense] [--spec nonspec|spec_gnt|spec_req]
  noc quality (vca|swa) [--topology mesh|fbfly|torus] [--vcs C] [--rate R]
              [--trials N]
  noc fig     [NAME... | --all] [--out DIR] [--cache-dir DIR] [--quiet]
  noc sweep   (run|resume|status|clean) [--preset NAME | --spec FILE]
              [--out DIR] [--cache-dir DIR] [--quiet] [--no-render]
              [--telemetry] [--anatomy]
  noc serve   [--addr HOST:PORT] [--cache-dir DIR] [--out DIR] [--workers N]
              [--quiet]
  noc client  (--preset NAME | --spec FILE | --status) [--addr HOST:PORT]
              [--id ID] [--quiet]
  noc top     DUMP
  noc replay  DUMP
  noc help

KIND (allocator): sep_if_rr sep_if_m sep_of_rr sep_of_m wf
PATTERN:          uniform bitcomp transpose tornado shuffle
C (--vcs):        2x1xC (mesh) or 2x2xC (fbfly, torus) VCs per port, at most 64

Observability (noc sim):
  --trace FILE            write a Chrome Trace Event Format flit timeline
                          (load in chrome://tracing or Perfetto)
  --metrics FILE          write the per-VC stall and per-port flit
                          counters; .json/.jsonl selects JSON lines,
                          anything else CSV
  --json                  print the run summary as one JSON object

Telemetry & live view (noc sim / noc top / noc replay):
  --record FILE           flight-record the run: one noc-telemetry/v1 JSONL
                          window snapshot every 100 cycles, keyed by the
                          config's content digest, written when the run
                          ends; each window samples matching efficiency
                          (grants vs an exact maximum matching of the same
                          cycle's requests) once; the summary joins the
                          --json report as a \"telemetry\" block
  --top                   redraw a live congestion heatmap + matching-
                          efficiency sparkline as the run progresses
  --routing KIND          override the topology's routing algorithm; the
                          'nodateline' torus fixture deadlocks by design
                          (watchdog demo)
  --no-watchdog           disable the stall watchdog (default: terminate
                          after ~10k motionless cycles with flits stuck,
                          writing a post-mortem dump; with --seeds it
                          guards the pilot and every replicate)
  noc top DUMP            draw the dump's latest window as one frame
  noc replay DUMP         recompute the run's telemetry summary from the
                          dump (byte-identical to the in-process block)

Latency anatomy (noc sim --anatomy):
  runs the simulation with the per-packet latency ledger on and appends
  the blame report: mean/p50/p99/max cycles per pipeline stage
  (src_queue, vca, sa, credit, active, wire, serialization), each stage's
  share of total latency, then hop-by-hop waterfalls for the slowest
  packets. Per-packet stage sums reconcile exactly with end-to-end
  latency; the command exits nonzero if they do not.
  --top-k K               waterfalls to retain for the slowest packets
                          (default 4; 0 disables; needs --anatomy or
                          --anatomy-out)
  --anatomy-out FILE      also write the full noc-anatomy/v1 JSONL dump,
                          keyed by the config's content digest: the first
                          65536 per-packet rows (the blame report always
                          covers every packet) and the waterfalls
  noc sweep run --anatomy write a <digest>.anatomy.jsonl dump per computed
                          point, linked from the sweep manifest

Statistics (noc sim):
  --seeds N               replicate the run over N seeds: a pilot run
                          detects the warmup (MSER), then mean latency
                          with a 95% CI; the stall watchdog guards the
                          pilot and every replicate
  --profile               attribute simulator wall time to the router
                          pipeline phases and print per-phase shares
  --verify                run with the per-cycle invariant checker enabled
                          (matching legality, credit conservation,
                          no-flit-without-VC); exits nonzero on violations

Static analysis (noc check):
  checks deadlock freedom (channel-dependency graph over the sparse VC
  transition masks; prints a minimal offending cycle), VC reachability /
  starvation / dateline discipline, and allocator wiring (the transition
  mask admits every VC transition a route takes); exits nonzero if any
  checked design fails
  --all                   check the paper's designs (mesh, fbfly, torus at
                          C = 1, 2, 4) and every workload-matrix config
  --fixture NAME          check a deliberately deadlocked negative fixture
                          (no-dateline | cyclic-vc) — expected to FAIL

Figures (noc fig):
  prints figures and ablations of the registry; results/NAME.txt holds
  each one's committed text. Simulation figures run their grid through
  the sweep cache first (journal and manifest next to it), then render
  from it. NOC_WARMUP / NOC_MEASURE / NOC_TRIALS override the run window
  and the trials per quality point.
  noc fig                 list the registry
  NAME...                 fig04 fig05 fig06 fig07 fig10 fig11 fig12 fig13
                          fig14 ablation-arbiters ablation-iterations
                          ablation-traffic ablation-speculation
                          ablation-buffers ablation-radix ablation-bulk
                          ablation-torus ablation-wavefront smoke
  --all                   every entry, in that order
  --out DIR               write DIR/NAME.txt instead of printing
  --cache-dir DIR         result cache directory (default results/cache)
  --quiet                 suppress per-point progress lines on stderr

Experiment sweeps (noc sweep):
  runs a declarative grid of simulations with a content-addressed result
  cache and a crash-safe completion journal, so interrupted sweeps resume
  with zero recomputation; a preset is a registry figure with a grid, and
  its sweep prints the same text as noc fig NAME, from cache
  run                     run (or continue) a sweep; with --preset, the
                          figure text follows on stdout
  resume                  like run, but requires an existing journal
  status                  list journals (done/total points) and cache size
  clean                   delete cached results, journals, and manifests
  --preset NAME           fig13 | fig14 | ablation-traffic |
                          ablation-speculation | smoke
  --spec FILE             JSON sweep spec (grammar in DESIGN.md)
  --out DIR               journal/manifest directory (default results/sweeps)
  --cache-dir DIR         result cache directory (default results/cache)
  --quiet                 suppress per-point progress lines on stderr
  --no-render             skip the figure render after a preset run

Sweep service (noc serve / noc client):
  a long-running daemon over the same cache + journal: clients send one
  noc-serve/v1 JSON request line over local TCP and stream JSONL results
  back; overlapping requests are normalized to SimConfig digests and
  deduplicated, so across any number of concurrent clients every unique
  point is simulated at most once — including across kill -9 + restart
  (journaled points are served from cache, recomputing nothing)
  noc serve               start the daemon (prints the bound address on
                          stdout; runs until killed)
  --addr HOST:PORT        listen/connect address (default 127.0.0.1:4009;
                          port 0 picks a free port)
  --workers N             concurrent simulations (default: cores, max 8)
  noc client              send one request and print the response JSONL
  --preset NAME           request an in-repo preset by name
  --spec FILE             request the sweep spec in FILE (same grammar as
                          noc sweep --spec)
  --status                request daemon-lifetime counters instead
  --id ID                 request id echoed on every response line
  --quiet                 suppress the JSONL tee; keep the summary line

Examples:
  noc sim --topology fbfly --vcs 4 --rate 0.3 --sa wf
  noc sim --rate 0.2 --verify
  noc sim --rate 0.4 --anatomy --top-k 3
  noc sim --topology fbfly --rate 0.35 --anatomy-out anatomy.jsonl --json
  noc check --all
  noc check --fixture no-dateline
  noc sim --rate 0.25 --metrics out.csv --trace trace.json --json
  noc sim --rate 0.15 --seeds 8 --json
  noc sim --rate 0.4 --record run.jsonl --json
  noc sim --rate 0.3 --top
  noc sim --topology torus --routing nodateline --rate 0.35
  noc top run.jsonl
  noc replay run.jsonl
  noc synth vca --topology mesh --vcs 2 --alloc sep_if_rr
  noc quality swa --topology fbfly --vcs 4 --rate 0.5 --trials 5000
  noc fig fig05 ablation-radix
  noc fig --all --out results
  noc sweep run --preset fig13
  noc sweep status
  noc serve --addr 127.0.0.1:4009 &
  noc client --preset smoke
  noc client --status
";

/// Default slowest-packet waterfall count of `noc sim --anatomy`.
const DEFAULT_ANATOMY_TOP_K: usize = 4;

/// Flags that take no value; every other flag of a [`COMMANDS`] row is
/// followed by one.
const BARE_FLAGS: &[&str] = &[
    "all",
    "anatomy",
    "dense",
    "json",
    "no-render",
    "no-watchdog",
    "profile",
    "quiet",
    "status",
    "telemetry",
    "top",
    "verify",
];

/// Parsed `--key value` flags plus positional arguments.
struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// `--help` anywhere parses as the `help` command; a flag no command
    /// takes, or a value flag without its value, is an error.
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                positional.push(a.clone());
                continue;
            };
            if key == "help" {
                return Ok(Args {
                    positional: vec!["help".to_string()],
                    flags: HashMap::new(),
                });
            }
            let value = if BARE_FLAGS.contains(&key) {
                "true"
            } else if COMMANDS.iter().any(|(_, _, flags)| takes(flags, key)) {
                it.next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?
            } else {
                return Err(format!("unknown flag --{key} (see noc help)"));
            };
            flags.insert(key.to_string(), value.to_string());
        }
        Ok(Args { positional, flags })
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --{key}")),
        }
    }

    /// A design-axis flag, parsed by the enum's own `parse` — the one
    /// vocabulary sweep specs and serve requests use too.
    fn named<T>(
        &self,
        key: &str,
        what: &str,
        default: T,
        parse: fn(&str) -> Option<T>,
    ) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(s) => parse(s).ok_or_else(|| format!("unknown {what} '{s}'")),
        }
    }

    fn topology(&self) -> Result<TopologyKind, String> {
        let default = TopologyKind::Mesh8x8;
        self.named("topology", "topology", default, TopologyKind::parse)
    }

    fn alloc_kind(&self) -> Result<AllocatorKind, String> {
        let default = AllocatorKind::SepIfRr;
        self.named("alloc", "allocator", default, AllocatorKind::parse)
    }

    fn sw_kind(&self, key: &str) -> Result<SwitchAllocatorKind, String> {
        let default = SwitchAllocatorKind::SepIf(noc_arbiter::ArbiterKind::RoundRobin);
        self.named(key, "switch allocator", default, SwitchAllocatorKind::parse)
    }

    fn spec_mode(&self) -> Result<SpecMode, String> {
        let default = SpecMode::Pessimistic;
        self.named("spec", "speculation mode", default, SpecMode::parse)
    }

    fn pattern(&self) -> Result<TrafficPattern, String> {
        let default = TrafficPattern::UniformRandom;
        self.named("pattern", "pattern", default, TrafficPattern::parse)
    }

    fn routing_override(&self) -> Result<Option<RoutingKind>, String> {
        (self.flags.get("routing"))
            .map(|s| {
                RoutingKind::parse(s)
                    .ok_or_else(|| format!("unknown routing '{s}' (dor|dateline|nodateline)"))
            })
            .transpose()
    }

    /// The router class structure `noc synth|quality` work on,
    /// validated like a `noc sim` configuration: zero VCs or an
    /// out-of-range request rate is a one-line error, not a panic.
    fn design_spec(&self, default_vcs: usize, rate: f64) -> Result<VcAllocSpec, String> {
        let cfg = SimConfig {
            injection_rate: rate,
            ..SimConfig::paper_baseline(self.topology()?, self.get("vcs", default_vcs)?)
        };
        cfg.validate().map_err(|e| e.to_string())?;
        Ok(cfg.vc_spec())
    }
}

/// The `(warmup, measure)` run window of `noc sim`.
fn run_window(args: &Args) -> Result<(u64, u64), String> {
    let (warmup, measure): (u64, u64) = (args.get("warmup", 3000)?, args.get("measure", 6000)?);
    ConfigError::check_window(warmup, measure).map_err(|e| e.to_string())?;
    Ok((warmup, measure))
}

/// Builds the simulated design point from the `noc sim` config flags.
fn sim_config(args: &Args) -> Result<SimConfig, String> {
    let cfg = SimConfig {
        injection_rate: args.get("rate", 0.2)?,
        vca_kind: args.alloc_kind()?,
        sa_kind: args.sw_kind("sa")?,
        spec_mode: args.spec_mode()?,
        pattern: args.pattern()?,
        buf_depth: args.get("buf-depth", 8)?,
        burst: args.get("burst", 1)?,
        seed: args.get("seed", 0x5c09_2009u64)?,
        routing_override: args.routing_override()?,
        ..SimConfig::paper_baseline(args.topology()?, args.get("vcs", 2)?)
    };
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

fn cmd_sim(args: &Args) -> Result<(), String> {
    let cfg = sim_config(args)?;
    let (warmup, measure) = run_window(args)?;
    let trace_path = args.flags.get("trace").cloned();
    let metrics_path = args.flags.get("metrics").cloned();
    let seeds: usize = args.get("seeds", 1usize)?;
    if !(1..=MAX_SEEDS).contains(&seeds) {
        return Err(format!("--seeds must be 1 to {MAX_SEEDS}, not {seeds}"));
    }
    let want_profile = args.flags.contains_key("profile");
    let want_verify = args.flags.contains_key("verify");
    let record_path = args.flags.get("record").cloned();
    let want_top = args.flags.contains_key("top");
    let want_record = record_path.is_some() || want_top;
    let no_watchdog = args.flags.contains_key("no-watchdog");
    let anatomy_out = args.flags.get("anatomy-out").cloned();
    let want_anatomy = args.flags.contains_key("anatomy") || anatomy_out.is_some();
    let anatomy_top_k: usize = args.get("top-k", DEFAULT_ANATOMY_TOP_K)?;
    // A flag whose observer is off would be ignored: refuse it instead.
    if args.flags.contains_key("top-k") && !want_anatomy {
        return Err("--top-k needs --anatomy or --anatomy-out".to_string());
    }
    let observed = want_profile
        || want_verify
        || want_record
        || want_anatomy
        || trace_path.is_some()
        || metrics_path.is_some();
    if seeds > 1 && observed {
        return Err(
            "--seeds replicates plain runs; it cannot be combined with --profile, --verify, \
             --trace, --metrics, --record, --top or --anatomy"
                .to_string(),
        );
    }
    eprintln!(
        "simulating {} @ {} flits/cycle/terminal ({} + {} cycles)...",
        cfg.label(),
        cfg.injection_rate,
        warmup,
        measure
    );
    // Every flag combination is one run. Without --record / --top a
    // coarse watchdog-only recorder still stands guard (unless
    // --no-watchdog), over each replicate of --seeds too: a deadlocked
    // network ends with a post-mortem dump instead of burning cycles.
    let telemetry = if want_record {
        let mut opts = TelemetryOptions::recording();
        opts.watchdog = opts.watchdog.filter(|_| !no_watchdog);
        Some(opts)
    } else {
        (!no_watchdog).then(TelemetryOptions::watchdog_only)
    };
    let mut run = Run::new(&cfg, warmup, measure).seeds(seeds);
    if want_profile {
        run = run.profile();
    }
    if want_verify {
        run = run.verify();
    }
    if want_anatomy {
        run = run.anatomy(anatomy_top_k);
    }
    if let Some(opts) = telemetry {
        run = run.telemetry(opts);
    }
    let label = format!("{} @ {}", cfg.label(), cfg.injection_rate);
    let routers = cfg.topology.build().num_routers();
    let dump = |path: &str, rec: &FlightRecorder| {
        let digest = cfg.digest(warmup, measure, TELEMETRY_SCHEMA);
        let (label, path) = (label.clone(), Path::new(path));
        write_telemetry_dump(path, rec, digest, label, routers, warmup, measure)
    };
    let capacity_flits = (cfg.vc_spec().total_vcs() * cfg.buf_depth) as u32;
    let mut eff: Vec<f64> = Vec::new();
    let on_window = |snap: &WindowSnapshot| {
        if want_top {
            eff.push(snap.efficiency());
            // ANSI clear + home; frames go to stderr so a --json
            // summary on stdout stays machine-readable.
            eprint!(
                "\x1b[2J\x1b[H{}",
                render_top(&label, snap, &eff, capacity_flits)
            );
        }
    };
    let mut sink = VecSink::default();
    let outcome = if trace_path.is_some() {
        run.sink(&mut sink).run(on_window)
    } else {
        run.run(on_window)
    };
    let mut out = match outcome {
        Ok(out) => out,
        Err(trip) => {
            // A recorded run dumps every window; the guard only its ring.
            let path = record_path.unwrap_or_else(|| {
                let digest = cfg.digest(warmup, measure, TELEMETRY_SCHEMA);
                format!("noc-postmortem-{digest}.jsonl")
            });
            dump(&path, &trip.recorder)?;
            return Err(format!(
                "{}\npost-mortem telemetry dump ({} windows): {path}\n\
                 (rerun with --no-watchdog to let the simulation spin)",
                trip.describe(),
                trip.recorder.ring().count()
            ));
        }
    };
    if let (Some(path), Some(rec)) = (&record_path, &out.recorder) {
        dump(path, rec)?;
        eprintln!("wrote {} telemetry windows to {path}", rec.ring().count());
    }
    if !want_record {
        // The guard recorder is internal; keep the report identical to
        // an unrecorded run.
        out.result.telemetry = None;
    }
    if let Some(path) = &trace_path {
        std::fs::write(path, chrome_trace(&sink.events))
            .map_err(|e| format!("writing trace '{path}': {e}"))?;
        eprintln!("wrote {} flit events to {path}", sink.events.len());
    }
    if let Some(path) = &metrics_path {
        let text = if path.ends_with(".json") || path.ends_with(".jsonl") {
            metrics_jsonl(&out.router_obs)
        } else {
            metrics_csv(&out.router_obs)
        };
        std::fs::write(path, text).map_err(|e| format!("writing metrics '{path}': {e}"))?;
        eprintln!("wrote metrics to {path}");
    }
    let receipt = (out.anatomy.as_ref())
        .map(|col| check_reconciliation(col, out.result.avg_latency))
        .transpose()?;
    if let (Some(path), Some(col)) = (&anatomy_out, &out.anatomy) {
        write_anatomy_dump(
            Path::new(path),
            col,
            cfg.digest(warmup, measure, ANATOMY_SCHEMA),
            label.clone(),
            routers,
            warmup,
            measure,
        )?;
        eprintln!(
            "wrote anatomy dump ({} packets, {} waterfalls) to {path}",
            col.totals.packets,
            col.slow.len()
        );
    }
    if let Some(rep) = &out.verify {
        eprintln!(
            "invariants       {} checks, {} violations",
            rep.checks, rep.total_violations
        );
        if !rep.passed() {
            let mut msg = format!("{} runtime invariant violation(s):", rep.total_violations);
            for v in rep.violations.iter().take(10) {
                msg.push_str("\n  ");
                msg.push_str(v);
            }
            return Err(msg);
        }
    }
    let (r, profile, anatomy) = (out.result, out.profile, out.anatomy);
    if args.flags.contains_key("json") {
        println!("{}", json_report(&r, profile.as_ref(), anatomy.as_ref()));
        return Ok(());
    }
    println!("offered          {:.4} flits/cycle/terminal", r.offered);
    println!("accepted         {:.4} flits/cycle/terminal", r.throughput);
    println!(
        "latency          {:.2} cycles (std dev {:.2}, p99 <= {:.0})",
        r.avg_latency, r.latency_std_dev, r.latency_p99
    );
    println!(
        "  requests       {:.2} cycles / replies {:.2} cycles",
        r.request_latency, r.reply_latency
    );
    if r.seeds > 1 {
        println!(
            "replication      {} seeds, 95% CI on latency ±{:.2} cycles",
            r.seeds, r.ci95
        );
    }
    if let Some(w) = r.warmup_detected {
        println!("warmup detected  {w} cycles (MSER steady-state truncation)");
    }
    println!("stable           {}", r.stable);
    if let Some(t) = &r.telemetry {
        // A run shorter than one window sampled no matching.
        let eff = match t.mean_efficiency() {
            e if e.is_nan() => "n/a".to_string(),
            e => format!("{e:.3}"),
        };
        println!(
            "telemetry        {} windows x {} cycles, mean matching efficiency {eff}",
            t.windows, t.window
        );
        println!(
            "  worst stall streak {} consecutive motionless windows",
            t.max_stalled_windows
        );
    }
    let s = r.router_stats;
    println!(
        "switch grants    {} non-speculative, {} speculative ({} masked, {} invalid)",
        s.nonspec_grants, s.spec_grants, s.spec_masked, s.spec_invalid
    );
    if s.vca_grants > 0 {
        println!(
            "VC allocation    {} grants, {:.2} request-cycles per grant",
            s.vca_grants,
            s.vca_requests as f64 / s.vca_grants as f64
        );
    }
    if !r.routers.is_empty() {
        println!(
            "router traffic   {:.2}..{:.2} flits/cycle (min..max per router)",
            r.min_router_throughput(),
            r.max_router_throughput()
        );
        if let Some((router, port, stall)) = r.worst_stall() {
            println!(
                "worst stall      router {router} port {port}: stalled {:.1}% of cycles",
                stall * 100.0
            );
        }
    }
    if let Some(p) = &profile {
        println!(
            "simulator speed  {:.2} Mcycles/sec ({} cycles in {:.1} ms)",
            p.cycles_per_sec() / 1e6,
            p.cycles,
            p.wall_nanos as f64 / 1e6
        );
        let shares = p.shares();
        for phase in PHASES {
            println!(
                "  {:<14} {:>5.1}% of wall time, {} events",
                phase.name(),
                shares[phase as usize] * 100.0,
                p.events(phase)
            );
        }
        println!(
            "  {:<14} {:>5.1}% (traffic generation, event scheduling, stats)",
            "other",
            p.other_share() * 100.0
        );
    }
    if let (Some(col), Some(receipt)) = (&anatomy, receipt) {
        println!("latency anatomy (cycles per packet, decomposed by pipeline stage):");
        print!("{}", col.summary().render());
        println!("{receipt}");
        let slowest = col.slowest();
        if !slowest.is_empty() {
            println!("slowest packets:");
            for w in slowest {
                print!("{}", render_waterfall(w));
            }
        }
    }
    Ok(())
}

/// The `--json` report of `noc sim`: a plain run prints the bare result;
/// profile / anatomy sections wrap it in an object that names each part.
fn json_report(
    r: &noc_sim::SimResult,
    profile: Option<&Profiler>,
    anatomy: Option<&AnatomyCollector>,
) -> String {
    let result = r.to_json();
    if profile.is_none() && anatomy.is_none() {
        return result;
    }
    let mut w = JsonWriter::default();
    w.begin_object()
        .field("result", Raw(&result))
        .opt_field("profile", profile)
        .opt_field("anatomy", anatomy.map(AnatomyCollector::summary))
        .end_object();
    w.finish()
}

fn cmd_check(args: &Args) -> Result<(), String> {
    let c: usize = args.get("vcs", 2)?;
    // A VC count that makes no router (zero, too wide) is the fixture's
    // one-line error.
    let checked = |f: Result<fixtures::Fixture, noc_core::SpecError>| {
        f.map(|f| check_fixture(&f)).map_err(|e| e.to_string())
    };
    let mut reports = Vec::new();
    if let Some(name) = args.flags.get("fixture") {
        let f = fixtures::by_name(name, c)
            .ok_or_else(|| format!("unknown fixture '{name}' (no-dateline | cyclic-vc)"))?;
        reports.push(checked(f)?);
    } else if args.flags.contains_key("all") {
        // The paper's designs across topologies and VC counts...
        for topo in ["mesh", "fbfly", "torus"] {
            for c in [1usize, 2, 4] {
                reports.push(checked(fixtures::paper_design(topo, c))?);
            }
        }
        // ...plus every configuration the workload matrix simulates.
        for (name, cfg) in workload_matrix() {
            let topo = cfg.topology.build();
            let model = RouteModel::Simulator(cfg.routing());
            reports.push(check_design(&name, &topo, &model, &cfg.vc_spec()));
        }
    } else {
        let topo = args.topology()?;
        reports.push(checked(fixtures::paper_design(topo.label(), c))?);
    }
    let mut failed = 0usize;
    for rep in &reports {
        print!("{}", rep.render());
        if !rep.passed() {
            failed += 1;
        }
    }
    println!(
        "{}/{} design(s) passed",
        reports.len() - failed,
        reports.len()
    );
    if failed > 0 {
        return Err(format!("{failed} design(s) failed verification"));
    }
    Ok(())
}

fn cmd_synth(args: &Args) -> Result<(), String> {
    use noc_hw::builders::{sw_alloc, vc_alloc};
    let what = args.positional.get(1).map(String::as_str).unwrap_or("vca");
    let spec = args.design_spec(2, 0.0)?;
    let synth = noc_hw::Synthesizer::default();
    let result = match what {
        "vca" => vc_alloc::synthesize_vc_allocator(
            &synth,
            &spec,
            args.alloc_kind()?,
            !args.flags.contains_key("dense"),
        ),
        "swa" => sw_alloc::synthesize_switch_allocator(
            &synth,
            args.sw_kind("alloc")?,
            spec.ports(),
            spec.total_vcs(),
            args.spec_mode()?,
        ),
        other => return Err(format!("unknown synth target '{other}' (vca|swa)")),
    };
    match result {
        Ok(r) => {
            println!("design           {}", r.name);
            println!("min cycle time   {:.3} ns", r.delay_ns);
            println!("cell area        {:.0} um^2", r.area_um2);
            println!("average power    {:.2} mW (activity 0.5)", r.power_mw);
            println!(
                "cells            {} combinational + {} flops ({} buffers inserted)",
                r.cells, r.dffs, r.buffers_inserted
            );
            Ok(())
        }
        Err(e) => Err(e.to_string()),
    }
}

fn cmd_quality(args: &Args) -> Result<(), String> {
    let what = args.positional.get(1).map(String::as_str).unwrap_or("vca");
    let rate: f64 = args.get("rate", 0.5)?;
    let spec = args.design_spec(2, rate)?;
    if rate == 0.0 {
        return Err("--rate must be above 0: no request is drawn, so nothing is measured".into());
    }
    let trials: usize = args.get("trials", 3000)?;
    if trials == 0 {
        return Err("--trials must be at least 1".to_string());
    }
    // Trials that drew no request measured nothing: say so rather than
    // print the library's "perfect" convention for an empty sequence.
    let shown = |p: &noc_quality::QualityPoint| match p.max_grants {
        0 => "n/a".to_string(),
        _ => format!("{:.4}", p.quality()),
    };
    match what {
        "vca" => {
            let cfg = noc_quality::VcQualityConfig {
                spec,
                trials,
                seed: 0x5c09,
            };
            println!("VC allocation quality @ rate {rate} ({trials} trials):");
            for kind in AllocatorKind::QUALITY_FIGURE_KINDS {
                let curve = noc_quality::vc_quality_curve(&cfg, kind, &[rate]);
                println!("  {:<8} {}", kind.family(), shown(&curve.points[0]));
            }
        }
        "swa" => {
            let cfg = noc_quality::SwQualityConfig {
                ports: spec.ports(),
                vcs: spec.total_vcs(),
                trials,
                seed: 0x5c09,
            };
            println!("switch allocation quality @ rate {rate} ({trials} trials):");
            for (label, kind) in noc_bench::figures::SW_FIGURE_KINDS {
                let curve = noc_quality::sw_quality_curve(&cfg, kind, &[rate]);
                println!("  {label:<8} {}", shown(&curve.points[0]));
            }
        }
        other => return Err(format!("unknown quality target '{other}' (vca|swa)")),
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let sub = args.positional.get(1).map(String::as_str).unwrap_or("run");
    let (cache_dir, out_dir) = sweep_dirs(args);
    match sub {
        "run" => sweep_run(args, out_dir, cache_dir, false),
        "resume" => sweep_run(args, out_dir, cache_dir, true),
        "status" => sweep_status(&out_dir, &cache_dir),
        "clean" => sweep_clean(&out_dir, &cache_dir),
        other => Err(format!(
            "unknown sweep subcommand '{other}' (run|resume|status|clean)"
        )),
    }
}

/// The `(cache, journal)` directories of `noc sweep` / `noc serve`:
/// `--cache-dir` and `--out`, defaulting under `results/`.
fn sweep_dirs(args: &Args) -> (std::path::PathBuf, std::path::PathBuf) {
    let defaults = SweepOptions::default_dirs();
    let dir = |key: &str, default| args.flags.get(key).map_or(default, Into::into);
    (
        dir("cache-dir", defaults.cache_dir),
        dir("out", defaults.out_dir),
    )
}

/// Runs `spec` through the cache and journal, reporting on stderr.
fn run_and_report(spec: &SweepSpec, opts: &SweepOptions) -> Result<(), String> {
    let outcome = run_sweep(spec, opts)?;
    eprintln!(
        "sweep {}: {} points — {} computed, {} cache hits, {} journal skips in {:.1}s",
        outcome.name,
        outcome.total,
        outcome.computed,
        outcome.cache_hits,
        outcome.journal_skips,
        outcome.wall_ms as f64 / 1000.0
    );
    eprintln!("manifest: {}", outcome.manifest_path.display());
    Ok(())
}

/// Renders `fig` through the cache `opts` names: after its grid has run
/// every grid point is a hit; only adaptive saturation probes (cached
/// for next time) may still simulate.
fn render_cached(fig: &Figure, opts: &SweepOptions) -> Result<String, String> {
    let runner = cached_runner(ResultCache::new(&opts.cache_dir)?);
    fig.render_with(&runner)
}

fn sweep_run(
    args: &Args,
    out_dir: std::path::PathBuf,
    cache_dir: std::path::PathBuf,
    require_journal: bool,
) -> Result<(), String> {
    let preset_name = args.flags.get("preset");
    let spec = match (preset_name, args.flags.get("spec")) {
        (Some(name), None) => preset_spec(name)?,
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read spec {path}: {e}"))?;
            SweepSpec::from_json(&text)?
        }
        (Some(_), Some(_)) => return Err("--preset and --spec are mutually exclusive".to_string()),
        (None, None) => return Err("sweep run needs --preset NAME or --spec FILE".to_string()),
    };
    let opts = SweepOptions {
        cache_dir,
        out_dir,
        quiet: args.flags.contains_key("quiet"),
        require_journal,
        telemetry: args.flags.contains_key("telemetry"),
        anatomy: args.flags.contains_key("anatomy"),
        ..SweepOptions::default_dirs()
    };
    run_and_report(&spec, &opts)?;
    if let Some(name) = preset_name {
        if !args.flags.contains_key("no-render") {
            print!("{}", render_cached(figure(name)?, &opts)?);
        }
    }
    Ok(())
}

/// `noc fig` — print registry entries (no name: list them). An entry with
/// a grid runs it through the sweep cache first, its journal and manifest
/// kept next to the cached results; every entry then renders through the
/// cache, so no simulation is ever repeated.
fn cmd_fig(args: &Args) -> Result<(), String> {
    let names = &args.positional[1..];
    let all = args.flags.contains_key("all");
    if names.is_empty() && !all {
        for f in &FIGURES {
            println!("{:<22}{}", f.name, f.about);
        }
        return Ok(());
    }
    let figs: Vec<&Figure> = match (all, names) {
        (true, []) => FIGURES.iter().collect(),
        (false, names) => (names.iter().map(|n| figure(n))).collect::<Result<_, _>>()?,
        (true, _) => return Err("fig takes NAME... or --all, not both".to_string()),
    };
    // Resolved up front, so a bad sizing override is refused before any
    // figure runs.
    let specs = (figs.iter().map(|f| f.spec())).collect::<Result<Vec<_>, _>>()?;
    let cache_dir = sweep_dirs(args).0;
    let opts = SweepOptions {
        out_dir: cache_dir.clone(),
        cache_dir,
        quiet: args.flags.contains_key("quiet"),
        ..SweepOptions::default_dirs()
    };
    let out_dir = args.flags.get("out").map(std::path::Path::new);
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    for (fig, spec) in figs.into_iter().zip(specs) {
        if let Some(spec) = spec {
            run_and_report(&spec, &opts)?;
        }
        let text = render_cached(fig, &opts)?;
        match out_dir {
            None => print!("{text}"),
            Some(dir) => {
                let path = dir.join(fig.file_name());
                std::fs::write(&path, text)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                eprintln!("wrote {}", path.display());
            }
        }
    }
    Ok(())
}

fn sweep_status(out_dir: &std::path::Path, cache_dir: &std::path::Path) -> Result<(), String> {
    use noc_bench::sweep::journal::read_status;
    let mut journals: Vec<std::path::PathBuf> = std::fs::read_dir(out_dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "journal"))
        .collect();
    journals.sort();
    if journals.is_empty() {
        println!("no sweep journals in {}", out_dir.display());
    }
    for path in journals {
        match read_status(&path) {
            Some((header, done)) => {
                let state = if done >= header.points {
                    "complete"
                } else {
                    "partial"
                };
                println!(
                    "{:<24} {:>5}/{:<5} {:<9} spec {}",
                    header.name, done, header.points, state, header.spec_digest
                );
            }
            None => println!("unreadable journal: {}", path.display()),
        }
    }
    let cached = if cache_dir.is_dir() {
        ResultCache::new(cache_dir)?.len()
    } else {
        0
    };
    println!("cache: {} results in {}", cached, cache_dir.display());
    Ok(())
}

fn sweep_clean(out_dir: &std::path::Path, cache_dir: &std::path::Path) -> Result<(), String> {
    let removed_cache = if cache_dir.is_dir() {
        ResultCache::new(cache_dir)?.clear()?
    } else {
        0
    };
    let mut removed_files = 0usize;
    for entry in std::fs::read_dir(out_dir).into_iter().flatten().flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".journal") || name.ends_with(".manifest.json") {
            std::fs::remove_file(&path)
                .map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
            removed_files += 1;
        }
    }
    println!("removed {removed_cache} cached results, {removed_files} journal/manifest files");
    Ok(())
}

/// Default `noc serve` listen address, shared with `noc client`.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:4009";

/// Default serve worker-pool width: one simulation per core, capped.
fn default_serve_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(2)
}

/// `noc serve` — the sweep-as-a-service daemon.
fn cmd_serve(args: &Args) -> Result<(), String> {
    use noc_bench::sweep::serve::{start, ServeOptions};
    let (cache_dir, out_dir) = sweep_dirs(args);
    let workers = args.get("workers", default_serve_workers())?;
    let opts = ServeOptions {
        addr: args
            .flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| DEFAULT_SERVE_ADDR.to_string()),
        cache_dir,
        out_dir,
        workers,
        quiet: args.flags.contains_key("quiet"),
    };
    let daemon = start(&opts)?;
    // The resolved address goes to stdout so scripts binding port 0 can
    // capture it; everything else the daemon prints is stderr.
    println!("{}", daemon.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    daemon.wait();
    Ok(())
}

/// `noc client` — send one request line to a serve daemon, tee the
/// response JSONL to stdout, and summarize on stderr.
fn cmd_client(args: &Args) -> Result<(), String> {
    use noc_bench::sweep::serve::request;
    use noc_obs::{
        serve_preset_request_line, serve_status_request_line, serve_sweep_request_line, ServeEvent,
    };
    let addr = args
        .flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| DEFAULT_SERVE_ADDR.to_string());
    let id = args
        .flags
        .get("id")
        .cloned()
        .unwrap_or_else(|| format!("cli-{}", std::process::id()));
    let status = args.flags.contains_key("status");
    let line = match (status, args.flags.get("preset"), args.flags.get("spec")) {
        (true, None, None) => serve_status_request_line(&id),
        (false, Some(name), None) => serve_preset_request_line(&id, name),
        (false, None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read spec {path}: {e}"))?;
            // Validate client-side so a typo fails with the spec
            // grammar's diagnostics instead of a remote error line.
            SweepSpec::from_json(&text)?;
            serve_sweep_request_line(&id, &text, None)
        }
        _ => {
            return Err(
                "client needs exactly one of --preset NAME, --spec FILE, --status".to_string(),
            )
        }
    };
    let quiet = args.flags.contains_key("quiet");
    let mut status_counters = None;
    let outcome = request(&addr, &line, |raw, event| {
        if !quiet {
            println!("{raw}");
        }
        if let ServeEvent::Status {
            computed, clients, ..
        } = event
        {
            status_counters = Some((*computed, *clients));
        }
    })?;
    if let Some((computed, clients)) = status_counters {
        eprintln!("client {id}: daemon has computed {computed} points for {clients} requests");
    } else {
        eprintln!(
            "client {id}: {} points ({} scheduled, {} cache, {} coalesced) in {} ms",
            outcome.unique,
            outcome.scheduled,
            outcome.cache_hits,
            outcome.coalesced,
            outcome.wall_ms
        );
    }
    Ok(())
}

/// The positional `DUMP` of `noc top` / `noc replay`, with its path.
fn load_dump(args: &Args) -> Result<(&str, TelemetryDump), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("usage: noc top DUMP | noc replay DUMP")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read telemetry dump '{path}': {e}"))?;
    Ok((path, TelemetryDump::parse(&text)?))
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    let (_, dump) = load_dump(args)?;
    println!("{}", dump.summary().to_json());
    Ok(())
}

/// Draws the dump's latest window the way the live `--top` view would. A
/// dump is written once, when its run ends, so there is nothing to follow.
///
/// The header does not carry buffer capacities, so the occupancy heatmap is
/// scaled by the largest occupancy seen anywhere in the dump: relative
/// hotspots stay visible even without the absolute scale.
fn cmd_top(args: &Args) -> Result<(), String> {
    let (path, dump) = load_dump(args)?;
    let latest =
        (dump.windows.last()).ok_or_else(|| format!("'{path}' contains no telemetry windows"))?;
    let capacity = dump
        .windows
        .iter()
        .flat_map(|w| w.routers.iter().map(|r| r.occupancy))
        .max()
        .unwrap_or(0)
        .max(1);
    let eff: Vec<f64> = dump
        .windows
        .iter()
        .map(WindowSnapshot::efficiency)
        .collect();
    let label = format!("{} (replay)", dump.header.label);
    print!("{}", render_top(&label, latest, &eff, capacity));
    Ok(())
}

fn cmd_help(_: &Args) -> Result<(), String> {
    println!("{HELP}");
    Ok(())
}

type Command = fn(&Args) -> Result<(), String>;

/// Every subcommand with the flags it takes, space-separated: `main`
/// dispatches on the name, any other flag is refused, and `HELP` has a
/// `noc NAME` usage block listing exactly these.
const COMMANDS: &[(&str, Command, &str)] = &[
    (
        "sim",
        cmd_sim,
        "topology vcs rate sa alloc spec pattern buf-depth burst warmup measure seed seeds \
         profile trace metrics json verify record top \
         routing no-watchdog anatomy anatomy-out top-k",
    ),
    ("check", cmd_check, "topology vcs all fixture"),
    ("synth", cmd_synth, "topology vcs alloc dense spec"),
    ("quality", cmd_quality, "topology vcs rate trials"),
    ("fig", cmd_fig, "all out cache-dir quiet"),
    (
        "sweep",
        cmd_sweep,
        "preset spec out cache-dir quiet no-render telemetry anatomy",
    ),
    ("serve", cmd_serve, "addr cache-dir out workers quiet"),
    ("client", cmd_client, "preset spec status addr id quiet"),
    ("top", cmd_top, ""),
    ("replay", cmd_replay, ""),
    ("help", cmd_help, ""),
];

/// True if `flag` is one of the space-separated `flags` of a [`COMMANDS`] row.
fn takes(flags: &str, flag: &str) -> bool {
    flags.split_whitespace().any(|f| f == flag)
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    let name = args.positional.first().map_or("help", String::as_str);
    let Some((_, cmd, flags)) = COMMANDS.iter().find(|(n, ..)| *n == name) else {
        return Err(format!("unknown command '{name}'\n\n{HELP}"));
    };
    // A flag some other command takes is not silently ignored by this one:
    // the first such on the command line is named.
    let mut given = argv.iter().filter_map(|a| a.strip_prefix("--"));
    match given.find(|k| args.flags.contains_key(*k) && !takes(flags, k)) {
        Some(flag) => Err(format!("noc {name} does not take --{flag}")),
        None => cmd(&args),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        Args::parse(&argv).unwrap()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = args("sim --topology fbfly --rate 0.3 --vcs 4");
        assert_eq!(a.positional, vec!["sim"]);
        assert_eq!(a.topology().unwrap(), TopologyKind::FlattenedButterfly4x4);
        assert!((a.get::<f64>("rate", 0.0).unwrap() - 0.3).abs() < 1e-12);
        assert_eq!(a.get::<usize>("vcs", 1).unwrap(), 4);
    }

    #[test]
    fn defaults_apply() {
        let a = args("sim");
        assert_eq!(a.topology().unwrap(), TopologyKind::Mesh8x8);
        assert_eq!(a.get::<usize>("vcs", 2).unwrap(), 2);
        assert_eq!(a.spec_mode().unwrap(), SpecMode::Pessimistic);
        assert_eq!(a.pattern().unwrap(), TrafficPattern::UniformRandom);
    }

    #[test]
    fn rejects_bad_values() {
        let a = args("sim --topology hypercube");
        assert!(a.topology().is_err());
        let a = args("sim --rate abc");
        assert!(a.get::<f64>("rate", 0.0).is_err());
        let a = args("quality vca --alloc frobnicator");
        assert!(a.alloc_kind().is_err());
    }

    #[test]
    fn missing_flag_value_is_an_error() {
        let argv = vec!["sim".to_string(), "--rate".to_string()];
        assert!(Args::parse(&argv).is_err());
    }

    type Words = std::collections::BTreeSet<&'static str>;

    /// Word after `prefix` at each place it occurs in `text`.
    fn words_after(text: &'static str, prefix: &str) -> Words {
        let word = |rest: &'static str| {
            let end = rest.find(|c: char| !(c.is_ascii_lowercase() || c == '-'));
            &rest[..end.unwrap_or(rest.len())]
        };
        text.split(prefix).skip(1).map(word).collect()
    }

    #[test]
    fn help_documents_exactly_the_accepted_flags() {
        // Each command's usage block — from its `noc NAME` line to the next
        // command's — lists exactly the flags its row takes.
        let usage = HELP.split("\n\n").nth(1).unwrap();
        let mut accepted = Words::new();
        for (name, _, flags) in COMMANDS {
            let block = usage.split("\n  noc ").find(|b| {
                b.strip_prefix(name)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with([' ', '\n']))
            });
            let block = block.unwrap_or_else(|| panic!("no usage block for noc {name}"));
            let row: Words = flags.split_whitespace().collect();
            assert_eq!(words_after(block, "--"), row, "noc {name}");
            assert_eq!(row.len(), flags.split_whitespace().count(), "duplicate");
            accepted.extend(row);
        }
        // Nothing is documented further down that no command takes, and
        // every bare flag is some command's.
        assert_eq!(words_after(HELP, "--"), accepted);
        assert!(BARE_FLAGS.iter().all(|f| accepted.contains(f)));
    }

    #[test]
    fn a_flag_of_another_command_is_refused_not_ignored() {
        let run = |s: &str| {
            let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
            super::run(&argv)
        };
        for (line, msg) in [
            ("check --rate 7", "noc check does not take --rate"),
            (
                "check --vcs 2 --seeds 3 --rate 7",
                "noc check does not take --seeds",
            ),
            ("quality vca --dense", "noc quality does not take --dense"),
            ("replay dump --rate 7", "noc replay does not take --rate"),
            ("help --json", "noc help does not take --json"),
            ("--json", "noc help does not take --json"),
            // A flag no command takes stays the parser's error.
            ("check --rat 7", "unknown flag --rat (see noc help)"),
            ("sim --engine seq", "unknown flag --engine (see noc help)"),
            ("replay dump --", "unknown flag -- (see noc help)"),
        ] {
            assert_eq!(run(line), Err(msg.to_string()), "{line}");
        }
    }

    #[test]
    fn help_usage_lines_are_exactly_the_command_table() {
        let documented: Vec<&str> = words_after(HELP, "\n  noc ").into_iter().collect();
        let mut table: Vec<&str> = COMMANDS.iter().map(|(n, ..)| *n).collect();
        table.sort_unstable();
        assert_eq!(documented, table);
    }

    #[test]
    fn dense_is_a_bare_flag() {
        let a = args("synth vca --dense --vcs 2");
        assert!(a.flags.contains_key("dense"));
        assert_eq!(a.positional, vec!["synth", "vca"]);
    }

    #[test]
    fn json_is_a_bare_flag() {
        let a = args("sim --json --rate 0.2");
        assert!(a.flags.contains_key("json"));
        assert!((a.get::<f64>("rate", 0.0).unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn verify_and_all_are_bare_flags() {
        let a = args("sim --verify --rate 0.2");
        assert!(a.flags.contains_key("verify"));
        assert!((a.get::<f64>("rate", 0.0).unwrap() - 0.2).abs() < 1e-12);
        let a = args("check --all");
        assert!(a.flags.contains_key("all"));
        assert_eq!(a.positional, vec!["check"]);
    }

    #[test]
    fn check_fixture_takes_a_value() {
        let a = args("check --fixture no-dateline --vcs 2");
        assert_eq!(
            a.flags.get("fixture").map(String::as_str),
            Some("no-dateline")
        );
        assert!(fixtures::by_name("no-dateline", 2).is_some());
        assert!(fixtures::by_name("cyclic-vc", 2).is_some());
        assert!(fixtures::by_name("bogus", 2).is_none());
    }

    #[test]
    fn telemetry_flags_parse() {
        let a = args("sim --record run.jsonl");
        assert_eq!(a.flags.get("record").map(String::as_str), Some("run.jsonl"));
        // top / no-watchdog / telemetry are bare flags.
        let a = args("sim --top --no-watchdog --rate 0.2");
        assert!(a.flags.contains_key("top"));
        assert!(a.flags.contains_key("no-watchdog"));
        assert!((a.get::<f64>("rate", 0.0).unwrap() - 0.2).abs() < 1e-12);
        let a = args("sweep run --telemetry");
        assert!(a.flags.contains_key("telemetry"));
    }

    #[test]
    fn anatomy_flags_parse() {
        // --anatomy is bare in both surfaces that accept it.
        let a = args("sim --anatomy --rate 0.3");
        assert!(a.flags.contains_key("anatomy"));
        assert!((a.get::<f64>("rate", 0.0).unwrap() - 0.3).abs() < 1e-12);
        let a = args("sweep run --anatomy --preset smoke");
        assert!(a.flags.contains_key("anatomy"));
        assert_eq!(a.positional, vec!["sweep", "run"]);
        // --anatomy-out implies --anatomy in cmd_sim; it and --top-k take
        // a value.
        let a = args("sim --anatomy-out dump.jsonl --top-k 3");
        assert_eq!(
            a.flags.get("anatomy-out").map(String::as_str),
            Some("dump.jsonl")
        );
        assert_eq!(a.get::<usize>("top-k", DEFAULT_ANATOMY_TOP_K).unwrap(), 3);
    }

    #[test]
    fn serve_and_client_flags_parse() {
        // --workers takes a value (the pool width).
        let a = args("serve --workers 2 --quiet");
        assert_eq!(a.positional, vec!["serve"]);
        assert_eq!(a.get::<usize>("workers", 8).unwrap(), 2);
        let a = args("serve --addr 127.0.0.1:0 --quiet");
        assert_eq!(a.flags.get("addr").map(String::as_str), Some("127.0.0.1:0"));
        assert!(a.flags.contains_key("quiet"));
        // --status is a bare flag on the client side.
        let a = args("client --status --addr 127.0.0.1:4009");
        assert!(a.flags.contains_key("status"));
        assert_eq!(a.positional, vec!["client"]);
        let a = args("client --preset smoke --id c1");
        assert_eq!(a.flags.get("preset").map(String::as_str), Some("smoke"));
        assert_eq!(a.flags.get("id").map(String::as_str), Some("c1"));
    }

    #[test]
    fn routing_override_table() {
        assert_eq!(args("sim").routing_override().unwrap(), None);
        assert_eq!(
            args("sim --routing dor").routing_override().unwrap(),
            Some(RoutingKind::DimensionOrder)
        );
        assert_eq!(
            args("sim --routing dateline").routing_override().unwrap(),
            Some(RoutingKind::TorusDateline)
        );
        assert_eq!(
            args("sim --routing nodateline").routing_override().unwrap(),
            Some(RoutingKind::TorusNoDateline)
        );
        assert!(args("sim --routing minimal").routing_override().is_err());
    }

    #[test]
    fn allocator_kind_table() {
        for (s, k) in [
            ("sep_if_rr", AllocatorKind::SepIfRr),
            ("sep_if_m", AllocatorKind::SepIfMatrix),
            ("sep_of_rr", AllocatorKind::SepOfRr),
            ("sep_of_m", AllocatorKind::SepOfMatrix),
            ("wf", AllocatorKind::Wavefront),
        ] {
            let a = args(&format!("synth vca --alloc {s}"));
            assert_eq!(a.alloc_kind().unwrap(), k, "{s}");
        }
    }
}
