//! `noc sim`: one network simulation, every observer on the same run.

use crate::args::{run_window, sim_config, Args};
use noc_obs::json::Raw;
use noc_obs::{
    check_reconciliation, chrome_trace, metrics_csv, metrics_jsonl, render_top, render_waterfall,
    write_anatomy_dump, write_telemetry_dump, AnatomyCollector, FlightRecorder, JsonWriter,
    Profiler, VecSink, WindowSnapshot, ANATOMY_SCHEMA, PHASES, TELEMETRY_SCHEMA,
};
use noc_sim::{Run, TelemetryOptions, MAX_SEEDS};
use std::path::Path;

/// Default slowest-packet waterfall count of `noc sim --anatomy`.
pub(crate) const DEFAULT_ANATOMY_TOP_K: usize = 4;

pub(crate) fn cmd_sim(args: &Args) -> Result<(), String> {
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
    let out = match outcome {
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
