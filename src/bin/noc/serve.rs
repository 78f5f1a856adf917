//! `noc serve` and `noc client`: the sweep daemon and one request to it.

use crate::args::{read_spec, sweep_options, Args};

/// Default serve worker-pool width: one simulation per core, capped.
fn default_serve_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(2)
}

/// `noc serve` — the sweep-as-a-service daemon.
pub(crate) fn cmd_serve(args: &Args) -> Result<(), String> {
    use noc_bench::sweep::serve::{start, ServeOptions};
    let store = sweep_options(args);
    let workers = args.get("workers", default_serve_workers())?;
    let opts = ServeOptions {
        addr: args.addr(),
        cache_dir: store.cache_dir,
        out_dir: store.out_dir,
        workers,
        quiet: store.quiet,
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
pub(crate) fn cmd_client(args: &Args) -> Result<(), String> {
    use noc_bench::sweep::serve::request;
    use noc_obs::{
        serve_preset_request_line, serve_status_request_line, serve_sweep_request_line, ServeEvent,
    };
    let addr = args.addr();
    let id = args
        .flags
        .get("id")
        .cloned()
        .unwrap_or_else(|| format!("cli-{}", std::process::id()));
    let status = args.flags.contains_key("status");
    let line = match (status, args.flags.get("preset"), args.flags.get("spec")) {
        (true, None, None) => serve_status_request_line(&id),
        (false, Some(name), None) => serve_preset_request_line(&id, name),
        // Validated client-side, so a typo fails with the spec grammar's
        // diagnostics instead of a remote error line.
        (false, None, Some(path)) => serve_sweep_request_line(&id, &read_spec(path)?.0, None),
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
