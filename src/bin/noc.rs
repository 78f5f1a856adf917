#![forbid(unsafe_code)]
//! `noc` — command-line front end for the allocator study toolkit.
//!
//! Run `noc help` (or any subcommand with `--help`) for the commands and
//! their flags: the usage lines of [`HELP`] are the parser's grammar.
//! Argument parsing is deliberately dependency-free.

// A crate root resolves `mod` next to itself: each module names its file
// under `noc/`, one per command group over the shared argument layer.
#[path = "noc/args.rs"]
mod args;
#[path = "noc/design.rs"]
mod design;
#[path = "noc/dump.rs"]
mod dump;
#[path = "noc/serve.rs"]
mod serve;
#[path = "noc/sim.rs"]
mod sim;
#[path = "noc/sweep.rs"]
mod sweep;

use args::{usage_grammar, Args};
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

fn cmd_help(_: &Args) -> Result<(), String> {
    println!("{HELP}");
    Ok(())
}

type Command = fn(&Args) -> Result<(), String>;

/// Every subcommand with its handler: `main` dispatches on the name, and
/// the command takes exactly the flags of its `noc NAME` usage lines in
/// [`HELP`]; any other flag is refused.
const COMMANDS: &[(&str, Command)] = &[
    ("sim", sim::cmd_sim),
    ("check", design::cmd_check),
    ("synth", design::cmd_synth),
    ("quality", design::cmd_quality),
    ("fig", sweep::cmd_fig),
    ("sweep", sweep::cmd_sweep),
    ("serve", serve::cmd_serve),
    ("client", serve::cmd_client),
    ("top", dump::cmd_top),
    ("replay", dump::cmd_replay),
    ("help", cmd_help),
];

fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    let name = args.positional.first().map_or("help", String::as_str);
    let command = COMMANDS.iter().find(|(n, _)| *n == name);
    let grammar = usage_grammar(HELP);
    let usage = grammar.iter().find(|(n, _)| *n == name);
    let (Some((_, cmd)), Some((_, flags))) = (command, usage) else {
        return Err(format!("unknown command '{name}'\n\n{HELP}"));
    };
    // A flag some other command takes is not silently ignored by this one:
    // the first such on the command line is named.
    let takes = |k: &str| flags.iter().any(|(flag, _)| *flag == k);
    let mut given = argv.iter().filter_map(|a| a.strip_prefix("--"));
    match given.find(|k| args.flags.contains_key(*k) && !takes(k)) {
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
#[path = "noc/tests.rs"]
mod tests;
