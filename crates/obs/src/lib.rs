#![forbid(unsafe_code)]
//! Flit-level observability for the NoC simulator.
//!
//! Three layers, usable independently:
//!
//! - [`event`]: a [`TraceSink`] trait receiving one [`FlitEvent`] per
//!   flit-lifecycle step (injection, routing, VC allocation, switch
//!   allocation, switch traversal, ejection). The sink is selected at
//!   compile time through a generic parameter on the simulator, and the
//!   no-op sink ([`NopSink`]) advertises `ACTIVE = false` so every
//!   instrumentation site folds to nothing — tracing costs zero when off.
//! - [`metrics`]: always-on per-router counters ([`RouterObs`]) with
//!   **stall-cause attribution** — every input VC is classified each cycle
//!   as moving a flit, stalled on credits, stalled on VC allocation,
//!   stalled on switch allocation, or empty. The windowed series of
//!   occupancy and channel utilization is the flight recorder's
//!   ([`timeseries`]).
//! - [`export`]: machine-readable encoders — long-format CSV and JSON
//!   lines for the metrics, and the Chrome Trace Event Format (loadable
//!   in `chrome://tracing` / Perfetto) for the packet timeline.
//! - [`hist`]: a log-linear HDR-style latency histogram with bounded
//!   relative error, exact low-latency buckets, and interpolated
//!   percentile queries — the substrate for every reported quantile.
//! - [`profile`]: self-profiling. A [`PhaseProfiler`] attributes
//!   wall-time and event rates to the router pipeline phases (routing,
//!   VC allocation, switch allocation, traversal, credits); the no-op
//!   implementation compiles every clock read away, mirroring the sink
//!   design.
//! - [`json`]: the JSON codec every artefact goes through — a strict,
//!   depth-bounded reader with typed accessors and a streaming writer —
//!   so specs, requests, dumps and summaries need no external crate.
//! - [`digest`]: order-sensitive FNV-1a trace digests ([`DigestSink`]),
//!   the substrate of the cycle-exact engine-equivalence and golden-trace
//!   test layers.
//! - [`progress`]: a thread-safe progress/ETA meter for long experiment
//!   sweeps; the manifest exporter in [`export`] records how each sweep
//!   point was satisfied (computed / cache / journal).
//! - [`timeseries`]: the flight recorder ([`FlightRecorder`]) —
//!   windowed per-router counter snapshots ([`WindowSnapshot`]), every
//!   window of a recorded run or a bounded ring for the watchdog's guard,
//!   and the consecutive-stalled-window signal the simulator's deadlock
//!   watchdog trips on.
//! - [`record`]: the `noc-telemetry/v1` dump format (JSON Lines) and the
//!   derived per-run [`TelemetrySummary`] — shared between live recording
//!   and `noc replay`, so a replayed dump summarizes byte-identically.
//! - [`top`]: terminal frames for `noc top` (congestion heatmap +
//!   matching-efficiency sparkline), rendered as plain strings.
//! - [`anatomy`]: the per-packet latency ledger behind `noc sim --anatomy` —
//!   hop-by-hop stage attribution ([`HopRecord`]), the folding collector
//!   ([`AnatomyCollector`]) with exact reconciliation against end-to-end
//!   latency, and the `noc-anatomy/v1` dump format with a replay-identical
//!   blame report ([`AnatomySummary`]).
//! - [`serve`]: the `noc-serve/v1` wire schema for the sweep-as-a-service
//!   daemon — request/response/progress line builders and the
//!   [`ServeEvent`] client-side parser.

pub mod anatomy;
pub mod digest;
pub mod event;
pub mod export;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod progress;
pub mod record;
pub mod serve;
pub mod timeseries;
pub mod top;

pub use anatomy::{
    check_reconciliation, render_waterfall, write_anatomy_dump, AnatomyCollector, AnatomyDump,
    AnatomyHeader, AnatomySummary, AnatomyTotals, HopRecord, PacketAnatomy, Waterfall,
    ANATOMY_CAPACITY, ANATOMY_SCHEMA, STAGE_COUNT, STAGE_NAMES,
};
pub use digest::DigestSink;
pub use event::{FlitEvent, FlitEventKind, NopSink, TraceSink, VecSink};
pub use export::{
    chrome_trace, metrics_csv, metrics_jsonl, sweep_manifest_json, PercentileTable,
    SweepManifestPoint,
};
pub use hist::{HdrHistogram, DEFAULT_QUANTILES};
pub use json::{validate_json, JsonValue, JsonWriter, ToJson};
pub use metrics::{RouterBreakdown, RouterObs, StallCounters};
pub use profile::{NopProfiler, Phase, PhaseProfiler, Profiler, PHASES};
pub use progress::ProgressMeter;
pub use record::{
    write_telemetry_dump, TelemetryDump, TelemetryHeader, TelemetrySummary, TELEMETRY_SCHEMA,
};
pub use serve::{
    serve_accepted_line, serve_done_line, serve_error_line, serve_preset_request_line,
    serve_result_line, serve_status_line, serve_status_request_line, serve_sweep_request_line,
    ServeEvent, SERVE_SCHEMA,
};
pub use timeseries::{FlightRecorder, RouterCounters, WindowSnapshot};
pub use top::render_top;
