//! Machine-readable exporters: long-format CSV, JSON lines, and the
//! Chrome Trace Event Format.
//!
//! The CSV and JSONL encoders share one long (tidy) schema —
//! `record,cycle,router,port,vc,name,value` — that loads directly into
//! pandas or DuckDB. Every row is a run-total counter (`record` is
//! `counter`, `cycle` is empty); the per-window series is the
//! `noc-telemetry/v1` dump of `noc sim --record`.
//!
//! The Chrome encoder emits a JSON object with a `traceEvents` array
//! loadable in `chrome://tracing` or Perfetto: one complete (`"X"`) slice
//! per flit event on a `pid = router`, `tid = port·256 + vc` lane, plus one
//! async `"b"`/`"e"` pair per packet spanning injection to last ejection.

use crate::event::{FlitEvent, FlitEventKind};
use crate::json::{JsonWriter, ToJson};
use crate::metrics::RouterObs;
use std::collections::HashMap;
use std::fmt::Write as _;

/// One counter row of the long-format export; `vc` is absent on the
/// per-port `out_flits` rows.
struct Row {
    router: usize,
    port: usize,
    vc: Option<usize>,
    name: &'static str,
    value: u64,
}

/// The run-total counter rows: five stall counters per VC, then one
/// `out_flits` per output port, router by router.
fn rows(routers: &[RouterObs]) -> impl Iterator<Item = Row> + '_ {
    routers.iter().enumerate().flat_map(|(r, obs)| {
        let per_vc = obs.vc.iter().enumerate().flat_map(move |(idx, s)| {
            let (port, vc) = (idx / obs.vcs, idx % obs.vcs);
            [
                ("active", s.active),
                ("credit_stall", s.credit_stall),
                ("vca_stall", s.vca_stall),
                ("sa_stall", s.sa_stall),
                ("empty", s.empty),
            ]
            .into_iter()
            .map(move |(name, v)| Row {
                router: r,
                port,
                vc: Some(vc),
                name,
                value: v,
            })
        });
        let per_port = obs.out_flits.iter().enumerate().map(move |(p, &v)| Row {
            router: r,
            port: p,
            vc: None,
            name: "out_flits",
            value: v,
        });
        per_vc.chain(per_port)
    })
}

/// Encodes the metrics as long-format CSV with a header row.
pub fn metrics_csv(routers: &[RouterObs]) -> String {
    let mut out = String::from("record,cycle,router,port,vc,name,value\n");
    for row in rows(routers) {
        let vc = row.vc.map(|v| v.to_string()).unwrap_or_default();
        let (r, p, name, v) = (row.router, row.port, row.name, row.value);
        let _ = writeln!(out, "counter,,{r},{p},{vc},{name},{v}");
    }
    out
}

/// Encodes the metrics as JSON lines (one object per row of the same long
/// schema; absent coordinates are omitted).
pub fn metrics_jsonl(routers: &[RouterObs]) -> String {
    let mut w = JsonWriter::default();
    for row in rows(routers) {
        w.begin_object()
            .field("record", "counter")
            .field("router", row.router)
            .field("port", row.port)
            .opt_field("vc", row.vc)
            .field("name", row.name)
            .field("value", row.value)
            .end_object()
            .newline();
    }
    w.finish()
}

/// Encodes a flit-event trace in the Chrome Trace Event Format.
pub fn chrome_trace(events: &[FlitEvent]) -> String {
    let mut w = JsonWriter::default();
    w.begin_object()
        .field("displayTimeUnit", "ns")
        .key("traceEvents")
        .begin_lines();
    // Packet lifetime spans: injection of the head flit to the last
    // ejection seen.
    let mut spans: HashMap<u64, (u64, u64)> = HashMap::new();
    for ev in events {
        if ev.kind == FlitEventKind::Inject {
            spans.entry(ev.packet_id).or_insert((ev.cycle, ev.cycle));
        }
        if ev.kind == FlitEventKind::Eject {
            spans
                .entry(ev.packet_id)
                .and_modify(|s| s.1 = s.1.max(ev.cycle))
                .or_insert((ev.cycle, ev.cycle));
        }
    }
    let mut span_list: Vec<_> = spans.into_iter().collect();
    span_list.sort_unstable();
    for (id, (start, end)) in span_list {
        for (ph, ts) in [("b", start), ("e", end.max(start + 1))] {
            w.begin_object()
                .field("name", "packet")
                .field("cat", "packet")
                .field("ph", ph)
                .field("id", format_args!("{id:x}"))
                .field("ts", ts)
                .field("pid", 0u64)
                .field("tid", 0u64)
                .end_object();
        }
    }
    for ev in events {
        w.begin_object()
            .field("name", ev.kind.name())
            .field("cat", "flit")
            .field("ph", "X")
            .field("ts", ev.cycle)
            .field("dur", 1u64)
            .field("pid", ev.router)
            .field("tid", (ev.port as u32) * 256 + ev.vc as u32)
            .key("args")
            .begin_object()
            .field("packet", format_args!("{:x}", ev.packet_id))
            .field("flit", ev.flit_index)
            .end_object()
            .end_object();
    }
    w.end_array().end_object().newline();
    w.finish()
}

/// One row of a sweep manifest: how a single experiment point was
/// satisfied on the most recent run.
pub struct SweepManifestPoint {
    /// Human-readable point label.
    pub label: String,
    /// Content digest keying the cached result.
    pub digest: String,
    /// How the point was satisfied: `computed`, `cache` (result file
    /// existed) or `journal` (already journaled, not touched at all).
    pub source: &'static str,
    /// Wall-clock cost of satisfying the point, in milliseconds.
    pub wall_ms: u64,
    /// File name of this point's `noc-telemetry/v1` dump (relative to the
    /// sweep's cache directory), when one was recorded for this digest.
    pub telemetry: Option<String>,
    /// File name of this point's `noc-anatomy/v1` dump (relative to the
    /// sweep's cache directory), when one was recorded for this digest.
    pub anatomy: Option<String>,
}

impl ToJson for SweepManifestPoint {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("label", &self.label)
            .field("digest", &self.digest)
            .field("source", self.source)
            .field("wall_ms", self.wall_ms)
            .opt_field("telemetry", self.telemetry.as_ref())
            .opt_field("anatomy", self.anatomy.as_ref())
            .end_object();
    }
}

/// Encodes a sweep-run manifest (schema `noc-sweep-manifest/v1`) as one
/// JSON document: identity (name, sweep schema, spec digest), hit/miss
/// accounting for the run, and one row per point. The hit counts are the
/// machine-checkable record that a resumed or repeated sweep recomputed
/// nothing.
#[allow(clippy::too_many_arguments)]
pub fn sweep_manifest_json(
    name: &str,
    schema: &str,
    spec_digest: &str,
    computed: usize,
    cache_hits: usize,
    journal_skips: usize,
    wall_ms: u64,
    points: &[SweepManifestPoint],
) -> String {
    let mut w = JsonWriter::default();
    w.begin_object()
        .field("schema", "noc-sweep-manifest/v1")
        .field("name", name)
        .field("sweep_schema", schema)
        .field("spec_digest", spec_digest)
        .field("points", points.len())
        .field("computed", computed)
        .field("cache_hits", cache_hits)
        .field("journal_skips", journal_skips)
        .field("wall_ms", wall_ms)
        .field("results", points)
        .end_object();
    w.finish()
}

/// A percentile table (as produced by
/// [`HdrHistogram::percentile_table`](crate::HdrHistogram::percentile_table))
/// as one JSON object, `{"p50": .., "p99": ..}`, with NaN mapped to
/// `null`. Quantiles are named by their value in basis points of 100
/// (`0.999` → `"p999"`, `1.0` → `"max"`).
pub struct PercentileTable<'a>(pub &'a [(f64, f64)]);

impl ToJson for PercentileTable<'_> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        for &(q, v) in self.0 {
            // 0.5 -> p50, 0.99 -> p99, 0.999 -> p999.
            let pct = q * 100.0;
            if q >= 1.0 {
                w.field("max", v);
            } else if pct.fract().abs() < 1e-9 {
                w.field(&format!("p{}", pct.round() as u64), v);
            } else {
                w.field(&format!("p{}", (q * 1000.0).round() as u64), v);
            }
        }
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;
    use crate::metrics::StallCounters;

    fn sample_obs() -> Vec<RouterObs> {
        let mut a = RouterObs::new(2, 2);
        a.out_flits = vec![10, 3];
        a.vc[0] = StallCounters {
            active: 5,
            credit_stall: 1,
            vca_stall: 2,
            sa_stall: 3,
            empty: 89,
        };
        let b = RouterObs::new(2, 2);
        vec![a, b]
    }

    #[test]
    fn csv_has_uniform_field_counts() {
        let csv = metrics_csv(&sample_obs());
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(header, "record,cycle,router,port,vc,name,value");
        let cols = header.split(',').count();
        let mut n = 0;
        for l in lines {
            assert_eq!(l.split(',').count(), cols, "ragged row: {l}");
            n += 1;
        }
        // 2 routers × (2 ports × 2 vcs × 5 counters + 2 out_flits).
        assert_eq!(n, 2 * (2 * 2 * 5 + 2));
        assert!(csv.contains("counter,,0,0,0,credit_stall,1"));
        assert!(csv.contains("counter,,0,1,,out_flits,3"));
    }

    #[test]
    fn jsonl_rows_are_valid_json() {
        let jsonl = metrics_jsonl(&sample_obs());
        let mut n = 0;
        for line in jsonl.lines() {
            validate_json(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            n += 1;
        }
        assert_eq!(n, 2 * (2 * 2 * 5 + 2));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_packet_spans() {
        let mk = |cycle, kind, packet_id| FlitEvent {
            cycle,
            kind,
            router: 1,
            port: 2,
            vc: 1,
            packet_id,
            flit_index: 0,
        };
        let events = vec![
            mk(10, FlitEventKind::Inject, 7),
            mk(11, FlitEventKind::VcaRequest, 7),
            mk(12, FlitEventKind::SwitchTraversal, 7),
            mk(20, FlitEventKind::Eject, 7),
        ];
        let trace = chrome_trace(&events);
        validate_json(&trace).unwrap();
        assert!(trace.contains("\"ph\":\"b\""));
        assert!(trace.contains("\"ph\":\"e\""));
        assert!(trace.contains("\"name\":\"switch_traversal\""));
    }

    #[test]
    fn empty_trace_still_valid() {
        validate_json(&chrome_trace(&[])).unwrap();
    }

    #[test]
    fn percentile_table_json_names_and_nulls() {
        let table = [(0.5, 12.0), (0.9, 20.0), (0.999, 31.5), (1.0, f64::NAN)];
        let json = PercentileTable(&table).to_json();
        validate_json(&json).unwrap();
        assert_eq!(json, "{\"p50\":12,\"p90\":20,\"p999\":31.5,\"max\":null}");
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "{\"a\":[1,2.5,-3e2,true,false,null,\"x\\n\"]}",
            "  42  ",
            "\"\\u00e9\"",
        ] {
            validate_json(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        for bad in [
            "{",
            "[1,]",
            "{\"a\":}",
            "01x",
            "\"unterminated",
            "{}extra",
            "{'a':1}",
        ] {
            assert!(validate_json(bad).is_err(), "accepted: {bad}");
        }
    }
}
