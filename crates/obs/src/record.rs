//! `noc-telemetry/v1` — the flight-recorder dump format and run summary.
//!
//! A telemetry dump is JSON Lines: one header object, then one object per
//! closed window. The header carries the identity of the run (the
//! `SimConfig::digest` content hash plus a human label) and the sampling
//! parameters needed to interpret the series; each window line carries the
//! network-level flit motion and a compact per-router counter row. Every
//! value is either an integer counter or a content-hash string, so dumps
//! from cycle-identical runs are byte-identical.
//!
//! [`TelemetrySummary`] is the derived per-run digest of the same series —
//! the `telemetry` block embedded in a `SimResult` JSON report. It is
//! computed by the same code whether the source is a live
//! [`crate::FlightRecorder`] or a parsed dump, so
//! `noc replay <dump>` reproduces the in-process summary byte for byte.

use crate::json::{narrow, JsonValue, JsonWriter, ToJson};
use crate::timeseries::{FlightRecorder, RouterCounters, WindowSnapshot};
use std::path::Path;

/// Schema tag written into every dump header and summary block.
pub const TELEMETRY_SCHEMA: &str = "noc-telemetry/v1";

/// Identity and sampling parameters of a telemetry dump (the first JSONL
/// line).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryHeader {
    /// Content digest of the recorded configuration + run window
    /// (`SimConfig::digest`), keying the dump to its cached result.
    pub digest: String,
    /// Human-readable design-point label (`mesh 2x1x2 @ 0.3`, ...).
    pub label: String,
    /// Window length in cycles.
    pub window: u64,
    /// Matching-efficiency sampling period: one sampled cycle every
    /// `match_every` windows; 0 means matching sampling was off.
    pub match_every: u64,
    /// Router count (length of each window line's `routers` array).
    pub routers: usize,
    /// Warmup cycles of the recorded run.
    pub warmup: u64,
    /// Measurement cycles of the recorded run.
    pub measure: u64,
}

impl ToJson for TelemetryHeader {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("schema", TELEMETRY_SCHEMA)
            .field("digest", &self.digest)
            .field("label", &self.label)
            .field("window", self.window)
            .field("match_every", self.match_every)
            .field("routers", self.routers)
            .field("warmup", self.warmup)
            .field("measure", self.measure)
            .end_object();
    }
}

/// Writes the windows `rec` kept to `path` as a `noc-telemetry/v1` dump.
/// The caller names the run: `digest` keys the dump to its result and
/// `label` titles it; the header's window length and matching cadence are
/// the recorder's.
pub fn write_telemetry_dump(
    path: &Path,
    rec: &FlightRecorder,
    digest: String,
    label: String,
    routers: usize,
    warmup: u64,
    measure: u64,
) -> Result<(), String> {
    let header = TelemetryHeader {
        digest,
        label,
        window: rec.window(),
        match_every: rec.match_every(),
        routers,
        warmup,
        measure,
    };
    std::fs::write(path, rec.to_jsonl(&header))
        .map_err(|e| format!("cannot write telemetry dump '{}': {e}", path.display()))
}

impl TelemetryHeader {
    fn from_value(v: &JsonValue) -> Result<TelemetryHeader, String> {
        v.expect_schema(TELEMETRY_SCHEMA)?;
        Ok(TelemetryHeader {
            digest: v.str_at("digest")?.to_string(),
            label: v.text_at("label")?,
            window: v.u64_at("window")?,
            match_every: v.u64_at("match_every")?,
            routers: v.usize_at("routers")?,
            warmup: v.u64_at("warmup")?,
            measure: v.u64_at("measure")?,
        })
    }
}

/// One window line. Router rows are fixed-order 10-tuples:
/// `[out_flits, occupancy, busy_vcs, active, credit, vca, sa, empty,
/// match_granted, match_max]`.
impl ToJson for WindowSnapshot {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("window", self.window)
            .field("cycle", self.cycle)
            .field("injected", self.injected)
            .field("ejected", self.ejected)
            .field("in_flight", self.in_flight)
            .key("routers")
            .begin_array();
        for r in &self.routers {
            w.value([
                r.out_flits,
                r.occupancy as u64,
                r.busy_vcs as u64,
                r.active,
                r.credit_stall,
                r.vca_stall,
                r.sa_stall,
                r.empty,
                r.match_granted,
                r.match_max,
            ]);
        }
        w.end_array().end_object();
    }
}

fn window_from_value(v: &JsonValue) -> Result<WindowSnapshot, String> {
    let router = |row: &JsonValue| -> Result<RouterCounters, String> {
        let [out_flits, occupancy, busy_vcs, active, credit_stall, vca_stall, sa_stall, empty, match_granted, match_max] =
            row.row()?;
        Ok(RouterCounters {
            out_flits,
            occupancy: narrow(occupancy)?,
            busy_vcs: narrow(busy_vcs)?,
            active,
            credit_stall,
            vca_stall,
            sa_stall,
            empty,
            match_granted,
            match_max,
        })
    };
    Ok(WindowSnapshot {
        window: v.u64_at("window")?,
        cycle: v.u64_at("cycle")?,
        injected: v.u64_at("injected")?,
        ejected: v.u64_at("ejected")?,
        in_flight: v.u64_at("in_flight")?,
        routers: v.list_at("routers", router)?,
    })
}

/// A parsed telemetry dump: header plus every window line, in order.
#[derive(Clone, Debug)]
pub struct TelemetryDump {
    /// The dump header (first line).
    pub header: TelemetryHeader,
    /// All window snapshots, oldest first.
    pub windows: Vec<WindowSnapshot>,
}

impl TelemetryDump {
    /// Parses a full JSONL dump. Blank lines are ignored; any malformed
    /// line is an error (dumps are machine-written).
    pub fn parse(text: &str) -> Result<TelemetryDump, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let first = lines
            .next()
            .ok_or_else(|| "empty telemetry dump".to_string())?;
        let header = TelemetryHeader::from_value(&JsonValue::parse(first)?)
            .map_err(|e| format!("telemetry header: {e}"))?;
        let windows = lines
            .enumerate()
            .map(|(i, line)| {
                (JsonValue::parse(line).and_then(|v| window_from_value(&v)))
                    .map_err(|e| format!("dump line {}: telemetry window: {e}", i + 2))
            })
            .collect::<Result<_, _>>()?;
        Ok(TelemetryDump { header, windows })
    }

    /// The run summary derived from the dump's window series — identical
    /// to the `telemetry` block the recording run embeds in its result.
    pub fn summary(&self) -> TelemetrySummary {
        TelemetrySummary::from_windows(self.header.window, self.windows.iter())
    }
}

/// Per-run summary series: the `telemetry` block of a `SimResult` report.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySummary {
    /// Window length in cycles.
    pub window: u64,
    /// Windows recorded.
    pub windows: u64,
    /// Longest run of consecutive motionless windows with flits in flight.
    pub max_stalled_windows: u64,
    /// Matching efficiency per window (NaN where no matching sample fell).
    pub efficiency: Vec<f64>,
    /// Switch traversals per window, network-wide.
    pub flits: Vec<u64>,
    /// Flits in flight at each window boundary.
    pub in_flight: Vec<u64>,
}

impl TelemetrySummary {
    /// Builds the summary from a window series (a recorder's or a parsed
    /// dump's).
    pub fn from_windows<'a>(
        window: u64,
        windows: impl Iterator<Item = &'a WindowSnapshot>,
    ) -> TelemetrySummary {
        let mut s = TelemetrySummary {
            window,
            windows: 0,
            max_stalled_windows: 0,
            efficiency: Vec::new(),
            flits: Vec::new(),
            in_flight: Vec::new(),
        };
        let mut streak = 0u64;
        for w in windows {
            s.windows += 1;
            s.efficiency.push(w.efficiency());
            s.flits.push(w.flits());
            s.in_flight.push(w.in_flight);
            if w.motionless() {
                streak += 1;
                s.max_stalled_windows = s.max_stalled_windows.max(streak);
            } else {
                streak = 0;
            }
        }
        s
    }

    /// Mean matching efficiency over the windows that carried a sample;
    /// NaN if none did.
    pub fn mean_efficiency(&self) -> f64 {
        let finite: Vec<f64> = self
            .efficiency
            .iter()
            .copied()
            .filter(|e| e.is_finite())
            .collect();
        if finite.is_empty() {
            f64::NAN
        } else {
            finite.iter().sum::<f64>() / finite.len() as f64
        }
    }

    /// Reconstructs a summary from its parsed JSON object.
    pub fn from_value(v: &JsonValue) -> Result<TelemetrySummary, String> {
        let read = || -> Result<TelemetrySummary, String> {
            v.expect_schema(TELEMETRY_SCHEMA)?;
            Ok(TelemetrySummary {
                window: v.u64_at("window")?,
                windows: v.u64_at("windows")?,
                max_stalled_windows: v.u64_at("max_stalled_windows")?,
                efficiency: v.list_at("efficiency", JsonValue::nan_or_f64)?,
                flits: v.list_at("flits", JsonValue::to_u64)?,
                in_flight: v.list_at("in_flight", JsonValue::to_u64)?,
            })
        };
        read().map_err(|e| format!("telemetry summary: {e}"))
    }
}

/// NaN maps to null and floats use shortest-roundtrip formatting, so the
/// block round-trips bit-exactly through [`TelemetrySummary::from_value`].
impl ToJson for TelemetrySummary {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("schema", TELEMETRY_SCHEMA)
            .field("window", self.window)
            .field("windows", self.windows)
            .field("max_stalled_windows", self.max_stalled_windows)
            .field("efficiency", &self.efficiency)
            .field("flits", &self.flits)
            .field("in_flight", &self.in_flight)
            .end_object();
    }
}

impl FlightRecorder {
    /// The run summary over the kept windows — every window of a
    /// recording, so byte-identical to [`TelemetryDump::summary`] over its
    /// dump.
    pub fn summary(&self) -> TelemetrySummary {
        TelemetrySummary::from_windows(self.window(), self.ring())
    }

    /// The dump text: `header`'s line, then one line per kept window.
    fn to_jsonl(&self, header: &TelemetryHeader) -> String {
        let mut text = header.to_json();
        text.push('\n');
        for w in self.ring() {
            text.push_str(&w.to_json());
            text.push('\n');
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;

    fn sample_recorder() -> FlightRecorder {
        let mut rec = FlightRecorder::recording();
        for k in 1..=4u64 {
            let counters = (0..2).map(|r| RouterCounters {
                out_flits: 3 * k + r,
                occupancy: (k % 2) as u32,
                busy_vcs: 1,
                active: 3 * k + r,
                credit_stall: k,
                vca_stall: 2 * k,
                sa_stall: k / 2,
                empty: 10 * k,
                // Matching samples land on even windows only; the values
                // are cumulative (monotone), like every real counter.
                match_granted: 4 * (k / 2),
                match_max: 6 * (k / 2),
            });
            rec.record(100 * k - 1, 6 * k, 5 * k, counters);
        }
        rec
    }

    fn dump_of(rec: &FlightRecorder) -> String {
        rec.to_jsonl(&TelemetryHeader {
            digest: "d".repeat(32),
            label: "mesh 2x1x2".to_string(),
            window: rec.window(),
            match_every: rec.match_every(),
            routers: 2,
            warmup: 0,
            measure: 400,
        })
    }

    #[test]
    fn dump_lines_are_valid_json_and_round_trip() {
        let rec = sample_recorder();
        let text = dump_of(&rec);
        for line in text.lines() {
            validate_json(line).expect(line);
        }
        let dump = TelemetryDump::parse(&text).unwrap();
        assert_eq!(dump.header.window, 100);
        assert_eq!(dump.header.match_every, 1);
        assert_eq!(dump.windows.len(), 4);
        let reparsed: Vec<String> = dump.windows.iter().map(ToJson::to_json).collect();
        let original: Vec<String> = rec.ring().map(ToJson::to_json).collect();
        assert_eq!(reparsed, original);
    }

    #[test]
    fn replayed_summary_matches_live_summary() {
        let rec = sample_recorder();
        let dump = TelemetryDump::parse(&dump_of(&rec)).unwrap();
        assert_eq!(dump.summary().to_json(), rec.summary().to_json());
    }

    #[test]
    fn summary_json_round_trips_bit_exactly() {
        let rec = sample_recorder();
        let s = rec.summary();
        let json = s.to_json();
        validate_json(&json).unwrap();
        let back = TelemetrySummary::from_value(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back.to_json(), json);
        // NaN efficiency entries (windows without samples) survive as null.
        assert!(back.efficiency[0].is_nan());
        assert_eq!(back.efficiency[1], s.efficiency[1]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TelemetryDump::parse("").is_err());
        assert!(TelemetryDump::parse("{\"schema\":\"bogus/v9\"}").is_err());
        let rec = sample_recorder();
        let mut text = dump_of(&rec);
        text.push_str("\n{\"window\":5}");
        assert!(TelemetryDump::parse(&text).is_err());
    }

    #[test]
    fn mean_efficiency_ignores_unsampled_windows() {
        let rec = sample_recorder();
        let s = rec.summary();
        // Samples land on windows 2 and 4, both with efficiency 2/3.
        assert!((s.mean_efficiency() - 2.0 / 3.0).abs() < 1e-12);
    }
}
