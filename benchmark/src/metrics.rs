//! The names the benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repo root lists exactly these
//! (a unit test compares the two).

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: name, unit, direction and — for end-to-end metrics — the
/// share of the parent's median by which it may worsen.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

/// Which layer stack a workload drives at full size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Sim,
    Alloc,
    Sweep,
    Serve,
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub family: Family,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "mesh_heavy",
        family: Family::Sim,
        why: "8x8 mesh at rate 0.36, just under the knee: every router allocates every cycle, so core kernels and router stages do most of the work",
    },
    WorkloadDef {
        name: "mesh_idle",
        family: Family::Sim,
        why: "same mesh at rate 0.05: almost no VC has a request, so per-router fixed cost and network bookkeeping dominate and kernel speed-ups should not show",
    },
    WorkloadDef {
        name: "fbfly_wf",
        family: Family::Sim,
        why: "flattened butterfly (P=10, V=16, UGAL) with wavefront allocation and grant masking: the same layers used differently, so a mesh/sep_if-only gain shows as a loss here",
    },
    WorkloadDef {
        name: "alloc_open_loop",
        family: Family::Alloc,
        why: "the paper's open-loop method: pre-generated request sets replayed through 8 allocators x 2 shapes x 2 rates, so core does all the work and router/network/sweep none",
    },
    WorkloadDef {
        name: "sweep_cold",
        family: Family::Sweep,
        why: "a 72-point run_sweep into empty dirs on both cores: many short points, so construct, summarize, JSON, cache store and the fsynced journal are paid 72 times",
    },
    WorkloadDef {
        name: "serve_warm",
        family: Family::Serve,
        why: "closed loop, 2 clients re-asking an in-process daemon for cached 16-point grids over TCP: accept loop, request parse, cache load, line streaming",
    },
];

pub const ALLOCS: [&str; 8] = [
    "vc_sparse_sepif",
    "vc_dense_sepif",
    "vc_dense_wf",
    "sw_sepif",
    "sw_sepof",
    "sw_wf",
    "spec_pess",
    "spec_conv",
];
pub const SHAPES: [&str; 2] = ["p5v4", "p10v16"];
pub const RATES: [&str; 2] = ["r05", "r50"];
pub const PHASES: [&str; 5] = ["route", "vc_alloc", "sw_alloc", "traversal", "credit"];
pub const ENGINES: [&str; 4] = ["seq", "active", "par1", "par2"];

/// The shape and rate the reference-ratio, matching-efficiency and
/// speculation-kill metrics are taken at.
pub const FAT_CELL: &str = "p10v16.r50";

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// The ten end-to-end metrics, measured with tracing off.
///
/// Host-time rates are in calibrated host seconds (see `meter`), and their
/// bounds are about three times the run-to-run spread the reference box
/// shows, not the 8 % a quiet machine would allow. The simulated metrics
/// repeat exactly for a seed; their bound covers the spread between seeds.
/// The tail latency is p90, the highest percentile with ten samples beyond
/// it in every workload's run; p99 is the per-layer `serve.request_p99_ms`.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    [
        ("setup_s", "s", Lower, 0.25),
        ("sim_cycles_per_s", "cycles/s", Higher, 0.25),
        ("sim_latency_cycles", "cycles", Lower, 0.05),
        ("sim_accepted_rate", "flits/cyc/term", Higher, 0.03),
        ("allocs_per_s", "allocs/s", Higher, 0.20),
        ("points_per_s", "points/s", Higher, 0.25),
        ("requests_per_s", "requests/s", Higher, 0.10),
        ("request_p50_ms", "ms", Lower, 0.10),
        ("request_p90_ms", "ms", Lower, 0.10),
        ("peak_rss_mb", "MB", Lower, 0.20),
    ]
    .into_iter()
    .map(|(name, unit, better, bound)| MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    })
    .collect()
}

/// The per-layer metrics a traced run prints, in ladder order.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut m = vec![
        def("trace_overhead_share", "share", Lower),
        def("arbiter.rr.w16.ns_per_pick", "ns", Lower),
        def("arbiter.matrix.w16.ns_per_pick", "ns", Lower),
    ];
    for alloc in ALLOCS {
        for shape in SHAPES {
            for rate in RATES {
                m.push(def(
                    format!("core.{alloc}.{shape}.{rate}.ns_per_call"),
                    "ns",
                    Lower,
                ));
            }
        }
    }
    // The sparse VC allocator has no reference constructor.
    for alloc in &ALLOCS[1..] {
        m.push(def(
            format!("core.{alloc}.{FAT_CELL}.ref_ratio"),
            "ratio",
            Higher,
        ));
    }
    for alloc in &ALLOCS[..6] {
        m.push(def(
            format!("core.{alloc}.{FAT_CELL}.match_efficiency"),
            "ratio",
            Higher,
        ));
    }
    for alloc in &ALLOCS[6..] {
        m.push(def(
            format!("core.{alloc}.{FAT_CELL}.spec_kill_share"),
            "share",
            Lower,
        ));
    }
    m.push(def("router.idle_step_ns.p5v4", "ns", Lower));
    m.push(def("router.idle_step_ns.p10v16", "ns", Lower));
    for phase in PHASES {
        m.push(def(format!("router.phase.{phase}.share"), "share", Lower));
        m.push(def(
            format!("router.phase.{phase}.ns_per_event"),
            "ns",
            Lower,
        ));
    }
    m.push(def("router.phase.other_share", "share", Lower));
    m.push(def("sim.profiled_slowdown", "ratio", Lower));
    m.push(def("network.construct_ms", "ms", Lower));
    for engine in ENGINES {
        m.push(def(format!("network.{engine}.ns_per_cycle"), "ns", Lower));
    }
    m.push(def("network.ns_per_router_cycle", "ns", Lower));
    for (name, unit) in [
        ("sim.summarize_us", "us"),
        ("sim.to_json_us", "us"),
        ("sim.flit_hops", "count"),
        ("sim.vc_alloc_events", "count"),
        ("sim.sw_alloc_events", "count"),
        ("sim.host_ns_per_flit_hop", "ns"),
        ("sim.engine_mismatches", "count"),
        ("sim.digest_changed", "count"),
        ("sweep.expand_us_per_point", "us"),
        ("sweep.digest_us_per_point", "us"),
        ("sweep.cache_store_us", "us"),
        ("sweep.cache_load_us", "us"),
        ("sweep.journal_append_us", "us"),
    ] {
        m.push(def(name, unit, Lower));
    }
    m.push(def("sweep.worker_utilisation", "share", Higher));
    m.push(def("sweep.overhead_share", "share", Lower));
    m.push(def("sweep.warm_points_per_s", "points/s", Higher));
    m.push(def("sweep.resume_points_per_s", "points/s", Higher));
    m.push(def("serve.cold.points_per_s", "points/s", Higher));
    m.push(def("serve.cold.coalesced_share", "share", Higher));
    m.push(def("serve.cold.computed_over_unique", "ratio", Lower));
    m.push(def("serve.connect_to_accepted_ms", "ms", Lower));
    m.push(def("serve.accepted_to_done_ms", "ms", Lower));
    m.push(def("serve.request_p99_ms", "ms", Lower));
    m.push(def("serve.proto_parse_us", "us", Lower));
    m.push(def("serve.bytes_per_request", "bytes", Lower));
    m.push(def("serve.error_replies", "count", Lower));
    m.push(def("obs.json_parse_mb_per_s", "MB/s", Higher));
    m.push(def("obs.simresult_from_json_us", "us", Lower));
    m.push(def("quality.vc_curve_ms", "ms", Lower));
    m.push(def("quality.sw_curve_ms", "ms", Lower));
    m
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_obs::JsonValue;
    use std::collections::BTreeSet;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for m in end_to_end().iter().chain(per_layer().iter()) {
            assert!(name_ok(&m.name), "bad metric name {}", m.name);
            assert!(unit_ok(m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(seen.insert(m.name.clone()), "duplicate name {}", m.name);
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name));
            assert!(seen.insert(w.name.to_string()), "duplicate name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert_eq!(end_to_end().len(), 10);
        assert!(per_layer().len() <= 128);
        for m in end_to_end() {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    fn text(v: &JsonValue, key: &str) -> String {
        v.get(key)
            .and_then(JsonValue::as_str)
            .expect("string member")
            .to_string()
    }

    /// `(name, unit, better, bound)` rows of one manifest array.
    fn manifest_rows(doc: &JsonValue, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .expect("manifest array")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(JsonValue::as_f64),
                )
            })
            .collect()
    }

    fn table_rows(defs: &[MetricDef]) -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|m| {
                (
                    m.name.clone(),
                    m.unit.to_string(),
                    m.better.label().to_string(),
                    m.bound,
                )
            })
            .collect()
    }

    #[test]
    fn manifest_lists_exactly_what_is_printed() {
        let doc = JsonValue::parse(MANIFEST).expect("BENCHMARK.json parses");
        assert_eq!(manifest_rows(&doc, "end_to_end"), table_rows(&end_to_end()));
        assert_eq!(manifest_rows(&doc, "per_layer"), table_rows(&per_layer()));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads array")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(JsonValue::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
