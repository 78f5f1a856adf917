//! Golden-trace snapshot tests.
//!
//! A 2,000-cycle deterministic run per topology (paper-baseline router,
//! two VCs per class) is digested flit-event by flit-event and compared
//! against the recording in `results/golden_traces.json`. This pins the
//! simulator's cycle-exact behaviour across refactors: any change to
//! injection order, allocation outcomes, or link timing shows up as a
//! digest mismatch, and the per-cycle digest trail names the first
//! diverging cycle so the offending change is bisectable.
//!
//! When a behaviour change is *intended*, re-bless the recording:
//!
//! ```text
//! NOC_BLESS=1 cargo test --test golden_trace
//! ```

use noc_obs::{DigestSink, JsonValue};
use noc_sim::{Network, SimConfig, TopologyKind};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results/golden_traces.json");
const GOLDEN_SCHEMA: &str = "noc-golden/v1";
const CYCLES: u64 = 2000;

const TOPOLOGIES: [(&str, TopologyKind); 3] = [
    ("mesh8x8", TopologyKind::Mesh8x8),
    ("fbfly4x4", TopologyKind::FlattenedButterfly4x4),
    ("torus8x8", TopologyKind::Torus8x8),
];

fn golden_cfg(kind: TopologyKind) -> SimConfig {
    SimConfig::paper_baseline(kind, 2)
}

fn run_digest(cfg: &SimConfig) -> DigestSink {
    let mut net = Network::with_sink(cfg.clone(), DigestSink::with_cycle_digests());
    net.run(CYCLES);
    let mut sink = net.sink;
    sink.finish_cycles(CYCLES);
    sink
}

/// One recorded topology entry.
struct Golden {
    digest: u64,
    events: u64,
    cycle_digests: Vec<u64>,
}

fn parse_hex64(s: &str) -> u64 {
    u64::from_str_radix(s, 16).unwrap_or_else(|e| panic!("bad hex digest '{s}': {e}"))
}

fn load_golden() -> Vec<(String, Golden)> {
    let text = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "cannot read {GOLDEN_PATH}: {e}\n\
             (first run? bless it with: NOC_BLESS=1 cargo test --test golden_trace)"
        )
    });
    let doc = JsonValue::parse(&text)
        .unwrap_or_else(|e| panic!("golden trace file must be valid JSON: {e}"));
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some(GOLDEN_SCHEMA),
        "unexpected golden trace schema"
    );
    assert_eq!(
        doc.get("cycles").and_then(JsonValue::as_f64),
        Some(CYCLES as f64),
        "golden recording length changed; re-bless with NOC_BLESS=1"
    );
    let Some(topos) = doc.get("topologies") else {
        panic!("missing 'topologies'");
    };
    let JsonValue::Obj(members) = topos else {
        panic!("'topologies' must be an object");
    };
    members
        .iter()
        .map(|(name, entry)| {
            let digest = parse_hex64(
                entry
                    .get("digest")
                    .and_then(JsonValue::as_str)
                    .unwrap_or_else(|| panic!("{name}: missing digest")),
            );
            let events = entry
                .get("events")
                .and_then(JsonValue::as_f64)
                .unwrap_or_else(|| panic!("{name}: missing events"))
                as u64;
            let cycle_digests = entry
                .get("cycle_digests")
                .and_then(JsonValue::as_array)
                .unwrap_or_else(|| panic!("{name}: missing cycle_digests"))
                .iter()
                .map(|v| {
                    parse_hex64(
                        v.as_str()
                            .unwrap_or_else(|| panic!("{name}: cycle digest must be a string")),
                    )
                })
                .collect();
            (
                name.clone(),
                Golden {
                    digest,
                    events,
                    cycle_digests,
                },
            )
        })
        .collect()
}

fn render_golden(entries: &[(String, DigestSink)]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema\":\"{GOLDEN_SCHEMA}\",\"cycles\":{CYCLES},\"topologies\":{{"
    ));
    for (i, (name, sink)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{name}\":{{\"digest\":\"{:016x}\",\"events\":{},\"cycle_digests\":[",
            sink.digest(),
            sink.events()
        ));
        for (c, d) in sink.cycle_digests().iter().enumerate() {
            if c > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{d:016x}\""));
        }
        out.push_str("]}");
    }
    out.push_str("}}\n");
    out
}

fn bless() {
    let entries: Vec<(String, DigestSink)> = TOPOLOGIES
        .iter()
        .map(|&(name, kind)| (name.to_string(), run_digest(&golden_cfg(kind))))
        .collect();
    std::fs::write(GOLDEN_PATH, render_golden(&entries))
        .unwrap_or_else(|e| panic!("cannot write golden trace file: {e}"));
    eprintln!("blessed {} topologies into {GOLDEN_PATH}", entries.len());
}

#[test]
fn golden_traces_match_recorded() {
    if std::env::var("NOC_BLESS").is_ok_and(|v| v == "1") {
        bless();
        return;
    }
    let golden = load_golden();
    for &(name, kind) in &TOPOLOGIES {
        let (_, want) = golden
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing from golden file; re-bless"));
        // The digests were recorded stepping every router; the production
        // loop, which skips the idle ones, must reproduce them.
        let got = run_digest(&golden_cfg(kind));
        if got.digest() != want.digest {
            let cycle = DigestSink::first_divergence(got.cycle_digests(), &want.cycle_digests);
            panic!(
                "{name}: trace digest {:#018x} != recorded {:#018x} \
                 ({} vs {} events); first diverging cycle: {:?}\n\
                 If this change is intended, re-bless with: \
                 NOC_BLESS=1 cargo test --test golden_trace",
                got.digest(),
                want.digest,
                got.events(),
                want.events,
                cycle
            );
        }
        assert_eq!(got.events(), want.events, "{name}: event count drifted");
        assert_eq!(
            got.cycle_digests(),
            &want.cycle_digests[..],
            "{name}: per-cycle digests drifted with equal final digest"
        );
    }
}

#[test]
fn golden_file_is_well_formed() {
    if std::env::var("NOC_BLESS").is_ok_and(|v| v == "1") {
        return; // the bless path owns the file this run
    }
    let golden = load_golden();
    assert_eq!(golden.len(), TOPOLOGIES.len());
    for (name, g) in &golden {
        assert!(
            TOPOLOGIES.iter().any(|(n, _)| n == name),
            "unknown topology '{name}' in golden file"
        );
        assert_eq!(
            g.cycle_digests.len(),
            CYCLES as usize,
            "{name}: one digest per cycle"
        );
        assert!(g.events > 0, "{name}: recorded run injected no flits");
        assert_eq!(
            *g.cycle_digests.last().expect("non-empty"),
            g.digest,
            "{name}: final cumulative digest must equal the run digest"
        );
    }
}
