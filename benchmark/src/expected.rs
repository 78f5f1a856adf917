//! `expected.json`: what the simulated side of the benchmark read when it
//! was last blessed.
//!
//! A pure speed-up leaves every simulated statistic identical, so it must
//! leave these alone. Only a benchmark issue may re-bless (`--bless`): a
//! change that moves them has changed what is simulated, and the baseline
//! has to be measured again after it.

use crate::cases::{self, DEFAULT_SEED, HELD_OUT_SEED};
use crate::sim_family::SimCase;
use crate::stats;
use noc_obs::JsonValue;
use noc_sim::{digest_pairs, run_sim_engine, Engine};
use std::fmt::Write as _;
use std::path::Path;

const SCHEMA: &str = "noc-benchmark-expected/v1";

/// One blessed simulation case at one seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Expectation {
    /// [`digest`] of rep 0's `to_json_full`.
    pub digest: String,
    pub sim_latency_cycles: f64,
    pub sim_accepted_rate: f64,
}

/// The blessed readings, keyed by case label and seed.
#[derive(Debug, Default)]
pub struct Expectations(Vec<(String, u64, Expectation)>);

/// Content digest of a serialized `SimResult`.
pub fn digest(result_json: &str) -> String {
    digest_pairs(&[("result".to_string(), result_json.to_string())])
}

impl Expectations {
    /// The `expected.json` this binary was built with.
    pub fn embedded() -> Expectations {
        Expectations::parse(include_str!("../expected.json"))
            .expect("benchmark/expected.json is well-formed")
    }

    fn parse(text: &str) -> Result<Expectations, String> {
        let doc = JsonValue::parse(text)?;
        let points = doc
            .get("points")
            .and_then(JsonValue::as_array)
            .ok_or("expected.json: no 'points' array")?;
        let mut out = Vec::new();
        for p in points {
            let case = p
                .get("case")
                .and_then(JsonValue::as_str)
                .ok_or("expected.json: point without 'case'")?;
            let seed = p
                .get("seed")
                .and_then(JsonValue::as_f64)
                .ok_or("expected.json: point without 'seed'")?;
            let digest = p
                .get("digest")
                .and_then(JsonValue::as_str)
                .ok_or("expected.json: point without 'digest'")?;
            out.push((
                case.to_string(),
                seed as u64,
                Expectation {
                    digest: digest.to_string(),
                    sim_latency_cycles: p.num_or_nan("sim_latency_cycles"),
                    sim_accepted_rate: p.num_or_nan("sim_accepted_rate"),
                },
            ));
        }
        Ok(Expectations(out))
    }

    pub fn get(&self, case: &str, seed: u64) -> Option<&Expectation> {
        self.0
            .iter()
            .find(|(c, s, _)| c == case && *s == seed)
            .map(|(_, _, e)| e)
    }
}

/// Simulates a case untimed: rep 0's digest and the two simulated metrics.
fn simulate(case: &SimCase) -> Expectation {
    let mut first = None;
    let (mut latency, mut accepted) = (Vec::new(), Vec::new());
    for i in 0..case.det_reps {
        let r = run_sim_engine(
            &case.rep_cfg(i),
            case.warmup,
            case.measure,
            Engine::Sequential,
        );
        latency.push(r.avg_latency);
        accepted.push(r.throughput);
        first.get_or_insert_with(|| digest(&r.to_json_full()));
    }
    Expectation {
        digest: first.expect("det_reps is at least 1"),
        sim_latency_cycles: stats::mean(&latency),
        sim_accepted_rate: stats::mean(&accepted),
    }
}

/// Regenerates `<dir>/expected.json` at the default and the held-out seed.
pub fn bless(dir: &Path) -> Result<(), String> {
    let mut out = format!(
        "{{\"schema\":\"{SCHEMA}\",\n\"note\":\"Simulated readings of the sim cases at the default and the held-out seed. Only a benchmark issue may re-bless (benchmark/run.sh --bless).\",\n\"points\":["
    );
    let mut first = true;
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        for case in cases::sim_cases(seed) {
            let e = simulate(&case);
            let _ = write!(
                out,
                "{}\n{{\"case\":\"{}\",\"seed\":{seed},\"digest\":\"{}\",\"sim_latency_cycles\":{},\"sim_accepted_rate\":{}}}",
                if first { "" } else { "," },
                case.label,
                e.digest,
                e.sim_latency_cycles,
                e.sim_accepted_rate
            );
            first = false;
            eprintln!("blessed {} @ {seed:#x}", case.label);
        }
    }
    out.push_str("\n]}\n");
    let path = dir.join("expected.json");
    std::fs::write(&path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_file_covers_every_sim_case_at_both_seeds() {
        let e = Expectations::embedded();
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            for case in cases::sim_cases(seed) {
                let got = e.get(case.label, seed).expect("blessed point");
                assert_eq!(got.digest.len(), 32);
                assert!(got.sim_latency_cycles > 0.0 && got.sim_accepted_rate > 0.0);
            }
        }
        assert!(e.get("mesh_heavy", 1).is_none());
    }
}
