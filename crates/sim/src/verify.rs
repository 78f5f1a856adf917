//! Opt-in runtime invariant checking.
//!
//! A [`StrictChecker`] attached to a network (`Network::enable_verify`,
//! `Run::verify`, `noc sim --verify`) audits the committed state after
//! every cycle; without one the per-cycle cost is a single `Option`
//! branch. It reports:
//!
//! * **matching legality** — every cycle, at most one switch grant per
//!   input port and per output port, each grant backed by an output VC,
//!   a credit and a buffered flit;
//! * **credit conservation** — for every channel (router→router link,
//!   terminal injection, terminal ejection), upstream credits plus in-flight
//!   flits plus downstream occupancy plus in-flight return credits equals
//!   the buffer depth, every cycle;
//! * **no flit without a VC** — a body flit can never sit at the head of an
//!   input VC that holds no output VC.
//!
//! Debug builds additionally run the router-local checks on the ordinary
//! step path, so the whole test suite exercises them for free.

/// Cap on stored violation messages (the counter keeps counting).
const MAX_STORED: usize = 64;

/// The runtime invariant checker and, after a run, its report: collects
/// violations with bounded memory.
#[derive(Clone, Debug, Default)]
pub struct StrictChecker {
    /// Invariant checks evaluated.
    pub checks: u64,
    /// Violations found (all of them, including those not stored).
    pub total_violations: u64,
    /// The first 64 violation messages.
    pub violations: Vec<String>,
}

impl StrictChecker {
    /// Records that `n` invariant checks were evaluated.
    pub fn add_checks(&mut self, n: u64) {
        self.checks += n;
    }

    /// Records one invariant violation.
    pub fn violation(&mut self, msg: String) {
        self.total_violations += 1;
        if self.violations.len() < MAX_STORED {
            self.violations.push(msg);
        }
    }

    /// True if no violation was found.
    pub fn passed(&self) -> bool {
        self.total_violations == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::sim::{Run, SimResult};
    use crate::topology::TopologyKind;

    fn run_verified(cfg: &SimConfig, warmup: u64, measure: u64) -> (SimResult, StrictChecker) {
        let out = Run::new(cfg, warmup, measure).verify().finish();
        (out.result, out.verify.expect("checker attached"))
    }

    #[test]
    fn strict_checker_caps_stored_messages() {
        let mut rep = StrictChecker::default();
        for i in 0..100 {
            rep.violation(format!("v{i}"));
        }
        rep.add_checks(7);
        assert_eq!(rep.total_violations, 100);
        assert_eq!(rep.violations.len(), MAX_STORED);
        assert_eq!(rep.checks, 7);
        assert!(!rep.passed());
    }

    #[test]
    fn verified_mesh_run_is_clean() {
        let cfg = SimConfig {
            injection_rate: 0.2,
            ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
        };
        let (res, rep) = run_verified(&cfg, 300, 800);
        assert!(rep.passed(), "violations: {:?}", rep.violations);
        assert!(rep.checks > 0);
        assert!(res.throughput > 0.0);
    }

    #[test]
    fn verified_run_matches_unverified_run() {
        // The checker is read-only: enabling it must not change behaviour.
        let cfg = SimConfig {
            injection_rate: 0.15,
            ..SimConfig::paper_baseline(TopologyKind::FlattenedButterfly4x4, 2)
        };
        let (v, rep) = run_verified(&cfg, 300, 700);
        assert!(rep.passed(), "violations: {:?}", rep.violations);
        let p = crate::sim::run_sim(&cfg, 300, 700);
        assert_eq!(v.avg_latency.to_bits(), p.avg_latency.to_bits());
        assert_eq!(v.throughput.to_bits(), p.throughput.to_bits());
    }
}
