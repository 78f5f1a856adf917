#![forbid(unsafe_code)]
//! Static deadlock/liveness verifier for sparse VC configurations.
//!
//! Given a topology, a routing relation and a [`VcAllocSpec`], the checker:
//!
//! 1. builds the **channel-dependency graph** (Dally–Seitz, extended across
//!    the paper's sparse VC→VC transition masks) and proves deadlock
//!    freedom by acyclicity — or prints a minimal offending cycle
//!    ([`cdg`]);
//! 2. runs **VC reachability / starvation analysis**: unreachable channels,
//!    channels with no escape path to an ejection port, unused legal class
//!    transitions, and dateline correctness on torus rings;
//! 3. checks **allocator wiring**: the CDG walk admits a route's VC
//!    transition only if the spec's transition mask holds it
//!    ([`VcAllocSpec::rc_legal`]), so a transition the routing function
//!    needs and the allocator can never grant is a route error.
//!
//! The allocators' own guarantees (one grant per input and output, grants
//! only to free VCs of a requested legal class, §5.2 speculation masking)
//! are proven by the property suites of `noc-core`, not here.
//!
//! The `noc check` CLI subcommand drives these over the paper's designs and
//! the bench workload matrix; [`fixtures`] provides deliberately-deadlocked
//! designs the checker must reject.

pub mod cdg;
pub mod fixtures;
pub mod model;

pub use cdg::{ChannelDependencyGraph, Cycle};
pub use fixtures::Fixture;
pub use model::RouteModel;

use noc_core::VcAllocSpec;
use noc_sim::Topology;

/// Result of one full design check.
#[derive(Debug)]
pub struct CheckReport {
    /// Design name.
    pub label: String,
    /// Violations: the design is unsafe (deadlock, starvation, wiring bug).
    pub errors: Vec<String>,
    /// Suspicious but not unsafe findings (unreachable channels, unused
    /// transitions).
    pub warnings: Vec<String>,
    /// Summary of what was proven.
    pub info: Vec<String>,
}

impl CheckReport {
    /// True if no errors were found (warnings allowed).
    pub fn passed(&self) -> bool {
        self.errors.is_empty()
    }

    /// Renders the report for terminal output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let verdict = if self.passed() { "PASS" } else { "FAIL" };
        out.push_str(&format!("[{verdict}] {}\n", self.label));
        for e in &self.errors {
            out.push_str(&format!("  error: {e}\n"));
        }
        for w in &self.warnings {
            out.push_str(&format!("  warning: {w}\n"));
        }
        for i in &self.info {
            out.push_str(&format!("  {i}\n"));
        }
        out
    }
}

/// Cap on individually listed route-walk errors per report.
const MAX_LISTED: usize = 5;

/// Checks a fixture end to end.
pub fn check_fixture(f: &Fixture) -> CheckReport {
    check_design(&f.label, &f.topo, &f.model, &f.spec)
}

/// Runs the full static analysis of one design.
pub fn check_design(
    label: &str,
    topo: &Topology,
    model: &RouteModel,
    spec: &VcAllocSpec,
) -> CheckReport {
    let mut errors = Vec::new();
    let mut warnings = Vec::new();
    let mut info = Vec::new();

    info.push(format!(
        "design: {} {}x{} ({} routers, {} terminals), routing {}, spec {} (V = {})",
        topo.label(),
        topo.width,
        topo.height,
        topo.num_routers(),
        topo.num_terminals(),
        model.label(),
        spec.label(),
        spec.total_vcs()
    ));
    if spec.ports() != topo.ports {
        errors.push(format!(
            "spec is wired for {} ports but the topology has {}",
            spec.ports(),
            topo.ports
        ));
    }

    // 1. Channel-dependency graph.
    let graph = ChannelDependencyGraph::build(topo, model, spec);
    push_capped(&mut errors, &graph.walk_errors, "route errors");
    match graph.find_cycle() {
        Some(cycle) => errors.push(format!(
            "deadlock: channel-dependency cycle of length {}:\n{}",
            cycle.nodes.len(),
            cycle.display
        )),
        None => {
            let (total, used) = graph.channel_counts();
            info.push(format!(
                "channel-dependency graph acyclic ({} dependency edges over \
                 {used}/{total} channels per message class) — deadlock-free",
                graph.num_edges()
            ));
        }
    }

    // 2. Reachability / starvation.
    let starved = graph.starved_channels();
    if !starved.is_empty() {
        let names: Vec<String> = starved
            .iter()
            .take(6)
            .map(|&n| graph.node_label(n))
            .collect();
        errors.push(format!(
            "{} reachable channel(s) have no escape path to an ejection port \
             (e.g. {})",
            starved.len(),
            names.join("; ")
        ));
    }
    let unreachable = graph.unreachable_channels();
    if !unreachable.is_empty() {
        let names: Vec<String> = unreachable
            .iter()
            .take(6)
            .map(|&n| graph.node_label(n))
            .collect();
        warnings.push(format!(
            "{} hardware channel(s) unreachable by any route (e.g. {})",
            unreachable.len(),
            names.join("; ")
        ));
    }
    let rcs = spec.resource_classes();
    for from in 0..rcs {
        for to in 0..rcs {
            if spec.rc_legal(from, to) && !graph.used_transitions.contains(&(from, to)) {
                warnings.push(format!(
                    "legal resource-class transition {from} -> {to} never \
                     exercised by any route"
                ));
            }
        }
    }
    if spec.msg_classes() > 1 {
        info.push(format!(
            "{} message classes are symmetric and never mix (§4.2); the \
             analysis covers one and applies to each",
            spec.msg_classes()
        ));
    }

    CheckReport {
        label: label.to_string(),
        errors,
        warnings,
        info,
    }
}

fn push_capped(dst: &mut Vec<String>, src: &[String], what: &str) {
    for e in src.iter().take(MAX_LISTED) {
        dst.push(e.clone());
    }
    if src.len() > MAX_LISTED {
        dst.push(format!(
            "... and {} more {what} of the same kind",
            src.len() - MAX_LISTED
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_designs_are_deadlock_free() {
        for label in ["mesh", "fbfly", "torus"] {
            for c in [1usize, 2] {
                let f = fixtures::paper_design(label, c).unwrap();
                let rep = check_fixture(&f);
                assert!(rep.passed(), "{}:\n{}", f.label, rep.render());
            }
        }
    }

    #[test]
    fn torus_without_dateline_is_deadlocked_with_named_cycle() {
        let f = fixtures::torus_no_dateline(2).unwrap();
        let rep = check_fixture(&f);
        assert!(!rep.passed());
        let cycle = rep
            .errors
            .iter()
            .find(|e| e.contains("channel-dependency cycle"))
            .expect("cycle error missing");
        // The minimal torus ring cycle has length 8 and names channels.
        assert!(cycle.contains("router"), "{cycle}");
        assert!(cycle.contains("cycle closes"), "{cycle}");
    }

    #[test]
    fn cyclic_vc_transition_mask_is_deadlocked() {
        let f = fixtures::cyclic_vc_transitions(2).unwrap();
        let rep = check_fixture(&f);
        assert!(!rep.passed());
        assert!(
            rep.errors
                .iter()
                .any(|e| e.contains("channel-dependency cycle")),
            "{}",
            rep.render()
        );
    }

    #[test]
    fn fixtures_refuse_a_vc_count_that_makes_no_router() {
        // 2x1xC is a router up to C = 32, 2x2xC up to C = 16.
        assert!(fixtures::torus_no_dateline(32).is_ok());
        assert!(fixtures::paper_design("fbfly", 16).is_ok());
        assert!(fixtures::torus_no_dateline(33).is_err());
        assert!(fixtures::cyclic_vc_transitions(17).is_err());
        assert!(fixtures::paper_design("torus", 17).is_err());
        assert!(fixtures::paper_design("mesh", 0).is_err());
    }

    #[test]
    fn mismatched_spec_ports_is_a_wiring_error() {
        let f = fixtures::paper_design("mesh", 2).unwrap();
        let bad_spec = noc_core::VcAllocSpec::mesh(2).with_ports(10);
        let rep = check_design("mesh-bad-ports", &f.topo, &f.model, &bad_spec);
        assert!(!rep.passed());
        assert!(rep.errors.iter().any(|e| e.contains("wired for 10 ports")));
    }

    #[test]
    fn report_renders_verdict_and_findings() {
        let rep = CheckReport {
            label: "x".into(),
            errors: vec!["boom".into()],
            warnings: vec!["meh".into()],
            info: vec!["ok".into()],
        };
        assert!(!rep.passed());
        let r = rep.render();
        assert!(r.contains("[FAIL] x") && r.contains("error: boom") && r.contains("warning: meh"));
    }
}
