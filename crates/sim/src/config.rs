//! Simulation configuration.

use crate::routing::RoutingKind;
use crate::topology::TopologyKind;
use crate::traffic::TrafficPattern;
use noc_core::{AllocatorKind, SpecError, SpecMode, SwitchAllocatorKind, VcAllocSpec};

/// Full configuration of one network simulation (§3.2's setup plus the
/// allocator design choices under study).
///
/// ```
/// use noc_sim::{run_sim, SimConfig, TopologyKind};
///
/// let cfg = SimConfig {
///     injection_rate: 0.1,
///     ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2)
/// };
/// let result = run_sim(&cfg, 500, 1_000);
/// assert!(result.stable);
/// assert!(result.avg_latency > 10.0 && result.avg_latency < 40.0);
/// ```
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Topology (fixes P and the routing algorithm).
    pub topology: TopologyKind,
    /// VCs per class, `C` in the `MxRxC` notation (M and R follow from the
    /// topology: mesh 2×1×C, fbfly 2×2×C).
    pub vcs_per_class: usize,
    /// Flits per VC buffer (paper: 8).
    pub buf_depth: usize,
    /// VC allocator architecture (paper's network results use `sep_if`),
    /// always in the sparse organization (§4.2).
    pub vca_kind: AllocatorKind,
    /// Switch allocator architecture.
    pub sa_kind: SwitchAllocatorKind,
    /// Speculation scheme.
    pub spec_mode: SpecMode,
    /// Offered load in flits/cycle/terminal (requests + replies).
    pub injection_rate: f64,
    /// Request packets per transaction burst. 1 reproduces the paper's
    /// traffic; larger values model the DMA-like throughput-oriented
    /// workloads of §5.4 (bursts of write requests to one destination).
    pub burst: usize,
    /// Spatial traffic pattern.
    pub pattern: TrafficPattern,
    /// RNG seed (simulations are fully deterministic given the seed).
    pub seed: u64,
    /// Routing algorithm override. `None` (the paper's configurations)
    /// derives the algorithm from the topology; `Some` forces one — used
    /// by negative fixtures such as
    /// [`RoutingKind::TorusNoDateline`], the deliberately deadlock-prone
    /// configuration the stall watchdog is tested against.
    pub routing_override: Option<RoutingKind>,
}

/// Why a [`SimConfig`] cannot be simulated (see [`SimConfig::validate`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// A count no network can be built or driven with at zero; carries the
    /// field's description (buffer depth, burst).
    Zero(&'static str),
    /// `injection_rate` is NaN, infinite, or outside `[0, 1]`
    /// flits/cycle/terminal.
    Rate(f64),
    /// A `(warmup, measure)` run window whose sum overflows the cycle count.
    Window(u64, u64),
    /// The topology's class structure at this many VCs per class is no
    /// router the allocators cover (none, or more than
    /// [`noc_core::MAX_WIDTH`] VCs per port).
    Spec(SpecError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Zero(what) => write!(f, "{what} must be at least 1"),
            ConfigError::Rate(r) => write!(
                f,
                "injection rate {r} is not a number in [0, 1] flits/cycle/terminal"
            ),
            ConfigError::Window(w, m) => write!(f, "a run of {w} + {m} cycles overflows u64"),
            ConfigError::Spec(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ConfigError {}

impl ConfigError {
    /// Checks a run window from outside the program: something is measured,
    /// and the sum does not wrap (to a run of no cycles, or a debug panic).
    pub fn check_window(warmup: u64, measure: u64) -> Result<(), ConfigError> {
        if measure == 0 {
            return Err(ConfigError::Zero("measure cycles"));
        }
        (warmup.checked_add(measure).map(drop)).ok_or(ConfigError::Window(warmup, measure))
    }
}

impl SimConfig {
    /// Checks the numeric fields a network cannot be built or driven
    /// without, and that the router they describe is one the allocators
    /// cover. Configurations arriving from outside the program (CLI flags,
    /// sweep specs, serve requests) are validated where they enter;
    /// [`SimConfig::vc_spec`], [`crate::Network::new`] and the run drivers
    /// assume a valid config.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (count, what) in [
            (self.buf_depth, "buffer depth in flits"),
            (self.burst, "burst in packets"),
        ] {
            if count == 0 {
                return Err(ConfigError::Zero(what));
            }
        }
        // `contains` is false for NaN, so this also rejects non-finite rates.
        if !(0.0..=1.0).contains(&self.injection_rate) {
            return Err(ConfigError::Rate(self.injection_rate));
        }
        // The topology's class structure (always a router at C = 1) at the
        // configured C.
        let classes = self.topology.vc_spec(1);
        (classes.with_vcs_per_class(self.vcs_per_class))
            .map(drop)
            .map_err(ConfigError::Spec)
    }

    /// The paper's baseline configuration for a topology and VC count:
    /// separable input-first VC and switch allocation with round-robin
    /// arbiters, pessimistic speculation, uniform random traffic.
    pub fn paper_baseline(topology: TopologyKind, vcs_per_class: usize) -> Self {
        SimConfig {
            topology,
            vcs_per_class,
            buf_depth: 8,
            vca_kind: AllocatorKind::SepIfRr,
            sa_kind: SwitchAllocatorKind::SepIf(noc_arbiter::ArbiterKind::RoundRobin),
            spec_mode: SpecMode::Pessimistic,
            injection_rate: 0.1,
            burst: 1,
            pattern: TrafficPattern::UniformRandom,
            seed: 0x5c09_2009,
            routing_override: None,
        }
    }

    /// The VC class structure implied by topology + C.
    pub fn vc_spec(&self) -> VcAllocSpec {
        self.topology.vc_spec(self.vcs_per_class)
    }

    /// The routing algorithm: the topology's (§3.2) unless overridden.
    pub fn routing(&self) -> RoutingKind {
        if let Some(kind) = self.routing_override {
            return kind;
        }
        match self.topology {
            TopologyKind::Mesh8x8 => RoutingKind::DimensionOrder,
            TopologyKind::FlattenedButterfly4x4 => RoutingKind::Ugal { threshold: 3 },
            TopologyKind::Torus8x8 => RoutingKind::TorusDateline,
        }
    }

    /// Design-point label (`mesh 2x1x4`, `fbfly 2x2x2`, ...).
    pub fn label(&self) -> String {
        format!("{} {}", self.topology.label(), self.vc_spec().label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper() {
        let c = SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2);
        assert_eq!(c.buf_depth, 8);
        assert_eq!(c.vc_spec().total_vcs(), 4);
        assert_eq!(c.vc_spec().label(), "2x1x2");
        assert_eq!(c.label(), "mesh 2x1x2");
        let f = SimConfig::paper_baseline(TopologyKind::FlattenedButterfly4x4, 4);
        assert_eq!(f.vc_spec().total_vcs(), 16);
        assert_eq!(f.vc_spec().ports(), 10);
    }

    #[test]
    fn validate_names_the_offending_field() {
        let base = SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2);
        assert_eq!(base.validate(), Ok(()));
        let bad = |f: fn(&mut SimConfig)| {
            let mut cfg = base.clone();
            f(&mut cfg);
            cfg.validate().expect_err("must be rejected")
        };
        let zero = |f| match bad(f) {
            ConfigError::Zero(what) => what,
            other => panic!("expected a zero-count error, got {other:?}"),
        };
        assert!(zero(|c| c.buf_depth = 0).starts_with("buffer depth"));
        assert!(zero(|c| c.burst = 0).starts_with("burst"));
        assert_eq!(bad(|c| c.injection_rate = 2.0), ConfigError::Rate(2.0));
        assert_eq!(bad(|c| c.injection_rate = -1.0), ConfigError::Rate(-1.0));
        assert!(matches!(
            bad(|c| c.injection_rate = f64::NAN),
            ConfigError::Rate(r) if r.is_nan()
        ));
        // V = M*R*C is at most one kernel word: 64 is a router, 65+ is not,
        // and neither is 0 — the one error `noc check` reports too.
        let vcs = |topology, c| SimConfig::paper_baseline(topology, c).validate();
        let dimension = "vcs_per_class";
        let none = ConfigError::Spec(SpecError::ZeroDimension { dimension });
        assert_eq!(vcs(TopologyKind::Mesh8x8, 0), Err(none));
        assert_eq!(vcs(TopologyKind::Mesh8x8, 32), Ok(()));
        assert_eq!(vcs(TopologyKind::FlattenedButterfly4x4, 16), Ok(()));
        for (topology, c, value) in [
            (TopologyKind::Mesh8x8, 33, 66),
            (TopologyKind::Torus8x8, 17, 68),
        ] {
            let dimension = "VCs per port";
            let e = ConfigError::Spec(SpecError::TooWide { dimension, value });
            assert_eq!(vcs(topology, c), Err(e));
            assert!(e.to_string().contains("exceed the 64"), "{e}");
        }
        // Zero load is a valid (drain-phase) configuration.
        let mut idle = base.clone();
        idle.injection_rate = 0.0;
        assert_eq!(idle.validate(), Ok(()));
    }
}
