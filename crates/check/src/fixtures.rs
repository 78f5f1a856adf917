//! Named check fixtures: the paper's designs (positives) and two
//! deliberately deadlock-prone designs (negatives) used to test the checker
//! and as CI regression anchors.
//!
//! The VC count `c` of a fixture comes from the command line, so every
//! constructor returns the [`SpecError`] of a count that makes no router
//! (zero, or past 64 VCs per port) instead of panicking on it.

use crate::model::RouteModel;
use noc_core::{SpecError, VcAllocSpec};
use noc_sim::{RoutingKind, Topology};

/// One complete design the checker can analyze: topology, routing relation
/// and VC class structure.
pub struct Fixture {
    /// Display name (used in reports and CLI output).
    pub label: String,
    /// Network topology.
    pub topo: Topology,
    /// Routing relation.
    pub model: RouteModel,
    /// VC class structure.
    pub spec: VcAllocSpec,
}

/// The paper's design for a topology label (`mesh` / `fbfly` / `torus`)
/// with `c` VC banks per class — expected deadlock-free.
pub fn paper_design(topo_label: &str, c: usize) -> Result<Fixture, SpecError> {
    let (topo, classes) = match topo_label {
        "mesh" => (Topology::mesh(8, 8), VcAllocSpec::mesh(1)),
        "torus" => (Topology::torus(8, 8), VcAllocSpec::torus(1)),
        _ => (
            Topology::flattened_butterfly(4, 4, 4),
            VcAllocSpec::fbfly(1),
        ),
    };
    let kind = RoutingKind::for_topology(topo.label());
    Ok(Fixture {
        label: format!("{}_c{c}", topo.label()),
        topo,
        model: RouteModel::Simulator(kind),
        spec: classes.with_vcs_per_class(c)?,
    })
}

/// Negative fixture: 8×8 torus routed shortest-direction with a single
/// resource class — no dateline discipline, so every ring's channels form a
/// dependency cycle. The checker must classify this as deadlocked.
pub fn torus_no_dateline(c: usize) -> Result<Fixture, SpecError> {
    Ok(Fixture {
        label: format!("torus-no-dateline_c{c}"),
        topo: Topology::torus(8, 8),
        model: RouteModel::Simulator(RoutingKind::TorusNoDateline),
        spec: VcAllocSpec::try_new(5, 2, 1, c, vec![vec![true]])?,
    })
}

/// Negative fixture: 8×8 torus whose resource class alternates every hop
/// under the mask `[[false, true], [true, false]]`. Every individual
/// transition is legal (the spec constructor accepts it), but on the
/// even-length rings the alternation closes a channel-dependency cycle —
/// only the global analysis catches it.
pub fn cyclic_vc_transitions(c: usize) -> Result<Fixture, SpecError> {
    let alternating = vec![vec![false, true], vec![true, false]];
    Ok(Fixture {
        label: format!("cyclic-vc-transitions_c{c}"),
        topo: Topology::torus(8, 8),
        model: RouteModel::AlternatingClass,
        spec: VcAllocSpec::try_new(5, 2, 2, c, alternating)?,
    })
}

/// A named negative fixture by CLI keyword; `None` for an unknown name.
pub fn by_name(name: &str, c: usize) -> Option<Result<Fixture, SpecError>> {
    match name {
        "no-dateline" => Some(torus_no_dateline(c)),
        "cyclic-vc" => Some(cyclic_vc_transitions(c)),
        _ => None,
    }
}
