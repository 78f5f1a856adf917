//! The six design points evaluated throughout the paper (§3): subfigures
//! (a)–(f) of Figures 5–7 and 10–14, and the seven simulated configurations
//! the engine-equivalence, invariant and `noc check --all` suites iterate.

use noc_core::VcAllocSpec;
use noc_sim::{SimConfig, TopologyKind};

/// One (topology, VC configuration) design point.
#[derive(Clone, Copy, Debug)]
pub struct DesignPoint {
    /// Subfigure tag in the paper (`a` … `f`).
    pub tag: char,
    /// Topology.
    pub topology: TopologyKind,
    /// VCs per class (`C` in `MxRxC`).
    pub vcs_per_class: usize,
}

impl DesignPoint {
    /// The VC class structure of this point.
    pub fn spec(&self) -> VcAllocSpec {
        self.topology.vc_spec(self.vcs_per_class)
    }

    /// Figure caption label, e.g. `mesh, 2x1x4 VCs`.
    pub fn label(&self) -> String {
        format!("{}, {} VCs", self.topology.label(), self.spec().label())
    }

    /// The injection-rate grid for the latency figures, matching the
    /// x-axis ranges of Figures 13/14 (per design point).
    pub fn rate_grid(&self) -> Vec<f64> {
        let max = match (self.topology, self.vcs_per_class) {
            (TopologyKind::Mesh8x8, 1) => 0.35,
            (TopologyKind::Mesh8x8, 2) => 0.40,
            (TopologyKind::Mesh8x8, _) => 0.45,
            (TopologyKind::FlattenedButterfly4x4, 1) => 0.50,
            (TopologyKind::FlattenedButterfly4x4, 2) => 0.60,
            (TopologyKind::FlattenedButterfly4x4, _) => 0.70,
            (TopologyKind::Torus8x8, _) => 0.60,
        };
        (1..=10).map(|i| max * i as f64 / 10.0).collect()
    }
}

/// The paper's six design points in subfigure order.
pub const DESIGN_POINTS: [DesignPoint; 6] = [
    DesignPoint {
        tag: 'a',
        topology: TopologyKind::Mesh8x8,
        vcs_per_class: 1,
    },
    DesignPoint {
        tag: 'b',
        topology: TopologyKind::Mesh8x8,
        vcs_per_class: 2,
    },
    DesignPoint {
        tag: 'c',
        topology: TopologyKind::Mesh8x8,
        vcs_per_class: 4,
    },
    DesignPoint {
        tag: 'd',
        topology: TopologyKind::FlattenedButterfly4x4,
        vcs_per_class: 1,
    },
    DesignPoint {
        tag: 'e',
        topology: TopologyKind::FlattenedButterfly4x4,
        vcs_per_class: 2,
    },
    DesignPoint {
        tag: 'f',
        topology: TopologyKind::FlattenedButterfly4x4,
        vcs_per_class: 4,
    },
];

/// The fixed workload matrix: each evaluated topology at load points
/// below, near, and at the knee of the latency curve, plus a heavy 0.4
/// mesh point (at high load nearly every router is busy every cycle and
/// almost none is skipped).
pub fn workload_matrix() -> Vec<(String, SimConfig)> {
    let mut out = Vec::new();
    for (tag, topo, rates) in [
        (
            "mesh8x8",
            TopologyKind::Mesh8x8,
            &[0.05, 0.15, 0.25, 0.4][..],
        ),
        (
            "fbfly4x4",
            TopologyKind::FlattenedButterfly4x4,
            &[0.10, 0.20, 0.30][..],
        ),
    ] {
        for &rate in rates {
            let cfg = SimConfig {
                injection_rate: rate,
                ..SimConfig::paper_baseline(topo, 2)
            };
            out.push((format!("{tag}_c2_r{rate}"), cfg));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_both_topologies_plus_heavy_mesh_point() {
        let m = workload_matrix();
        assert_eq!(m.len(), 7);
        assert_eq!(m.iter().filter(|(n, _)| n.starts_with("mesh")).count(), 4);
        assert_eq!(m.iter().filter(|(n, _)| n.starts_with("fbfly")).count(), 3);
        assert!(m.iter().any(|(n, _)| n == "mesh8x8_c2_r0.4"));
        let names: std::collections::HashSet<_> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), 7, "workload names must be unique keys");
    }

    #[test]
    fn points_cover_the_paper_grid() {
        assert_eq!(DESIGN_POINTS.len(), 6);
        assert_eq!(DESIGN_POINTS[0].spec().label(), "2x1x1");
        assert_eq!(DESIGN_POINTS[5].spec().label(), "2x2x4");
        assert_eq!(DESIGN_POINTS[5].spec().total_vcs(), 16);
        for p in &DESIGN_POINTS {
            let grid = p.rate_grid();
            assert_eq!(grid.len(), 10);
            assert!(grid.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
