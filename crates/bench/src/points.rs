//! The six design points evaluated throughout the paper (§3): subfigures
//! (a)–(f) of Figures 5–7 and 10–14.

use noc_core::VcAllocSpec;
use noc_sim::TopologyKind;

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

#[cfg(test)]
mod tests {
    use super::*;

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
