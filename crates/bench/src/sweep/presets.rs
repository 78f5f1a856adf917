//! The grids behind the simulation-driven figures.
//!
//! Each function expands to exactly the points its figure's render
//! simulates on the grid, so running it through `run_sweep` populates the
//! cache with precisely what the render needs and the render is all-hits
//! (only adaptive saturation probes may still simulate). The figure
//! registry ([`crate::registry::FIGURES`]) binds each to its name, run
//! window (stamped over the grids' default one) and render. The `smoke`
//! grid is CI-sized: two mesh points, sub-second.

use crate::figures::SW_FIGURE_KINDS;
use crate::points::DESIGN_POINTS;
use crate::sweep::spec::SweepGrid;
use noc_core::SpecMode;
use noc_sim::{TopologyKind, TrafficPattern};

/// The injection rates of the `smoke` preset (shared with its renderer).
pub const SMOKE_RATES: [f64; 2] = [0.05, 0.10];

/// The synthetic patterns of the traffic ablation (shared with its
/// renderer).
pub const TRAFFIC_PATTERNS: [TrafficPattern; 4] = [
    TrafficPattern::UniformRandom,
    TrafficPattern::BitComplement,
    TrafficPattern::Transpose,
    TrafficPattern::Tornado,
];

/// The `(topology, C)` design points of the speculation ablation (shared
/// with its renderer).
pub const SPECULATION_POINTS: [(TopologyKind, usize); 2] = [
    (TopologyKind::Mesh8x8, 1),
    (TopologyKind::FlattenedButterfly4x4, 4),
];

/// Figure 13's grid: all six design points × the three switch-allocator
/// architectures × the per-point rate grid.
pub fn fig13_grids() -> Vec<SweepGrid> {
    DESIGN_POINTS
        .iter()
        .map(|p| SweepGrid {
            topology: vec![p.topology],
            vcs: vec![p.vcs_per_class],
            sa: SW_FIGURE_KINDS.map(|(_, kind)| kind).to_vec(),
            rates: p.rate_grid(),
            ..SweepGrid::default()
        })
        .collect()
}

/// Figure 14's grid: all six design points × the three speculation
/// schemes × the per-point rate grid.
pub fn fig14_grids() -> Vec<SweepGrid> {
    DESIGN_POINTS
        .iter()
        .map(|p| SweepGrid {
            topology: vec![p.topology],
            vcs: vec![p.vcs_per_class],
            spec_mode: SpecMode::ALL.to_vec(),
            rates: p.rate_grid(),
            ..SweepGrid::default()
        })
        .collect()
}

/// The traffic-pattern ablation: fbfly 2x2x2, four synthetic patterns,
/// sep_if vs wavefront.
pub fn ablation_traffic_grids() -> Vec<SweepGrid> {
    vec![SweepGrid {
        topology: vec![TopologyKind::FlattenedButterfly4x4],
        vcs: vec![2],
        pattern: TRAFFIC_PATTERNS.to_vec(),
        sa: vec![SW_FIGURE_KINDS[0].1, SW_FIGURE_KINDS[2].1],
        rates: (1..=8).map(|i| 0.07 * i as f64).collect(),
        ..SweepGrid::default()
    }]
}

/// The speculation-efficiency ablation: conventional vs pessimistic
/// grant outcomes on mesh 2x1x1 and fbfly 2x2x4 at four load points.
pub fn ablation_speculation_grids() -> Vec<SweepGrid> {
    SPECULATION_POINTS
        .into_iter()
        .map(|(topo, c)| SweepGrid {
            topology: vec![topo],
            vcs: vec![c],
            spec_mode: vec![SpecMode::Conventional, SpecMode::Pessimistic],
            rates: vec![0.05, 0.15, 0.25, 0.35],
            ..SweepGrid::default()
        })
        .collect()
}

/// The CI smoke preset: two mesh 2x1x1 points, sub-second.
pub fn smoke_grids() -> Vec<SweepGrid> {
    vec![SweepGrid {
        topology: vec![TopologyKind::Mesh8x8],
        vcs: vec![1],
        rates: SMOKE_RATES.to_vec(),
        ..SweepGrid::default()
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_sizes_match_their_binaries() {
        let points = |grids: Vec<SweepGrid>| grids.iter().map(|g| g.expand().len()).sum::<usize>();
        // fig13: 6 points × 3 allocators × 10 rates.
        assert_eq!(points(fig13_grids()), 180);
        // fig14: 6 points × 3 spec modes × 10 rates.
        assert_eq!(points(fig14_grids()), 180);
        // ablation-traffic: 4 patterns × 2 allocators × 8 rates.
        assert_eq!(points(ablation_traffic_grids()), 64);
        // ablation-speculation: 2 points × 2 modes × 4 rates.
        assert_eq!(points(ablation_speculation_grids()), 16);
        assert_eq!(points(smoke_grids()), 2);
    }

    #[test]
    fn every_name_resolves_and_unknowns_do_not() {
        use crate::registry::{figure, preset_spec, FIGURES};
        let presets: Vec<_> = FIGURES.iter().filter(|f| f.grid.is_some()).collect();
        assert_eq!(presets.len(), 5);
        for f in presets {
            let spec = preset_spec(f.name).expect("preset resolves");
            assert_eq!(spec.name, f.name, "spec name matches preset name");
        }
        assert!(preset_spec("fig99").is_err());
        // A figure without a grid is a figure, not a preset.
        assert!(figure("fig05").is_ok() && preset_spec("fig05").is_err());
    }
}
