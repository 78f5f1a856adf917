//! Netlist optimization passes modeling "synthesize for minimum cycle time".
//!
//! Design Compiler reaches its minimum-cycle-time result mainly through
//! buffer-tree insertion on high-fanout nets and upsizing of gates on the
//! critical path. We model both:
//!
//! * [`buffer_high_fanout`] caps the fanout any single driver sees by
//!   inserting balanced buffer trees — this is what tames the huge request
//!   broadcast nets of the replicated wavefront arrays (at an area/power
//!   cost, reproducing the paper's observation that "synthesis tries to
//!   compensate ... by using faster — and therefore, larger — gates").
//! * [`size_critical_path`] iteratively upsizes the cells on the worst path
//!   until the cycle time stops improving.

use crate::cell::{CellKind, CellLibrary};
use crate::netlist::{NetId, Netlist};
use crate::sta;

/// Maximum fanout before a buffer tree is inserted.
pub const MAX_FANOUT: usize = 6;

/// Upsizing factor per sizing iteration.
const SIZE_STEP: f64 = 1.5;
/// Maximum drive size (library granularity limit).
const MAX_SIZE: f64 = 16.0;

/// Inserts balanced buffer trees on nets whose fanout exceeds `max_fanout`.
/// Returns the number of buffers inserted.
pub fn buffer_high_fanout(netlist: &mut Netlist, max_fanout: usize) -> usize {
    assert!(max_fanout >= 2);
    let mut inserted = 0usize;
    // Iterate until no net exceeds the limit (inserted buffers can
    // themselves fan out, but the tree construction keeps them within
    // bounds, so one sweep over original nets suffices; loop defensively).
    loop {
        // sink = (cell index, pin index); DFF D pins are rewired too.
        let mut sinks: Vec<Vec<(usize, usize)>> = vec![Vec::new(); netlist.num_nets()];
        for (ci, c) in netlist.cells().iter().enumerate() {
            for (pi, &n) in c.inputs.iter().enumerate() {
                sinks[n].push((ci, pi));
            }
        }
        let mut dff_sinks: Vec<Vec<usize>> = vec![Vec::new(); netlist.num_nets()];
        for (di, d) in netlist.dffs().iter().enumerate() {
            dff_sinks[d.d].push(di);
        }
        let offenders: Vec<NetId> = (0..netlist.num_nets())
            .filter(|&n| sinks[n].len() + dff_sinks[n].len() > max_fanout)
            .collect();
        if offenders.is_empty() {
            return inserted;
        }
        for net in offenders {
            // Group all sinks into chunks of max_fanout, each fed by a new
            // buffer; the buffers themselves become the net's only sinks.
            let cell_pins = std::mem::take(&mut sinks[net]);
            let dff_pins = std::mem::take(&mut dff_sinks[net]);
            let total = cell_pins.len() + dff_pins.len();
            let num_bufs = total.div_ceil(max_fanout);
            let bufs: Vec<NetId> = (0..num_bufs)
                .map(|_| netlist.cell(CellKind::Buf, &[net]))
                .collect();
            inserted += num_bufs;
            let mut k = 0usize;
            for (ci, pi) in cell_pins {
                netlist.cells_mut()[ci].inputs[pi] = bufs[k / max_fanout];
                k += 1;
            }
            for di in dff_pins {
                netlist.set_dff_d(di, bufs[k / max_fanout]);
                k += 1;
            }
        }
    }
}

/// Iteratively upsizes critical-path cells until the minimum cycle time
/// stops improving. Returns the number of sizing iterations applied.
pub fn size_critical_path(
    netlist: &mut Netlist,
    lib: &CellLibrary,
    max_iterations: usize,
) -> usize {
    // Sizing never changes connectivity, so one topological order serves
    // every iteration.
    let order = netlist.topo_order();
    let cycle = |nl: &Netlist| {
        let loads = nl.net_loads_ff(lib);
        let arrival = sta::arrival_times_with_order(nl, lib, &loads, &order);
        let (c, ep) = sta::min_cycle_from_arrivals(nl, lib, &arrival);
        (c, ep, arrival)
    };
    let (mut best, _, _) = cycle(netlist);
    for iter in 0..max_iterations {
        let (_, endpoint, arrival) = cycle(netlist);
        let path = sta::critical_path_cells(netlist, &arrival, endpoint);
        if path.is_empty() {
            return iter;
        }
        let mut changed = false;
        let old_sizes: Vec<(usize, f64)> = path
            .iter()
            .map(|&ci| (ci, netlist.cells()[ci].size))
            .collect();
        for &ci in &path {
            let s = netlist.cells()[ci].size;
            if s < MAX_SIZE {
                netlist.cells_mut()[ci].size = (s * SIZE_STEP).min(MAX_SIZE);
                changed = true;
            }
        }
        if !changed {
            return iter;
        }
        let (new_cycle, _, _) = cycle(netlist);
        if new_cycle >= best - 1e-6 {
            // No improvement: revert and stop.
            for (ci, s) in old_sizes {
                netlist.cells_mut()[ci].size = s;
            }
            return iter;
        }
        best = new_cycle;
    }
    max_iterations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffering_preserves_function() {
        let mut nl = Netlist::new("fanout");
        let a = nl.input();
        let b = nl.input();
        let x = nl.and2(a, b);
        // 20 sinks on x.
        for _ in 0..20 {
            let s = nl.not(x);
            nl.output(s);
        }
        let before: Vec<(Vec<bool>, Vec<bool>)> = (0..4u32)
            .map(|t| {
                let inp = vec![t & 1 != 0, t & 2 != 0];
                let (o, s) = nl.eval(&inp, &[]);
                (o, s)
            })
            .collect();
        let n = buffer_high_fanout(&mut nl, 4);
        assert!(n >= 5, "expected a buffer tree, got {n}");
        nl.validate().unwrap();
        for (t, (o_ref, _)) in before.iter().enumerate() {
            let inp = vec![t & 1 != 0, t & 2 != 0];
            let (o, _) = nl.eval(&inp, &[]);
            assert_eq!(&o, o_ref);
        }
    }

    #[test]
    fn buffering_reduces_delay_on_huge_fanout() {
        let lib = CellLibrary::default();
        let mut nl = Netlist::new("huge");
        let a = nl.input();
        let x = nl.not(a);
        for _ in 0..64 {
            let s = nl.not(x);
            nl.output(s);
        }
        let before = sta::analyze(&nl, &lib).min_cycle_ns;
        buffer_high_fanout(&mut nl, MAX_FANOUT);
        let after = sta::analyze(&nl, &lib).min_cycle_ns;
        assert!(after < before, "buffering should help: {before} -> {after}");
    }

    #[test]
    fn no_buffers_inserted_below_threshold() {
        let mut nl = Netlist::new("small");
        let a = nl.input();
        let x = nl.not(a);
        for _ in 0..3 {
            let s = nl.not(x);
            nl.output(s);
        }
        assert_eq!(buffer_high_fanout(&mut nl, 6), 0);
    }

    #[test]
    fn sizing_improves_loaded_path() {
        let lib = CellLibrary::default();
        let mut nl = Netlist::new("size");
        let mut n = nl.input();
        let other = nl.input();
        for _ in 0..10 {
            n = nl.and2(n, other);
        }
        // Heavy output load via many sinks.
        for _ in 0..6 {
            let s = nl.not(n);
            nl.output(s);
        }
        let before = sta::analyze(&nl, &lib).min_cycle_ns;
        let iters = size_critical_path(&mut nl, &lib, 40);
        let after = sta::analyze(&nl, &lib).min_cycle_ns;
        assert!(iters > 0);
        assert!(after < before, "sizing should help: {before} -> {after}");
    }

    #[test]
    fn sizing_increases_area() {
        let lib = CellLibrary::default();
        let mut nl = Netlist::new("sizearea");
        let mut n = nl.input();
        let other = nl.input();
        for _ in 0..8 {
            n = nl.and2(n, other);
        }
        nl.output(n);
        let before = nl.area_um2(&lib);
        size_critical_path(&mut nl, &lib, 40);
        assert!(nl.area_um2(&lib) >= before);
    }
}
