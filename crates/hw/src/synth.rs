//! The synthesis driver: ties netlist generation, optimization, timing and
//! power into one "Design Compiler run" per design point.

use crate::cell::CellLibrary;
use crate::netlist::Netlist;
use crate::{optimize, power, sta};

/// Outcome of synthesizing one design point — the three quantities the
/// paper's cost figures plot.
#[derive(Clone, Debug)]
pub struct SynthResult {
    /// Design name.
    pub name: String,
    /// Minimum cycle time in ns ("delay" axis of Figures 5/6/10/11).
    pub delay_ns: f64,
    /// Total cell area in µm² (Figures 5/10).
    pub area_um2: f64,
    /// Average power in mW at an input activity factor of 0.5, evaluated at
    /// the design's minimum cycle time (Figures 6/11).
    pub power_mw: f64,
    /// Combinational cell instances after optimization.
    pub cells: usize,
    /// Flip-flop instances.
    pub dffs: usize,
    /// Buffers inserted by the fanout pass.
    pub buffers_inserted: usize,
    /// Sizing iterations applied.
    pub sizing_iterations: usize,
}

/// Synthesis failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SynthError {
    /// The design exceeds the tool's capacity — models the paper's repeated
    /// observation that "Design Compiler consistently ran out of memory"
    /// for the largest (mostly wavefront and matrix-arbiter) design points.
    OutOfMemory {
        /// Cell instances the design would need.
        cells: usize,
        /// The configured capacity.
        budget: usize,
    },
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::OutOfMemory { cells, budget } => write!(
                f,
                "synthesis out of memory: {cells} cell instances exceed capacity {budget}"
            ),
        }
    }
}

impl std::error::Error for SynthError {}

/// A configured synthesis flow.
///
/// ```
/// use noc_hw::builders::arbiters::{arbiter_netlist, HwArbiterKind};
/// use noc_hw::Synthesizer;
///
/// let synth = Synthesizer::default();
/// let report = synth.run(arbiter_netlist(HwArbiterKind::RoundRobin, 8)).unwrap();
/// assert!(report.delay_ns > 0.0 && report.area_um2 > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct Synthesizer {
    /// Maximum cell instances the flow can handle before "running out of
    /// memory". The default is tuned so that the same design points fail
    /// as failed for the paper's authors (dense wavefront VC allocators
    /// beyond the small mesh configs; matrix-arbiter variants of the
    /// largest flattened-butterfly VC allocator).
    pub cell_budget: usize,
}

/// Iteration cap for critical-path sizing.
const SIZING_ITERATIONS: usize = 40;

impl Default for Synthesizer {
    fn default() -> Self {
        Synthesizer {
            cell_budget: 300_000,
        }
    }
}

impl Synthesizer {
    /// An unconstrained flow for tests (no OOM emulation).
    pub fn unlimited() -> Self {
        Synthesizer {
            cell_budget: usize::MAX,
        }
    }

    /// Runs the flow on `netlist`: validate, check capacity, buffer
    /// fanout, size the critical path, then report timing/area/power, all
    /// in the default cell library with power at the paper's activity
    /// factor (§3.1).
    pub fn run(&self, mut netlist: Netlist) -> Result<SynthResult, SynthError> {
        netlist
            .validate()
            .unwrap_or_else(|e| panic!("invalid netlist: {e}"));
        if netlist.instance_count() > self.cell_budget {
            return Err(SynthError::OutOfMemory {
                cells: netlist.instance_count(),
                budget: self.cell_budget,
            });
        }
        let buffers_inserted = optimize::buffer_high_fanout(&mut netlist, optimize::MAX_FANOUT);
        if netlist.instance_count() > self.cell_budget {
            return Err(SynthError::OutOfMemory {
                cells: netlist.instance_count(),
                budget: self.cell_budget,
            });
        }
        let lib = CellLibrary::default();
        let sizing_iterations = optimize::size_critical_path(&mut netlist, &lib, SIZING_ITERATIONS);
        let timing = sta::analyze(&netlist, &lib);
        let freq_ghz = 1.0 / timing.min_cycle_ns;
        let pwr = power::analyze(&netlist, &lib, freq_ghz, power::PAPER_ACTIVITY_FACTOR);
        Ok(SynthResult {
            name: netlist.name.clone(),
            delay_ns: timing.min_cycle_ns,
            area_um2: netlist.area_um2(&lib),
            power_mw: pwr.total_mw,
            cells: netlist.cells().len(),
            dffs: netlist.dffs().len(),
            buffers_inserted,
            sizing_iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wide_or(n: usize) -> Netlist {
        let mut nl = Netlist::new(format!("or{n}"));
        let ins = nl.inputs_vec(n);
        let o = nl.or_tree(&ins);
        nl.output(o);
        nl
    }

    #[test]
    fn synthesis_produces_positive_costs() {
        let s = Synthesizer::unlimited();
        let r = s.run(wide_or(64)).unwrap();
        assert!(r.delay_ns > 0.0 && r.area_um2 > 0.0 && r.power_mw > 0.0);
        assert!(r.cells >= 21); // 64-input OR4 tree
    }

    #[test]
    fn oom_emulation_trips_on_budget() {
        let s = Synthesizer { cell_budget: 10 };
        match s.run(wide_or(64)) {
            Err(SynthError::OutOfMemory { cells, budget }) => {
                assert!(cells > 10);
                assert_eq!(budget, 10);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn bigger_designs_cost_more() {
        let s = Synthesizer::unlimited();
        let small = s.run(wide_or(8)).unwrap();
        let big = s.run(wide_or(128)).unwrap();
        assert!(big.area_um2 > small.area_um2);
        assert!(big.delay_ns > small.delay_ns);
        assert!(big.power_mw > small.power_mw);
    }

    #[test]
    fn optimization_beats_naive_timing() {
        // Same logic analyzed raw vs through the flow.
        let s = Synthesizer::unlimited();
        let mut raw = wide_or(64);
        // Heavy shared-input structure to give buffering something to do.
        let extra = {
            let mut nl = Netlist::new("shared");
            let a = nl.input();
            let b = nl.input();
            let x = nl.and2(a, b);
            for _ in 0..40 {
                let y = nl.not(x);
                nl.output(y);
            }
            nl
        };
        let raw_delay = sta::analyze(&extra, &CellLibrary::default()).min_cycle_ns;
        let opt = s.run(extra).unwrap();
        assert!(opt.delay_ns <= raw_delay);
        let _ = &mut raw;
    }
}
