#![forbid(unsafe_code)]
//! Figure regeneration and the sweep orchestrator.
//!
//! Every table/figure of the paper's evaluation (Figures 4–14) and every
//! ablation is one row of the [`registry`]: a name, a render function
//! (`sweep::render`) that builds its text from the data series computed
//! in [`figures`], and — for the simulation figures — the sweep grid
//! ([`sweep::presets`]) that pre-computes its points through the result
//! cache. `noc fig NAME` prints a row; `results/NAME.txt` is its committed
//! text. See `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md`
//! for paper-vs-measured results.

pub mod figures;
pub mod points;
pub mod registry;
pub mod sweep;

pub use points::{workload_matrix, DesignPoint, DESIGN_POINTS};
pub use registry::{figure, preset_spec, FigCtx, Figure, FIGURES};

/// Formats an `f64` that may be NaN (unsaturated/no-data points).
pub fn fmt(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}
