//! The figure registry: every figure, ablation and sweep preset this
//! repo can print, in one table.
//!
//! `noc fig`, `noc sweep run --preset` and the `noc-serve/v1` preset
//! request all resolve names here, and `results/<name>.txt` holds each
//! entry's committed text. An entry with a grid is a *preset*: the grid
//! is run through the sweep cache first and the render is then all cache
//! hits. Adding a figure, an ablation or a design point is one row.

use crate::figures::SimRunner;
use crate::sweep::presets::{
    ablation_speculation_grids, ablation_traffic_grids, fig13_grids, fig14_grids, smoke_grids,
};
use crate::sweep::render;
use crate::sweep::spec::{SweepGrid, SweepSpec};

/// What a figure's render function works from.
pub struct FigCtx<'a> {
    /// Produces every simulation the figure needs (see [`SimRunner`]).
    pub run: &'a SimRunner,
    /// Warmup cycles per simulation.
    pub warmup: u64,
    /// Measurement cycles per simulation.
    pub measure: u64,
    /// Random request matrices per open-loop quality point.
    pub trials: usize,
}

/// One registry entry.
pub struct Figure {
    /// The name `noc fig`, `--preset` and serve requests use.
    pub name: &'static str,
    /// One line for the `noc fig` listing.
    pub about: &'static str,
    /// Default warmup cycles (0: the figure simulates nothing).
    pub warmup: u64,
    /// Default measurement cycles.
    pub measure: u64,
    /// Default trials per quality point (0: no open-loop experiment).
    pub trials: usize,
    /// The grids that pre-compute the figure's simulation points, for
    /// figures that have them (see [`Figure::spec_at`]).
    pub grid: Option<fn() -> Vec<SweepGrid>>,
    /// Appends the figure's text (see [`Figure::text`]).
    render: fn(&FigCtx, &mut String) -> std::fmt::Result,
}

/// An entry that neither simulates nor samples; every row sets its own
/// name, about and render.
const STATIC: Figure = Figure {
    name: "",
    about: "",
    warmup: 0,
    measure: 0,
    trials: 0,
    grid: None,
    render: |_, _| Ok(()),
};

/// A simulation ablation at the shorter ablation window.
const ABLATION_SIM: Figure = Figure {
    warmup: 2_000,
    measure: 4_000,
    ..STATIC
};

/// Every figure, in `noc fig --all` order.
pub const FIGURES: [Figure; 19] = [
    Figure {
        name: "fig04",
        about: "VC transition matrix, fbfly 2x2x4 (96 of 256 legal)",
        render: render::fig04,
        ..STATIC
    },
    Figure {
        name: "fig05",
        about: "VC allocator area vs delay, dense and sparse",
        render: render::fig05,
        ..STATIC
    },
    Figure {
        name: "fig06",
        about: "VC allocator power vs delay, dense and sparse",
        render: render::fig06,
        ..STATIC
    },
    Figure {
        name: "fig07",
        about: "VC allocator matching quality vs request rate",
        trials: 3_000,
        render: render::fig07,
        ..STATIC
    },
    Figure {
        name: "fig10",
        about: "switch allocator area vs delay, three speculation schemes",
        render: render::fig10,
        ..STATIC
    },
    Figure {
        name: "fig11",
        about: "switch allocator power vs delay, three speculation schemes",
        render: render::fig11,
        ..STATIC
    },
    Figure {
        name: "fig12",
        about: "switch allocator matching quality vs request rate",
        trials: 3_000,
        render: render::fig12,
        ..STATIC
    },
    Figure {
        name: "fig13",
        about: "latency vs injection rate, three switch allocators",
        warmup: 3_000,
        measure: 6_000,
        grid: Some(fig13_grids),
        render: render::fig13,
        ..STATIC
    },
    Figure {
        name: "fig14",
        about: "latency vs injection rate, three speculation schemes",
        warmup: 3_000,
        measure: 6_000,
        grid: Some(fig14_grids),
        render: render::fig14,
        ..STATIC
    },
    Figure {
        name: "ablation-arbiters",
        about: "round-robin vs matrix arbiters: cost and quality impact",
        trials: 2_000,
        render: render::ablation_arbiters,
        ..STATIC
    },
    Figure {
        name: "ablation-iterations",
        about: "multi-iteration separable and augmenting-path quality",
        trials: 3_000,
        render: render::ablation_iterations,
        ..STATIC
    },
    Figure {
        name: "ablation-traffic",
        about: "sep_if vs wf under four traffic patterns, fbfly 2x2x2",
        grid: Some(ablation_traffic_grids),
        render: render::ablation_traffic,
        ..ABLATION_SIM
    },
    Figure {
        name: "ablation-speculation",
        about: "speculative grant kill rates vs load, two schemes",
        grid: Some(ablation_speculation_grids),
        render: render::ablation_speculation,
        ..ABLATION_SIM
    },
    Figure {
        name: "ablation-buffers",
        about: "saturation vs VC buffer depth 4/8/16",
        render: render::ablation_buffers,
        ..ABLATION_SIM
    },
    Figure {
        name: "ablation-radix",
        about: "switch allocator cost and quality vs radix and VC count",
        trials: 1_500,
        render: render::ablation_radix,
        ..STATIC
    },
    Figure {
        name: "ablation-bulk",
        about: "sep_if vs wf saturation under DMA-like bursts",
        render: render::ablation_bulk,
        ..ABLATION_SIM
    },
    Figure {
        name: "ablation-torus",
        about: "8x8 torus with dateline classes vs the mesh",
        render: render::ablation_torus,
        ..ABLATION_SIM
    },
    Figure {
        name: "ablation-wavefront",
        about: "replicated vs unrolled wavefront arrays",
        render: render::ablation_wavefront,
        ..STATIC
    },
    Figure {
        name: "smoke",
        about: "CI-sized preset: two mesh 2x1x1 points",
        warmup: 200,
        measure: 400,
        grid: Some(smoke_grids),
        render: render::smoke,
        ..STATIC
    },
];

impl Figure {
    /// The figure's sizing with the environment overrides applied — the
    /// one place `NOC_WARMUP` / `NOC_MEASURE` / `NOC_TRIALS` are read, so
    /// paper-scale runs (`NOC_TRIALS=10000`, `NOC_MEASURE=10000`, …) and
    /// quick ones go through the same entry. An override that does not
    /// parse, or zero trials, is refused rather than ignored.
    fn sizing(&self) -> Result<(u64, u64, usize), String> {
        fn env<T: std::str::FromStr>(name: &str) -> Result<Option<T>, String> {
            let Some(v) = std::env::var_os(name) else {
                return Ok(None);
            };
            let v = v.to_string_lossy();
            v.parse()
                .map(Some)
                .map_err(|_| format!("invalid value '{v}' for {name}"))
        }
        let (warmup, measure, trials) =
            (env("NOC_WARMUP")?, env("NOC_MEASURE")?, env("NOC_TRIALS")?);
        if trials == Some(0) {
            return Err("NOC_TRIALS must be at least 1".to_string());
        }
        Ok((
            warmup.unwrap_or(self.warmup),
            measure.unwrap_or(self.measure),
            trials.unwrap_or(self.trials),
        ))
    }

    /// The sweep that pre-computes this figure's grid at a `(warmup,
    /// measure)` window, if it has one: named after the figure.
    pub fn spec_at(&self, warmup: u64, measure: u64) -> Option<SweepSpec> {
        let mut grids = (self.grid?)();
        for grid in &mut grids {
            (grid.warmup, grid.measure) = (warmup, measure);
        }
        Some(SweepSpec {
            name: self.name.into(),
            grids,
        })
    }

    /// [`Figure::spec_at`] the env-resolved window.
    pub fn spec(&self) -> Result<Option<SweepSpec>, String> {
        let (warmup, measure, _) = self.sizing()?;
        Ok(self.spec_at(warmup, measure))
    }

    /// The figure's text at the sizing `ctx` carries.
    pub fn text(&self, ctx: &FigCtx) -> String {
        let mut out = String::new();
        // Writing to a `String` cannot fail.
        let _ = (self.render)(ctx, &mut out);
        out
    }

    /// The figure's text at its env-resolved sizing, every simulation
    /// produced by `run`.
    pub fn render_with(&self, run: &SimRunner) -> Result<String, String> {
        let (warmup, measure, trials) = self.sizing()?;
        Ok(self.text(&FigCtx {
            run,
            warmup,
            measure,
            trials,
        }))
    }

    /// The file under `results/` (or `noc fig --out DIR`) holding this
    /// figure's text.
    pub fn file_name(&self) -> String {
        format!("{}.txt", self.name.replace('-', "_"))
    }
}

fn names(of: impl Fn(&Figure) -> bool) -> String {
    let names: Vec<&str> = FIGURES.iter().filter(|f| of(f)).map(|f| f.name).collect();
    names.join(", ")
}

/// Looks a figure up by name (`ablation_x` also finds `ablation-x`); the
/// error names every entry.
pub fn figure(name: &str) -> Result<&'static Figure, String> {
    let wanted = name.replace('_', "-");
    FIGURES
        .iter()
        .find(|f| f.name == wanted)
        .ok_or_else(|| format!("unknown figure '{name}' (available: {})", names(|_| true)))
}

/// Resolves a sweep preset — a figure with a grid — by name; the error
/// names every preset.
pub fn preset_spec(name: &str) -> Result<SweepSpec, String> {
    let spec = figure(name).ok().map(Figure::spec).transpose()?;
    spec.flatten().ok_or_else(|| {
        format!(
            "unknown preset '{name}' (available: {})",
            names(|f| f.grid.is_some())
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_file_safe() {
        let mut seen = std::collections::HashSet::new();
        for f in &FIGURES {
            assert!(seen.insert(f.file_name()), "duplicate name {}", f.name);
            assert!(
                f.name
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-'),
                "{}",
                f.name
            );
            assert!(!f.about.is_empty(), "{}", f.name);
            // A grid needs a window to run at.
            assert!(f.grid.is_none() || (f.warmup > 0 && f.measure > 0));
        }
    }

    #[test]
    fn lookup_accepts_both_separators_and_names_the_alternatives() {
        assert_eq!(figure("ablation_bulk").unwrap().name, "ablation-bulk");
        assert_eq!(figure("ablation-bulk").unwrap().name, "ablation-bulk");
        let err = figure("nosuch").map(|f| f.name).unwrap_err();
        assert_eq!(err.lines().count(), 1);
        for f in &FIGURES {
            assert!(err.contains(f.name), "{err}");
        }
        let err = preset_spec("fig05").unwrap_err();
        assert!(err.contains("smoke") && !err.contains("fig04"), "{err}");
    }
}
