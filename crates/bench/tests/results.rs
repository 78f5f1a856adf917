//! `results/*.txt` are the registry's committed output: every entry has
//! its file, and the entries cheap enough for tier-1 are re-rendered here
//! and compared byte for byte (CI's `figures` job covers the rest in
//! release). Regenerate with `noc fig --all --out results`.

use noc_bench::{figure, FigCtx, FIGURES};
use noc_sim::run_sim;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// The entries whose render stays within a tier-1 budget with `noc-hw`
/// and `noc-bench` unoptimized: no synthesis of the large VC allocators
/// (Figures 5/6), no 18-curve quality sweep (Figure 7), no saturation
/// search.
const FAST: [&str; 9] = [
    "fig04",
    "fig10",
    "fig11",
    "fig12",
    "ablation-arbiters",
    "ablation-iterations",
    "ablation-radix",
    "ablation-wavefront",
    "smoke",
];

#[test]
fn fast_figures_match_their_committed_text() {
    std::thread::scope(|scope| {
        for name in FAST {
            scope.spawn(move || {
                let fig = figure(name).unwrap();
                // The registry defaults, whatever NOC_* the environment holds.
                let text = fig.text(&FigCtx {
                    run: &run_sim,
                    warmup: fig.warmup,
                    measure: fig.measure,
                    trials: fig.trials,
                });
                let path = results_dir().join(fig.file_name());
                let committed = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                assert_eq!(
                    text,
                    committed,
                    "{name} drifted from results/{}",
                    fig.file_name()
                );
            });
        }
    });
}

#[test]
fn results_holds_exactly_the_registry_and_no_build_noise() {
    let committed: BTreeSet<String> = std::fs::read_dir(results_dir())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".txt"))
        .collect();
    let registry: BTreeSet<String> = FIGURES.iter().map(|f| f.file_name()).collect();
    assert_eq!(committed, registry);
    for name in committed {
        let text = std::fs::read_to_string(results_dir().join(&name)).unwrap();
        for noise in ["Compiling ", "Finished ", "Running "] {
            assert!(
                !text.lines().any(|l| l.trim_start().starts_with(noise)),
                "results/{name} holds a cargo `{noise}` line"
            );
        }
    }
}
