//! Integration tests for the sweep orchestrator: resumability, cache
//! sharing, and bit-identical preset renders.

use noc_bench::sweep::{
    cached_runner, run_sweep, ResultCache, SweepGrid, SweepOptions, SweepSpec, SWEEP_SCHEMA,
};
use noc_bench::{FigCtx, FIGURES};
use noc_sim::{run_sim, TopologyKind};
use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "noc-sweep-it-{}-{tag}-{}",
        std::process::id(),
        // RELAXED: unique-name ticket only; nothing is published.
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

fn opts(root: &Path) -> SweepOptions {
    SweepOptions {
        cache_dir: root.join("cache"),
        out_dir: root.join("sweeps"),
        engine: None,
        quiet: true,
        require_journal: false,
        telemetry: false,
        anatomy: false,
    }
}

/// A three-point sweep small enough to simulate in milliseconds.
fn tiny_spec(name: &str) -> SweepSpec {
    SweepSpec {
        name: name.into(),
        grids: vec![SweepGrid {
            topology: vec![TopologyKind::Mesh8x8],
            vcs: vec![1],
            rates: vec![0.05, 0.10, 0.15],
            warmup: 50,
            measure: 100,
            ..SweepGrid::default()
        }],
    }
}

#[test]
fn fresh_run_computes_everything_and_rerun_computes_nothing() {
    let root = scratch("rerun");
    let spec = tiny_spec("t");
    let first = run_sweep(&spec, &opts(&root)).unwrap();
    assert_eq!(
        (
            first.total,
            first.computed,
            first.cache_hits,
            first.journal_skips
        ),
        (3, 3, 0, 0)
    );
    let second = run_sweep(&spec, &opts(&root)).unwrap();
    assert_eq!(
        (second.computed, second.cache_hits, second.journal_skips),
        (0, 0, 3),
        "a completed sweep re-runs as pure journal skips"
    );
    for (a, b) in first.results.iter().zip(&second.results) {
        assert_eq!(a.to_json_full(), b.to_json_full(), "results bit-identical");
    }
    assert!(first.manifest_path.exists());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn resume_after_kill_recomputes_nothing() {
    let root = scratch("kill");
    let spec = tiny_spec("t");
    let o = opts(&root);
    let first = run_sweep(&spec, &o).unwrap();
    assert_eq!(first.computed, 3);
    // Simulate a kill mid-run: the journal survives with only its header
    // and first record (the torn tail of a real crash is equivalent —
    // journal.rs tests cover torn lines).
    let journal = fs::read_to_string(&first.journal_path).unwrap();
    let kept: Vec<&str> = journal.lines().take(2).collect();
    fs::write(&first.journal_path, format!("{}\n", kept.join("\n"))).unwrap();

    let resumed = run_sweep(
        &spec,
        &SweepOptions {
            require_journal: true,
            ..o
        },
    )
    .unwrap();
    assert_eq!(resumed.computed, 0, "every lost point is a cache hit");
    assert_eq!(resumed.journal_skips, 1);
    assert_eq!(resumed.cache_hits, 2);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn resume_requires_a_journal_and_matching_spec() {
    let root = scratch("guard");
    let o = opts(&root);
    let err = run_sweep(
        &tiny_spec("t"),
        &SweepOptions {
            require_journal: true,
            ..o.clone()
        },
    )
    .unwrap_err();
    assert!(err.contains("no journal"), "{err}");

    let first = run_sweep(&tiny_spec("t"), &o).unwrap();
    // A different run window is a different sweep identity: it gets its
    // own journal (and shares nothing in the cache) instead of clashing.
    let mut changed = tiny_spec("t");
    changed.grids[0].measure = 200;
    let out = run_sweep(&changed, &o).unwrap();
    assert_ne!(out.journal_path, first.journal_path);
    assert_eq!(out.computed, 3, "window change misses the cache");
    // A journal whose header was tampered with (or collided) is refused.
    let text = fs::read_to_string(&first.journal_path).unwrap();
    fs::write(
        &first.journal_path,
        text.replacen(&first.spec_digest, &"0".repeat(32), 1),
    )
    .unwrap();
    let err = run_sweep(&tiny_spec("t"), &o).unwrap_err();
    assert!(err.contains("different sweep"), "{err}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn cache_is_shared_across_sweeps() {
    let root = scratch("shared");
    let o = opts(&root);
    run_sweep(&tiny_spec("first"), &o).unwrap();
    // A different sweep whose grid overlaps on all three points plus one.
    let mut superset = tiny_spec("second");
    superset.grids[0].rates = vec![0.05, 0.10, 0.15, 0.20];
    let out = run_sweep(&superset, &o).unwrap();
    assert_eq!(
        (out.computed, out.cache_hits, out.journal_skips),
        (1, 3, 0),
        "overlapping points come from the first sweep's cache"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_repeated_point_is_simulated_and_journaled_once() {
    let root = scratch("repeat");
    let mut spec = tiny_spec("r");
    spec.grids[0].rates = vec![0.10, 0.05, 0.10, 0.10];
    let out = run_sweep(&spec, &opts(&root)).unwrap();
    assert_eq!(
        (out.total, out.computed, out.cache_hits, out.journal_skips),
        (4, 2, 2, 0),
        "two distinct digests simulated; the repeats are hits"
    );
    let journal = fs::read_to_string(&out.journal_path).unwrap();
    assert_eq!(
        journal.lines().count(),
        1 + 2,
        "header + one record per digest"
    );
    let json: Vec<String> = out.results.iter().map(|r| r.to_json_full()).collect();
    assert_eq!((&json[0], &json[0]), (&json[2], &json[3]));
    assert_ne!(json[0], json[1]);
    let again = run_sweep(&spec, &opts(&root)).unwrap();
    assert_eq!(
        (again.computed, again.cache_hits, again.journal_skips),
        (0, 0, 4)
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn preset_render_from_cache_is_bit_identical_to_direct() {
    let (warmup, measure) = (100, 200);
    let mut presets = 0;
    for fig in FIGURES.iter() {
        let Some(spec) = fig.spec_at(warmup, measure) else {
            continue;
        };
        presets += 1;
        let root = scratch(fig.name);
        let render = |run: &noc_bench::figures::SimRunner| {
            fig.text(&FigCtx {
                run,
                warmup,
                measure,
                trials: 0,
            })
        };
        // Direct simulation of everything the figure asks for...
        let direct = render(&run_sim);
        // ...against the sweep path: populate the cache with the figure's
        // grid, then render through it.
        let out = run_sweep(&spec, &opts(&root)).unwrap();
        assert_eq!(out.computed, out.total, "{}: cold cache", fig.name);
        let on_grid: HashSet<String> = spec.expand().iter().map(|p| p.digest()).collect();
        let cache = ResultCache::new(&root.join("cache")).unwrap();
        let cached = cached_runner(cache.clone());
        let name = fig.name;
        let via_cache = render(&move |cfg, w, m| {
            // Only the adaptive saturation probes of Figures 13/14 may
            // still simulate; a grid point never does.
            let digest = cfg.digest(w, m, SWEEP_SCHEMA);
            assert!(
                cache.contains(&digest) || !on_grid.contains(&digest),
                "{name}: grid point {digest} simulated by the render"
            );
            cached(cfg, w, m)
        });
        assert_eq!(direct, via_cache, "{}: cached render", fig.name);
        let _ = fs::remove_dir_all(&root);
    }
    assert_eq!(presets, 5);
}

#[test]
fn telemetry_sweep_writes_linked_dumps_without_touching_the_cache_contract() {
    let root = scratch("telemetry");
    let spec = tiny_spec("t");
    let recorded = run_sweep(
        &spec,
        &SweepOptions {
            telemetry: true,
            ..opts(&root)
        },
    )
    .unwrap();
    assert_eq!(recorded.computed, 3);

    // Every point got a parseable noc-telemetry/v1 dump, and the manifest
    // links each one by file name.
    let manifest = fs::read_to_string(&recorded.manifest_path).unwrap();
    let mut linked = 0;
    for part in manifest.split("\"telemetry\":\"").skip(1) {
        let name = part.split('"').next().unwrap();
        let dump_path = root.join("cache").join(name);
        let dump = noc_obs::TelemetryDump::parse(&fs::read_to_string(&dump_path).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", dump_path.display()));
        assert!(!dump.windows.is_empty(), "dump must hold windows");
        linked += 1;
    }
    assert_eq!(linked, 3, "all three points link a dump");

    // The cached SimResults are byte-identical to a plain sweep's: the
    // recorder is a pure observer and its summary stays out of the cache.
    let plain_root = scratch("telemetry-plain");
    let plain = run_sweep(&spec, &opts(&plain_root)).unwrap();
    for (a, b) in recorded.results.iter().zip(&plain.results) {
        assert_eq!(a.to_json_full(), b.to_json_full());
    }

    // A later *plain* re-run over the same cache still links the dumps.
    let rerun = run_sweep(&spec, &opts(&root)).unwrap();
    assert_eq!(rerun.computed, 0);
    let manifest = fs::read_to_string(&rerun.manifest_path).unwrap();
    assert_eq!(manifest.matches("\"telemetry\":\"").count(), 3);

    let _ = fs::remove_dir_all(&root);
    let _ = fs::remove_dir_all(&plain_root);
}

#[test]
fn anatomy_sweep_writes_linked_dumps_without_touching_the_cache_contract() {
    let root = scratch("anatomy");
    let spec = tiny_spec("t");
    let recorded = run_sweep(
        &spec,
        &SweepOptions {
            anatomy: true,
            ..opts(&root)
        },
    )
    .unwrap();
    assert_eq!(recorded.computed, 3);

    // Every point got a parseable noc-anatomy/v1 dump whose retained rows
    // all reconcile, and the manifest links each one by file name. The
    // header names the point digest, and the dump's stage-sum mean is its
    // cached result's mean latency, bit for bit.
    let manifest = fs::read_to_string(&recorded.manifest_path).unwrap();
    let cache = ResultCache::new(&root.join("cache")).unwrap();
    let mut linked = 0;
    for part in manifest.split("\"anatomy\":\"").skip(1) {
        let name = part.split('"').next().unwrap();
        let dump_path = root.join("cache").join(name);
        let dump = noc_obs::AnatomyDump::parse(&fs::read_to_string(&dump_path).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", dump_path.display()));
        assert!(dump.totals.packets > 0, "dump must hold packets");
        for p in &dump.records {
            assert!(p.reconciles(), "{p:?}");
        }
        assert_eq!(name, format!("{}.anatomy.jsonl", dump.header.digest));
        let cached = cache.load(&dump.header.digest).expect("cached result");
        let mean = dump.totals.total_sum() as f64 / dump.totals.packets as f64;
        assert_eq!(mean.to_bits(), cached.avg_latency.to_bits(), "{name}");
        linked += 1;
    }
    assert_eq!(linked, 3, "all three points link a dump");

    // The cached SimResults are byte-identical to a plain sweep's: the
    // ledger is a pure observer and its dump stays out of the cache.
    let plain_root = scratch("anatomy-plain");
    let plain = run_sweep(&spec, &opts(&plain_root)).unwrap();
    for (a, b) in recorded.results.iter().zip(&plain.results) {
        assert_eq!(a.to_json_full(), b.to_json_full());
    }

    // A later *plain* re-run over the same cache still links the dumps.
    let rerun = run_sweep(&spec, &opts(&root)).unwrap();
    assert_eq!(rerun.computed, 0);
    let manifest = fs::read_to_string(&rerun.manifest_path).unwrap();
    assert_eq!(manifest.matches("\"anatomy\":\"").count(), 3);

    let _ = fs::remove_dir_all(&root);
    let _ = fs::remove_dir_all(&plain_root);
}

#[test]
fn telemetry_plus_anatomy_sweep_computes_each_point_once() {
    let spec = tiny_spec("t");
    let sweep = |tag: &str, telemetry: bool, anatomy: bool| {
        let root = scratch(tag);
        let options = SweepOptions {
            telemetry,
            anatomy,
            ..opts(&root)
        };
        let outcome = run_sweep(&spec, &options).unwrap();
        assert_eq!(outcome.computed, outcome.total);
        (root, outcome)
    };
    let (both_root, both) = sweep("both", true, true);
    let (tel_root, tel) = sweep("both-telemetry", true, false);
    let (ana_root, ana) = sweep("both-anatomy", false, true);
    let dumps = |root: &Path, suffix: &str| -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = fs::read_dir(root.join("cache"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.to_string_lossy().ends_with(suffix))
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                (name, fs::read(&p).unwrap())
            })
            .collect();
        files.sort();
        files
    };
    // One simulation per point fed both observers: each dump is the one
    // the single-observer sweep writes, byte for byte.
    for (suffix, alone_root) in [
        (".telemetry.jsonl", &tel_root),
        (".anatomy.jsonl", &ana_root),
    ] {
        let combined = dumps(&both_root, suffix);
        assert_eq!(combined.len(), both.total, "{suffix}: one dump per point");
        assert_eq!(combined, dumps(alone_root, suffix), "{suffix}");
    }
    for (a, b) in both
        .results
        .iter()
        .zip(tel.results.iter().zip(&ana.results))
    {
        assert_eq!(a.to_json_full(), b.0.to_json_full());
        assert_eq!(a.to_json_full(), b.1.to_json_full());
    }
    for root in [both_root, tel_root, ana_root] {
        let _ = fs::remove_dir_all(&root);
    }
}

#[test]
fn invalid_spec_is_rejected_before_anything_is_cached_or_journaled() {
    // From outside: the parser refuses it.
    let err = SweepSpec::from_json(r#"{"name":"bad","grids":[{"vcs":[0]}]}"#).unwrap_err();
    assert!(err.ends_with("grids[0]: spec dimension 'vcs_per_class' must be nonzero"));
    let err = SweepSpec::from_json(r#"{"name":"bad","grids":[{"vcs":[40]}]}"#).unwrap_err();
    assert!(err.ends_with("grids[0]: 80 VCs per port exceed the 64 the allocators support"));
    // Built in code: `run_sweep` refuses it, touching neither directory.
    let root = scratch("invalid");
    for grid in [
        SweepGrid {
            vcs: vec![1, 0],
            ..SweepGrid::default()
        },
        SweepGrid {
            vcs: vec![2, 40],
            ..SweepGrid::default()
        },
        SweepGrid {
            rates: vec![0.1, 2.0],
            ..SweepGrid::default()
        },
        SweepGrid {
            measure: 0,
            ..SweepGrid::default()
        },
    ] {
        let spec = SweepSpec {
            name: "bad".into(),
            grids: vec![grid],
        };
        let err = run_sweep(&spec, &opts(&root)).unwrap_err();
        assert!(err.starts_with("sweep spec: grids[0]: "), "{err}");
    }
    assert!(!root.join("cache").exists(), "nothing may be cached");
    assert!(!root.join("sweeps").exists(), "nothing may be journaled");
}
