//! `noc fig` and `noc sweep`: registry figures and declarative sweeps, both
//! through the sweep cache.

use crate::args::{read_spec, sweep_options, Args};
use noc_bench::sweep::{cached_runner, run_sweep, ResultCache, SweepOptions, SweepSpec};
use noc_bench::{figure, preset_spec, Figure, FIGURES};

pub(crate) fn cmd_sweep(args: &Args) -> Result<(), String> {
    let sub = args.positional.get(1).map(String::as_str).unwrap_or("run");
    let mut opts = sweep_options(args);
    opts.require_journal = sub == "resume";
    match sub {
        "run" | "resume" => sweep_run(args, opts),
        "status" => sweep_status(&opts.out_dir, &opts.cache_dir),
        "clean" => sweep_clean(&opts.out_dir, &opts.cache_dir),
        other => Err(format!(
            "unknown sweep subcommand '{other}' (run|resume|status|clean)"
        )),
    }
}

/// Runs `spec` through the cache and journal, reporting on stderr.
fn run_and_report(spec: &SweepSpec, opts: &SweepOptions) -> Result<(), String> {
    let outcome = run_sweep(spec, opts)?;
    eprintln!(
        "sweep {}: {} points — {} computed, {} cache hits, {} journal skips in {:.1}s",
        outcome.name,
        outcome.total,
        outcome.computed,
        outcome.cache_hits,
        outcome.journal_skips,
        outcome.wall_ms as f64 / 1000.0
    );
    eprintln!("manifest: {}", outcome.manifest_path.display());
    Ok(())
}

/// Renders `fig` through the cache `opts` names: after its grid has run
/// every grid point is a hit; only adaptive saturation probes (cached
/// for next time) may still simulate.
fn render_cached(fig: &Figure, opts: &SweepOptions) -> Result<String, String> {
    let runner = cached_runner(ResultCache::new(&opts.cache_dir)?);
    fig.render_with(&runner)
}

fn sweep_run(args: &Args, opts: SweepOptions) -> Result<(), String> {
    let preset_name = args.flags.get("preset");
    let spec = match (preset_name, args.flags.get("spec")) {
        (Some(name), None) => preset_spec(name)?,
        (None, Some(path)) => read_spec(path)?.1,
        (Some(_), Some(_)) => return Err("--preset and --spec are mutually exclusive".to_string()),
        (None, None) => return Err("sweep run needs --preset NAME or --spec FILE".to_string()),
    };
    run_and_report(&spec, &opts)?;
    if let Some(name) = preset_name {
        if !args.flags.contains_key("no-render") {
            print!("{}", render_cached(figure(name)?, &opts)?);
        }
    }
    Ok(())
}

/// `noc fig` — print registry entries (no name: list them). An entry with
/// a grid runs it through the sweep cache first, its journal and manifest
/// kept next to the cached results; every entry then renders through the
/// cache, so no simulation is ever repeated.
pub(crate) fn cmd_fig(args: &Args) -> Result<(), String> {
    let names = &args.positional[1..];
    let all = args.flags.contains_key("all");
    if names.is_empty() && !all {
        for f in &FIGURES {
            println!("{:<22}{}", f.name, f.about);
        }
        return Ok(());
    }
    let figs: Vec<&Figure> = match (all, names) {
        (true, []) => FIGURES.iter().collect(),
        (false, names) => (names.iter().map(|n| figure(n))).collect::<Result<_, _>>()?,
        (true, _) => return Err("fig takes NAME... or --all, not both".to_string()),
    };
    // Resolved up front, so a bad sizing override is refused before any
    // figure runs.
    let specs = (figs.iter().map(|f| f.spec())).collect::<Result<Vec<_>, _>>()?;
    let mut opts = sweep_options(args);
    opts.out_dir = opts.cache_dir.clone();
    let out_dir = args.flags.get("out").map(std::path::Path::new);
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    for (fig, spec) in figs.into_iter().zip(specs) {
        if let Some(spec) = spec {
            run_and_report(&spec, &opts)?;
        }
        let text = render_cached(fig, &opts)?;
        match out_dir {
            None => print!("{text}"),
            Some(dir) => {
                let path = dir.join(fig.file_name());
                std::fs::write(&path, text)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                eprintln!("wrote {}", path.display());
            }
        }
    }
    Ok(())
}

fn sweep_status(out_dir: &std::path::Path, cache_dir: &std::path::Path) -> Result<(), String> {
    use noc_bench::sweep::journal::read_status;
    let mut journals: Vec<std::path::PathBuf> = std::fs::read_dir(out_dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "journal"))
        .collect();
    journals.sort();
    if journals.is_empty() {
        println!("no sweep journals in {}", out_dir.display());
    }
    for path in journals {
        match read_status(&path) {
            Some((header, done)) => {
                let state = if done >= header.points {
                    "complete"
                } else {
                    "partial"
                };
                println!(
                    "{:<24} {:>5}/{:<5} {:<9} spec {}",
                    header.name, done, header.points, state, header.spec_digest
                );
            }
            None => println!("unreadable journal: {}", path.display()),
        }
    }
    let cached = if cache_dir.is_dir() {
        ResultCache::new(cache_dir)?.len()
    } else {
        0
    };
    println!("cache: {} results in {}", cached, cache_dir.display());
    Ok(())
}

fn sweep_clean(out_dir: &std::path::Path, cache_dir: &std::path::Path) -> Result<(), String> {
    let removed_cache = if cache_dir.is_dir() {
        ResultCache::new(cache_dir)?.clear()?
    } else {
        0
    };
    let mut removed_files = 0usize;
    for entry in std::fs::read_dir(out_dir).into_iter().flatten().flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".journal") || name.ends_with(".manifest.json") {
            std::fs::remove_file(&path)
                .map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
            removed_files += 1;
        }
    }
    println!("removed {removed_cache} cached results, {removed_files} journal/manifest files");
    Ok(())
}
