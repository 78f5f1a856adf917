//! The sweep executor: bounded-parallel, cached, journaled, resumable.
//!
//! [`run_sweep`] expands a [`SweepSpec`] and satisfies each point from
//! the cheapest source available:
//!
//! 1. **journal skip** — the point is recorded complete in the journal
//!    and its result is in the cache: nothing runs;
//! 2. **cache hit** — the result exists in the content-addressed cache
//!    (written by another sweep, a figure render, or an earlier schema-
//!    compatible run): the completion is journaled, nothing runs;
//! 3. **computed** — the point is simulated (via [`run_many`]'s worker
//!    pool), stored in the cache, then journaled.
//!
//! A point whose digest the spec already produced is resolved once: the
//! repeats share its result and count as cache hits (journal skips if it
//! was one), so `computed` is the number of distinct points simulated.
//!
//! The journal append happens only after the cache store succeeds, so a
//! crash at any instant leaves the invariant "journaled ⇒ cached" intact
//! and the resumed run recomputes zero points.

use crate::sweep::cache::ResultCache;
use crate::sweep::journal::{Journal, JournalHeader};
use crate::sweep::spec::{SweepPoint, SweepSpec};
use crate::sweep::SWEEP_SCHEMA;
use noc_obs::{
    check_reconciliation, sweep_manifest_json, write_anatomy_dump, write_telemetry_dump,
    ProgressMeter, SweepManifestPoint,
};
use noc_sim::{run_many, run_sim, Run, SimConfig, SimResult, TelemetryOptions};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Where and how a sweep runs.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Content-addressed result store (shared across sweeps).
    pub cache_dir: PathBuf,
    /// Journal + manifest directory.
    pub out_dir: PathBuf,
    /// Retired: `benchmark/` compiles against it, deleted by ROADMAP 3(c).
    pub engine: Option<noc_sim::Engine>,
    /// Suppress the per-point progress lines on stderr.
    pub quiet: bool,
    /// Refuse to start without an existing journal (`noc sweep resume`).
    pub require_journal: bool,
    /// Record a telemetry dump (`<digest>.telemetry.jsonl` in the cache
    /// directory) for every point this run computes; the manifest links
    /// each point to its dump.
    pub telemetry: bool,
    /// Record a latency-anatomy dump (`<digest>.anatomy.jsonl` in the
    /// cache directory) for every point this run computes; the manifest
    /// links each point to its dump.
    pub anatomy: bool,
}

impl SweepOptions {
    /// Options rooted at the repo's conventional result directories.
    pub fn default_dirs() -> SweepOptions {
        SweepOptions {
            cache_dir: PathBuf::from("results/cache"),
            out_dir: PathBuf::from("results/sweeps"),
            engine: None,
            quiet: false,
            require_journal: false,
            telemetry: false,
            anatomy: false,
        }
    }
}

/// File name (relative to the cache directory) of a point's telemetry dump.
fn telemetry_filename(digest: &str) -> String {
    format!("{digest}.telemetry.jsonl")
}

/// File name (relative to the cache directory) of a point's anatomy dump.
fn anatomy_filename(digest: &str) -> String {
    format!("{digest}.anatomy.jsonl")
}

/// Slowest-packet waterfalls kept per anatomy-enabled sweep point.
const SWEEP_ANATOMY_TOP_K: usize = 8;

/// Simulates one point — once, whichever observers `opts` asks for — and
/// writes each observer's dump next to the cached result, headed by the
/// point digest. The dumps stay out of both the point digest and the
/// cached `SimResult` (observers are pure, and the telemetry summary is
/// stripped before the result is stored), so observed and plain sweeps
/// share cache entries byte for byte. A ledger that does not reconcile
/// with the measured latency fails the point.
fn compute_point(
    point: &SweepPoint,
    opts: &SweepOptions,
    digest: &str,
) -> Result<SimResult, String> {
    let mut run = Run::new(&point.cfg, point.warmup, point.measure);
    if opts.telemetry {
        run = run.telemetry(TelemetryOptions::recording());
    }
    if opts.anatomy {
        run = run.anatomy(SWEEP_ANATOMY_TOP_K);
    }
    // A watchdog trip would poison the whole sweep; sweep specs are
    // assumed deadlock-free and long stalls simply show in the dump.
    let mut out = run.finish();
    let routers = point.cfg.topology.build().num_routers();
    if let Some(rec) = &out.recorder {
        write_telemetry_dump(
            &opts.cache_dir.join(telemetry_filename(digest)),
            rec,
            digest.to_string(),
            point.label.clone(),
            routers,
            point.warmup,
            point.measure,
        )?;
        out.result.telemetry = None;
    }
    if let Some(col) = &out.anatomy {
        check_reconciliation(col, out.result.avg_latency)?;
        write_anatomy_dump(
            &opts.cache_dir.join(anatomy_filename(digest)),
            col,
            digest.to_string(),
            point.label.clone(),
            routers,
            point.warmup,
            point.measure,
        )?;
    }
    Ok(out.result)
}

/// What a sweep run did.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Sweep name.
    pub name: String,
    /// Digest of the expanded spec.
    pub spec_digest: String,
    /// Total points in the sweep.
    pub total: usize,
    /// Points simulated in this run.
    pub computed: usize,
    /// Points satisfied from the cache (journaled this run).
    pub cache_hits: usize,
    /// Points skipped because the journal already recorded them.
    pub journal_skips: usize,
    /// Wall-clock for the whole run, in milliseconds.
    pub wall_ms: u64,
    /// One result per point, in spec expansion order.
    pub results: Vec<SimResult>,
    /// Where the manifest was written.
    pub manifest_path: PathBuf,
    /// Where the journal lives.
    pub journal_path: PathBuf,
}

/// Runs (or resumes) a sweep. See the module docs for the source
/// hierarchy; the returned outcome carries per-source counts, so "resume
/// recomputed nothing" is checkable as `computed == 0`.
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> Result<SweepOutcome, String> {
    let start = Instant::now();
    // Before anything touches the disk: a spec built in code has not been
    // through `SweepSpec::from_value`'s check.
    spec.validate()?;
    let points = spec.expand();
    let digests: Vec<String> = points.iter().map(|p| p.digest()).collect();
    let spec_digest = spec.digest();
    let cache = ResultCache::new(&opts.cache_dir)?;
    // The spec digest participates in the file names, so the same preset
    // at a different run window is a *new* sweep (own journal, own
    // manifest) rather than a refused resume; the header check below
    // still guards against tampered or collided files.
    let tag = &spec_digest[..12];
    let journal_path = opts.out_dir.join(format!("{}-{tag}.journal", spec.name));
    if opts.require_journal && !journal_path.exists() {
        return Err(format!(
            "resume: no journal at {} — start with `noc sweep run`",
            journal_path.display()
        ));
    }
    let header = JournalHeader {
        name: spec.name.clone(),
        spec_digest: spec_digest.clone(),
        points: points.len(),
    };
    let (journal, done) = Journal::open(&journal_path, &header)?;
    // A digest the spec repeats is resolved once, at its first point.
    let mut seen = HashMap::new();
    let first: Vec<usize> = (digests.iter().enumerate())
        .map(|(i, digest)| *seen.entry(digest).or_insert(i))
        .collect();
    let unique: Vec<usize> = (0..points.len()).filter(|&i| first[i] == i).collect();
    let meter = ProgressMeter::new(unique.len());

    let outcomes: Vec<Result<(SimResult, &'static str, u64), String>> =
        run_many(unique.len(), |u| {
            let i = unique[u];
            let point = &points[i];
            let digest = &digests[i];
            let journaled = done.contains(digest);
            let t0 = Instant::now();
            let (result, source): (SimResult, &'static str) = match cache.load(digest) {
                Some(r) if journaled => (r, "journal"),
                Some(r) => (r, "cache"),
                // A journaled-but-evicted point is recomputed like a miss;
                // re-journaling it is harmless (the done-set dedups).
                None => {
                    let r = compute_point(point, opts, digest)?;
                    cache.store(digest, &r)?;
                    (r, "computed")
                }
            };
            let wall_ms = t0.elapsed().as_millis() as u64;
            if source != "journal" {
                journal.append(digest, &point.label, source, wall_ms)?;
            }
            meter.tick();
            if !opts.quiet {
                eprintln!("[sweep {}] {} {}", spec.name, meter.line(), point.label);
            }
            Ok((result, source, wall_ms))
        });

    let mut results: Vec<SimResult> = Vec::with_capacity(points.len());
    let mut manifest_points: Vec<SweepManifestPoint> = Vec::with_capacity(points.len());
    let (mut computed, mut cache_hits, mut journal_skips) = (0usize, 0usize, 0usize);
    let mut outcomes = outcomes.into_iter();
    for (i, &first) in first.iter().enumerate() {
        let outcome = if first == i { outcomes.next() } else { None };
        let (result, source, wall_ms) = match outcome {
            Some(outcome) => outcome?,
            // A repeat takes its first point's result: a cache hit if that
            // one was computed here, otherwise the same kind of hit.
            None => match manifest_points[first].source {
                "computed" => (results[first].clone(), "cache", 0),
                source => (results[first].clone(), source, 0),
            },
        };
        match source {
            "computed" => computed += 1,
            "cache" => cache_hits += 1,
            _ => journal_skips += 1,
        }
        // Dumps from this run or any earlier telemetry-enabled run are
        // linked the same way: by presence on disk next to the cache entry.
        let dump = telemetry_filename(&digests[i]);
        let anatomy_dump = anatomy_filename(&digests[i]);
        manifest_points.push(SweepManifestPoint {
            label: points[i].label.clone(),
            digest: digests[i].clone(),
            source,
            wall_ms,
            telemetry: opts.cache_dir.join(&dump).is_file().then_some(dump),
            anatomy: opts
                .cache_dir
                .join(&anatomy_dump)
                .is_file()
                .then_some(anatomy_dump),
        });
        results.push(result);
    }

    let wall_ms = start.elapsed().as_millis() as u64;
    let manifest = sweep_manifest_json(
        &spec.name,
        SWEEP_SCHEMA,
        &spec_digest,
        computed,
        cache_hits,
        journal_skips,
        wall_ms,
        &manifest_points,
    );
    let manifest_path = opts
        .out_dir
        .join(format!("{}-{tag}.manifest.json", spec.name));
    std::fs::write(&manifest_path, manifest)
        .map_err(|e| format!("manifest: cannot write {}: {e}", manifest_path.display()))?;

    Ok(SweepOutcome {
        name: spec.name.clone(),
        spec_digest,
        total: points.len(),
        computed,
        cache_hits,
        journal_skips,
        wall_ms,
        results,
        manifest_path,
        journal_path,
    })
}

/// A `run_sim`-shaped closure backed by the content-addressed cache:
/// hits load, misses compute and store. The figure renderers
/// take this to make their grid points *and* their adaptive
/// bisection/saturation probes resumable.
pub fn cached_runner(cache: ResultCache) -> impl Fn(&SimConfig, u64, u64) -> SimResult + Sync {
    move |cfg, warmup, measure| {
        let digest = cfg.digest(warmup, measure, SWEEP_SCHEMA);
        if let Some(r) = cache.load(&digest) {
            return r;
        }
        let r = run_sim(cfg, warmup, measure);
        if let Err(e) = cache.store(&digest, &r) {
            // A read-only cache degrades to uncached, never to failure.
            eprintln!("warning: {e}");
        }
        r
    }
}
