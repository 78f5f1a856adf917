//! The sweep grammar: declarative grids over simulator configurations.
//!
//! A [`SweepSpec`] is a named list of [`SweepGrid`]s; each grid is a
//! cartesian product over configuration axes plus a shared run window
//! (warmup/measure). [`SweepSpec::expand`] flattens the spec
//! into a deterministic point list — same spec, same order, always — and
//! the spec digest is computed over the *expanded point digests*, so two
//! spec files that describe the same work (even with reordered JSON keys
//! or scalar-vs-array axes) are interchangeable for journal validation.

use crate::sweep::SWEEP_SCHEMA;
use noc_core::{AllocatorKind, SpecMode, SwitchAllocatorKind};
use noc_obs::JsonValue;
use noc_sim::{digest_pairs, ConfigError, SimConfig, TopologyKind, TrafficPattern};

/// A named collection of sweep grids.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Sweep name: names the journal and manifest files.
    pub name: String,
    /// The grids; points run in grid order, then axis order.
    pub grids: Vec<SweepGrid>,
}

/// One cartesian grid of configurations sharing a run window.
#[derive(Clone, Debug)]
pub struct SweepGrid {
    /// Topology axis.
    pub topology: Vec<TopologyKind>,
    /// VCs-per-class axis.
    pub vcs: Vec<usize>,
    /// VC-allocator axis.
    pub vca: Vec<AllocatorKind>,
    /// Switch-allocator axis.
    pub sa: Vec<SwitchAllocatorKind>,
    /// Speculation-scheme axis.
    pub spec_mode: Vec<SpecMode>,
    /// Traffic-pattern axis.
    pub pattern: Vec<TrafficPattern>,
    /// Buffer-depth axis.
    pub buf_depth: Vec<usize>,
    /// Burst-size axis.
    pub burst: Vec<usize>,
    /// Injection-rate axis.
    pub rates: Vec<f64>,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// Warmup cycles per run.
    pub warmup: u64,
    /// Measurement cycles per run.
    pub measure: u64,
}

impl Default for SweepGrid {
    fn default() -> Self {
        let base = SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2);
        SweepGrid {
            topology: vec![base.topology],
            vcs: vec![base.vcs_per_class],
            vca: vec![base.vca_kind],
            sa: vec![base.sa_kind],
            spec_mode: vec![base.spec_mode],
            pattern: vec![base.pattern],
            buf_depth: vec![base.buf_depth],
            burst: vec![base.burst],
            rates: vec![base.injection_rate],
            seeds: vec![base.seed],
            warmup: 3_000,
            measure: 6_000,
        }
    }
}

/// One fully resolved point of an expanded sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Human-readable label (journal/manifest display only; identity is
    /// the digest).
    pub label: String,
    /// The resolved configuration.
    pub cfg: SimConfig,
    /// Warmup cycles.
    pub warmup: u64,
    /// Measurement cycles.
    pub measure: u64,
    /// Retired: `benchmark/` compiles against it, deleted by ROADMAP 3(c).
    pub engine: noc_sim::Engine,
}

impl SweepPoint {
    /// The point's content digest under the sweep schema.
    pub fn digest(&self) -> String {
        self.cfg.digest(self.warmup, self.measure, SWEEP_SCHEMA)
    }
}

impl SweepGrid {
    /// Expands the cartesian product in deterministic axis order.
    pub fn expand(&self) -> Vec<SweepPoint> {
        let mut out = Vec::new();
        for &topology in &self.topology {
            for &vcs in &self.vcs {
                let base = SimConfig::paper_baseline(topology, vcs);
                for &vca_kind in &self.vca {
                    for &sa_kind in &self.sa {
                        for &spec_mode in &self.spec_mode {
                            for &pattern in &self.pattern {
                                for &buf_depth in &self.buf_depth {
                                    for &burst in &self.burst {
                                        for &injection_rate in &self.rates {
                                            for &seed in &self.seeds {
                                                let cfg = SimConfig {
                                                    vca_kind,
                                                    sa_kind,
                                                    spec_mode,
                                                    pattern,
                                                    buf_depth,
                                                    burst,
                                                    injection_rate,
                                                    seed,
                                                    ..base.clone()
                                                };
                                                out.push(self.point(cfg));
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Checks the measurement window and every value on the axes
    /// [`SimConfig::validate`] constrains. Its checks are per-field, but
    /// for the VC count, whose limit depends on the topology's class
    /// structure; so one probe per axis value, and per (topology, VCs)
    /// pair, covers the whole cartesian product — without expanding it,
    /// which an invalid value (zero VCs, a router too wide) would not
    /// survive.
    fn validate(&self) -> Result<(), ConfigError> {
        ConfigError::check_window(self.warmup, self.measure)?;
        let base = SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1);
        let probe = |set: &dyn Fn(&mut SimConfig)| {
            let mut cfg = base.clone();
            set(&mut cfg);
            cfg.validate()
        };
        let each = |axis: &[usize], set: fn(&mut SimConfig, usize)| {
            axis.iter().try_for_each(|&v| probe(&|c| set(c, v)))
        };
        for &topology in &self.topology {
            (self.vcs.iter())
                .try_for_each(|&v| probe(&|c| (c.topology, c.vcs_per_class) = (topology, v)))?;
        }
        each(&self.buf_depth, |c, v| c.buf_depth = v)?;
        each(&self.burst, |c, v| c.burst = v)?;
        (self.rates.iter()).try_for_each(|&r| probe(&|c| c.injection_rate = r))
    }

    fn point(&self, cfg: SimConfig) -> SweepPoint {
        let label = format!(
            "{} vca={} sa={} {} {} bd{} b{} pf{} r={} s={:x}",
            cfg.label(),
            cfg.vca_kind.label(),
            cfg.sa_kind.label(),
            cfg.spec_mode.label(),
            cfg.pattern.label(),
            cfg.buf_depth,
            cfg.burst,
            noc_sim::packet::PAYLOAD_FLITS,
            cfg.injection_rate,
            cfg.seed,
        );
        SweepPoint {
            label,
            cfg,
            warmup: self.warmup,
            measure: self.measure,
            engine: noc_sim::Engine::Sequential,
        }
    }
}

impl SweepSpec {
    /// Rejects a spec any of whose points [`SimConfig::validate`] would
    /// reject, naming the grid. [`SweepSpec::from_value`] (and so every
    /// spec file and serve request) and [`crate::sweep::run_sweep`] call
    /// this before expanding.
    pub fn validate(&self) -> Result<(), String> {
        self.grids.iter().enumerate().try_for_each(|(i, g)| {
            g.validate()
                .map_err(|e| format!("sweep spec: grids[{i}]: {e}"))
        })
    }

    /// Expands every grid, in order.
    pub fn expand(&self) -> Vec<SweepPoint> {
        self.grids.iter().flat_map(SweepGrid::expand).collect()
    }

    /// Content digest of the expanded point set (schema included via the
    /// per-point digests). Two specs that expand to the same points — in
    /// any order — share a digest, so journals validate across
    /// reformatted spec files.
    pub fn digest(&self) -> String {
        let pairs: Vec<(String, String)> = self
            .expand()
            .iter()
            .map(|p| ("point".to_string(), p.digest()))
            .collect();
        digest_pairs(&pairs)
    }

    /// Parses a spec from its JSON form:
    ///
    /// ```json
    /// {
    ///   "name": "my-sweep",
    ///   "grids": [
    ///     {"topology": "mesh", "vcs": [1, 2], "sa": ["sep_if_rr", "wf"],
    ///      "rates": [0.1, 0.2], "warmup": 3000, "measure": 6000}
    ///   ]
    /// }
    /// ```
    ///
    /// Every axis accepts a scalar or an array and falls back to the
    /// paper-baseline default when omitted. Unknown keys are rejected so
    /// a typo can't silently shrink a sweep.
    pub fn from_json(s: &str) -> Result<SweepSpec, String> {
        let v = JsonValue::parse(s).map_err(|e| format!("sweep spec: {e}"))?;
        SweepSpec::from_value(&v)
    }

    /// Parses a spec from an already-parsed JSON document — the entry
    /// point the `noc serve` daemon uses for specs embedded inside a
    /// request line (same grammar and validation as [`Self::from_json`]).
    pub fn from_value(v: &JsonValue) -> Result<SweepSpec, String> {
        let read = || -> Result<SweepSpec, String> {
            let name = v.str_at("name")?.to_string();
            if name.is_empty()
                || !name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
            {
                return Err(format!(
                    "name '{name}' must be non-empty [A-Za-z0-9_-] (it names files)"
                ));
            }
            let grids = v.arr_at("grids")?;
            if grids.is_empty() {
                return Err("'grids' is empty".to_string());
            }
            let grids = (grids.iter().enumerate())
                .map(|(i, g)| parse_grid(g).map_err(|e| format!("grids[{i}]: {e}")))
                .collect::<Result<_, _>>()?;
            Ok(SweepSpec { name, grids })
        };
        let spec = read().map_err(|e| format!("sweep spec: {e}"))?;
        spec.validate()?;
        Ok(spec)
    }
}

const GRID_KEYS: [&str; 13] = [
    "topology",
    "vcs",
    "vca",
    "sa",
    "spec",
    "pattern",
    "buf_depth",
    "burst",
    "rates",
    "seeds",
    "warmup",
    "measure",
    "engine",
];

fn parse_grid(g: &JsonValue) -> Result<SweepGrid, String> {
    let members = match g {
        JsonValue::Obj(m) => m,
        _ => return Err("grid must be an object".to_string()),
    };
    for (k, _) in members {
        if !GRID_KEYS.contains(&k.as_str()) {
            return Err(format!("unknown grid key '{k}'"));
        }
    }
    let rate = |j: &JsonValue| {
        (j.as_f64().filter(|r| r.is_finite() && *r > 0.0))
            .ok_or_else(|| "expected a positive number".to_string())
    };
    let mut grid = SweepGrid::default();
    axis(
        g,
        "topology",
        &mut grid.topology,
        named("topology", TopologyKind::parse),
    )?;
    axis(g, "vcs", &mut grid.vcs, JsonValue::to_usize)?;
    axis(
        g,
        "vca",
        &mut grid.vca,
        named("allocator", AllocatorKind::parse),
    )?;
    axis(
        g,
        "sa",
        &mut grid.sa,
        named("switch allocator", SwitchAllocatorKind::parse),
    )?;
    axis(
        g,
        "spec",
        &mut grid.spec_mode,
        named("speculation mode", SpecMode::parse),
    )?;
    axis(
        g,
        "pattern",
        &mut grid.pattern,
        named("pattern", TrafficPattern::parse),
    )?;
    axis(g, "buf_depth", &mut grid.buf_depth, JsonValue::to_usize)?;
    axis(g, "burst", &mut grid.burst, JsonValue::to_usize)?;
    axis(g, "rates", &mut grid.rates, rate)?;
    axis(g, "seeds", &mut grid.seeds, JsonValue::to_u64)?;
    if let Some(w) = g.opt_at("warmup", JsonValue::to_u64)? {
        grid.warmup = w;
    }
    if let Some(m) = g.opt_at("measure", JsonValue::to_u64)? {
        grid.measure = m;
    }
    // Accepted and ignored, so specs that name an engine keep loading.
    g.opt_at("engine", JsonValue::to_str)?;
    Ok(grid)
}

/// Reads the grid member `key` into `into`, if present: an array is the
/// axis, a scalar a one-value axis. An empty axis would empty the grid.
fn axis<'a, T>(
    g: &'a JsonValue,
    key: &str,
    into: &mut Vec<T>,
    read: impl Fn(&'a JsonValue) -> Result<T, String>,
) -> Result<(), String> {
    let values = match g.get(key) {
        None => return Ok(()),
        Some(JsonValue::Arr(items)) if items.is_empty() => {
            return Err(format!("axis '{key}' is empty"))
        }
        Some(JsonValue::Arr(items)) => items.iter().map(read).collect(),
        Some(v) => read(v).map(|one| vec![one]),
    };
    *into = values.map_err(|e| format!("{key}: {e}"))?;
    Ok(())
}

/// Reads a design-axis name with the enum's own `parse` — the one
/// vocabulary the `noc` flags use too.
fn named<T>(
    what: &'static str,
    parse: fn(&str) -> Option<T>,
) -> impl Fn(&JsonValue) -> Result<T, String> {
    move |v| {
        let s = v.to_str()?;
        parse(s).ok_or_else(|| format!("unknown {what} '{s}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_expands_to_one_baseline_point() {
        let pts = SweepGrid::default().expand();
        assert_eq!(pts.len(), 1);
        let base = SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2);
        assert_eq!(
            pts[0].digest(),
            base.digest(3_000, 6_000, SWEEP_SCHEMA),
            "default grid point is the paper baseline"
        );
        assert_eq!(pts[0].digest().len(), 32);
    }

    #[test]
    fn expansion_is_the_full_cartesian_product() {
        let grid = SweepGrid {
            topology: vec![TopologyKind::Mesh8x8, TopologyKind::Torus8x8],
            vcs: vec![1, 2],
            rates: vec![0.1, 0.2, 0.3],
            ..SweepGrid::default()
        };
        let pts = grid.expand();
        assert_eq!(pts.len(), 12);
        // Deterministic order: rates innermost-but-one, seeds innermost.
        assert!((pts[0].cfg.injection_rate - 0.1).abs() < 1e-12);
        assert!((pts[1].cfg.injection_rate - 0.2).abs() < 1e-12);
        assert_eq!(pts[0].cfg.topology, TopologyKind::Mesh8x8);
        assert_eq!(pts[6].cfg.topology, TopologyKind::Torus8x8);
        // All digests distinct.
        let mut digests: Vec<String> = pts.iter().map(SweepPoint::digest).collect();
        digests.sort();
        digests.dedup();
        assert_eq!(digests.len(), 12);

        // Seeded random specs, with repeated axis values: the count is the
        // product of the axis lengths, two points share a digest exactly
        // when their configs and windows are equal, and `expand` is stable.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::HashMap;
        /// Up to three values from `pool`, at most 48 points a grid.
        fn axis<T: Copy>(rng: &mut StdRng, points: &mut usize, pool: &[T]) -> Vec<T> {
            let len = rng.gen_range(1..=3usize).min(48 / *points);
            *points *= len;
            (0..len)
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect()
        }
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut repeats = 0;
        for _ in 0..200 {
            let mut expected = 0;
            let grids = (0..rng.gen_range(1..=2usize)).map(|_| {
                let n = &mut 1;
                let sa = crate::figures::SW_FIGURE_KINDS.map(|(_, kind)| kind);
                let grid = SweepGrid {
                    topology: axis(
                        &mut rng,
                        n,
                        &[TopologyKind::Mesh8x8, TopologyKind::Torus8x8],
                    ),
                    vcs: axis(&mut rng, n, &[1, 2]),
                    vca: axis(&mut rng, n, &AllocatorKind::QUALITY_FIGURE_KINDS),
                    sa: axis(&mut rng, n, &sa),
                    spec_mode: axis(&mut rng, n, &SpecMode::ALL),
                    pattern: axis(
                        &mut rng,
                        n,
                        &[TrafficPattern::UniformRandom, TrafficPattern::Transpose],
                    ),
                    buf_depth: axis(&mut rng, n, &[4, 8]),
                    burst: axis(&mut rng, n, &[1, 2]),
                    rates: axis(&mut rng, n, &[0.1, 0.2]),
                    seeds: axis(&mut rng, n, &[1, 2]),
                    warmup: [50, 100][rng.gen_range(0..2usize)],
                    measure: [100, 200][rng.gen_range(0..2usize)],
                };
                expected += *n;
                grid
            });
            let spec = SweepSpec {
                name: "random".into(),
                grids: grids.collect(),
            };
            let pts = spec.expand();
            assert_eq!(pts.len(), expected);
            let digests: Vec<String> = pts.iter().map(SweepPoint::digest).collect();
            let (mut config_of, mut digest_of) = (HashMap::new(), HashMap::new());
            for (p, digest) in pts.iter().zip(&digests) {
                let config = format!("{:?} {} {}", p.cfg, p.warmup, p.measure);
                assert_eq!(config_of.entry(digest).or_insert(config.clone()), &config);
                assert_eq!(*digest_of.entry(config).or_insert(digest), digest);
            }
            repeats += pts.len() - config_of.len();
            let again: Vec<(String, String)> = (spec.expand().iter())
                .map(|p| (p.label.clone(), p.digest()))
                .collect();
            let first: Vec<(String, String)> =
                (pts.iter().map(|p| p.label.clone())).zip(digests).collect();
            assert_eq!(again, first);
        }
        assert!(repeats > 0, "no random grid repeated a value");
    }

    #[test]
    fn json_round_trip_and_key_order_independence() {
        let a = SweepSpec::from_json(
            r#"{"name":"t","grids":[{"topology":["mesh"],"vcs":2,"rates":[0.1,0.2],"warmup":100,"measure":200}]}"#,
        )
        .unwrap();
        let b = SweepSpec::from_json(
            r#"{"grids":[{"measure":200,"rates":[0.1,0.2],"warmup":100,"vcs":[2],"topology":"mesh"}],"name":"t"}"#,
        )
        .unwrap();
        assert_eq!(a.expand().len(), 2);
        assert_eq!(a.digest(), b.digest(), "scalar vs array, reordered keys");
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected() {
        // The sparse VC allocator and 4-flit payloads are fixed: a grid
        // cannot vary them, so their old axes are typos like any other.
        for key in ["ratess", "vca_sparse", "payload_flits"] {
            let bad = format!(r#"{{"name":"t","grids":[{{"{key}":[4]}}]}}"#);
            let refused = SweepSpec::from_json(&bad).unwrap_err();
            assert!(
                refused.ends_with(&format!("unknown grid key '{key}'")),
                "{refused}"
            );
        }
        for bad in [
            r#"{"name":"t","grids":[{"rates":[-0.1]}]}"#,
            r#"{"name":"t","grids":[{"rates":[2]}]}"#,
            r#"{"name":"t","grids":[{"vcs":[1,0]}]}"#,
            // Past 64 VCs per port: mesh is 2x1xC, fbfly 2x2xC, and every
            // (topology, VCs) pair of a grid is a point.
            r#"{"name":"t","grids":[{"vcs":[32,33]}]}"#,
            r#"{"name":"t","grids":[{"topology":["mesh","fbfly"],"vcs":17}]}"#,
            r#"{"name":"t","grids":[{"buf_depth":0}]}"#,
            r#"{"name":"t","grids":[{"burst":0}]}"#,
            r#"{"name":"t","grids":[{"measure":0}]}"#,
            r#"{"name":"t","grids":[{"warmup":18446744073709551615,"measure":1}]}"#,
            r#"{"name":"t","grids":[{"topology":"hypercube"}]}"#,
            r#"{"name":"t","grids":[{"sa":"maxsize"}]}"#,
            r#"{"name":"t","grids":[{"spec":7}]}"#,
            r#"{"name":"t","grids":[{"engine":7}]}"#,
            r#"{"name":"t","grids":[{"rates":[]}]}"#,
            r#"{"name":"t","grids":[]}"#,
            r#"{"name":"../evil","grids":[{}]}"#,
            r#"{"grids":[{}]}"#,
        ] {
            assert!(SweepSpec::from_json(bad).is_err(), "{bad}");
        }
        // A file cannot spell a window past `u64` (the codec stops at 2^53);
        // a spec built in code can, and `run_sweep` validates it the same.
        let wraps = SweepSpec {
            name: "t".into(),
            grids: vec![SweepGrid {
                warmup: u64::MAX,
                ..SweepGrid::default()
            }],
        };
        let refused = wraps.validate().unwrap_err();
        assert!(refused.ends_with("cycles overflows u64"), "{refused}");
        // The engine name older specs carry is accepted and changes nothing:
        // the spec digest covers every expanded point, in order.
        let plain = SweepSpec::from_json(r#"{"name":"t","grids":[{"rates":[0.1,0.2]}]}"#).unwrap();
        let named = r#"{"name":"t","grids":[{"rates":[0.1,0.2],"engine":"seq"}]}"#;
        let named = SweepSpec::from_json(named).unwrap();
        assert_eq!(named.digest(), plain.digest());
        assert_eq!(named.expand().len(), 2);
        // Exactly 64 is a router.
        for ok in [
            r#"{"name":"t","grids":[{"vcs":32}]}"#,
            r#"{"name":"t","grids":[{"topology":["fbfly","torus"],"vcs":16}]}"#,
        ] {
            SweepSpec::from_json(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn spec_digest_covers_run_window() {
        let mk = |measure: u64| SweepSpec {
            name: "t".into(),
            grids: vec![SweepGrid {
                measure,
                ..SweepGrid::default()
            }],
        };
        assert_ne!(mk(100).digest(), mk(200).digest());
    }
}
