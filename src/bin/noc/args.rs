//! The one argument layer: the flag grammar read off `noc help`'s usage
//! lines, the parsed [`Args`], and the readers several commands share.

use noc_bench::sweep::{SweepOptions, SweepSpec};
use noc_core::{AllocatorKind, SpecMode, SwitchAllocatorKind, VcAllocSpec};
use noc_sim::{ConfigError, RoutingKind, SimConfig, TopologyKind, TrafficPattern};
use std::collections::HashMap;

/// One command's usage: its name and the flags its usage lines name, each
/// with whether a value follows it.
pub(crate) type Usage<'a> = (&'a str, Vec<(&'a str, bool)>);

/// The `noc NAME` usage blocks of `help`'s USAGE section. A flag takes a
/// value iff its token is not closed by `]` or `)` and the next token is
/// not `[`, `(`, `|` or another flag: `[--vcs C]` and `(--preset NAME |`
/// take one, `[--json]` and `--status)` do not.
pub(crate) fn usage_grammar<'a>(help: &'a str) -> Vec<Usage<'a>> {
    let usage = help.split("\n\n").nth(1).unwrap_or_default();
    let opens = |t: &str| t.starts_with(['[', '(', '|']) || t.starts_with("--");
    let block = |block: &'a str| -> Usage<'a> {
        let tokens: Vec<&str> = block.split_whitespace().collect();
        let flags = tokens.iter().enumerate().filter_map(|(i, t)| {
            let flag = t.trim_start_matches(['[', '(']).strip_prefix("--")?;
            let closed = flag.ends_with([']', ')']);
            let value = !closed && tokens.get(i + 1).is_some_and(|n| !opens(n));
            Some((flag.trim_end_matches([']', ')']), value))
        });
        (tokens[0], flags.collect())
    };
    usage.split("\n  noc ").skip(1).map(block).collect()
}

/// Parsed `--key value` flags plus positional arguments.
pub(crate) struct Args {
    pub(crate) positional: Vec<String>,
    pub(crate) flags: HashMap<String, String>,
}

impl Args {
    /// `--help` anywhere parses as the `help` command; a flag no command
    /// takes, or a value flag without its value, is an error.
    pub(crate) fn parse(argv: &[String]) -> Result<Args, String> {
        let grammar = usage_grammar(crate::HELP);
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                positional.push(a.clone());
                continue;
            };
            if key == "help" {
                return Ok(Args {
                    positional: vec!["help".to_string()],
                    flags: HashMap::new(),
                });
            }
            let mut known = grammar.iter().flat_map(|(_, flags)| flags);
            let value = match known.find(|(flag, _)| *flag == key) {
                Some((_, false)) => "true",
                Some((_, true)) => it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?,
                None => return Err(format!("unknown flag --{key} (see noc help)")),
            };
            flags.insert(key.to_string(), value.to_string());
        }
        Ok(Args { positional, flags })
    }

    pub(crate) fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --{key}")),
        }
    }

    /// A design-axis flag, parsed by the enum's own `parse` — the one
    /// vocabulary sweep specs and serve requests use too.
    fn named<T>(
        &self,
        key: &str,
        what: &str,
        default: T,
        parse: fn(&str) -> Option<T>,
    ) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(s) => parse(s).ok_or_else(|| format!("unknown {what} '{s}'")),
        }
    }

    pub(crate) fn topology(&self) -> Result<TopologyKind, String> {
        let default = TopologyKind::Mesh8x8;
        self.named("topology", "topology", default, TopologyKind::parse)
    }

    pub(crate) fn alloc_kind(&self) -> Result<AllocatorKind, String> {
        let default = AllocatorKind::SepIfRr;
        self.named("alloc", "allocator", default, AllocatorKind::parse)
    }

    pub(crate) fn sw_kind(&self, key: &str) -> Result<SwitchAllocatorKind, String> {
        let default = SwitchAllocatorKind::SepIf(noc_arbiter::ArbiterKind::RoundRobin);
        self.named(key, "switch allocator", default, SwitchAllocatorKind::parse)
    }

    pub(crate) fn spec_mode(&self) -> Result<SpecMode, String> {
        let default = SpecMode::Pessimistic;
        self.named("spec", "speculation mode", default, SpecMode::parse)
    }

    pub(crate) fn pattern(&self) -> Result<TrafficPattern, String> {
        let default = TrafficPattern::UniformRandom;
        self.named("pattern", "pattern", default, TrafficPattern::parse)
    }

    pub(crate) fn routing_override(&self) -> Result<Option<RoutingKind>, String> {
        (self.flags.get("routing"))
            .map(|s| {
                RoutingKind::parse(s)
                    .ok_or_else(|| format!("unknown routing '{s}' (dor|dateline|nodateline)"))
            })
            .transpose()
    }

    /// The router class structure `noc synth|quality` work on,
    /// validated like a `noc sim` configuration: zero VCs or an
    /// out-of-range request rate is a one-line error, not a panic.
    pub(crate) fn design_spec(&self, default_vcs: usize, rate: f64) -> Result<VcAllocSpec, String> {
        let cfg = SimConfig {
            injection_rate: rate,
            ..SimConfig::paper_baseline(self.topology()?, self.get("vcs", default_vcs)?)
        };
        cfg.validate().map_err(|e| e.to_string())?;
        Ok(cfg.vc_spec())
    }

    /// The `--addr` of `noc serve` / `noc client`.
    pub(crate) fn addr(&self) -> String {
        (self.flags.get("addr").cloned()).unwrap_or_else(|| DEFAULT_SERVE_ADDR.to_string())
    }
}

/// Default `noc serve` listen address, shared with `noc client`.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:4009";

/// The `(warmup, measure)` run window of `noc sim`.
pub(crate) fn run_window(args: &Args) -> Result<(u64, u64), String> {
    let (warmup, measure): (u64, u64) = (args.get("warmup", 3000)?, args.get("measure", 6000)?);
    ConfigError::check_window(warmup, measure).map_err(|e| e.to_string())?;
    Ok((warmup, measure))
}

/// Builds the simulated design point from the `noc sim` config flags.
pub(crate) fn sim_config(args: &Args) -> Result<SimConfig, String> {
    let cfg = SimConfig {
        injection_rate: args.get("rate", 0.2)?,
        vca_kind: args.alloc_kind()?,
        sa_kind: args.sw_kind("sa")?,
        spec_mode: args.spec_mode()?,
        pattern: args.pattern()?,
        buf_depth: args.get("buf-depth", 8)?,
        burst: args.get("burst", 1)?,
        seed: args.get("seed", 0x5c09_2009u64)?,
        routing_override: args.routing_override()?,
        ..SimConfig::paper_baseline(args.topology()?, args.get("vcs", 2)?)
    };
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

/// The sweep store and settings of `noc fig` / `noc sweep` / `noc serve`:
/// `--cache-dir` and `--out` (defaulting under `results/`), `--quiet`,
/// `--telemetry` and `--anatomy`.
pub(crate) fn sweep_options(args: &Args) -> SweepOptions {
    let defaults = SweepOptions::default_dirs();
    let dir = |key: &str, default| args.flags.get(key).map_or(default, Into::into);
    let flag = |key: &str| args.flags.contains_key(key);
    SweepOptions {
        cache_dir: dir("cache-dir", defaults.cache_dir),
        out_dir: dir("out", defaults.out_dir),
        quiet: flag("quiet"),
        telemetry: flag("telemetry"),
        anatomy: flag("anatomy"),
        ..defaults
    }
}

/// The sweep spec `--spec FILE` names, as its text and parsed: a typo
/// fails with the spec grammar's diagnostics.
pub(crate) fn read_spec(path: &str) -> Result<(String, SweepSpec), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read spec {path}: {e}"))?;
    let spec = SweepSpec::from_json(&text)?;
    Ok((text, spec))
}
