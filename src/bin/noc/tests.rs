//! Unit tests of the crate root: the grammar `noc help` gives the parser,
//! the refusals dispatch makes, and the argument layer's readers.

use super::*;
use crate::sim::DEFAULT_ANATOMY_TOP_K;
use noc_check::fixtures;
use noc_core::{AllocatorKind, SpecMode};
use noc_sim::{RoutingKind, TopologyKind, TrafficPattern};
use std::collections::{BTreeMap, BTreeSet};

fn args(s: &str) -> Args {
    let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
    Args::parse(&argv).unwrap()
}

#[test]
fn parses_flags_and_positionals() {
    let a = args("sim --topology fbfly --rate 0.3 --vcs 4");
    assert_eq!(a.positional, vec!["sim"]);
    assert_eq!(a.topology().unwrap(), TopologyKind::FlattenedButterfly4x4);
    assert!((a.get::<f64>("rate", 0.0).unwrap() - 0.3).abs() < 1e-12);
    assert_eq!(a.get::<usize>("vcs", 1).unwrap(), 4);
}

#[test]
fn defaults_apply() {
    let a = args("sim");
    assert_eq!(a.topology().unwrap(), TopologyKind::Mesh8x8);
    assert_eq!(a.get::<usize>("vcs", 2).unwrap(), 2);
    assert_eq!(a.spec_mode().unwrap(), SpecMode::Pessimistic);
    assert_eq!(a.pattern().unwrap(), TrafficPattern::UniformRandom);
}

#[test]
fn rejects_bad_values() {
    let a = args("sim --topology hypercube");
    assert!(a.topology().is_err());
    let a = args("sim --rate abc");
    assert!(a.get::<f64>("rate", 0.0).is_err());
    let a = args("quality vca --alloc frobnicator");
    assert!(a.alloc_kind().is_err());
}

#[test]
fn missing_flag_value_is_an_error() {
    let argv = vec!["sim".to_string(), "--rate".to_string()];
    assert!(Args::parse(&argv).is_err());
}

/// What `noc help` tells the parser: each command and its flags in usage
/// order, `=` marking a flag that takes a value.
const GRAMMAR: &str = "\
sim topology= vcs= rate= sa= alloc= spec= pattern= buf-depth= burst= warmup= measure= seed=
  seeds= profile trace= metrics= json verify record= top routing= no-watchdog anatomy
  anatomy-out= top-k=
check topology= vcs= all fixture=
synth topology= vcs= alloc= dense spec=
quality topology= vcs= rate= trials=
fig all out= cache-dir= quiet
sweep preset= spec= out= cache-dir= quiet no-render telemetry anatomy
serve addr= cache-dir= out= workers= quiet
client preset= spec= status addr= id= quiet
top
replay
help";

#[test]
fn help_usage_lines_are_exactly_the_command_table() {
    let grammar = usage_grammar(HELP);
    let mut derived = Vec::new();
    let mut arity = BTreeMap::new();
    for (name, flags) in &grammar {
        let mut line = name.to_string();
        for &(flag, value) in flags {
            line += &format!(" {flag}{}", if value { "=" } else { "" });
            // A flag takes a value in every command or in none.
            let first = *arity.entry(flag).or_insert(value);
            assert_eq!(first, value, "noc {name} --{flag}");
        }
        derived.push(line);
    }
    assert_eq!(derived.join("\n"), GRAMMAR.replace("\n  ", " "));
    let handlers = COMMANDS.iter().map(|(name, _)| *name);
    assert!(handlers.eq(grammar.iter().map(|(name, _)| *name)));
}

#[test]
fn help_documents_exactly_the_accepted_flags() {
    // Each usage block names a flag once, and every `--flag` a topic
    // section names is some command's.
    let mut accepted = BTreeSet::new();
    for (name, flags) in usage_grammar(HELP) {
        let row: BTreeSet<&str> = flags.iter().map(|&(flag, _)| flag).collect();
        assert_eq!(row.len(), flags.len(), "duplicate flag in noc {name}");
        accepted.extend(row);
    }
    let word = |rest: &'static str| {
        let end = rest.find(|c: char| !(c.is_ascii_lowercase() || c == '-'));
        &rest[..end.unwrap_or(rest.len())]
    };
    let named: BTreeSet<&str> = HELP.split("--").skip(1).map(word).collect();
    assert_eq!(named, accepted);
}

#[test]
fn a_flag_of_another_command_is_refused_not_ignored() {
    let run = |s: &str| {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        super::run(&argv)
    };
    for (line, msg) in [
        ("check --rate 7", "noc check does not take --rate"),
        (
            "check --vcs 2 --seeds 3 --rate 7",
            "noc check does not take --seeds",
        ),
        ("quality vca --dense", "noc quality does not take --dense"),
        ("replay dump --rate 7", "noc replay does not take --rate"),
        ("help --json", "noc help does not take --json"),
        ("--json", "noc help does not take --json"),
        // A flag no command takes stays the parser's error.
        ("check --rat 7", "unknown flag --rat (see noc help)"),
        ("sim --engine seq", "unknown flag --engine (see noc help)"),
        ("replay dump --", "unknown flag -- (see noc help)"),
    ] {
        assert_eq!(run(line), Err(msg.to_string()), "{line}");
    }
}

#[test]
fn dense_is_a_bare_flag() {
    let a = args("synth vca --dense --vcs 2");
    assert!(a.flags.contains_key("dense"));
    assert_eq!(a.positional, vec!["synth", "vca"]);
}

#[test]
fn json_is_a_bare_flag() {
    let a = args("sim --json --rate 0.2");
    assert!(a.flags.contains_key("json"));
    assert!((a.get::<f64>("rate", 0.0).unwrap() - 0.2).abs() < 1e-12);
}

#[test]
fn verify_and_all_are_bare_flags() {
    let a = args("sim --verify --rate 0.2");
    assert!(a.flags.contains_key("verify"));
    assert!((a.get::<f64>("rate", 0.0).unwrap() - 0.2).abs() < 1e-12);
    let a = args("check --all");
    assert!(a.flags.contains_key("all"));
    assert_eq!(a.positional, vec!["check"]);
}

#[test]
fn check_fixture_takes_a_value() {
    let a = args("check --fixture no-dateline --vcs 2");
    assert_eq!(
        a.flags.get("fixture").map(String::as_str),
        Some("no-dateline")
    );
    assert!(fixtures::by_name("no-dateline", 2).is_some());
    assert!(fixtures::by_name("cyclic-vc", 2).is_some());
    assert!(fixtures::by_name("bogus", 2).is_none());
}

#[test]
fn telemetry_flags_parse() {
    let a = args("sim --record run.jsonl");
    assert_eq!(a.flags.get("record").map(String::as_str), Some("run.jsonl"));
    // top / no-watchdog / telemetry are bare flags.
    let a = args("sim --top --no-watchdog --rate 0.2");
    assert!(a.flags.contains_key("top"));
    assert!(a.flags.contains_key("no-watchdog"));
    assert!((a.get::<f64>("rate", 0.0).unwrap() - 0.2).abs() < 1e-12);
    let a = args("sweep run --telemetry");
    assert!(a.flags.contains_key("telemetry"));
}

#[test]
fn anatomy_flags_parse() {
    // --anatomy is bare in both surfaces that accept it.
    let a = args("sim --anatomy --rate 0.3");
    assert!(a.flags.contains_key("anatomy"));
    assert!((a.get::<f64>("rate", 0.0).unwrap() - 0.3).abs() < 1e-12);
    let a = args("sweep run --anatomy --preset smoke");
    assert!(a.flags.contains_key("anatomy"));
    assert_eq!(a.positional, vec!["sweep", "run"]);
    // --anatomy-out implies --anatomy in cmd_sim; it and --top-k take
    // a value.
    let a = args("sim --anatomy-out dump.jsonl --top-k 3");
    assert_eq!(
        a.flags.get("anatomy-out").map(String::as_str),
        Some("dump.jsonl")
    );
    assert_eq!(a.get::<usize>("top-k", DEFAULT_ANATOMY_TOP_K).unwrap(), 3);
}

#[test]
fn serve_and_client_flags_parse() {
    // --workers takes a value (the pool width).
    let a = args("serve --workers 2 --quiet");
    assert_eq!(a.positional, vec!["serve"]);
    assert_eq!(a.get::<usize>("workers", 8).unwrap(), 2);
    let a = args("serve --addr 127.0.0.1:0 --quiet");
    assert_eq!(a.flags.get("addr").map(String::as_str), Some("127.0.0.1:0"));
    assert!(a.flags.contains_key("quiet"));
    // --status is a bare flag on the client side.
    let a = args("client --status --addr 127.0.0.1:4009");
    assert!(a.flags.contains_key("status"));
    assert_eq!(a.positional, vec!["client"]);
    let a = args("client --preset smoke --id c1");
    assert_eq!(a.flags.get("preset").map(String::as_str), Some("smoke"));
    assert_eq!(a.flags.get("id").map(String::as_str), Some("c1"));
}

#[test]
fn routing_override_table() {
    assert_eq!(args("sim").routing_override().unwrap(), None);
    assert_eq!(
        args("sim --routing dor").routing_override().unwrap(),
        Some(RoutingKind::DimensionOrder)
    );
    assert_eq!(
        args("sim --routing dateline").routing_override().unwrap(),
        Some(RoutingKind::TorusDateline)
    );
    assert_eq!(
        args("sim --routing nodateline").routing_override().unwrap(),
        Some(RoutingKind::TorusNoDateline)
    );
    assert!(args("sim --routing minimal").routing_override().is_err());
}

#[test]
fn allocator_kind_table() {
    for (s, k) in [
        ("sep_if_rr", AllocatorKind::SepIfRr),
        ("sep_if_m", AllocatorKind::SepIfMatrix),
        ("sep_of_rr", AllocatorKind::SepOfRr),
        ("sep_of_m", AllocatorKind::SepOfMatrix),
        ("wf", AllocatorKind::Wavefront),
    ] {
        let a = args(&format!("synth vca --alloc {s}"));
        assert_eq!(a.alloc_kind().unwrap(), k, "{s}");
    }
}
