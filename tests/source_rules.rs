//! Source rules the compiler cannot express, checked over every `.rs` file
//! under `crates/ src/ tests/ examples/`. rustc's `unsafe_code` and clippy's
//! `undocumented_unsafe_blocks` (workspace lints) do the rest.
//!
//! 1. Only `tests/zero_alloc.rs` opts out of the `unsafe_code` lint.
//! 2. Every `crates/*/src/lib.rs` and `src/bin/noc.rs` forbids `unsafe`:
//!    `rand` and `proptest` do not inherit the workspace lints, so this is
//!    their guard.
//! 3. Every `Ordering::Relaxed` outside a comment has a `RELAXED:` note on
//!    its line or within [`WINDOW`] lines above, saying why the weakest
//!    ordering is enough there.
//!
//! The patterns are spelled in pieces so that this file obeys its own rules.

// Panicking on setup failure is the right behaviour outside library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::path::{Path, PathBuf};

const ALLOW: &str = concat!("allow(", "unsafe_code)");
const FORBID: &str = concat!("#![forbid(", "unsafe_code)]");
const RELAXED: &str = concat!("Ordering::", "Relaxed");
const NOTE: &str = concat!("RELAXED", ":");
/// How many lines above a relaxed access its note may sit.
const WINDOW: usize = 6;

/// Every `.rs` file of the four source trees as (path relative to the
/// workspace root, text), in path order.
fn sources() -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if path.is_dir() && name != "target" && !name.starts_with('.') {
                walk(&path, out);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        walk(&root.join(top), &mut files);
    }
    files.sort();
    let rel = |f: &Path| {
        f.strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/")
    };
    let read = |f: &Path| std::fs::read_to_string(f).unwrap();
    files.iter().map(|f| (rel(f), read(f))).collect()
}

fn is_crate_root(rel: &str) -> bool {
    let lib = rel
        .strip_prefix("crates/")
        .and_then(|r| r.strip_suffix("/src/lib.rs"));
    rel == "src/bin/noc.rs" || lib.is_some_and(|name| !name.contains('/'))
}

/// The rule violations of one file, one line each.
fn violations(rel: &str, source: &str) -> Vec<String> {
    let mut found = Vec::new();
    if source.contains(ALLOW) && rel != "tests/zero_alloc.rs" {
        found.push(format!("{rel}: opts out of the unsafe_code lint"));
    }
    if is_crate_root(rel) && !source.contains(FORBID) {
        found.push(format!("{rel}: crate root does not forbid unsafe code"));
    }
    let lines: Vec<&str> = source.lines().collect();
    for (n, line) in lines.iter().enumerate() {
        let code = line.split("//").next().unwrap_or_default();
        let noted = lines[n.saturating_sub(WINDOW)..=n]
            .iter()
            .any(|l| l.contains(NOTE));
        if code.contains(RELAXED) && !noted {
            found.push(format!("{rel}:{}: relaxed access without a note", n + 1));
        }
    }
    found
}

#[test]
fn the_workspace_keeps_the_source_rules() {
    let sources = sources();
    let roots = sources.iter().filter(|(rel, _)| is_crate_root(rel)).count();
    assert_eq!(roots, 11, "ten crate roots and the noc binary");
    assert!(sources.iter().any(|(rel, _)| rel == "tests/zero_alloc.rs"));
    let found: Vec<String> = sources
        .iter()
        .flat_map(|(rel, source)| violations(rel, source))
        .collect();
    assert!(found.is_empty(), "\n{}", found.join("\n"));
}

#[test]
fn only_zero_alloc_may_opt_out_of_the_unsafe_lint() {
    let opt_out = format!("#![{ALLOW}]");
    assert_eq!(violations("crates/sim/src/router.rs", &opt_out).len(), 1);
    assert_eq!(violations("tests/cli.rs", &opt_out).len(), 1);
    assert!(violations("tests/zero_alloc.rs", &opt_out).is_empty());
}

#[test]
fn every_crate_root_forbids_unsafe() {
    assert_eq!(
        violations("crates/rand/src/lib.rs", "//! A crate.").len(),
        1
    );
    assert_eq!(violations("src/bin/noc.rs", "fn main() {}").len(), 1);
    assert!(violations("crates/rand/src/lib.rs", FORBID).is_empty());
    assert!(violations("crates/bench/src/sweep/mod.rs", "//! A module.").is_empty());
}

#[test]
fn every_relaxed_access_carries_a_note() {
    let access = format!("n.fetch_add(1, {RELAXED});");
    let rel = "crates/obs/src/progress.rs";
    assert_eq!(violations(rel, &access).len(), 1);
    let too_far = format!("// {NOTE} a counter.{}{access}", "\n".repeat(WINDOW + 1));
    assert_eq!(violations(rel, &too_far).len(), 1);
    let noted = format!("// {NOTE} a counter.{}{access}", "\n".repeat(WINDOW));
    assert!(violations(rel, &noted).is_empty());
    assert!(violations(rel, &format!("{access} // {NOTE} a counter.")).is_empty());
    assert!(violations(rel, &format!("/// Reads with `{RELAXED}`.")).is_empty());
}

/// One codec: outside `crates/obs/src/json.rs`, production code (`src/` and
/// `crates/*/src`, up to a file's `#[cfg(test)]`) spells no JSON member by
/// hand — an escaped `\"key\":` literal — and casts no parsed number with
/// `as`. The next schema gets a `ToJson` impl and the `*_at` accessors.
#[test]
fn production_code_has_no_hand_rolled_json() {
    let key_literal = |line: &str| {
        line.match_indices("\\\"").any(|(at, _)| {
            let rest = &line[at + 2..];
            let name = rest
                .bytes()
                .take_while(|b| b.is_ascii_alphanumeric() || *b == b'_');
            let name = name.count();
            name > 0 && rest[name..].starts_with("\\\":")
        })
    };
    let mut files = sources();
    files.retain(|(rel, _)| rel.split('/').any(|c| c == "src"));
    assert!(files.len() > 80, "the walk found {} files", files.len());
    let mut found = Vec::new();
    for (file, source) in files
        .iter()
        .filter(|(rel, _)| rel != "crates/obs/src/json.rs")
    {
        let production = source.split("#[cfg(test)]").next().unwrap();
        for (n, line) in production.lines().enumerate() {
            if key_literal(line) {
                found.push(format!("{file}:{}: key literal", n + 1));
            }
        }
        for (at, _) in production.match_indices("as_f64()") {
            let statement = production[at..].split(';').next().unwrap();
            if statement.contains(" as u") || statement.contains(" as i") {
                let n = production[..at].lines().count();
                found.push(format!("{file}:{n}: cast of a parsed number"));
            }
        }
    }
    assert!(found.is_empty(), "hand-rolled JSON:\n{}", found.join("\n"));
}
