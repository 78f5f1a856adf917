//! End-to-end tests of the `noc` command-line interface.

// Panicking on setup failure is the right behaviour outside library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn noc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_noc"))
        .args(args)
        .output()
        .expect("failed to spawn noc binary")
}

/// Like [`noc`], but fails the test instead of waiting for ever when the
/// command has not exited within ten seconds.
fn noc_exits(args: &[&str]) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_noc"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn noc binary");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("noc {args:?} did not exit");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

#[test]
fn help_lists_all_subcommands() {
    let out = noc(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["noc sim", "noc synth", "noc quality", "noc fig"] {
        assert!(text.contains(cmd), "help missing '{cmd}'");
    }
}

#[test]
fn unknown_command_fails_with_help() {
    for cmd in ["frobnicate", "bench"] {
        let out = noc(&[cmd]);
        assert!(!out.status.success());
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    }
}

#[test]
fn synth_prints_cost_report() {
    let out = noc(&["synth", "vca", "--topology", "mesh", "--vcs", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("min cycle time"));
    assert!(text.contains("cell area"));
    assert!(text.contains("average power"));
}

#[test]
fn synth_reports_oom_for_hopeless_designs() {
    let out = noc(&[
        "synth",
        "vca",
        "--topology",
        "fbfly",
        "--vcs",
        "4",
        "--alloc",
        "wf",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of memory"));
}

#[test]
fn sim_runs_and_reports_latency() {
    let out = noc(&[
        "sim",
        "--topology",
        "mesh",
        "--vcs",
        "1",
        "--rate",
        "0.1",
        "--warmup",
        "300",
        "--measure",
        "700",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("latency"));
    assert!(text.contains("stable           true"));
}

#[test]
fn design_flags_reach_the_run() {
    // Each flag changes its line against the default. A value flag whose
    // usage line turned bare would leave its value unparsed, and a bare
    // one turned into a value flag would swallow the next word.
    let line = |args: &[&str], prefix: &str| {
        let out = noc(args);
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(out.status.success(), "{args:?}: {text}");
        let line = text.lines().find(|l| l.starts_with(prefix));
        line.unwrap_or_else(|| panic!("{args:?}: {text}"))
            .to_string()
    };
    let sim = [
        "sim",
        "--rate",
        "0.3",
        "--warmup",
        "200",
        "--measure",
        "600",
    ];
    for (run, flag, prefix) in [
        (&sim[..], &["--sa", "wf"][..], "switch grants"),
        (&sim, &["--spec", "nonspec"], "switch grants"),
        (&sim, &["--pattern", "transpose"], "latency "),
        (&sim, &["--seed", "7"], "latency "),
        (&["synth", "vca"], &["--dense"], "cell area"),
    ] {
        let changed = line(&[run, flag].concat(), prefix);
        assert_ne!(changed, line(run, prefix), "{flag:?}");
    }
}

#[test]
fn quality_reports_three_architectures() {
    let out = noc(&[
        "quality",
        "vca",
        "--topology",
        "mesh",
        "--vcs",
        "2",
        "--rate",
        "0.8",
        "--trials",
        "200",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for arch in ["sep_if", "sep_of", "wf"] {
        assert!(text.contains(arch), "missing {arch}");
    }
}

#[test]
fn quality_without_a_drawn_request_is_not_a_perfect_score() {
    // At this rate and seed no trial draws a request: every allocator's
    // row says so instead of printing the empty sequence's quality 1.
    for what in ["vca", "swa"] {
        let out = noc(&["quality", what, "--rate", "0.001", "--trials", "5"]);
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        let rows: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(rows.len(), 3, "{text}");
        for row in rows {
            assert!(row.ends_with(" n/a"), "{what}: {row}");
        }
    }
}

#[test]
fn invalid_flag_value_is_a_clean_error() {
    for (args, needle) in [
        (&["sim", "--rate", "not-a-number"][..], "invalid value"),
        (&["sim", "--rate"], "flag --rate needs a value"),
        // A flag is not a value: no dump named `--json`.
        (
            &[
                "sim",
                "--warmup",
                "10",
                "--measure",
                "100",
                "--record",
                "--json",
            ],
            "flag --record needs a value",
        ),
        (&["sim", "--rat", "0.9"], "unknown flag --rat"),
        // A flag only other commands take is refused, not ignored (and
        // its value never parsed): the first one given is named.
        (
            &["check", "--rate", "7", "--seeds", "3"],
            "error: noc check does not take --rate\n",
        ),
        (&["fig", "fig04", "--json"], "noc fig does not take --json"),
        // There is one cycle loop: no engine to name, no threads to give it,
        // no model checker.
        (&["sim", "--engine", "seq"], "unknown flag --engine"),
        (
            &["sweep", "run", "--engine", "seq"],
            "unknown flag --engine",
        ),
        (&["client", "--engine", "seq"], "unknown flag --engine"),
        (&["sim", "--threads", "2"], "unknown flag --threads"),
        (&["mc"], "unknown command 'mc'"),
        // No output that nothing reads: no Verilog text, and a dump that
        // never grows is drawn once, not followed.
        (&["verilog", "vca"], "unknown command 'verilog'"),
        (&["top", "run.jsonl", "--once"], "unknown flag --once"),
        // The latency anatomy is `sim --anatomy`; its ledger keeps a fixed
        // row cap, and a recording has fixed 100-cycle windows with one
        // matching sample each.
        (&["explain", "--rate", "0.4"], "unknown command 'explain'"),
        (&["sim", "--capacity", "1024"], "unknown flag --capacity"),
        (&["sim", "--match-every", "4"], "unknown flag --match-every"),
        (&["sim", "--window", "50"], "unknown flag --window"),
        // A flag that only tunes an observer is refused without it.
        (
            &["sim", "--top-k", "3"],
            "error: --top-k needs --anatomy or --anatomy-out\n",
        ),
        // The serve load driver is the serve_e2e suite.
        (&["serve", "--selftest", "4"], "unknown flag --selftest"),
    ] {
        let out = noc(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
    // --help is the one argument "error" that succeeds, on stdout.
    let out = noc(&["sim", "--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE:"));
}

#[test]
fn invalid_sim_configs_are_one_line_errors_not_panics() {
    for bad in [
        ["--vcs", "0"],
        ["--buf-depth", "0"],
        ["--burst", "0"],
        ["--rate", "-1"],
        ["--rate", "nan"],
        ["--rate", "2"],
        ["--measure", "0"],
        // warmup + measure past u64::MAX: refused, not wrapped to a run of
        // no cycles (release) or a panic (debug).
        ["--warmup", "18446744073709551615"],
        ["--seeds", "0"],
        // One result slot per seed: a huge count is refused, not an abort
        // on the allocation.
        ["--seeds", "100000000000"],
        ["--seeds", "18446744073709551615"],
    ] {
        let out = noc(&["sim", "--warmup", "10", "--measure", "20", bad[0], bad[1]]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bad:?}: {stderr}");
        assert_eq!(
            stderr.lines().filter(|l| !l.is_empty()).count(),
            1,
            "{bad:?} must fail with one line, got: {stderr}"
        );
        assert!(stderr.starts_with("error: "), "{bad:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bad:?} printed a result");
    }
}

#[test]
fn invalid_design_points_are_one_line_errors_on_every_subcommand() {
    // More than 64 VCs per port is no router: mesh 2x1x40, fbfly 2x2x17.
    let wide = "VCs per port exceed the 64 the allocators support";
    for (bad, needle) in [
        (&["quality", "vca", "--vcs", "0"][..], ""),
        (&["synth", "vca", "--vcs", "0"], ""),
        (&["check", "--vcs", "0"], ""),
        (&["quality", "vca", "--rate", "2"], ""),
        (&["quality", "swa", "--rate", "-1"], ""),
        (&["quality", "swa", "--rate", "nan"], ""),
        // A zero rate draws no request: nothing to measure, not quality 1.
        (&["quality", "vca", "--rate", "0"], "--rate"),
        (&["quality", "swa", "--rate", "0"], "--rate"),
        (&["sim", "--vcs", "40"], wide),
        (&["sim", "--anatomy", "--vcs", "33"], wide),
        (&["check", "--vcs", "40"], wide),
        (&["check", "--fixture", "cyclic-vc", "--vcs", "17"], wide),
        (
            &["quality", "vca", "--topology", "fbfly", "--vcs", "17"],
            wide,
        ),
        (
            &["synth", "swa", "--topology", "torus", "--vcs", "17"],
            wide,
        ),
        (&["synth", "vca", "--vcs", "99999999999999999"], wide),
        // No trials is no measurement, and a sizing override that does not
        // parse is refused, not replaced by the default (leading NAME=value
        // words set the environment, as in a shell).
        (&["quality", "vca", "--trials", "0"], "--trials"),
        (&["NOC_TRIALS=0", "fig", "fig12"], "NOC_TRIALS"),
        (&["NOC_TRIALS=many", "fig", "fig04"], "NOC_TRIALS"),
        (&["NOC_MEASURE=abc", "fig", "smoke"], "NOC_MEASURE"),
        (
            &["NOC_WARMUP=-1", "sweep", "run", "--preset", "smoke"],
            "NOC_WARMUP",
        ),
    ] {
        let env = bad.iter().take_while(|w| w.starts_with("NOC_"));
        let out = Command::new(env!("CARGO_BIN_EXE_noc"))
            .envs(env.clone().filter_map(|w| w.split_once('=')))
            .args(&bad[env.count()..])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bad:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{bad:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{bad:?}: {stderr}");
        assert!(stderr.contains(needle), "{bad:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bad:?} printed a result");
    }
    // Exactly 64 VCs per port is a router on every one of them.
    for ok in [
        &["check", "--fixture", "no-dateline", "--vcs", "32"][..],
        &["quality", "swa", "--vcs", "32", "--trials", "20"],
        &["sim", "--vcs", "32", "--warmup", "20", "--measure", "50"],
    ] {
        let out = noc(ok);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("exceed"), "{ok:?}: {stderr}");
        assert!(!out.stdout.is_empty(), "{ok:?}: {stderr}");
    }
}

#[test]
fn fig_lists_the_registry_and_refuses_unknown_names_in_one_line() {
    let names: Vec<&str> = noc_bench::FIGURES.iter().map(|f| f.name).collect();
    // No name: the listing, one entry per line, in registry order.
    let out = noc(&["fig"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let listed: Vec<&str> = (text.lines())
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    assert_eq!(listed, names);
    // HELP names every entry, and its --preset line exactly the presets.
    let help = String::from_utf8_lossy(&noc(&["help"]).stdout).into_owned();
    let words: Vec<&str> = help.split_whitespace().collect();
    for name in &names {
        assert!(words.contains(name), "help does not name '{name}'");
    }
    let presets: Vec<&str> = (noc_bench::FIGURES.iter())
        .filter(|f| f.grid.is_some())
        .map(|f| f.name)
        .collect();
    let line = format!("--preset NAME {}", presets.join(" | "));
    assert!(words.join(" ").contains(&line), "help lacks '{line}'");
    // An unknown name is one error line naming every valid one, and an
    // unknown preset one naming every preset.
    for (cmd, valid) in [
        (&["fig", "nosuch"][..], &names),
        (&["sweep", "run", "--preset", "nosuch"], &presets),
    ] {
        let out = noc(cmd);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd:?}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        let quoted: Vec<&str> = stderr
            .split_once("(available: ")
            .and_then(|(_, rest)| rest.trim_end().strip_suffix(')'))
            .unwrap_or_else(|| panic!("{stderr}"))
            .split(", ")
            .collect();
        assert_eq!(&quoted, valid, "{cmd:?}");
    }
}

#[test]
fn fig_prints_a_figure_and_writes_it_with_out() {
    let dir = std::env::temp_dir().join(format!("noc-cli-fig-{}", std::process::id()));
    let printed = noc(&["fig", "fig04"]);
    assert!(printed.status.success());
    assert!(String::from_utf8_lossy(&printed.stdout).contains("96 of 256"));
    // The underscore spelling of the old binaries finds the same entry,
    // and --out writes the text `results/` holds instead of printing it.
    let out = noc(&[
        "fig",
        "fig04",
        "ablation_wavefront",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty());
    assert_eq!(
        std::fs::read(dir.join("fig04.txt")).unwrap(),
        printed.stdout
    );
    assert!(dir.join("ablation_wavefront.txt").is_file());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn observer_flags_compose_on_one_run() {
    let dir = std::env::temp_dir().join(format!("noc-cli-compose-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let base = [
        "sim",
        "--rate",
        "0.2",
        "--warmup",
        "100",
        "--measure",
        "300",
        "--json",
    ];
    let run = |extra: &[&str]| {
        let out = noc(&[&base[..], extra].concat());
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{extra:?}: {stderr}");
        stderr
    };
    // Each artefact alone.
    run(&["--trace", &path("t")]);
    run(&["--metrics", &path("m.csv")]);
    run(&["--record", &path("r")]);
    run(&["--anatomy-out", &path("a")]);
    let p = |name: &str| path(&format!("{name}.all"));
    let (t, m, r, a) = (p("t"), format!("{}.csv", p("m")), p("r"), p("a"));
    let stderr = run(&[
        "--verify",
        "--profile",
        "--trace",
        &t,
        "--metrics",
        &m,
        "--record",
        &r,
        "--anatomy-out",
        &a,
    ]);
    assert!(stderr.contains(", 0 violations"), "{stderr}");
    for (alone, combined) in [("t", &t), ("m.csv", &m), ("r", &r), ("a", &a)] {
        assert_eq!(
            std::fs::read(path(alone)).unwrap(),
            std::fs::read(combined).unwrap(),
            "{alone} differs from the single-flag artefact"
        );
    }
    // Replication is the one mode that stays exclusive.
    let out = noc(&["sim", "--seeds", "2", "--verify"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seeds"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn top_draws_one_frame_of_a_dump_and_exits() {
    let dir = std::env::temp_dir().join(format!("noc-cli-top-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // The dump's path and the run's text report.
    let record = |name: &str, measure: &str| {
        let path = dir.join(name).to_string_lossy().into_owned();
        let args = [
            "sim",
            "--warmup",
            "10",
            "--measure",
            measure,
            "--record",
            &path,
        ];
        let out = noc(&args);
        assert!(out.status.success(), "{args:?}");
        (path, String::from_utf8_lossy(&out.stdout).into_owned())
    };
    // Three 100-cycle windows: one frame of the last, and the exit.
    let out = noc_exits(&["top", &record("run.jsonl", "300").0]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(text.matches("noc top — ").count(), 1, "{text}");
    assert!(text.contains("window 3 (cycle 300)"), "{text}");
    assert!(text.contains("matching efficiency"), "{text}");
    // A run shorter than one window records none: no matching sample to
    // average, and nothing to draw.
    let (empty, report) = record("empty.jsonl", "20");
    let line = "telemetry        0 windows x 100 cycles, mean matching efficiency n/a\n";
    assert!(report.contains(line), "{report}");
    let out = noc_exits(&["top", &empty]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(stderr.contains(&empty), "{stderr}");
    assert!(out.stdout.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sim_anatomy_prints_the_receipt_then_the_slowest_waterfalls() {
    let run = |top_k: &str| {
        let out = noc(&[
            "sim",
            "--rate",
            "0.3",
            "--warmup",
            "200",
            "--measure",
            "600",
            "--anatomy",
            "--top-k",
            top_k,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let text = run("2");
    let receipt = text.find("reconciliation   ").expect("no receipt");
    let slowest = text.find("slowest packets:").expect("no waterfalls");
    assert!(receipt < slowest, "{text}");
    assert!(
        text.contains("stage-sum mean == measured latency"),
        "{text}"
    );
    assert_eq!(text.matches("\npacket ").count(), 2, "{text}");
    // No waterfall is asked for: none is printed.
    assert!(!run("0").contains("slowest packets:"));
}

#[test]
fn watchdog_guards_a_replicated_run() {
    // The no-dateline torus deadlocks under this load. Replicated, it
    // stops with a post-mortem dump as a single run does, unless the
    // watchdog is off. The dump lands in the working directory.
    let dir = std::env::temp_dir().join(format!("noc-cli-deadlock-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fixture = [
        "sim",
        "--topology",
        "torus",
        "--routing",
        "nodateline",
        "--vcs",
        "1",
        "--rate",
        "0.35",
        "--warmup",
        "1000",
        "--measure",
        "30000",
        "--seeds",
        "2",
    ];
    let run = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_noc"))
            .current_dir(&dir)
            .args(fixture)
            .args(extra)
            .output()
            .unwrap()
    };
    let out = run(&[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("possible deadlock/livelock"), "{stderr}");
    let dumps: Vec<_> = (std::fs::read_dir(&dir).unwrap())
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("noc-postmortem-")
        })
        .collect();
    assert_eq!(dumps.len(), 1, "{stderr}");
    // `noc top` draws the post-mortem dump and exits.
    let out = noc_exits(&["top", dumps[0].to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("matching efficiency"));
    let out = run(&["--no-watchdog"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
