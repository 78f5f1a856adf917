//! End-to-end tests for `noc serve`: real TCP, concurrent clients with
//! overlapping grids, dedup accounting, and restart-with-zero-recompute.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use noc_bench::sweep::presets::SMOKE_RATES;
use noc_bench::sweep::serve::{request, start, ClientOutcome, ServeOptions};
use noc_bench::sweep::SweepSpec;
use noc_obs::serve::{serve_status_request_line, serve_sweep_request_line, ServeEvent};
use noc_obs::JsonValue;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "noc-serve-it-{}-{tag}-{}",
        std::process::id(),
        // RELAXED: unique-name ticket only; nothing is published.
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

fn opts(root: &Path) -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: root.join("cache"),
        out_dir: root.join("sweeps"),
        workers: 2,
        quiet: true,
    }
}

/// A tiny mesh grid over `rates`, milliseconds to simulate.
fn spec_json(rates: &[f64]) -> String {
    let rates: Vec<String> = rates.iter().map(|r| format!("{r}")).collect();
    format!(
        "{{\"name\":\"e2e\",\"grids\":[{{\"topology\":\"mesh\",\"vcs\":1,\"rates\":[{}],\"warmup\":50,\"measure\":100}}]}}",
        rates.join(",")
    )
}

/// The digests a spec expands to, computed without the daemon.
fn digests_of(spec: &str) -> HashSet<String> {
    SweepSpec::from_json(spec)
        .unwrap()
        .expand()
        .iter()
        .map(|p| p.digest())
        .collect()
}

/// The `computed` digests recorded in a serve journal, with multiplicity.
fn journaled_digests(path: &Path) -> Vec<String> {
    fs::read_to_string(path)
        .unwrap()
        .lines()
        .skip(1)
        .filter_map(|l| JsonValue::parse(l).ok())
        .filter_map(|v| {
            v.get("digest")
                .and_then(JsonValue::as_str)
                .map(String::from)
        })
        .collect()
}

/// N clients with overlapping grids, concurrently, each asking for the
/// smoke rates plus one rate of its own: every shared digest is computed
/// exactly once, every client receives its complete result set with each
/// point accounted for exactly once, and the journal records each computed
/// digest exactly once.
#[test]
fn concurrent_overlapping_clients_compute_each_shared_digest_once() {
    for clients in [2, 4] {
        overlapping_clients(clients);
    }
}

fn overlapping_clients(clients: usize) {
    let root = scratch(&format!("overlap-{clients}"));
    let daemon = start(&opts(&root)).unwrap();
    let addr = daemon.addr().to_string();

    let specs: Vec<String> = (0..clients)
        .map(|i| spec_json(&[&SMOKE_RATES[..], &[(i as f64 + 1.0) / 100.0]].concat()))
        .collect();
    let per_client = SMOKE_RATES.len() + 1;
    let union: HashSet<String> = specs.iter().flat_map(|s| digests_of(s)).collect();
    assert_eq!(
        union.len(),
        SMOKE_RATES.len() + clients,
        "shared + 1 private per client"
    );

    let outcomes: Vec<(ClientOutcome, HashMap<String, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (specs.iter().enumerate())
            .map(|(i, spec)| {
                let line = serve_sweep_request_line(&format!("client-{i}"), spec, None);
                let addr = addr.as_str();
                scope.spawn(move || {
                    let mut results: HashMap<String, String> = HashMap::new();
                    let outcome = request(addr, &line, |_, event| {
                        if let ServeEvent::Result {
                            digest,
                            result_json,
                            source,
                            ..
                        } = event
                        {
                            assert!(
                                source == "computed" || source == "cache",
                                "unexpected source {source}"
                            );
                            results.insert(digest.clone(), result_json.clone());
                        }
                    })
                    .unwrap();
                    assert_eq!(
                        results.keys().cloned().collect::<HashSet<_>>(),
                        digests_of(spec),
                        "client {i} received exactly its spec's digests"
                    );
                    (outcome, results)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, (outcome, _)) in outcomes.iter().enumerate() {
        assert_eq!(outcome.unique, per_client, "client {i}");
        // Each point reached the client one way: simulated for it, read
        // from the cache, or shared from another client's computation.
        assert_eq!(
            outcome.scheduled + outcome.cache_hits + outcome.coalesced,
            outcome.unique,
            "client {i} of {clients}: {outcome:?}"
        );
    }
    // Every point was satisfied exactly once daemon-wide.
    let counters = daemon.counters();
    assert_eq!(
        counters.computed,
        union.len(),
        "each unique digest computed exactly once across {clients} clients"
    );
    assert_eq!(counters.clients, clients);
    // Cross-client agreement: shared digests carry identical results.
    let mut first: HashMap<&String, &String> = HashMap::new();
    for (digest, json) in outcomes.iter().flat_map(|(_, results)| results) {
        let seen = first.entry(digest).or_insert(json);
        assert_eq!(*seen, json, "shared digest {digest} byte-identical");
    }
    // The journal saw each computed digest once — no duplicate work.
    let journal = daemon.journal_path();
    let shutdown_counters = daemon.shutdown();
    assert_eq!(shutdown_counters.computed, union.len());
    let mut recorded = journaled_digests(&journal);
    let n = recorded.len();
    recorded.sort();
    recorded.dedup();
    assert_eq!(recorded.len(), n, "no digest journaled twice");
    assert_eq!(recorded.into_iter().collect::<HashSet<_>>(), union);
    let _ = fs::remove_dir_all(&root);
}

/// Restarting the daemon over the same directories serves every
/// previously computed point from the cache: zero recomputation, and the
/// journal gains no new records.
#[test]
fn restart_resumes_with_zero_recomputation() {
    let root = scratch("restart");
    let spec = spec_json(&[0.05, 0.10]);
    let expected = digests_of(&spec);

    // Life 1: compute everything.
    let daemon = start(&opts(&root)).unwrap();
    let addr = daemon.addr().to_string();
    let outcome = request(
        &addr,
        &serve_sweep_request_line("first", &spec, None),
        |_, _| {},
    )
    .unwrap();
    assert_eq!(outcome.scheduled, expected.len());
    let journal = daemon.journal_path();
    assert_eq!(daemon.shutdown().computed, expected.len());
    let journal_before = fs::read_to_string(&journal).unwrap();

    // Life 2: same directories — everything is a cache hit.
    let daemon = start(&opts(&root)).unwrap();
    let addr = daemon.addr().to_string();
    let mut sources = Vec::new();
    let outcome = request(
        &addr,
        &serve_sweep_request_line("second", &spec, None),
        |_, event| {
            if let ServeEvent::Result { source, .. } = event {
                sources.push(source.clone());
            }
        },
    )
    .unwrap();
    assert_eq!(outcome.cache_hits, expected.len());
    assert_eq!(outcome.scheduled, 0);
    assert!(sources.iter().all(|s| s == "cache"), "{sources:?}");
    let counters = daemon.shutdown();
    assert_eq!(counters.computed, 0, "restart recomputed nothing");
    assert_eq!(
        fs::read_to_string(&journal).unwrap(),
        journal_before,
        "journal unchanged across the restart run"
    );
    let _ = fs::remove_dir_all(&root);
}

/// The status request and malformed requests over the real wire.
#[test]
fn status_and_error_paths_answer_over_tcp() {
    let root = scratch("status");
    let daemon = start(&opts(&root)).unwrap();
    let addr = daemon.addr().to_string();

    let spec = spec_json(&[0.05]);
    request(
        &addr,
        &serve_sweep_request_line("warm", &spec, None),
        |_, _| {},
    )
    .unwrap();

    let mut seen = None;
    request(&addr, &serve_status_request_line("st"), |_, event| {
        if let ServeEvent::Status {
            computed, clients, ..
        } = event
        {
            seen = Some((*computed, *clients));
        }
    })
    .unwrap();
    assert_eq!(seen, Some((1, 1)), "status reports the computed point");

    // A malformed request is refused with an error line, not a hang.
    let err = request(
        &addr,
        "{\"schema\":\"noc-serve/v1\",\"type\":\"sweep\",\"id\":\"x\"}",
        |_, _| {},
    )
    .unwrap_err();
    assert!(err.contains("daemon refused"), "{err}");

    // The "engine" member an earlier client sends is accepted, unread.
    let line = format!(
        r#"{{"schema":"noc-serve/v1","type":"sweep","id":"eng","engine":"seq","spec":{}}}"#,
        spec_json(&[0.07])
    );
    let outcome = request(&addr, &line, |_, _| {}).unwrap();
    assert_eq!(outcome.unique, 1);
    daemon.shutdown();
    let _ = fs::remove_dir_all(&root);
}

/// A spec no network can be built from is refused with an `error` line —
/// and the daemon, its handler thread intact, serves the next request.
#[test]
fn invalid_config_is_refused_and_the_daemon_keeps_serving() {
    let root = scratch("invalid");
    let daemon = start(&opts(&root)).unwrap();
    let addr = daemon.addr().to_string();
    for bad in [
        r#"{"name":"e2e","grids":[{"vcs":[0],"warmup":50,"measure":100}]}"#,
        r#"{"name":"e2e","grids":[{"vcs":[40],"warmup":50,"measure":100}]}"#,
        r#"{"name":"e2e","grids":[{"buf_depth":0,"warmup":50,"measure":100}]}"#,
        r#"{"name":"e2e","grids":[{"rates":[2],"warmup":50,"measure":100}]}"#,
        r#"{"name":"e2e","grids":[{"warmup":50,"measure":0}]}"#,
    ] {
        let mut error_lines = 0;
        let err = request(
            &addr,
            &serve_sweep_request_line("bad", bad, None),
            |_, e| {
                error_lines += usize::from(matches!(e, ServeEvent::Error { .. }));
            },
        )
        .unwrap_err();
        assert_eq!(error_lines, 1, "{bad}: client must receive an error line");
        assert!(
            err.contains("daemon refused: sweep spec: grids[0]"),
            "{err}"
        );
    }
    let good = serve_sweep_request_line("good", &spec_json(&[0.05]), None);
    let outcome = request(&addr, &good, |_, _| {}).unwrap();
    assert_eq!(outcome.unique, 1);
    let counters = daemon.shutdown();
    assert_eq!(counters.computed, 1, "only the valid request computed");
    let _ = fs::remove_dir_all(&root);
}

/// A request line nested 100,000 deep, or longer than the daemon buffers,
/// gets an `error` line — the first used to overflow the handler's stack
/// and end the process — and the daemon serves the next request.
#[test]
fn hostile_request_lines_get_an_error_reply_and_the_daemon_keeps_serving() {
    let root = scratch("hostile");
    let daemon = start(&opts(&root)).unwrap();
    let addr = daemon.addr().to_string();
    for (line, needle) in [
        ("[".repeat(100_000), "nesting deeper than 128 levels"),
        (
            "x".repeat((1 << 20) + 100),
            "line longer than 1048576 bytes",
        ),
    ] {
        let err = request(&addr, &line, |_, _| {}).unwrap_err();
        assert!(err.contains("daemon refused: request: "), "{err}");
        assert!(err.contains(needle), "{err}");
    }
    let good = serve_sweep_request_line("good", &spec_json(&[0.05]), None);
    assert_eq!(request(&addr, &good, |_, _| {}).unwrap().unique, 1);
    daemon.shutdown();
    let _ = fs::remove_dir_all(&root);
}
