//! The serve family: an in-process `noc serve` daemon on a loopback port,
//! populated cold during set-up and then re-asked for the same grids by a
//! **closed loop of two clients** — each sends its next request only when
//! the previous one's `done` line has arrived, one connection per request,
//! as `noc client` does. The read side of the store, behind TCP.

use crate::common::{remove_dir, Checks, Env, Values};
use crate::meter::{Budget, Meter, Samples};
use crate::stats;
use crate::trace::Tracer;
use noc_bench::sweep::serve::{request, start, ClientOutcome, Daemon, ServeOptions, ServeRequest};
use noc_bench::sweep::SweepSpec;
use noc_obs::{serve_sweep_request_line, ServeEvent};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Closed-loop clients (and daemon workers): `nproc` on the reference box.
pub const CLIENTS: usize = 2;
/// `ServeRequest::parse` calls the parse metric is the median of.
const PARSE_OPS: usize = 50;

/// One serve session of the benchmark.
#[derive(Clone, Debug)]
pub struct ServeCase {
    /// Seed axis of every requested grid. At most 2^53, so it survives the
    /// request line's JSON numbers exactly.
    pub seed: u64,
    /// Injection rates, as hundredths so the decimal form on the wire
    /// parses back to the identical double.
    pub rate_hundredths: Vec<u32>,
    /// Points per client grid; client `k` asks for
    /// `rates[k * stride .. k * stride + grid]`, so grids overlap.
    pub grid: usize,
    pub stride: usize,
    pub warmup: u64,
    pub measure: u64,
    /// Requests (both clients together) the timed phase sends at least.
    pub min_requests: usize,
    /// Requests per side of the ladder's tracing-off / tracing-on pair.
    pub ladder_requests: usize,
}

impl ServeCase {
    fn spec_json(&self, client: usize) -> String {
        let lo = client * self.stride;
        let rates: Vec<String> = self.rate_hundredths[lo..lo + self.grid]
            .iter()
            .map(|&h| format!("{}", f64::from(h) / 100.0))
            .collect();
        format!(
            "{{\"name\":\"bench-{client}\",\"grids\":[{{\"topology\":\"mesh\",\"vcs\":1,\"rates\":[{}],\"seeds\":[{}],\"warmup\":{},\"measure\":{}}}]}}",
            rates.join(","),
            self.seed,
            self.warmup,
            self.measure
        )
    }

    fn request_line(&self, client: usize) -> String {
        serve_sweep_request_line(&format!("bench-{client}"), &self.spec_json(client), None)
    }

    /// Unique point digests across both clients' grids, computed without
    /// the daemon.
    fn unique_digests(&self) -> Result<usize, String> {
        let mut digests = BTreeSet::new();
        for client in 0..CLIENTS {
            for p in SweepSpec::from_json(&self.spec_json(client))?.expand() {
                digests.insert(p.digest());
            }
        }
        Ok(digests.len())
    }
}

/// A running daemon whose cache holds every point of both grids.
struct Session {
    daemon: Daemon,
    addr: String,
    lines: Vec<String>,
    unique: usize,
    cold_s: f64,
    cold: Vec<ClientOutcome>,
    root: PathBuf,
}

impl Session {
    /// Starts the daemon and has both clients request their grids cold, at
    /// the same time.
    fn start(case: &ServeCase, env: &Env, tracer: &Tracer) -> Result<Session, String> {
        let root = env.fresh_dir("serve");
        let daemon = start(&ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            cache_dir: root.join("cache"),
            out_dir: root.join("out"),
            workers: CLIENTS,
            quiet: true,
        })?;
        let addr = daemon.addr().to_string();
        let lines: Vec<String> = (0..CLIENTS).map(|c| case.request_line(c)).collect();
        let start = Instant::now();
        let cold: Vec<Result<ClientOutcome, String>> = tracer.scope("serve.cold", None, 0, |_| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = lines
                    .iter()
                    .map(|line| scope.spawn(|| request(&addr, line, |_, _| {})))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("cold client panicked"))
                    .collect()
            })
        });
        let cold_s = start.elapsed().as_secs_f64();
        let cold = match cold.into_iter().collect::<Result<Vec<_>, _>>() {
            Ok(c) => c,
            Err(e) => {
                daemon.shutdown();
                return Err(e);
            }
        };
        Ok(Session {
            daemon,
            addr,
            lines,
            unique: case.unique_digests()?,
            cold_s,
            cold,
            root,
        })
    }

    /// Dedup check: the daemon computed each unique digest exactly once,
    /// then (after the warm phase) nothing more.
    fn finish(self, checks: &mut Checks) {
        let counters = self.daemon.shutdown();
        checks.op(counters.computed == self.unique, || {
            format!(
                "daemon computed {} points for {} unique digests",
                counters.computed, self.unique
            )
        });
        remove_dir(&self.root);
    }
}

/// What the clients saw in one warm phase.
#[derive(Default)]
struct Warm {
    wall_s: f64,
    latency_ms: Vec<f64>,
    to_accepted_ms: Vec<f64>,
    to_done_ms: Vec<f64>,
    bytes: u64,
    /// `error` lines and transport failures.
    errors: u64,
    /// Requests answered from anything but the cache.
    not_cached: u64,
}

impl Warm {
    fn requests(&self) -> usize {
        self.latency_ms.len() + self.errors as usize
    }
}

/// Closed loop: each client re-asks for its grid until `budget` is spent,
/// `budget`'s rep count being requests of both clients together.
fn hammer(session: &Session, grid: usize, budget: Budget, tracer: &Tracer, first_id: u64) -> Warm {
    // RELAXED: a tally deciding when to stop; it publishes no other data.
    let sent = AtomicUsize::new(0);
    let start = Instant::now();
    let per_client: Vec<Warm> = std::thread::scope(|scope| {
        let handles: Vec<_> = session
            .lines
            .iter()
            .map(|line| {
                let (sent, addr) = (&sent, session.addr.as_str());
                scope.spawn(move || {
                    let mut w = Warm::default();
                    loop {
                        let k = sent.fetch_add(1, Ordering::Relaxed);
                        if !budget.more(k, start.elapsed().as_secs_f64()) {
                            break w;
                        }
                        let id = first_id + k as u64;
                        let t0 = Instant::now();
                        let whole = tracer.begin("serve.request", None, id);
                        let mut phase = tracer.begin("serve.connect_to_accepted", whole, id);
                        let mut accepted_at = None;
                        let outcome = request(addr, line, |raw, event| {
                            if tracer.on() {
                                w.bytes += raw.len() as u64 + 1;
                                if matches!(event, ServeEvent::Accepted { .. }) {
                                    tracer.end(phase);
                                    phase = tracer.begin("serve.accepted_to_done", whole, id);
                                    accepted_at = Some(t0.elapsed().as_secs_f64() * 1e3);
                                }
                            }
                        });
                        tracer.end(phase);
                        tracer.end(whole);
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        match outcome {
                            Ok(o) => {
                                w.latency_ms.push(ms);
                                w.not_cached += u64::from(o.cache_hits != grid);
                                if let Some(a) = accepted_at {
                                    w.to_accepted_ms.push(a);
                                    w.to_done_ms.push(ms - a);
                                }
                            }
                            Err(e) => {
                                eprintln!("FAILED: request {id}: {e}");
                                w.errors += 1;
                            }
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm client panicked"))
            .collect()
    });
    let mut all = Warm {
        wall_s: start.elapsed().as_secs_f64(),
        ..Warm::default()
    };
    for w in per_client {
        all.latency_ms.extend(w.latency_ms);
        all.to_accepted_ms.extend(w.to_accepted_ms);
        all.to_done_ms.extend(w.to_done_ms);
        all.bytes += w.bytes;
        all.errors += w.errors;
        all.not_cached += w.not_cached;
    }
    all
}

pub struct ServeMeasured {
    pub setup: Samples,
    /// Completed requests of the timed phase: the latency sample count.
    pub requests: usize,
    pub wall_s: f64,
    /// Printed for the reader, not gated: too few samples lie beyond it in
    /// a probe, and its run-to-run spread is wider than any bound.
    pub p99_ms: f64,
    pub values: Values,
}

/// Set-up (daemon + cold population), the timed closed loop, the checks.
pub fn measure(
    case: &ServeCase,
    env: &Env,
    meter: &mut Meter,
    budget: Budget,
    setup_reps: usize,
    checks: &mut Checks,
) -> ServeMeasured {
    let off = Tracer::new(false);
    let mut session = None;
    let mut setup = Samples::default();
    for _ in 0..setup_reps {
        if let Some(previous) = session.take() {
            Session::finish(previous, checks);
        }
        let (started, sample) = meter.timed(|| Session::start(case, env, &off));
        setup.0.push(sample);
        match started {
            Ok(s) => session = Some(s),
            Err(e) => checks.op(false, || format!("serve set-up: {e}")),
        }
    }
    let Some(session) = session else {
        return ServeMeasured {
            setup,
            requests: 0,
            wall_s: 0.0,
            p99_ms: f64::NAN,
            values: Values::new(),
        };
    };
    let warm = hammer(&session, case.grid, budget, &off, 1);
    checks.ops(
        warm.requests() as u64,
        warm.errors + warm.not_cached,
        "requests failed or missed the cache",
    );
    session.finish(checks);
    let sorted = stats::sorted(&warm.latency_ms);
    let values = vec![
        (
            "requests_per_s".to_string(),
            sorted.len() as f64 / warm.wall_s,
        ),
        (
            "request_p50_ms".to_string(),
            stats::percentile(&sorted, 0.5),
        ),
        (
            "request_p90_ms".to_string(),
            stats::percentile(&sorted, 0.9),
        ),
    ];
    ServeMeasured {
        setup,
        requests: sorted.len(),
        wall_s: warm.wall_s,
        p99_ms: stats::percentile(&sorted, 0.99),
        values,
    }
}

pub struct ServeLadder {
    pub values: Values,
    pub trace_overhead_share: f64,
}

/// The serve rung: the cold phase's dedup, then where a warm request's
/// time goes on the client's clock.
pub fn ladder(case: &ServeCase, env: &Env, tracer: &Tracer, checks: &mut Checks) -> ServeLadder {
    let mut values = Values::new();
    let session = match Session::start(case, env, tracer) {
        Ok(s) => s,
        Err(e) => {
            checks.op(false, || format!("serve set-up: {e}"));
            return ServeLadder {
                values,
                trace_overhead_share: 0.0,
            };
        }
    };
    let delivered: usize = session.cold.iter().map(|o| o.unique).sum();
    let coalesced: usize = session.cold.iter().map(|o| o.coalesced).sum();
    let computed = session.daemon.counters().computed;
    values.push((
        "serve.cold.points_per_s".to_string(),
        session.unique as f64 / session.cold_s,
    ));
    values.push((
        "serve.cold.coalesced_share".to_string(),
        coalesced as f64 / delivered.max(1) as f64,
    ));
    values.push((
        "serve.cold.computed_over_unique".to_string(),
        computed as f64 / session.unique.max(1) as f64,
    ));

    let budget = Budget::Reps(case.ladder_requests);
    let untraced = hammer(&session, case.grid, budget, &Tracer::new(false), 1);
    let traced = hammer(
        &session,
        case.grid,
        budget,
        tracer,
        1 + case.ladder_requests as u64,
    );
    for w in [&untraced, &traced] {
        checks.ops(
            w.requests() as u64,
            w.errors + w.not_cached,
            "requests failed or missed the cache",
        );
    }
    values.push((
        "serve.connect_to_accepted_ms".to_string(),
        stats::median(&traced.to_accepted_ms),
    ));
    values.push((
        "serve.accepted_to_done_ms".to_string(),
        stats::median(&traced.to_done_ms),
    ));
    values.push((
        "serve.request_p99_ms".to_string(),
        stats::percentile(&stats::sorted(&traced.latency_ms), 0.99),
    ));
    let line = &session.lines[0];
    let parse_us: Vec<f64> = (0..PARSE_OPS)
        .map(|_| {
            let start = Instant::now();
            black_box(ServeRequest::parse(line)).ok();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    values.push(("serve.proto_parse_us".to_string(), stats::median(&parse_us)));
    values.push((
        "serve.bytes_per_request".to_string(),
        traced.bytes as f64 / traced.latency_ms.len().max(1) as f64,
    ));
    values.push((
        "serve.error_replies".to_string(),
        (untraced.errors + traced.errors) as f64,
    ));
    session.finish(checks);

    let per_request = |w: &Warm| w.wall_s / w.requests().max(1) as f64;
    ServeLadder {
        values,
        trace_overhead_share: per_request(&traced) / per_request(&untraced) - 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_overlap_and_round_trip_through_the_wire_format() {
        let case = ServeCase {
            seed: 0x5c09_2009,
            rate_hundredths: (1..=24).collect(),
            grid: 16,
            stride: 8,
            warmup: 10,
            measure: 20,
            min_requests: 0,
            ladder_requests: 0,
        };
        assert_eq!(case.unique_digests(), Ok(24));
        match ServeRequest::parse(&case.request_line(1)).expect("request line parses") {
            ServeRequest::Sweep { spec, .. } => {
                let points = spec.expand();
                assert_eq!(points.len(), 16);
                assert_eq!(points[0].cfg.injection_rate, 0.09);
                assert!(points.iter().all(|p| p.cfg.seed == 0x5c09_2009));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(case.spec_json(0), case.spec_json(0));
        assert_ne!(case.spec_json(0), case.spec_json(1));
    }
}
