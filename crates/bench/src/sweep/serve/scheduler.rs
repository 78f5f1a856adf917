//! The deduplicating sweep scheduler behind `noc serve`.
//!
//! Every submitted point is normalized to its content digest and
//! satisfied from the cheapest source:
//!
//! 1. **cache** — the digest is already in the content-addressed store
//!    (from any earlier sweep, figure render, daemon run, or a previous
//!    daemon life): the result is sent back immediately, nothing runs;
//! 2. **coalesced** — another request is already computing (or queued to
//!    compute) the digest: this request subscribes to that in-flight
//!    work and receives the same result when it lands;
//! 3. **scheduled** — the digest is new: it joins this client's queue on
//!    the bounded worker pool.
//!
//! Workers drain queues **round-robin across clients**, so a client
//! asking for two points is not starved behind a client asking for two
//! hundred — each scheduling turn takes one point from the next client
//! that still has queued work. Completed computations are stored in the
//! cache *then* journaled *then* announced to subscribers, preserving
//! the "journaled ⇒ cached" invariant under `kill -9` at any instant:
//! after a restart every journaled digest is served as a cache hit and
//! the daemon recomputes nothing.

use crate::sweep::cache::ResultCache;
use crate::sweep::journal::Journal;
use crate::sweep::spec::SweepPoint;
use noc_sim::{run_sim, SimResult};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// One satisfied point, delivered to every subscribed request.
#[derive(Clone, Debug)]
pub struct PointOutcome {
    /// The point's content digest.
    pub digest: String,
    /// Human-readable label.
    pub label: String,
    /// How the daemon satisfied it: `cache` or `computed`.
    pub source: &'static str,
    /// Wall-clock of the satisfying action, in milliseconds.
    pub wall_ms: u64,
    /// The result.
    pub result: SimResult,
}

/// How one request's points were classified at submit time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubmitSummary {
    /// Points submitted (before in-request dedup).
    pub total: usize,
    /// Unique digests — the number of outcomes the receiver will yield.
    pub unique: usize,
    /// Digests this request put on the worker queue.
    pub scheduled: usize,
    /// Digests served straight from the cache.
    pub cache_hits: usize,
    /// Digests coalesced onto another request's in-flight work.
    pub coalesced: usize,
}

/// Daemon-lifetime counters (the `status` response body).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Points simulated since the daemon started.
    pub computed: usize,
    /// Points served from the cache since the daemon started.
    pub cache_hits: usize,
    /// Subscriptions coalesced onto in-flight work.
    pub coalesced: usize,
    /// Digests currently queued or being computed.
    pub inflight: usize,
    /// Requests accepted since the daemon started.
    pub clients: usize,
}

struct Job {
    digest: String,
    point: SweepPoint,
}

#[derive(Default)]
struct State {
    stop: bool,
    /// digest → subscribers waiting on its computation.
    inflight: HashMap<String, Vec<Sender<PointOutcome>>>,
    /// Per-client queues of pending jobs.
    queues: HashMap<u64, VecDeque<Job>>,
    /// Round-robin order over clients with non-empty queues.
    rr: VecDeque<u64>,
    computed: usize,
    cache_hits: usize,
    coalesced: usize,
    clients: u64,
}

impl State {
    /// Takes the next job in round-robin client order.
    fn pop_next(&mut self) -> Option<Job> {
        while let Some(client) = self.rr.pop_front() {
            if let Some(queue) = self.queues.get_mut(&client) {
                if let Some(job) = queue.pop_front() {
                    if queue.is_empty() {
                        self.queues.remove(&client);
                    } else {
                        self.rr.push_back(client);
                    }
                    return Some(job);
                }
                self.queues.remove(&client);
            }
        }
        None
    }
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    cache: ResultCache,
    journal: Journal,
}

/// A poisoned scheduler lock only means a worker panicked mid-update;
/// the counters may undercount but the daemon keeps serving.
fn lock(m: &Mutex<State>) -> MutexGuard<'_, State> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The dedup scheduler plus its worker pool. Dropping it (after
/// [`Scheduler::shutdown`]) releases the journal lock.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts `workers` compute threads over `cache` + `journal`.
    pub fn new(cache: ResultCache, journal: Journal, workers: usize) -> Scheduler {
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            cache,
            journal,
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Scheduler {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Registers one request's points. Returns the receiver its outcomes
    /// arrive on (exactly `unique` of them, in completion order — cache
    /// hits are already in the channel when this returns) and the
    /// classification summary.
    pub fn submit(&self, points: &[SweepPoint]) -> (Receiver<PointOutcome>, SubmitSummary) {
        let (tx, rx) = mpsc::channel();
        let mut summary = SubmitSummary {
            total: points.len(),
            ..SubmitSummary::default()
        };
        let mut seen = HashSet::new();
        let mut st = lock(&self.shared.state);
        let client = st.clients;
        st.clients += 1;
        for point in points {
            let digest = point.digest();
            if !seen.insert(digest.clone()) {
                continue;
            }
            summary.unique += 1;
            if let Some(subs) = st.inflight.get_mut(&digest) {
                subs.push(tx.clone());
                st.coalesced += 1;
                summary.coalesced += 1;
            } else if let Some(result) = self.shared.cache.load(&digest) {
                // Send cannot fail: we still hold the matching receiver.
                let _ = tx.send(PointOutcome {
                    digest,
                    label: point.label.clone(),
                    source: "cache",
                    wall_ms: 0,
                    result,
                });
                st.cache_hits += 1;
                summary.cache_hits += 1;
            } else {
                st.inflight.insert(digest.clone(), vec![tx.clone()]);
                st.queues.entry(client).or_default().push_back(Job {
                    digest,
                    point: point.clone(),
                });
                summary.scheduled += 1;
            }
        }
        if summary.scheduled > 0 {
            st.rr.push_back(client);
            drop(st);
            self.shared.work.notify_all();
        }
        (rx, summary)
    }

    /// Daemon-lifetime counters.
    pub fn counters(&self) -> ServeCounters {
        let st = lock(&self.shared.state);
        ServeCounters {
            computed: st.computed,
            cache_hits: st.cache_hits,
            coalesced: st.coalesced,
            inflight: st.inflight.len(),
            clients: st.clients as usize,
        }
    }

    /// The journal file path (for status displays and tests).
    pub fn journal_path(&self) -> std::path::PathBuf {
        self.shared.journal.path().to_path_buf()
    }

    /// Stops the workers and waits for them to exit. In-flight
    /// computations finish (and are cached + journaled); queued work is
    /// abandoned — subscribers see their channel close.
    pub fn shutdown(&self) {
        {
            let mut st = lock(&self.shared.state);
            st.stop = true;
            // Abandoned queued jobs: dropping them closes their
            // subscribers' channels, so blocked handlers unblock.
            st.queues.clear();
            st.rr.clear();
            st.inflight.clear();
        }
        self.shared.work.notify_all();
        let handles: Vec<JoinHandle<()>> = {
            let mut w = self
                .workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::take(&mut *w)
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.stop {
                    return;
                }
                if let Some(job) = st.pop_next() {
                    break job;
                }
                st = shared
                    .work
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let t0 = Instant::now();
        let result = run_sim(&job.point.cfg, job.point.warmup, job.point.measure);
        let wall_ms = t0.elapsed().as_millis() as u64;
        // Store, then journal, then announce: a crash between any two
        // steps leaves "journaled ⇒ cached" intact, and a submit that
        // races the announcement finds the cache entry already durable.
        // A result that could not be stored is still delivered, but never
        // journaled: a restart must not be promised an entry that is absent.
        let stored = shared.cache.store(&job.digest, &result).and_then(|()| {
            (shared.journal).append(&job.digest, &job.point.label, "computed", wall_ms)
        });
        if let Err(e) = stored {
            eprintln!("serve: warning: {e}");
        }
        let subscribers = {
            let mut st = lock(&shared.state);
            st.computed += 1;
            st.inflight.remove(&job.digest).unwrap_or_default()
        };
        for tx in subscribers {
            // A subscriber whose client disconnected is simply gone.
            let _ = tx.send(PointOutcome {
                digest: job.digest.clone(),
                label: job.point.label.clone(),
                source: "computed",
                wall_ms,
                result: result.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::journal::JournalHeader;
    use crate::sweep::spec::SweepPoint;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn smoke_points() -> Vec<SweepPoint> {
        let smoke = crate::registry::figure("smoke").unwrap();
        smoke.spec_at(50, 100).unwrap().expand()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let d = std::env::temp_dir().join(format!(
            "noc-sched-test-{}-{tag}-{}",
            std::process::id(),
            // RELAXED: unique-name ticket only; nothing is published.
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn scheduler(dir: &Path, workers: usize) -> Scheduler {
        let cache = ResultCache::new(&dir.join("cache")).unwrap();
        let header = JournalHeader {
            name: "test-serve".into(),
            spec_digest: "a".repeat(32),
            points: 0,
        };
        let (journal, _) = Journal::open(&dir.join("serve.journal"), &header).unwrap();
        Scheduler::new(cache, journal, workers)
    }

    /// Two overlapping submissions: the shared digests are computed once
    /// (second submitter coalesces or cache-hits, never schedules), and
    /// both receive every result.
    #[test]
    fn overlapping_submissions_share_work() {
        let dir = tmp_dir("overlap");
        let sched = scheduler(&dir, 2);
        let points = smoke_points();
        assert_eq!(points.len(), 2);
        let (rx1, s1) = sched.submit(&points);
        let (rx2, s2) = sched.submit(&points);
        assert_eq!((s1.unique, s1.scheduled), (2, 2));
        assert_eq!(s2.unique, 2);
        assert_eq!(s2.scheduled, 0, "second submitter never schedules");
        assert_eq!(s2.coalesced + s2.cache_hits, 2);
        let a: Vec<PointOutcome> = rx1.iter().take(2).collect();
        let b: Vec<PointOutcome> = rx2.iter().take(2).collect();
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.result.to_json_full(), y.result.to_json_full());
        }
        let c = sched.counters();
        assert_eq!(c.computed, 2, "each shared digest computed exactly once");
        assert_eq!(c.inflight, 0);
        // A third submission after completion is all cache hits.
        let (rx3, s3) = sched.submit(&points);
        assert_eq!(s3.cache_hits, 2);
        assert_eq!(rx3.iter().take(2).count(), 2);
        assert_eq!(sched.counters().computed, 2);
        sched.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// "Journaled ⇒ cached" when the store fails: the subscriber still gets
    /// the computed result, the journal gains no record to promise a
    /// restart an entry that is not there.
    #[test]
    fn a_result_that_could_not_be_stored_is_delivered_but_not_journaled() {
        let dir = tmp_dir("nostore");
        let sched = scheduler(&dir, 1);
        std::fs::remove_dir_all(dir.join("cache")).unwrap();
        let (rx, s) = sched.submit(&smoke_points()[..1]);
        assert_eq!(s.scheduled, 1);
        assert_eq!(rx.recv().unwrap().source, "computed");
        sched.shutdown();
        let journal = std::fs::read_to_string(dir.join("serve.journal")).unwrap();
        assert_eq!(journal.lines().count(), 1, "header only: {journal}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// In-request duplicate points collapse to one outcome.
    #[test]
    fn duplicate_points_within_a_request_dedup() {
        let dir = tmp_dir("dup");
        let sched = scheduler(&dir, 1);
        let mut points = smoke_points();
        points.push(points[0].clone());
        let (rx, s) = sched.submit(&points);
        assert_eq!((s.total, s.unique, s.scheduled), (3, 2, 2));
        assert_eq!(rx.iter().take(2).count(), 2);
        sched.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Round-robin fairness at the queue level (deterministic — no
    /// worker timing involved): a two-point client enqueued behind a
    /// six-point client gets every other scheduling turn, so its last
    /// point leaves the queue third, not eighth.
    #[test]
    fn round_robin_interleaves_clients() {
        let template = &smoke_points()[0];
        let mut st = State::default();
        for (client, count) in [(0u64, 6usize), (1, 2)] {
            let queue: VecDeque<Job> = (0..count)
                .map(|i| Job {
                    digest: format!("c{client}-{i}"),
                    point: template.clone(),
                })
                .collect();
            st.queues.insert(client, queue);
            st.rr.push_back(client);
        }
        let order: Vec<String> = std::iter::from_fn(|| st.pop_next().map(|j| j.digest)).collect();
        assert_eq!(
            order,
            [
                "c0-0", "c1-0", "c0-1", "c1-1", // alternating turns
                "c0-2", "c0-3", "c0-4", "c0-5", // then the long tail
            ]
        );
        assert!(st.queues.is_empty() && st.rr.is_empty());
    }
}
