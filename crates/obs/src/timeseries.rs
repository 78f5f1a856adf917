//! Windowed time series and the flight recorder.
//!
//! The simulator snapshots per-router counters every `window` cycles into
//! a [`WindowSnapshot`]; a [`FlightRecorder`] keeps the snapshots its dump
//! needs: every window of a recorded run, or the last few of the
//! watchdog's guard (for the post-mortem dump). The `telemetry` block of
//! a run result is derived from the kept windows. It consumes plain
//! cumulative counters keyed by cycle number, so telemetry does not
//! depend on how the run was chunked or which idle routers the cycle loop
//! skipped.
//!
//! The stall-watchdog signal also lives here: the recorder tracks how many
//! *consecutive* windows saw zero flit motion while flits were in flight —
//! the dynamic signature of a deadlock (or a total livelock) — and the run
//! driver trips on a threshold instead of spinning forever.

use std::collections::VecDeque;

/// Cumulative per-router counters sampled at a window boundary. The
/// recorder differences successive samples itself; producers only ever
/// report monotone totals (plus the two point-in-time gauges).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterCounters {
    /// Flits sent through the crossbar (switch traversals), cumulative.
    pub out_flits: u64,
    /// Buffered flits right now (gauge, not differenced).
    pub occupancy: u32,
    /// Input VCs holding at least one flit right now (gauge).
    pub busy_vcs: u32,
    /// Input-VC cycles that moved or won allocation, cumulative.
    pub active: u64,
    /// Input-VC cycles stalled on downstream credits, cumulative.
    pub credit_stall: u64,
    /// Input-VC cycles stalled in VC allocation, cumulative.
    pub vca_stall: u64,
    /// Input-VC cycles stalled in switch allocation, cumulative.
    pub sa_stall: u64,
    /// Input-VC cycles with an empty buffer, cumulative.
    pub empty: u64,
    /// Switch-allocator grants on matching-sample cycles, cumulative.
    pub match_granted: u64,
    /// Exact maximum-matching size on the same request matrices, cumulative.
    pub match_max: u64,
}

impl RouterCounters {
    /// Per-window view: counters differenced against `prev`, gauges taken
    /// from the current sample.
    fn delta(cur: &RouterCounters, prev: &RouterCounters) -> RouterCounters {
        RouterCounters {
            out_flits: cur.out_flits - prev.out_flits,
            occupancy: cur.occupancy,
            busy_vcs: cur.busy_vcs,
            active: cur.active - prev.active,
            credit_stall: cur.credit_stall - prev.credit_stall,
            vca_stall: cur.vca_stall - prev.vca_stall,
            sa_stall: cur.sa_stall - prev.sa_stall,
            empty: cur.empty - prev.empty,
            match_granted: cur.match_granted - prev.match_granted,
            match_max: cur.match_max - prev.match_max,
        }
    }
}

/// One window of telemetry: network-level flit motion plus per-router
/// windowed counters, in router-id order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// 1-based window index; window `k` covers cycles `[(k-1)·W, k·W)`.
    pub window: u64,
    /// Cycles completed when the snapshot was taken (`k·W`).
    pub cycle: u64,
    /// Flits injected by terminals during this window.
    pub injected: u64,
    /// Flits ejected to terminals during this window.
    pub ejected: u64,
    /// Flits in flight at the end of the window (injected minus ejected,
    /// cumulative).
    pub in_flight: u64,
    /// Per-router windowed counters, indexed by router id.
    pub routers: Vec<RouterCounters>,
}

impl WindowSnapshot {
    /// Total switch traversals across all routers this window.
    pub fn flits(&self) -> u64 {
        self.routers.iter().map(|r| r.out_flits).sum()
    }

    /// Total switch-allocator grants on sampled cycles this window.
    pub fn match_granted(&self) -> u64 {
        self.routers.iter().map(|r| r.match_granted).sum()
    }

    /// Total exact-maximum-matching size on the same sampled cycles.
    pub fn match_max(&self) -> u64 {
        self.routers.iter().map(|r| r.match_max).sum()
    }

    /// Matching efficiency this window: granted ports over the exact
    /// maximum matching, summed over every sampled request matrix. NaN if
    /// no matching sample fell into this window (or no router had
    /// requests on the sample cycles).
    pub fn efficiency(&self) -> f64 {
        let max = self.match_max();
        if max == 0 {
            f64::NAN
        } else {
            self.match_granted() as f64 / max as f64
        }
    }

    /// Total buffered flits across the network at the end of the window.
    pub fn occupancy(&self) -> u64 {
        self.routers.iter().map(|r| r.occupancy as u64).sum()
    }

    /// True when nothing moved in this window while flits were in flight —
    /// the watchdog's per-window deadlock signal.
    pub fn motionless(&self) -> bool {
        self.flits() == 0 && self.injected == 0 && self.ejected == 0 && self.in_flight > 0
    }
}

/// The flight recorder: closes a window snapshot every [`Self::window`]
/// cycles, keeps the snapshots its dump needs, and counts the
/// consecutive stalled windows for the watchdog. It comes in two fixed
/// modes: [`Self::recording`] keeps every window of the run and
/// [`Self::watchdog_only`] keeps a bounded ring for the post-mortem.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    window: u64,
    match_every: u64,
    /// Windows retained; `None` keeps every one.
    capacity: Option<usize>,
    ring: VecDeque<WindowSnapshot>,
    prev: Vec<RouterCounters>,
    prev_injected: u64,
    prev_ejected: u64,
    stalled: u64,
}

impl FlightRecorder {
    /// A recorded run: 100-cycle windows, one matching sample per window,
    /// every window kept.
    pub fn recording() -> FlightRecorder {
        FlightRecorder::new(100, 1, None)
    }

    /// The stall guard of an unrecorded run: 500-cycle windows, no
    /// matching sampling, the last 64 windows kept.
    pub fn watchdog_only() -> FlightRecorder {
        FlightRecorder::new(500, 0, Some(64))
    }

    fn new(window: u64, match_every: u64, capacity: Option<usize>) -> FlightRecorder {
        FlightRecorder {
            window,
            match_every,
            capacity,
            ring: VecDeque::with_capacity(capacity.unwrap_or(0)),
            prev: Vec::new(),
            prev_injected: 0,
            prev_ejected: 0,
            stalled: 0,
        }
    }

    /// True for [`Self::recording`], which keeps every window.
    pub fn keeps_every_window(&self) -> bool {
        self.capacity.is_none()
    }

    /// Window length in cycles.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Matching-quality sample cadence in windows: every
    /// `match_every`-th window carries one sampled cycle; 0 means
    /// sampling is off.
    pub fn match_every(&self) -> u64 {
        self.match_every
    }

    /// True when the cycle that just executed (`now`) closes a window.
    /// Keyed purely on the cycle number, so a run snapshots at the same
    /// points however it is chunked.
    pub fn due(&self, now: u64) -> bool {
        (now + 1).is_multiple_of(self.window)
    }

    /// Closes a window: `injected`/`ejected` are network-cumulative flit
    /// counts, `counters` yields each router's cumulative counters in
    /// router-id order.
    pub fn record(
        &mut self,
        now: u64,
        injected: u64,
        ejected: u64,
        counters: impl Iterator<Item = RouterCounters>,
    ) {
        let mut routers = Vec::with_capacity(self.prev.len());
        for (idx, cur) in counters.enumerate() {
            let prev = self.prev.get(idx).copied().unwrap_or_default();
            routers.push(RouterCounters::delta(&cur, &prev));
            if idx < self.prev.len() {
                self.prev[idx] = cur;
            } else {
                self.prev.push(cur);
            }
        }
        let snap = WindowSnapshot {
            window: self.windows() + 1,
            cycle: now + 1,
            injected: injected - self.prev_injected,
            ejected: ejected - self.prev_ejected,
            in_flight: injected - ejected,
            routers,
        };
        self.prev_injected = injected;
        self.prev_ejected = ejected;
        self.stalled = if snap.motionless() {
            self.stalled + 1
        } else {
            0
        };
        if self.capacity == Some(self.ring.len()) {
            self.ring.pop_front();
        }
        self.ring.push_back(snap);
    }

    /// The most recent snapshot, if any window has closed.
    pub fn latest(&self) -> Option<&WindowSnapshot> {
        self.ring.back()
    }

    /// The retained snapshots, oldest first.
    pub fn ring(&self) -> impl Iterator<Item = &WindowSnapshot> {
        self.ring.iter()
    }

    /// Windows recorded so far (not bounded by the ring capacity).
    pub fn windows(&self) -> u64 {
        self.latest().map_or(0, |snap| snap.window)
    }

    /// Consecutive motionless-with-flits-in-flight windows ending now.
    pub fn stalled_windows(&self) -> u64 {
        self.stalled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(out_flits: u64, occupancy: u32) -> RouterCounters {
        RouterCounters {
            out_flits,
            occupancy,
            busy_vcs: occupancy.min(1),
            active: out_flits,
            ..RouterCounters::default()
        }
    }

    #[test]
    fn windows_difference_cumulative_counters() {
        let mut rec = FlightRecorder::recording();
        assert!(!rec.due(0));
        assert!(rec.due(99));
        rec.record(99, 5, 2, [counters(7, 3), counters(1, 0)].into_iter());
        rec.record(199, 9, 9, [counters(12, 0), counters(4, 0)].into_iter());
        let w1 = rec.ring().next().unwrap();
        assert_eq!(w1.window, 1);
        assert_eq!(w1.cycle, 100);
        assert_eq!((w1.injected, w1.ejected, w1.in_flight), (5, 2, 3));
        assert_eq!(w1.flits(), 8);
        let w2 = rec.latest().unwrap();
        assert_eq!(w2.window, 2);
        assert_eq!((w2.injected, w2.ejected, w2.in_flight), (4, 7, 0));
        assert_eq!(w2.flits(), 8); // (12-7) + (4-1)
        assert_eq!(w2.routers[0].occupancy, 0); // gauge, not differenced
    }

    #[test]
    fn guard_ring_is_bounded_but_a_recording_keeps_every_window() {
        let (mut guard, mut recording) =
            (FlightRecorder::watchdog_only(), FlightRecorder::recording());
        assert_eq!((guard.window(), guard.match_every()), (500, 0));
        assert_eq!((recording.window(), recording.match_every()), (100, 1));
        for k in 0..70u64 {
            for rec in [&mut guard, &mut recording] {
                let now = rec.window() * (k + 1) - 1;
                rec.record(now, k + 1, k + 1, [counters(k + 1, 0)].into_iter());
            }
        }
        assert_eq!((guard.windows(), guard.ring().count()), (70, 64));
        assert_eq!(guard.ring().next().unwrap().window, 7);
        assert_eq!((recording.windows(), recording.ring().count()), (70, 70));
        assert_eq!(guard.latest().unwrap().window, 70);
    }

    #[test]
    fn watchdog_counts_consecutive_motionless_windows() {
        let mut rec = FlightRecorder::recording();
        // Window 1: motion (injection), flits left in flight.
        rec.record(99, 4, 0, [counters(4, 4)].into_iter());
        assert_eq!(rec.stalled_windows(), 0);
        // Windows 2-3: dead silence with 4 flits in flight.
        rec.record(199, 4, 0, [counters(4, 4)].into_iter());
        rec.record(299, 4, 0, [counters(4, 4)].into_iter());
        assert_eq!(rec.stalled_windows(), 2);
        assert!(rec.latest().unwrap().motionless());
        // Window 4: a flit moves — the streak resets, the summary keeps
        // the longest.
        rec.record(399, 4, 1, [counters(5, 3)].into_iter());
        assert_eq!(rec.stalled_windows(), 0);
        assert_eq!(rec.summary().max_stalled_windows, 2);
    }

    #[test]
    fn drained_network_is_not_a_stall() {
        let mut rec = FlightRecorder::recording();
        rec.record(99, 3, 3, [counters(3, 0)].into_iter());
        rec.record(199, 3, 3, [counters(3, 0)].into_iter());
        // Nothing moved in window 2, but nothing is in flight either.
        assert_eq!(rec.stalled_windows(), 0);
    }

    #[test]
    fn efficiency_is_nan_without_samples() {
        let mut rec = FlightRecorder::recording();
        rec.record(99, 1, 0, [counters(1, 1)].into_iter());
        assert!(rec.latest().unwrap().efficiency().is_nan());
        let mut c = counters(2, 1);
        c.match_granted = 3;
        c.match_max = 4;
        rec.record(199, 2, 0, [c].into_iter());
        assert_eq!(rec.latest().unwrap().efficiency(), 0.75);
    }
}
