//! Measurement-window statistics.

use noc_obs::HdrHistogram;

/// Latency and throughput accumulators over a measurement window.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    window_start: u64,
    window_end: u64,
    /// Sum of packet latencies (tail ejection − creation) in the window.
    pub latency_sum: u64,
    /// Packets whose tail ejected within the window.
    pub packets: u64,
    /// Worst packet latency observed in the window.
    pub latency_max: u64,
    /// Per-message-class latency sums and counts `[request, reply]`.
    pub class_latency_sum: [u64; 2],
    /// Per-class packet counts.
    pub class_packets: [u64; 2],
    /// Flits ejected in the window.
    pub flits_ejected: u64,
    /// Flits ejected since construction, window-independent — the
    /// telemetry layer differences this per recording window.
    pub total_flits_ejected: u64,
    /// Flits injected in the window (all terminals).
    pub flits_injected: u64,
    /// Sum of squared latencies, for the variance estimate.
    latency_sq_sum: u128,
    /// Log-linear latency histogram (bounded ~3% relative error, exact
    /// below 32 cycles) for percentile estimates.
    hist: HdrHistogram,
    /// Per-source latency sums/counts (initialized by
    /// [`NetStats::init_sources`]), for network-level fairness analysis.
    src_latency_sum: Vec<u64>,
    src_packets: Vec<u64>,
    /// Timeline window length in cycles; 0 disables the timeline.
    timeline_window: u64,
    /// Per-timeline-window latency sums and packet counts, indexed by
    /// `eject_cycle / timeline_window` (only for in-window packets).
    timeline_sum: Vec<u64>,
    timeline_count: Vec<u64>,
}

impl NetStats {
    /// Sets the measurement window `[start, end)`.
    pub fn set_window(&mut self, start: u64, end: u64) {
        self.window_start = start;
        self.window_end = end;
    }

    /// Enables per-source latency tracking for `n` terminals.
    pub fn init_sources(&mut self, n: usize) {
        self.src_latency_sum = vec![0; n];
        self.src_packets = vec![0; n];
    }

    /// Enables the latency timeline: packets are additionally binned into
    /// consecutive `window`-cycle intervals, feeding steady-state
    /// detection.
    pub fn enable_timeline(&mut self, window: u64) {
        self.timeline_window = window.max(1);
    }

    /// Mean latency per timeline window (NaN for windows that delivered
    /// nothing); empty unless [`NetStats::enable_timeline`] was called.
    pub fn timeline_means(&self) -> Vec<f64> {
        self.timeline_sum
            .iter()
            .zip(&self.timeline_count)
            .map(|(&s, &c)| {
                if c == 0 {
                    f64::NAN
                } else {
                    s as f64 / c as f64
                }
            })
            .collect()
    }

    /// Whether `now` falls inside the measurement window. Public so other
    /// measurement-windowed consumers (the latency-anatomy collector)
    /// share exactly this boundary convention: start inclusive, end
    /// exclusive, judged at ejection time.
    #[inline]
    pub fn in_window(&self, now: u64) -> bool {
        now >= self.window_start && now < self.window_end
    }

    /// Records a packet whose tail flit ejected at `now`.
    pub fn record_packet_from(&mut self, now: u64, birth: u64, msg_class: usize, src: usize) {
        self.record_packet(now, birth, msg_class);
        if self.in_window(now) && src < self.src_packets.len() {
            self.src_latency_sum[src] += now - birth;
            self.src_packets[src] += 1;
        }
    }

    /// Records a packet whose tail flit ejected at `now`.
    pub fn record_packet(&mut self, now: u64, birth: u64, msg_class: usize) {
        if self.in_window(now) {
            let lat = now - birth;
            self.latency_sum += lat;
            self.packets += 1;
            self.latency_max = self.latency_max.max(lat);
            self.class_latency_sum[msg_class] += lat;
            self.class_packets[msg_class] += 1;
            self.latency_sq_sum += (lat as u128) * (lat as u128);
            self.hist.record(lat);
            if let Some(win) = now.checked_div(self.timeline_window) {
                let idx = win as usize;
                if idx >= self.timeline_sum.len() {
                    self.timeline_sum.resize(idx + 1, 0);
                    self.timeline_count.resize(idx + 1, 0);
                }
                self.timeline_sum[idx] += lat;
                self.timeline_count[idx] += 1;
            }
        }
    }

    /// Records one ejected flit.
    pub fn record_flit_ejected(&mut self, now: u64) {
        self.total_flits_ejected += 1;
        if self.in_window(now) {
            self.flits_ejected += 1;
        }
    }

    /// Records one injected flit.
    pub fn record_flit_injected(&mut self, now: u64) {
        if self.in_window(now) {
            self.flits_injected += 1;
        }
    }

    /// Average packet latency over the window.
    pub fn avg_latency(&self) -> f64 {
        if self.packets == 0 {
            f64::NAN
        } else {
            self.latency_sum as f64 / self.packets as f64
        }
    }

    /// Average latency of one message class.
    pub fn class_avg_latency(&self, class: usize) -> f64 {
        if self.class_packets[class] == 0 {
            f64::NAN
        } else {
            self.class_latency_sum[class] as f64 / self.class_packets[class] as f64
        }
    }

    /// Sample standard deviation of packet latency over the window.
    pub fn latency_std_dev(&self) -> f64 {
        if self.packets < 2 {
            return f64::NAN;
        }
        let n = self.packets as f64;
        let mean = self.latency_sum as f64 / n;
        let var = (self.latency_sq_sum as f64 / n - mean * mean).max(0.0) * n / (n - 1.0);
        var.sqrt()
    }

    /// Latency percentile from the log-linear histogram, with
    /// within-bucket linear interpolation. `q` must be in `(0, 1]`
    /// (`q = 0` has no defined order statistic and panics); the estimate
    /// deviates from the exact order statistic by at most
    /// [`HdrHistogram::REL_ERROR`] relative (exact below 32 cycles).
    /// Returns NaN when no packets were delivered.
    pub fn latency_percentile(&self, q: f64) -> f64 {
        self.hist.percentile(q)
    }

    /// Read access to the latency histogram.
    pub fn histogram(&self) -> &HdrHistogram {
        &self.hist
    }

    /// Per-source average latencies (NaN for sources with no packets);
    /// empty unless [`NetStats::init_sources`] was called.
    pub fn per_source_latency(&self) -> Vec<f64> {
        self.src_latency_sum
            .iter()
            .zip(&self.src_packets)
            .map(|(&s, &c)| {
                if c == 0 {
                    f64::NAN
                } else {
                    s as f64 / c as f64
                }
            })
            .collect()
    }

    /// Fairness indicator: max/min per-source average latency over sources
    /// that delivered packets. NaN without per-source data, and NaN when
    /// the minimum average latency is zero (a same-cycle delivery would
    /// otherwise make the ratio infinite and poison downstream
    /// aggregation).
    pub fn source_latency_spread(&self) -> f64 {
        let lats: Vec<f64> = self
            .per_source_latency()
            .into_iter()
            .filter(|l| l.is_finite())
            .collect();
        if lats.is_empty() {
            return f64::NAN;
        }
        let max = lats.iter().cloned().fold(0.0f64, f64::max);
        let min = lats.iter().cloned().fold(f64::INFINITY, f64::min);
        if min <= 0.0 {
            return f64::NAN;
        }
        max / min
    }

    /// Accepted throughput in flits/cycle/terminal.
    pub fn throughput(&self, terminals: usize) -> f64 {
        let cycles = self.window_end.saturating_sub(self.window_start);
        if cycles == 0 {
            0.0
        } else {
            self.flits_ejected as f64 / (cycles as f64 * terminals as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_filtering() {
        let mut s = NetStats::default();
        s.set_window(100, 200);
        s.record_packet(50, 40, 0); // before window
        s.record_packet(150, 100, 0); // inside
        s.record_packet(250, 200, 1); // after
        assert_eq!(s.packets, 1);
        assert_eq!(s.latency_sum, 50);
        assert!((s.avg_latency() - 50.0).abs() < 1e-12);
        assert_eq!(s.class_packets, [1, 0]);
    }

    #[test]
    fn window_boundaries_are_start_inclusive_end_exclusive() {
        // The convention every windowed consumer shares (latency stats,
        // anatomy ledger): eject at window_start counts, at window_end
        // does not, judged purely at ejection time.
        let mut s = NetStats::default();
        s.set_window(100, 200);
        assert!(s.in_window(100));
        assert!(s.in_window(199));
        assert!(!s.in_window(99));
        assert!(!s.in_window(200));
        s.record_packet(100, 60, 0); // on the start boundary: counts
        s.record_packet(199, 150, 1); // last in-window cycle: counts
        s.record_packet(200, 150, 0); // on the end boundary: excluded
        assert_eq!(s.packets, 2);
        assert_eq!(s.latency_sum, 40 + 49);
        assert_eq!(s.latency_max, 49);
        s.record_flit_ejected(200);
        s.record_flit_injected(200);
        assert_eq!(s.flits_ejected, 0);
        assert_eq!(s.flits_injected, 0);
        assert_eq!(s.total_flits_ejected, 1, "all-time counter still moves");
    }

    #[test]
    fn packet_born_in_warmup_counts_full_latency_when_ejected_in_window() {
        // Window membership is judged at ejection: a packet born during
        // warmup that ejects inside the window contributes its complete
        // birth-to-eject latency, not just the in-window share.
        let mut s = NetStats::default();
        s.set_window(100, 200);
        s.record_packet(150, 20, 0); // born at 20, well before the window
        assert_eq!(s.packets, 1);
        assert_eq!(s.latency_sum, 130);
        assert!((s.avg_latency() - 130.0).abs() < 1e-12);
    }

    #[test]
    fn class_accounting_splits_requests_and_replies() {
        let mut s = NetStats::default();
        s.set_window(0, 1000);
        s.record_packet(100, 90, 0); // request, 10 cycles
        s.record_packet(200, 170, 0); // request, 30 cycles
        s.record_packet(300, 250, 1); // reply, 50 cycles
        assert_eq!(s.class_packets, [2, 1]);
        assert_eq!(s.class_latency_sum, [40, 50]);
        assert!((s.class_avg_latency(0) - 20.0).abs() < 1e-12);
        assert!((s.class_avg_latency(1) - 50.0).abs() < 1e-12);
        // Class splits re-aggregate to the totals exactly.
        assert_eq!(s.class_packets[0] + s.class_packets[1], s.packets);
        assert_eq!(
            s.class_latency_sum[0] + s.class_latency_sum[1],
            s.latency_sum
        );
    }

    #[test]
    fn throughput_normalization() {
        let mut s = NetStats::default();
        s.set_window(0, 1000);
        for t in 0..500 {
            s.record_flit_ejected(t);
        }
        assert!((s.throughput(10) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn empty_window_yields_nan() {
        let s = NetStats::default();
        assert!(s.avg_latency().is_nan());
        assert!(s.class_avg_latency(0).is_nan());
        assert!(s.latency_std_dev().is_nan());
        assert!(s.latency_percentile(0.99).is_nan());
    }

    #[test]
    #[should_panic(expected = "percentile q must be in (0, 1]")]
    fn percentile_rejects_zero() {
        // The old contract silently accepted q = 0 and returned the first
        // non-empty bucket's upper bound; it must panic now.
        let mut s = NetStats::default();
        s.set_window(0, 1000);
        s.record_packet(100, 90, 0);
        s.latency_percentile(0.0);
    }

    #[test]
    fn source_latency_spread_guards_zero_latency() {
        // Regression: a source whose only packet had zero latency used to
        // drive max/min to +inf; it must yield NaN instead.
        let mut s = NetStats::default();
        s.set_window(0, 1000);
        s.init_sources(2);
        s.record_packet_from(100, 100, 0, 0); // zero-latency delivery
        s.record_packet_from(200, 150, 0, 1); // 50-cycle delivery
        assert!(
            s.source_latency_spread().is_nan(),
            "spread {} should be NaN, not inf",
            s.source_latency_spread()
        );
        // The normal case still works.
        let mut s = NetStats::default();
        s.set_window(0, 1000);
        s.init_sources(2);
        s.record_packet_from(100, 90, 0, 0); // 10 cycles
        s.record_packet_from(200, 170, 0, 1); // 30 cycles
        assert!((s.source_latency_spread() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn std_dev_of_constant_samples_is_zero() {
        let mut s = NetStats::default();
        s.set_window(0, 1000);
        for t in [100u64, 200, 300] {
            s.record_packet(t, t - 20, 0);
        }
        assert!(s.latency_std_dev().abs() < 1e-9);
    }

    #[test]
    fn std_dev_matches_hand_computation() {
        let mut s = NetStats::default();
        s.set_window(0, 1000);
        // Latencies 10, 20, 30: mean 20, sample variance 100.
        s.record_packet(100, 90, 0);
        s.record_packet(100, 80, 0);
        s.record_packet(100, 70, 0);
        assert!((s.latency_std_dev() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_are_exact_for_small_latencies() {
        // The power-of-two histogram this replaces reported p99 = 128 for
        // a 100-cycle tail; the log-linear one is exact below 32 cycles
        // and within ~3% above.
        let mut s = NetStats::default();
        s.set_window(0, 1000);
        for lat in [5u64, 6, 7, 8, 100] {
            s.record_packet(500, 500 - lat, 0);
        }
        assert_eq!(s.latency_percentile(0.2), 5.0);
        assert_eq!(s.latency_percentile(0.4), 6.0);
        assert_eq!(s.latency_percentile(0.8), 8.0);
        let p100 = s.latency_percentile(1.0);
        assert_eq!(p100, 100.0, "tail must be exact, not a pow2 bound");
    }

    #[test]
    fn timeline_bins_latency_by_eject_cycle() {
        let mut s = NetStats::default();
        s.set_window(0, 1000);
        s.enable_timeline(100);
        s.record_packet(50, 40, 0); // window 0, lat 10
        s.record_packet(60, 40, 0); // window 0, lat 20
        s.record_packet(250, 200, 0); // window 2, lat 50
        let means = s.timeline_means();
        assert_eq!(means.len(), 3);
        assert!((means[0] - 15.0).abs() < 1e-12);
        assert!(means[1].is_nan());
        assert!((means[2] - 50.0).abs() < 1e-12);
    }
}
