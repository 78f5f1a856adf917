//! Timing with an in-run calibration loop.
//!
//! The reference box is a shared 2-vCPU VM whose effective speed drifts by
//! tens of percent over seconds, so raw wall-clock medians of identical
//! work differ by 10–17 % between runs. Every timed rep is therefore
//! bracketed by a fixed calibration kernel, and the rep's wall time is
//! rescaled by how much slower than [`CAL_REF_S`] that kernel ran around
//! it: a *calibrated host second* is a host second at the reference box's
//! typical speed. Slow-downs only
//! ever add time, so the run-level estimate is the lower quartile of the
//! calibrated rep times rather than their median. Raw medians are printed
//! next to every calibrated figure.

use crate::stats;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Iterations of the calibration kernel per sample.
const CAL_ITERS: usize = 1_000_000;
/// Words in the kernel's table: 256 KiB, so it lives in L2 like most of a
/// router's state does.
const CAL_TABLE_WORDS: usize = 1 << 15;
/// Seconds one calibration sample typically takes between reps on the
/// reference box (Xeon @ 2.10 GHz, 2 vCPUs; 5.7 ms at its best, with the
/// table hot). Only scales the calibrated figures; any comparison of two
/// commits on one machine is independent of it.
pub const CAL_REF_S: f64 = 6.8e-3;
/// A calibration sample this fresh is reused as the next rep's "before".
const CAL_REUSE: Duration = Duration::from_millis(1);

/// One timed rep.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Calibrated seconds: `wall_s` rescaled by the calibration kernel's
    /// slow-down around the rep.
    pub cal_s: f64,
}

/// Timed reps of one measurement.
#[derive(Clone, Debug, Default)]
pub struct Samples(pub Vec<Sample>);

impl Samples {
    pub fn reps(&self) -> usize {
        self.0.len()
    }

    /// Median raw wall seconds per rep.
    pub fn wall_median(&self) -> f64 {
        stats::median(&self.0.iter().map(|s| s.wall_s).collect::<Vec<_>>())
    }

    /// The run-level estimate of one rep's calibrated seconds.
    pub fn cal_estimate(&self) -> f64 {
        stats::quartiles(&self.0.iter().map(|s| s.cal_s).collect::<Vec<_>>()).0
    }
}

/// How long a measurement loop runs.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Until `secs` have elapsed and at least `min_reps` reps are done.
    Seconds { secs: f64, min_reps: usize },
    /// Exactly this many reps.
    Reps(usize),
}

impl Budget {
    /// Whether another rep is due after `done` reps and `elapsed` seconds.
    pub fn more(&self, done: usize, elapsed: f64) -> bool {
        match *self {
            Budget::Seconds { secs, min_reps } => done < min_reps || elapsed < secs,
            Budget::Reps(n) => done < n,
        }
    }
}

/// One pass of the fixed kernel over `table`: xorshift-indexed
/// read-modify-writes with a data-dependent branch, the instruction mix of
/// the allocator and router loops it stands in for.
fn kernel(table: &mut [u64]) -> f64 {
    let start = Instant::now();
    let mask = table.len() - 1;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for _ in 0..CAL_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        let v = table[i];
        if v & 1 == 0 {
            acc = acc.wrapping_add(u64::from(v.count_ones()));
        } else {
            acc ^= v.rotate_left(7);
        }
        table[i] = v.wrapping_add(acc | 1);
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// The calibration kernel plus the bracket bookkeeping.
pub struct Meter {
    /// One table per calibration thread.
    tables: Vec<Vec<u64>>,
    last: Option<(Instant, f64)>,
}

impl Meter {
    /// A meter for work that keeps `threads` threads busy: the kernel runs
    /// on that many threads at once, so a box that slows down when both
    /// vCPUs are loaded slows the calibration the same way.
    pub fn new(threads: usize) -> Meter {
        Meter {
            tables: vec![vec![0x0123_4567_89ab_cdef; CAL_TABLE_WORDS]; threads.max(1)],
            last: None,
        }
    }

    /// One calibration sample: the slowest thread's kernel time.
    fn calibrate(&mut self) -> f64 {
        let (first, rest) = self.tables.split_first_mut().expect("at least one table");
        std::thread::scope(|scope| {
            let helpers: Vec<_> = rest
                .iter_mut()
                .map(|table| scope.spawn(|| kernel(table)))
                .collect();
            let own = kernel(first);
            helpers
                .into_iter()
                .map(|h| h.join().expect("calibration thread panicked"))
                .fold(own, f64::max)
        })
    }

    /// Times `f`, bracketed by calibration samples.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, Sample) {
        let before = match self.last {
            Some((at, v)) if at.elapsed() < CAL_REUSE => v,
            _ => self.calibrate(),
        };
        let start = Instant::now();
        let out = f();
        let wall_s = start.elapsed().as_secs_f64();
        let after = self.calibrate();
        self.last = Some((Instant::now(), after));
        let slowdown = (before + after) / 2.0 / CAL_REF_S;
        (
            out,
            Sample {
                wall_s,
                cal_s: wall_s / slowdown,
            },
        )
    }

    /// Runs `rep` under `budget`, timing each call.
    pub fn run(&mut self, budget: Budget, mut rep: impl FnMut(usize)) -> Samples {
        let start = Instant::now();
        let mut samples = Samples::default();
        while budget.more(samples.reps(), start.elapsed().as_secs_f64()) {
            let i = samples.reps();
            let ((), s) = self.timed(|| rep(i));
            samples.0.push(s);
        }
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_stop_where_they_say() {
        let b = Budget::Seconds {
            secs: 1.0,
            min_reps: 3,
        };
        assert!(b.more(0, 5.0));
        assert!(b.more(2, 5.0));
        assert!(!b.more(3, 5.0));
        assert!(b.more(3, 0.5));
        assert!(Budget::Reps(2).more(1, 100.0));
        assert!(!Budget::Reps(2).more(2, 0.0));
    }

    #[test]
    fn estimate_is_the_lower_quartile_of_calibrated_reps() {
        let s = Samples(
            (1..=10)
                .map(|i| Sample {
                    wall_s: f64::from(i) * 2.0,
                    cal_s: f64::from(i),
                })
                .collect(),
        );
        assert_eq!(s.cal_estimate(), 2.75);
        assert_eq!(s.wall_median(), 11.0);
    }

    #[test]
    fn meter_counts_reps_and_rescales_wall_time() {
        let mut m = Meter::new(2);
        let samples = m.run(Budget::Reps(3), |i| {
            black_box(i);
        });
        assert_eq!(samples.reps(), 3);
        for s in &samples.0 {
            assert!(s.wall_s >= 0.0 && s.cal_s >= 0.0 && s.cal_s.is_finite());
        }
    }
}
