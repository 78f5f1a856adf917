//! Steady-state detection and confidence intervals.
//!
//! Implements the statistical-simulation methodology of Dally & Towles
//! (*Principles and Practices of Interconnection Networks*, ch. 24-25) as
//! used by BookSim-class simulators: instead of trusting a fixed warmup,
//! the initialization transient is truncated automatically with an
//! MSER-style rule over windowed latency means, and a replicated mean
//! carries a 95% confidence interval from its replicate means (both
//! inside [`crate::Run::seeds`]).

/// Minimum number of finite windows before MSER truncation is attempted;
/// below this the series is too short to distinguish transient from noise
/// and the truncation point is 0.
pub const MIN_MSER_WINDOWS: usize = 8;

/// MSER truncation point over a series of windowed means.
///
/// Returns the index of the first window to *keep*: the truncation `d`
/// minimizing `MSER(d) = Σ_{i≥d}(x_i − x̄_d)² / (n−d)²`, searched over the
/// first half of the series (truncating more than half the run is taken
/// as "no steady state found" and clamped). NaN entries (windows that
/// delivered no packets) are ignored for the statistic but keep their
/// place in the index space, so the returned index can be converted to a
/// cycle count by multiplying with the window length.
pub fn mser_truncation(means: &[f64]) -> usize {
    let finite: Vec<(usize, f64)> = means
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, m)| m.is_finite())
        .collect();
    let n = finite.len();
    if n < MIN_MSER_WINDOWS {
        return 0;
    }
    // Suffix sums for O(1) tail mean/variance at every candidate d.
    let mut suf_sum = vec![0.0f64; n + 1];
    let mut suf_sq = vec![0.0f64; n + 1];
    for i in (0..n).rev() {
        suf_sum[i] = suf_sum[i + 1] + finite[i].1;
        suf_sq[i] = suf_sq[i + 1] + finite[i].1 * finite[i].1;
    }
    let mut best = (f64::INFINITY, 0usize);
    for d in 0..=n / 2 {
        let m = (n - d) as f64;
        let mean = suf_sum[d] / m;
        let sse = (suf_sq[d] - m * mean * mean).max(0.0);
        let stat = sse / (m * m);
        if stat < best.0 {
            best = (stat, d);
        }
    }
    // Map the filtered position back to the original series index.
    finite[best.1].0
}

/// Two-sided 97.5% Student-t critical value for `df` degrees of freedom
/// (the multiplier for a 95% confidence interval). Exact to three
/// decimals up to df = 30; the normal limit 1.96 beyond.
pub fn t_critical_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::NAN,
        d if d <= 30 => TABLE[d - 1],
        _ => 1.96,
    }
}

/// Half-width of the 95% confidence interval on the mean of `samples`
/// (replicate means), `t_{n−1} · s / √n`. NaN entries are
/// skipped; fewer than two finite samples give NaN.
pub fn ci95_half_width(samples: &[f64]) -> f64 {
    let xs: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    let n = xs.len();
    if n < 2 {
        return f64::NAN;
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
    t_critical_95(n - 1) * (var / n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncates_a_step_transient() {
        // 20 windows of low-latency fill-up transient, then steady state
        // around 50 with small noise: MSER must cut near the step.
        let mut series = Vec::new();
        for i in 0..20 {
            series.push(5.0 + i as f64); // ramp 5..25
        }
        for i in 0..80 {
            series.push(50.0 + ((i * 7) % 5) as f64 - 2.0); // 48..52
        }
        let d = mser_truncation(&series);
        assert!((15..=30).contains(&d), "truncation at {d}");
    }

    #[test]
    fn stationary_series_needs_no_truncation() {
        let series: Vec<f64> = (0..100).map(|i| 40.0 + ((i * 13) % 7) as f64).collect();
        let d = mser_truncation(&series);
        assert!(d <= 10, "stationary series truncated at {d}");
    }

    #[test]
    fn short_series_is_left_alone() {
        assert_eq!(mser_truncation(&[1.0, 2.0, 3.0]), 0);
        assert_eq!(mser_truncation(&[]), 0);
    }

    #[test]
    fn nan_windows_are_transparent() {
        // NaN (empty) windows interleaved with a step series: the returned
        // index must refer to the original positions.
        let mut series = vec![f64::NAN; 4];
        series.extend(std::iter::repeat_n(5.0, 10));
        series.extend(std::iter::repeat_n(50.0, 40));
        let d = mser_truncation(&series);
        assert!((10..=20).contains(&d), "truncation at {d}");
    }

    #[test]
    fn ci_matches_hand_computation() {
        // Samples 10, 20, 30: mean 20, s = 10, n = 3, t_2 = 4.303.
        let hw = ci95_half_width(&[10.0, 20.0, 30.0]);
        assert!((hw - 4.303 * 10.0 / 3.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn ci_shrinks_with_sqrt_n() {
        // Same spread, 4x the samples: the half-width must shrink by
        // roughly 2 (t-value differences make it slightly more).
        let small: Vec<f64> = (0..8).map(|i| (i % 4) as f64).collect();
        let large: Vec<f64> = (0..32).map(|i| (i % 4) as f64).collect();
        let ratio = ci95_half_width(&small) / ci95_half_width(&large);
        assert!((1.7..2.7).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn ci_degenerate_cases_are_nan() {
        assert!(ci95_half_width(&[]).is_nan());
        assert!(ci95_half_width(&[1.0]).is_nan());
        assert!(ci95_half_width(&[1.0, f64::NAN]).is_nan());
    }

    #[test]
    fn t_table_is_monotone_to_the_normal_limit() {
        let mut prev = f64::INFINITY;
        for df in 1..=40 {
            let t = t_critical_95(df);
            assert!(t <= prev, "t({df}) = {t} not decreasing");
            assert!(t >= 1.96);
            prev = t;
        }
    }
}
