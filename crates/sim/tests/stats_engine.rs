//! Integration tests for the statistics engine: steady-state detection,
//! replicated confidence intervals, and histogram percentile accuracy.

use noc_obs::HdrHistogram;
use noc_sim::{run_sim, Run, SimConfig, SimResult, TopologyKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn mesh(rate: f64) -> SimConfig {
    SimConfig {
        injection_rate: rate,
        ..SimConfig::paper_baseline(TopologyKind::Mesh8x8, 1)
    }
}

/// `n` replicates of `cfg` over `total` cycles, MSER picking the warmup.
fn replicated(cfg: &SimConfig, total: u64, n: usize) -> SimResult {
    Run::new(cfg, 0, total).seeds(n).finish().result
}

#[test]
fn replicated_cis_from_disjoint_seed_sets_overlap() {
    // Two independent 6-seed replications of the same workload estimate
    // the same true mean, so their 95% confidence intervals must overlap
    // (the means differ by less than the sum of half-widths).
    let a = replicated(&mesh(0.1), 3_000, 6);
    let b = replicated(
        &SimConfig {
            seed: 0xfeed_beef,
            ..mesh(0.1)
        },
        3_000,
        6,
    );
    assert_eq!(a.seeds, 6);
    assert!(a.ci95.is_finite() && a.ci95 > 0.0, "ci95 {}", a.ci95);
    assert!(b.ci95.is_finite() && b.ci95 > 0.0);
    // With only 6 replicates the t-interval itself is noisy, so allow a
    // 2x safety factor — this still catches CIs that are off by an order
    // of magnitude (the failure mode a units/variance bug produces).
    let gap = (a.avg_latency - b.avg_latency).abs();
    assert!(
        gap < 2.0 * (a.ci95 + b.ci95),
        "disjoint-seed means {:.3} vs {:.3} differ by {gap:.3}, \
         more than twice the summed CI half-widths {:.3}",
        a.avg_latency,
        b.avg_latency,
        a.ci95 + b.ci95
    );
}

#[test]
fn ci_width_shrinks_roughly_with_sqrt_seeds() {
    // 4 -> 16 seeds is 4x the replicates: the t-multiplier drops and the
    // standard error halves, so the half-width should shrink by roughly
    // a factor of 2-3. A single 4-replicate variance estimate is far too
    // noisy to assert that (df = 3), so average the half-widths over
    // three disjoint base seeds before comparing.
    let hw = |n_seeds: usize| {
        [0u64, 101, 202]
            .iter()
            .map(|&s| {
                let cfg = SimConfig {
                    seed: 0xba5e ^ (s * 1_000_003),
                    ..mesh(0.1)
                };
                let w = replicated(&cfg, 2_000, n_seeds).ci95;
                assert!(w.is_finite() && w > 0.0, "ci95 {w} for {n_seeds} seeds");
                w
            })
            .sum::<f64>()
            / 3.0
    };
    let (hw4, hw16) = (hw(4), hw(16));
    assert!(hw16 < hw4, "mean hw16 {hw16} !< mean hw4 {hw4}");
    let ratio = hw4 / hw16;
    assert!((1.2..10.0).contains(&ratio), "shrink ratio {ratio}");
}

#[test]
fn auto_warmup_detects_the_fill_transient() {
    let auto = replicated(&mesh(0.15), 6_000, 2);
    let warmup = auto
        .warmup_detected
        .expect("a replicated run must report the detected warmup");
    assert!(
        warmup < 3_000,
        "MSER truncated more than half the run: {warmup}"
    );
    assert!(auto.avg_latency.is_finite());
    // The auto-truncated mean must agree with a generously fixed warmup.
    let fixed = run_sim(&mesh(0.15), 2_000, 4_000);
    let rel = (auto.avg_latency - fixed.avg_latency).abs() / fixed.avg_latency;
    assert!(
        rel < 0.15,
        "auto ({:.2}) vs fixed-warmup ({:.2}) means diverge by {:.1}%",
        auto.avg_latency,
        fixed.avg_latency,
        rel * 100.0
    );
}

#[test]
fn hdr_percentiles_track_the_sorted_reference() {
    // Random latency mixture (short hops + a heavy tail) recorded into
    // the histogram must reproduce the exact order statistics within the
    // histogram's guaranteed relative error (1/32, plus 1 for the
    // within-bucket interpolation granularity).
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut samples: Vec<u64> = Vec::new();
    let mut hist = HdrHistogram::new();
    for _ in 0..3_000 {
        let lat = if rng.gen_bool(0.8) {
            rng.gen_range(1u64..64)
        } else {
            rng.gen_range(64u64..5_000)
        };
        samples.push(lat);
        hist.record(lat);
    }
    samples.sort_unstable();
    for q in [0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let exact = samples[rank - 1] as f64;
        let est = hist.percentile(q);
        let tol = exact / 32.0 + 1.0;
        assert!(
            (est - exact).abs() <= tol,
            "p{q}: estimate {est} vs exact {exact} (tol {tol})"
        );
    }
}

#[test]
#[should_panic(expected = "percentile q must be in (0, 1]")]
fn percentile_zero_is_rejected() {
    let mut hist = HdrHistogram::new();
    hist.record(10);
    hist.percentile(0.0);
}

#[test]
fn seed_prefix_nesting_is_stable() {
    // Replicate seeds are cfg.seed, cfg.seed+1, ...: the 2-seed run uses
    // a prefix of the 4-seed run's seeds, so adding seeds refines rather
    // than replaces the estimate. Verified indirectly: both runs must
    // agree within their CIs.
    let r2 = replicated(&mesh(0.1), 3_000, 2);
    let r4 = replicated(&mesh(0.1), 3_000, 4);
    assert_eq!(r2.warmup_detected, r4.warmup_detected, "same pilot run");
    let gap = (r2.avg_latency - r4.avg_latency).abs();
    assert!(
        gap <= r2.ci95.max(1.0),
        "nested runs diverge: {:.3} vs {:.3}",
        r2.avg_latency,
        r4.avg_latency
    );
}
