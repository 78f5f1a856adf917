//! VC-allocator matching quality (Figure 7).

use crate::sweep::{QualityCurve, QualityPoint};
use noc_core::{AllocatorKind, BitMatrix, DenseVcAllocator, VcAllocSpec, VcAllocator, VcRequest};
use rand::{Rng, SeedableRng};

/// Configuration of a VC-allocation quality sweep.
#[derive(Clone, Debug)]
pub struct VcQualityConfig {
    /// Router/class configuration (design point).
    pub spec: VcAllocSpec,
    /// Request matrices per data point (the paper uses 10 000).
    pub trials: usize,
    /// RNG seed; identical seeds give identical request sequences across
    /// allocator kinds, as in the paper's methodology.
    pub seed: u64,
}

impl VcQualityConfig {
    /// Sweep configuration with the paper's trial count.
    pub fn paper(spec: VcAllocSpec) -> Self {
        VcQualityConfig {
            spec,
            trials: crate::PAPER_TRIALS,
            seed: 0x5c09,
        }
    }
}

/// Draws one open-loop VC-allocation workload: each input VC issues a
/// request with probability `rate`, to a uniformly random output port, for a
/// single uniformly chosen successor resource class (the routing function
/// has already decided the class by the time VC allocation happens).
/// All output VCs are free — the open-loop setting of §3.1.
pub fn random_vc_requests(
    spec: &VcAllocSpec,
    rng: &mut impl Rng,
    rate: f64,
) -> Vec<Option<VcRequest>> {
    let v = spec.total_vcs();
    (0..spec.ports() * v)
        .map(|g| {
            if rng.gen_bool(rate) {
                let (_, ir, _) = spec.vc_class(g % v);
                let succ = spec.rc_successors(ir);
                let class = succ[rng.gen_range(0..succ.len())];
                Some(VcRequest::one_class(rng.gen_range(0..spec.ports()), class))
            } else {
                None
            }
        })
        .collect()
}

/// Runs the Figure 7 sweep for one allocator architecture over the given
/// request rates and returns its quality curve.
pub fn vc_quality_curve(cfg: &VcQualityConfig, kind: AllocatorKind, rates: &[f64]) -> QualityCurve {
    let spec = &cfg.spec;
    let free = {
        // Open loop: every output VC is available in every trial.
        let mut f = BitMatrix::new(spec.ports(), spec.total_vcs());
        for p in 0..spec.ports() {
            for v in 0..spec.total_vcs() {
                f.set(p, v, true);
            }
        }
        f
    };
    let mut under_test = DenseVcAllocator::new(spec.clone(), kind);
    let mut reference = DenseVcAllocator::new(spec.clone(), AllocatorKind::MaxSize);
    let mut trial_grants = Vec::new();
    let mut points = Vec::with_capacity(rates.len());
    for &rate in rates {
        // Re-seed per rate so every allocator kind sees the same matrices at
        // the same rate regardless of sweep order.
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ (rate * 1e6) as u64);
        let mut grants = 0u64;
        let mut max_grants = 0u64;
        for _ in 0..cfg.trials {
            let reqs = random_vc_requests(spec, &mut rng, rate);
            under_test.allocate_into(&reqs, &free, &mut trial_grants);
            grants += trial_grants.iter().filter(|g| g.is_some()).count() as u64;
            reference.allocate_into(&reqs, &free, &mut trial_grants);
            max_grants += trial_grants.iter().filter(|g| g.is_some()).count() as u64;
        }
        points.push(QualityPoint {
            rate,
            grants,
            max_grants,
        });
    }
    QualityCurve {
        label: kind.family().to_string(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(spec: VcAllocSpec) -> VcQualityConfig {
        VcQualityConfig {
            spec,
            trials: 300,
            seed: 99,
        }
    }

    #[test]
    fn quality_never_exceeds_one() {
        for kind in AllocatorKind::QUALITY_FIGURE_KINDS {
            let c = vc_quality_curve(&quick(VcAllocSpec::mesh(2)), kind, &[0.3, 0.8]);
            for p in &c.points {
                assert!(p.grants <= p.max_grants, "{kind:?} {p:?}");
            }
        }
    }

    #[test]
    fn single_vc_per_class_gives_quality_one() {
        // Figure 7(a)/(d): all three allocators have constant quality 1.
        for spec in [VcAllocSpec::mesh(1), VcAllocSpec::fbfly(1)] {
            for kind in AllocatorKind::QUALITY_FIGURE_KINDS {
                let c = vc_quality_curve(&quick(spec.clone()), kind, &[0.2, 0.6, 1.0]);
                assert!(
                    (c.min_quality() - 1.0).abs() < 1e-12,
                    "{kind:?} {} -> {}",
                    spec.label(),
                    c.min_quality()
                );
            }
        }
    }

    #[test]
    fn wavefront_is_maximum_for_vc_allocation() {
        // §4.3.2: the wavefront VC allocator yields matching quality 1 for
        // all configurations (class-structured requests make maximal =
        // maximum).
        for spec in [VcAllocSpec::mesh(4), VcAllocSpec::fbfly(2)] {
            let c = vc_quality_curve(&quick(spec.clone()), AllocatorKind::Wavefront, &[0.5, 1.0]);
            assert!(
                (c.min_quality() - 1.0).abs() < 1e-12,
                "{} -> {}",
                spec.label(),
                c.min_quality()
            );
        }
    }

    #[test]
    fn separable_quality_degrades_with_rate_and_vcs() {
        // Figure 7(c)/(f): separable quality decreases at higher injection
        // rates and larger C.
        let lo = vc_quality_curve(&quick(VcAllocSpec::mesh(4)), AllocatorKind::SepIfRr, &[0.1]);
        let hi = vc_quality_curve(&quick(VcAllocSpec::mesh(4)), AllocatorKind::SepIfRr, &[1.0]);
        assert!(
            hi.points[0].quality() < lo.points[0].quality(),
            "quality did not degrade: {} vs {}",
            lo.points[0].quality(),
            hi.points[0].quality()
        );
        assert!(hi.points[0].quality() < 0.99);
    }

    #[test]
    fn input_first_beats_output_first_under_load() {
        // §4.3.2: "Input-first allocation provides slightly better matching
        // here" — check at high rate on a multi-VC config.
        let spec = VcAllocSpec::fbfly(4);
        let cfg = VcQualityConfig {
            spec,
            trials: 400,
            seed: 7,
        };
        let qi = vc_quality_curve(&cfg, AllocatorKind::SepIfRr, &[1.0]).points[0].quality();
        let qo = vc_quality_curve(&cfg, AllocatorKind::SepOfRr, &[1.0]).points[0].quality();
        assert!(qi >= qo, "sep_if {qi} < sep_of {qo}");
    }
}
