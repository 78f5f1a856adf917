//! Switch-allocator matching quality (Figure 12).

use crate::sweep::{QualityCurve, QualityPoint};
use noc_core::{max_matching, SwitchAllocatorKind, SwitchRequests};
use rand::{Rng, SeedableRng};

/// Configuration of a switch-allocation quality sweep.
#[derive(Clone, Debug)]
pub struct SwQualityConfig {
    /// Router port count `P`.
    pub ports: usize,
    /// VCs per port `V`.
    pub vcs: usize,
    /// Request matrices per data point (the paper uses 10 000).
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
}

impl SwQualityConfig {
    /// Sweep configuration with the paper's trial count.
    pub fn paper(ports: usize, vcs: usize) -> Self {
        SwQualityConfig {
            ports,
            vcs,
            trials: crate::PAPER_TRIALS,
            seed: 0x5c09,
        }
    }
}

/// Draws one open-loop switch-allocation workload: each input VC requests a
/// uniformly random output port with probability `rate`.
pub fn random_sw_requests(
    ports: usize,
    vcs: usize,
    rng: &mut impl Rng,
    rate: f64,
) -> SwitchRequests {
    let mut r = SwitchRequests::new(ports, vcs);
    for i in 0..ports {
        for v in 0..vcs {
            if rng.gen_bool(rate) {
                r.request(i, v, rng.gen_range(0..ports));
            }
        }
    }
    r
}

/// The maximum number of switch grants possible for one request set.
///
/// Because at most one VC per input port can win, the upper bound is a
/// maximum matching on the *port-level* request graph: which VC carries the
/// grant does not change the count.
pub fn max_switch_grants(requests: &SwitchRequests) -> usize {
    max_matching(requests.port_requests())
}

/// Runs the Figure 12 sweep for one switch-allocator architecture.
pub fn sw_quality_curve(
    cfg: &SwQualityConfig,
    kind: SwitchAllocatorKind,
    rates: &[f64],
) -> QualityCurve {
    let mut alloc = kind.build(cfg.ports, cfg.vcs);
    let mut trial_grants = Vec::new();
    let mut points = Vec::with_capacity(rates.len());
    for &rate in rates {
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ (rate * 1e6) as u64);
        let mut grants = 0u64;
        let mut max_grants = 0u64;
        for _ in 0..cfg.trials {
            let reqs = random_sw_requests(cfg.ports, cfg.vcs, &mut rng, rate);
            alloc.allocate_into(&reqs, &mut trial_grants);
            grants += trial_grants.len() as u64;
            max_grants += max_switch_grants(&reqs) as u64;
        }
        points.push(QualityPoint {
            rate,
            grants,
            max_grants,
        });
    }
    QualityCurve {
        label: kind.label().split('/').next().unwrap_or("?").to_string(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_arbiter::ArbiterKind;

    fn quick(ports: usize, vcs: usize) -> SwQualityConfig {
        SwQualityConfig {
            ports,
            vcs,
            trials: 400,
            seed: 3,
        }
    }

    const SEP_IF: SwitchAllocatorKind = SwitchAllocatorKind::SepIf(ArbiterKind::RoundRobin);
    const SEP_OF: SwitchAllocatorKind = SwitchAllocatorKind::SepOf(ArbiterKind::RoundRobin);
    const WF: SwitchAllocatorKind = SwitchAllocatorKind::Wavefront;

    #[test]
    fn port_level_bound_is_sound() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for kind in [SEP_IF, SEP_OF, WF] {
            let mut a = kind.build(5, 2);
            for _ in 0..200 {
                let reqs = random_sw_requests(5, 2, &mut rng, 0.5);
                assert!(
                    a.allocate(&reqs).len() <= max_switch_grants(&reqs),
                    "{kind:?}"
                );
            }
        }
    }

    #[test]
    fn low_load_quality_near_one_for_all() {
        // §5.3.2: "At low network loads, all three allocators generate
        // near-maximum matchings".
        for kind in [SEP_IF, SEP_OF, WF] {
            let c = sw_quality_curve(&quick(5, 2), kind, &[0.05]);
            assert!(
                c.points[0].quality() > 0.95,
                "{kind:?}: {}",
                c.points[0].quality()
            );
        }
    }

    #[test]
    fn ranking_under_load_wf_ge_sep_of_ge_sep_if() {
        // §5.3.2's qualitative ordering at medium-high rates on a multi-VC
        // configuration.
        let cfg = quick(10, 8);
        let q = |k| sw_quality_curve(&cfg, k, &[0.4]).points[0].quality();
        let (qi, qo, qw) = (q(SEP_IF), q(SEP_OF), q(WF));
        assert!(qw >= qo, "wf {qw} < sep_of {qo}");
        assert!(qo >= qi, "sep_of {qo} < sep_if {qi}");
        assert!(qi < 1.0, "sep_if unexpectedly perfect at load");
    }

    #[test]
    fn sep_if_flattens_with_many_vcs() {
        // §5.3.2: sep_if is limited to one request per input port into stage
        // 2; with V=8 at full rate its quality is notably below wavefront's.
        let cfg = quick(10, 8);
        let qi = sw_quality_curve(&cfg, SEP_IF, &[1.0]).points[0].quality();
        let qw = sw_quality_curve(&cfg, WF, &[1.0]).points[0].quality();
        assert!(qw - qi > 0.02, "wf {qw} vs sep_if {qi}");
    }

    #[test]
    fn wavefront_quality_recovers_at_saturation() {
        // §5.3.2: wavefront quality dips at moderate rates, then climbs back
        // as the maximum-size bound itself saturates at P grants; the
        // recovery needs enough VCs per port (mesh 2x1x4: P=5, V=8).
        let cfg = quick(5, 8);
        let c = sw_quality_curve(&cfg, WF, &[0.05, 0.4, 1.0]);
        let q: Vec<f64> = c.points.iter().map(QualityPoint::quality).collect();
        assert!(q[1] < q[0], "no dip: {q:?}");
        assert!(q[2] > q[1], "no recovery: {q:?}");
    }
}
