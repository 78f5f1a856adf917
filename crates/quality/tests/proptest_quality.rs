//! Property-based tests on the quality-harness guarantees.

use noc_core::{max_matching, SwitchAllocatorKind, SwitchRequests};
use noc_quality::sw_quality::{max_switch_grants, random_sw_requests};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn port_level_bound_matches_bipartite_maximum(
        seed in 0u64..1000,
        ports in 2usize..8,
        vcs in 1usize..5,
        rate in 0.05f64..1.0
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let reqs = random_sw_requests(ports, vcs, &mut rng, rate);
        let bound = max_switch_grants(&reqs);
        // The bound equals a maximum matching of the port graph...
        prop_assert_eq!(
            bound,
            max_matching(&reqs.port_matrix())
        );
        // ...and no allocator exceeds it.
        for kind in [
            SwitchAllocatorKind::SepIf(noc_arbiter::ArbiterKind::RoundRobin),
            SwitchAllocatorKind::Wavefront,
        ] {
            let mut a = kind.build(ports, vcs);
            prop_assert!(a.allocate(&reqs).len() <= bound, "{kind:?}");
        }
    }

    #[test]
    fn wavefront_switch_quality_at_least_half(
        seed in 0u64..500,
        ports in 2usize..8,
        vcs in 1usize..5,
        rate in 0.05f64..1.0
    ) {
        // Maximal matchings are 2-approximations of maximum ones; the
        // wavefront port-level matching is maximal, so over any request
        // sequence its total grants are at least half the bound.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut wf = SwitchAllocatorKind::Wavefront.build(ports, vcs);
        let mut got = 0usize;
        let mut bound = 0usize;
        for _ in 0..20 {
            let reqs = random_sw_requests(ports, vcs, &mut rng, rate);
            got += wf.allocate(&reqs).len();
            bound += max_switch_grants(&reqs);
        }
        prop_assert!(2 * got >= bound, "wf {got} < {bound}/2");
    }

    #[test]
    fn request_generator_hits_the_rate(seed in 0u64..200, rate in 0.1f64..0.9) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (ports, vcs, trials) = (8usize, 8usize, 60usize);
        let mut active = 0usize;
        for _ in 0..trials {
            let reqs = random_sw_requests(ports, vcs, &mut rng, rate);
            for i in 0..ports {
                for v in 0..vcs {
                    if reqs.get(i, v).is_some() {
                        active += 1;
                    }
                }
            }
        }
        let got = active as f64 / (ports * vcs * trials) as f64;
        prop_assert!((got - rate).abs() < 0.08, "rate {rate} -> {got}");
    }

    #[test]
    fn empty_requests_never_counted(ports in 2usize..6, vcs in 1usize..4) {
        let reqs = SwitchRequests::new(ports, vcs);
        prop_assert_eq!(max_switch_grants(&reqs), 0);
    }
}
