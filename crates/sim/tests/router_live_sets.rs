//! Randomized single-router harness for the incrementally kept state of
//! `Router`: the live-VC sets, the word-backed request sets and the lazily
//! settled `empty` counters.
//!
//! The harness plays both neighbours of one router. Upstream it pushes
//! random multi-flit packets into random input VCs whenever the credit
//! protocol allows; downstream it returns the credits of departed flits at
//! random later cycles. It mirrors every buffer, so after each cycle it
//! knows what the router must hold, and checks that
//!
//! * `check_invariants` is clean — this is where the kept sets are compared
//!   against a scan of all `P·V` VCs;
//! * request sets rebuilt from scratch into fresh containers equal the kept
//!   ones, which have been cleared and refilled every cycle of the run;
//! * occupancy read through the live sets matches the mirror, and every VC
//!   accounts for exactly the cycles lived through;
//! * each input VC delivers its flits in order, exactly once;
//! * a twin router fed the same script, but — like the network's cycle
//!   loop — not stepped while idle (`skip_cycle`), emits the same outputs
//!   every cycle and ends with the same counters. This is the router-level
//!   oracle for skipping: when `tests/engine_equivalence.rs` fails on a
//!   whole network, this names the cause.

use noc_core::{SpecMode, SwitchRequests, VcAllocSpec, VcRequestSet};
use noc_sim::packet::{PacketKind, RouteState};
use noc_sim::router::{Router, RouterConfig, RouterOutputs};
use noc_sim::routing::route_at;
use noc_sim::{Flit, RoutingKind, StrictChecker, Topology, TopologyKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

struct Shape {
    topology: TopologyKind,
    spec: VcAllocSpec,
    routing: RoutingKind,
    /// A router with every network port linked.
    router: usize,
}

/// What the harness knows about one input VC: the flits it pushed that have
/// not left yet as `(packet, index)`, and the packet in progress as its
/// head, the next flit index and the flits still to push.
#[derive(Default)]
struct InputVc {
    queued: VecDeque<(u64, usize)>,
    packet: Option<(Flit, usize, usize)>,
}

/// A head flit for `dest` arriving at `router`, with the lookahead its
/// upstream neighbour would have computed; `detour` sends it through a
/// UGAL intermediate first (the non-minimal resource class).
fn head_for(topo: &Topology, shape: &Shape, dest: usize, detour: Option<usize>) -> Flit {
    let state = RouteState {
        intermediate: detour,
        ..RouteState::default()
    };
    let (lookahead, route_state) = route_at(topo, shape.routing, shape.router, dest, state);
    Flit {
        packet_id: 0,
        flit_index: 0,
        head: true,
        tail: false,
        kind: PacketKind::WriteRequest,
        src: 0,
        dest,
        birth: 0,
        injected: 0,
        lookahead,
        route_state,
    }
}

fn rebuilt(kept: &SwitchRequests) -> SwitchRequests {
    let mut fresh = SwitchRequests::new(kept.ports(), kept.vcs());
    for p in 0..kept.ports() {
        for vc in 0..kept.vcs() {
            if let Some(o) = kept.get(p, vc) {
                fresh.request(p, vc, o);
            }
        }
    }
    fresh
}

fn drive(shape: Shape, spec_mode: SpecMode, seed: u64, cycles: u64) {
    let topo = shape.topology.build();
    let cfg = RouterConfig {
        spec_mode,
        ..RouterConfig::paper_default(shape.spec.clone(), shape.routing)
    };
    let depth = cfg.buf_depth;
    let mut router = Router::new(shape.router, cfg.clone());
    let mut twin = Router::new(shape.router, cfg);
    // With the ledger on, a departing head emits a hop record to compare.
    router.enable_anatomy();
    twin.enable_anatomy();
    let mut skipped = 0u64;
    let (ports, vcs) = (router.ports(), router.vcs());
    let n = ports * vcs;
    let terminals = topo.num_terminals();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inputs: Vec<InputVc> = (0..n).map(|_| InputVc::default()).collect();
    // Flits downstream of each output VC whose credit is still owed.
    let mut owed = vec![0usize; n];
    let mut next_packet = 0u64;
    let (mut pushed, mut left) = (0u64, 0u64);
    // Load comes in waves, in flits per cycle offered to the whole router
    // and spread over its VCs; a quiet wave lasts until the router has
    // drained and sat idle a while, however deep the backlog it inherits.
    let mut push_rate = 0.0;
    let mut idle_run = 0;

    for now in 0..cycles {
        if now % 64 == 0 && (push_rate > 0.0 || idle_run >= 16) {
            push_rate = [0.0, 0.4, 3.0, 12.0][rng.gen_range(0..4usize)] / n as f64;
        }
        // Downstream: return some owed credits.
        for out_flat in 0..n {
            if owed[out_flat] > 0 && rng.gen_bool(0.3) {
                owed[out_flat] -= 1;
                router.accept_credit(out_flat / vcs, out_flat % vcs);
                twin.accept_credit(out_flat / vcs, out_flat % vcs);
            }
        }
        // Upstream: continue or start a packet where a slot is free.
        for in_flat in 0..n {
            let (port, vc) = (in_flat / vcs, in_flat % vcs);
            let input = &mut inputs[in_flat];
            // A packet under way keeps coming through a quiet wave: its
            // tail frees the output VC others wait for, so the router can
            // drain completely.
            let rate = if input.packet.is_some() {
                f64::max(push_rate, 0.25)
            } else {
                push_rate
            };
            if input.queued.len() >= depth || !rng.gen_bool(rate) {
                continue;
            }
            let (head, flit_index, remaining) = match input.packet.take() {
                Some(in_progress) => in_progress,
                None => {
                    let dest = rng.gen_range(0..terminals);
                    let detour = (matches!(shape.routing, RoutingKind::Ugal { .. })
                        && rng.gen_bool(0.3))
                    .then(|| rng.gen_range(0..topo.num_routers()));
                    let head = head_for(&topo, &shape, dest, detour);
                    // The input VC's resource class must allow the class
                    // the route asks for next; otherwise this VC stays
                    // quiet.
                    let (_, rc, _) = shape.spec.vc_class(vc);
                    if !shape.spec.rc_legal(rc, head.lookahead.resource_class) {
                        continue;
                    }
                    next_packet += 1;
                    let head = Flit {
                        packet_id: next_packet,
                        ..head
                    };
                    (head, 0, rng.gen_range(1..=5usize))
                }
            };
            let flit = Flit {
                flit_index,
                head: flit_index == 0,
                tail: remaining == 1,
                ..head
            };
            if !flit.tail {
                input.packet = Some((head, flit_index + 1, remaining - 1));
            }
            input.queued.push_back((flit.packet_id, flit_index));
            router.accept_flit(port, vc, flit, now);
            twin.accept_flit(port, vc, flit, now);
            pushed += 1;
        }

        let out = router.step(&topo, now);
        let twin_out = if twin.is_idle() {
            skipped += 1;
            idle_run += 1;
            twin.skip_cycle();
            RouterOutputs::default()
        } else {
            idle_run = 0;
            twin.step(&topo, now)
        };
        assert_eq!(
            format!("{out:?}"),
            format!("{twin_out:?}"),
            "cycle {now}: stepping and skipping emitted different outputs"
        );

        // Departures: one credit per flit, in order per input VC.
        assert_eq!(out.flits.len(), out.credits.len());
        for (sent, &(port, vc)) in out.flits.iter().zip(&out.credits) {
            let expect = inputs[port * vcs + vc].queued.pop_front();
            assert_eq!(
                expect,
                Some((sent.flit.packet_id, sent.flit.flit_index)),
                "cycle {now}: input ({port},{vc}) delivered out of order"
            );
            owed[sent.port * vcs + sent.vc] += 1;
            assert!(owed[sent.port * vcs + sent.vc] <= depth, "credit overrun");
            left += 1;
        }

        let mut chk = StrictChecker::default();
        router.check_invariants(&mut chk);
        assert!(chk.passed(), "cycle {now}: {:?}", chk.violations);

        let (vca, nonspec, spec) = router.request_sets();
        assert_eq!(&rebuilt(nonspec), nonspec, "cycle {now}: nonspec set");
        assert_eq!(&rebuilt(spec), spec, "cycle {now}: spec set");
        let mut fresh = VcRequestSet::new(n);
        for g in 0..n {
            if let Some((out_port, classes)) = vca.get(g) {
                fresh.request(g, out_port, classes);
            }
        }
        assert_eq!(fresh.to_slots(), vca.to_slots(), "cycle {now}: VCA set");
        if spec_mode == SpecMode::NonSpeculative {
            assert!(spec.is_empty());
        }

        let queued: usize = inputs.iter().map(|i| i.queued.len()).sum();
        assert_eq!(router.buffered_flits(), queued, "cycle {now}");
        assert_eq!(
            router.busy_vcs(),
            inputs.iter().filter(|i| !i.queued.is_empty()).count()
        );
        for (in_flat, input) in inputs.iter().enumerate() {
            assert_eq!(
                router.input_occupancy(in_flat / vcs, in_flat % vcs),
                input.queued.len()
            );
        }
        if now % 97 == 0 {
            let t = router.telemetry_counters();
            assert_eq!(
                t.active + t.credit_stall + t.vca_stall + t.sa_stall + t.empty,
                (now + 1) * n as u64
            );
            for s in &router.obs().vc {
                assert_eq!(s.cycles(), now + 1);
            }
            // The twin settles `empty` here after a run of skipped cycles.
            assert_eq!(t, twin.telemetry_counters(), "cycle {now}");
            assert_eq!(format!("{:?}", router.obs()), format!("{:?}", twin.obs()));
        }
    }
    assert!(pushed > cycles / 4, "only {pushed} flits pushed");
    assert!(left > pushed / 2, "only {left} of {pushed} flits left");

    assert!(skipped > 0, "the twin was never idle");
    assert_eq!(format!("{:?}", router.obs()), format!("{:?}", twin.obs()));
    assert_eq!(router.telemetry_counters(), twin.telemetry_counters());
    assert_eq!(router.worst_port_stall(), twin.worst_port_stall());
    assert_eq!(
        format!("{:?}", router.stats),
        format!("{:?}", twin.stats),
        "speculation counters"
    );
    let ((vca, nonspec, spec), (twin_vca, twin_nonspec, twin_spec)) =
        (router.request_sets(), twin.request_sets());
    assert_eq!(vca.to_slots(), twin_vca.to_slots());
    assert_eq!((nonspec, spec), (twin_nonspec, twin_spec));
}

fn mesh_p5v4() -> Shape {
    Shape {
        topology: TopologyKind::Mesh8x8,
        spec: VcAllocSpec::mesh(2),
        routing: RoutingKind::DimensionOrder,
        router: 27,
    }
}

fn fbfly_p10v16() -> Shape {
    Shape {
        topology: TopologyKind::FlattenedButterfly4x4,
        spec: VcAllocSpec::fbfly(4),
        routing: RoutingKind::Ugal { threshold: 3 },
        router: 5,
    }
}

#[test]
fn kept_state_matches_a_rebuild_at_p5v4() {
    for (seed, mode) in [
        (1, SpecMode::Pessimistic),
        (2, SpecMode::Conventional),
        (3, SpecMode::NonSpeculative),
    ] {
        drive(mesh_p5v4(), mode, seed, 3_000);
    }
}

#[test]
fn kept_state_matches_a_rebuild_at_p10v16() {
    for (seed, mode) in [
        (4, SpecMode::Pessimistic),
        (5, SpecMode::Conventional),
        (6, SpecMode::NonSpeculative),
    ] {
        drive(fbfly_p10v16(), mode, seed, 2_000);
    }
}
