//! Routing functions: dimension-order for the mesh, UGAL for the flattened
//! butterfly, both used in lookahead form (§3.2).

use crate::packet::{Lookahead, RouteState};
use crate::topology::Topology;

/// Routing algorithm selection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RoutingKind {
    /// Deterministic dimension-order (XY) routing — the paper's mesh
    /// configuration.
    DimensionOrder,
    /// UGAL: per-packet choice between the minimal route and a Valiant
    /// route through a random intermediate, based on local queue occupancy
    /// at the source router, with the given decision threshold.
    Ugal {
        /// Bias toward the minimal route (flits of queue-length product).
        threshold: i64,
    },
    /// Shortest-direction dimension-order routing on a torus with
    /// per-dimension dateline VC classes (Dally–Seitz): packets use the
    /// pre-dateline class (0) until their path crosses the wraparound edge
    /// of the current dimension, the post-dateline class (1) afterwards,
    /// and return to class 0 when they switch dimensions.
    TorusDateline,
    /// Torus routing with the dateline discipline deliberately removed:
    /// every hop stays in resource class 0, so the channel-dependency
    /// graph has the ring cycles the dateline exists to break. This is a
    /// **negative fixture** — `noc check`'s `no-dateline` fixture walks
    /// this very route, and the simulator runs it to exercise the stall
    /// watchdog on a genuine buffer-cycle deadlock. Never a shipped
    /// configuration.
    TorusNoDateline,
}

impl RoutingKind {
    /// The paper's configuration for a topology label.
    pub fn for_topology(label: &str) -> RoutingKind {
        match label {
            "mesh" => RoutingKind::DimensionOrder,
            "torus" => RoutingKind::TorusDateline,
            _ => RoutingKind::Ugal { threshold: 3 },
        }
    }

    /// Short name, as used in config digests and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            RoutingKind::DimensionOrder => "dor",
            RoutingKind::Ugal { .. } => "ugal",
            RoutingKind::TorusDateline => "torus_dateline",
            RoutingKind::TorusNoDateline => "torus_nodateline",
        }
    }

    /// Parses a routing override: a [`RoutingKind::label`] name, with the
    /// `torus_` prefix optional. UGAL carries a threshold and is reached
    /// through its topology only, so `ugal` is not a name.
    pub fn parse(s: &str) -> Option<RoutingKind> {
        match s.strip_prefix("torus_").unwrap_or(s) {
            "dor" => Some(RoutingKind::DimensionOrder),
            "dateline" => Some(RoutingKind::TorusDateline),
            "nodateline" => Some(RoutingKind::TorusNoDateline),
            _ => None,
        }
    }
}

/// Resource-class indices used on the flattened butterfly: phase-1
/// (non-minimal) traffic uses class 0, phase-2/minimal traffic class 1.
/// This matches `VcAllocSpec::fbfly`, whose transition relation allows
/// 0→0, 0→1 and 1→1. The mesh has a single class 0.
pub const RC_NONMIN: usize = 0;
/// Minimal-phase resource class (fbfly); also the ejection class.
pub const RC_MIN: usize = 1;

/// Resource class of the injection-link VC a packet starts in, given its
/// injection-time route state: UGAL's phase-1 (non-minimal) packets start
/// in [`RC_NONMIN`], its minimal ones in [`RC_MIN`]; every other routing
/// starts in class 0 (torus packets pre-dateline, and the no-dateline
/// fixture never leaves it). The terminal and `noc check` both start
/// packets here.
pub fn injection_class(kind: RoutingKind, state: &RouteState) -> usize {
    match kind {
        RoutingKind::Ugal { .. } if state.intermediate.is_some() => RC_NONMIN,
        RoutingKind::Ugal { .. } => RC_MIN,
        RoutingKind::DimensionOrder | RoutingKind::TorusDateline | RoutingKind::TorusNoDateline => {
            0
        }
    }
}

/// Computes the routing decision *at* `router` for a packet heading to
/// terminal `dest`: the output port, the resource class of the VCs to
/// acquire at that output, and the updated adaptive-routing state.
///
/// This is the function the upstream router (or source NI) evaluates as
/// lookahead routing while the flit is one hop away.
pub fn route_at(
    topo: &Topology,
    kind: RoutingKind,
    router: usize,
    dest: usize,
    mut state: RouteState,
) -> (Lookahead, RouteState) {
    let (dest_router, _) = topo.terminal_attach(dest);
    match kind {
        RoutingKind::DimensionOrder => {
            let rc = 0;
            if router == dest_router {
                let (_, tp) = topo.terminal_attach(dest);
                return (
                    Lookahead {
                        out_port: tp,
                        resource_class: rc,
                    },
                    state,
                );
            }
            let (x, y) = topo.coords(router);
            let (dx, dy) = topo.coords(dest_router);
            // Ports: 1 = +x, 2 = -x, 3 = +y, 4 = -y (mesh construction).
            let out_port = if x < dx {
                1
            } else if x > dx {
                2
            } else if y < dy {
                3
            } else {
                4
            };
            (
                Lookahead {
                    out_port,
                    resource_class: rc,
                },
                state,
            )
        }
        RoutingKind::Ugal { .. } => {
            // Phase transition: reaching the intermediate ends phase 1.
            if state.intermediate == Some(router) {
                state.intermediate = None;
            }
            if router == dest_router && state.intermediate.is_none() {
                let (_, tp) = topo.terminal_attach(dest);
                return (
                    Lookahead {
                        out_port: tp,
                        resource_class: RC_MIN,
                    },
                    state,
                );
            }
            let target = state.intermediate.unwrap_or(dest_router);
            let rc = if state.intermediate.is_some() {
                RC_NONMIN
            } else {
                RC_MIN
            };
            // Minimal fbfly routing toward `target`: fix x, then y; each
            // correction is a single express hop.
            let (x, y) = topo.coords(router);
            let (tx, ty) = topo.coords(target);
            let next = if x != tx {
                ty_row(topo, y, tx)
            } else {
                debug_assert_ne!(y, ty, "route_at called at target router");
                tx_col(topo, x, ty)
            };
            let Some(out_port) = topo.port_towards(router, next) else {
                unreachable!("fbfly routers are fully connected per dimension")
            };
            (
                Lookahead {
                    out_port,
                    resource_class: rc,
                },
                state,
            )
        }
        RoutingKind::TorusDateline => torus_route(topo, router, dest, state, true),
        RoutingKind::TorusNoDateline => torus_route(topo, router, dest, state, false),
    }
}

/// Torus DOR with per-dimension datelines. Direction choice is
/// shortest-path with ties broken toward +; the dateline of each ring sits
/// on its wraparound edge. With `dateline` off, every hop stays in class 0
/// (the deliberately deadlock-prone watchdog fixture).
fn torus_route(
    topo: &Topology,
    router: usize,
    dest: usize,
    mut state: RouteState,
    dateline: bool,
) -> (Lookahead, RouteState) {
    let (dest_router, _) = topo.terminal_attach(dest);
    if router == dest_router {
        let (_, tp) = topo.terminal_attach(dest);
        // Ejection may come from either class; use the post class.
        return (
            Lookahead {
                out_port: tp,
                resource_class: if dateline { 1 } else { 0 },
            },
            state,
        );
    }
    let (w, h) = (topo.width, topo.height);
    let (x, y) = topo.coords(router);
    let (tx, ty) = topo.coords(dest_router);
    let (out_port, wraps, in_y) = if x != tx {
        let fwd = (tx + w - x) % w;
        let go_plus = fwd <= w - fwd; // ties toward +
        if go_plus {
            (1, x == w - 1, false)
        } else {
            (2, x == 0, false)
        }
    } else {
        let fwd = (ty + h - y) % h;
        let go_plus = fwd <= h - fwd;
        if go_plus {
            (3, y == h - 1, true)
        } else {
            (4, y == 0, true)
        }
    };
    // Dimension change resets the dateline flag.
    if in_y != state.dateline_in_y {
        state.crossed_dateline = false;
        state.dateline_in_y = in_y;
    }
    if wraps {
        state.crossed_dateline = true;
    }
    let rc = if dateline && state.crossed_dateline {
        1
    } else {
        0
    };
    (
        Lookahead {
            out_port,
            resource_class: rc,
        },
        state,
    )
}

fn ty_row(topo: &Topology, y: usize, tx: usize) -> usize {
    y * topo.width + tx
}

fn tx_col(topo: &Topology, x: usize, ty: usize) -> usize {
    ty * topo.width + x
}

/// Queue-occupancy view UGAL consults at injection time (§4.2, Singh '05):
/// an estimate of the downstream buffer occupancy of an output port,
/// restricted to one resource class.
pub trait CongestionProbe {
    /// Occupied downstream slots at `out_port` for VCs of `(msg_class, rc)`.
    fn occupancy(&self, out_port: usize, msg_class: usize, rc: usize) -> usize;
}

/// UGAL-L source decision: compare the minimal route against one candidate
/// Valiant route through `intermediate` using locally observable queue
/// occupancy, weighted by hop count.
pub fn ugal_choose(
    topo: &Topology,
    threshold: i64,
    src_router: usize,
    dest: usize,
    msg_class: usize,
    intermediate: usize,
    probe: &dyn CongestionProbe,
) -> RouteState {
    let (dest_router, _) = topo.terminal_attach(dest);
    if dest_router == src_router || intermediate == src_router || intermediate == dest_router {
        return RouteState {
            intermediate: None,
            ..RouteState::default()
        };
    }
    let h_min = topo.min_hops(src_router, dest_router) as i64;
    let h_non =
        (topo.min_hops(src_router, intermediate) + topo.min_hops(intermediate, dest_router)) as i64;
    // First hops of each candidate.
    let min_la = route_at(
        topo,
        RoutingKind::Ugal { threshold },
        src_router,
        dest,
        RouteState {
            intermediate: None,
            ..RouteState::default()
        },
    )
    .0;
    let non_la = route_at(
        topo,
        RoutingKind::Ugal { threshold },
        src_router,
        dest,
        RouteState {
            intermediate: Some(intermediate),
            ..RouteState::default()
        },
    )
    .0;
    let q_min = probe.occupancy(min_la.out_port, msg_class, RC_MIN) as i64;
    let q_non = probe.occupancy(non_la.out_port, msg_class, RC_NONMIN) as i64;
    if q_min * h_min <= q_non * h_non + threshold {
        RouteState {
            intermediate: None,
            ..RouteState::default()
        }
    } else {
        RouteState {
            intermediate: Some(intermediate),
            ..RouteState::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyKind;

    #[test]
    fn parse_round_trips_labels() {
        for k in [
            RoutingKind::DimensionOrder,
            RoutingKind::TorusDateline,
            RoutingKind::TorusNoDateline,
        ] {
            assert_eq!(RoutingKind::parse(k.label()), Some(k));
        }
        assert_eq!(
            RoutingKind::parse("nodateline"),
            Some(RoutingKind::TorusNoDateline)
        );
        assert_eq!(RoutingKind::parse("ugal"), None);
    }

    struct FlatProbe(usize);
    impl CongestionProbe for FlatProbe {
        fn occupancy(&self, _: usize, _: usize, _: usize) -> usize {
            self.0
        }
    }

    fn walk_mesh(src_t: usize, dest_t: usize) -> Vec<usize> {
        let topo = TopologyKind::Mesh8x8.build();
        let (mut r, _) = topo.terminal_attach(src_t);
        let mut state = RouteState::default();
        let mut path = vec![r];
        for _ in 0..32 {
            let (la, s) = route_at(&topo, RoutingKind::DimensionOrder, r, dest_t, state);
            state = s;
            if let Some(t) = topo.port_terminal(r, la.out_port) {
                assert_eq!(t, dest_t);
                return path;
            }
            r = topo.link(r, la.out_port).unwrap().to_router;
            path.push(r);
        }
        panic!("routing loop");
    }

    #[test]
    fn dor_reaches_destination_in_min_hops() {
        let topo = TopologyKind::Mesh8x8.build();
        for (s, d) in [(0, 63), (63, 0), (7, 56), (12, 12), (5, 6)] {
            let path = walk_mesh(s, d);
            let (sr, _) = topo.terminal_attach(s);
            let (dr, _) = topo.terminal_attach(d);
            assert_eq!(path.len() - 1, topo.min_hops(sr, dr), "{s}->{d}");
        }
    }

    #[test]
    fn dor_is_x_first() {
        // From router 0 to router 9 (x=1, y=1): first hop must be +x.
        let topo = TopologyKind::Mesh8x8.build();
        let (la, _) = route_at(
            &topo,
            RoutingKind::DimensionOrder,
            0,
            9,
            RouteState::default(),
        );
        assert_eq!(la.out_port, 1);
    }

    fn walk_fbfly(src_t: usize, dest_t: usize, state0: RouteState) -> (Vec<usize>, Vec<usize>) {
        let topo = TopologyKind::FlattenedButterfly4x4.build();
        let (mut r, _) = topo.terminal_attach(src_t);
        let mut state = state0;
        let mut path = vec![r];
        let mut classes = Vec::new();
        for _ in 0..16 {
            let (la, s) = route_at(&topo, RoutingKind::Ugal { threshold: 3 }, r, dest_t, state);
            state = s;
            classes.push(la.resource_class);
            if let Some(t) = topo.port_terminal(r, la.out_port) {
                assert_eq!(t, dest_t);
                return (path, classes);
            }
            r = topo.link(r, la.out_port).unwrap().to_router;
            path.push(r);
        }
        panic!("routing loop");
    }

    #[test]
    fn fbfly_minimal_within_two_hops() {
        for (s, d) in [(0, 63), (0, 12), (5, 9), (17, 18)] {
            let (path, classes) = walk_fbfly(s, d, RouteState::default());
            assert!(path.len() <= 3, "{s}->{d}: {path:?}");
            // Minimal route: all hops in the minimal class.
            assert!(classes.iter().all(|&c| c == RC_MIN), "{classes:?}");
        }
    }

    #[test]
    fn fbfly_valiant_goes_through_intermediate_with_class_transition() {
        let topo = TopologyKind::FlattenedButterfly4x4.build();
        // src terminal 0 (router 0), dest terminal 63 (router 15),
        // intermediate router 6.
        let (path, classes) = walk_fbfly(
            0,
            63,
            RouteState {
                intermediate: Some(6),
                ..RouteState::default()
            },
        );
        assert!(path.contains(&6), "{path:?}");
        let _ = topo;
        // Classes: non-minimal until the intermediate, minimal afterwards,
        // and the transition is monotonic (never back to non-minimal).
        let first_min = classes.iter().position(|&c| c == RC_MIN).unwrap();
        assert!(classes[..first_min].iter().all(|&c| c == RC_NONMIN));
        assert!(classes[first_min..].iter().all(|&c| c == RC_MIN));
        assert!(first_min >= 1, "phase 1 should cover at least one hop");
    }

    #[test]
    fn ugal_prefers_minimal_at_zero_load() {
        let topo = TopologyKind::FlattenedButterfly4x4.build();
        let s = ugal_choose(&topo, 3, 0, 63, 0, 6, &FlatProbe(0));
        assert_eq!(s.intermediate, None);
    }

    #[test]
    fn ugal_diverts_under_congestion_bias() {
        // Make the minimal path look very congested relative to the
        // non-minimal one by probing classes differently.
        struct Biased;
        impl CongestionProbe for Biased {
            fn occupancy(&self, _p: usize, _m: usize, rc: usize) -> usize {
                if rc == RC_MIN {
                    40
                } else {
                    0
                }
            }
        }
        let topo = TopologyKind::FlattenedButterfly4x4.build();
        let s = ugal_choose(&topo, 3, 0, 63, 0, 6, &Biased);
        assert_eq!(s.intermediate, Some(6));
    }

    #[test]
    fn degenerate_intermediates_collapse_to_minimal() {
        let topo = TopologyKind::FlattenedButterfly4x4.build();
        for i in [0usize, 15] {
            let s = ugal_choose(&topo, 3, 0, 63, 0, i, &FlatProbe(100));
            assert_eq!(s.intermediate, None, "intermediate {i}");
        }
    }
}
