//! Route models the static checker can walk.
//!
//! The checker replays the simulator's own routing functions
//! ([`RouteModel::Simulator`]), including the deliberately deadlock-prone
//! no-dateline torus; [`RouteModel::AlternatingClass`] walks that same
//! route with a broken class discipline. Both negative fixtures are
//! designs the checker must classify as deadlock-prone.

use noc_sim::packet::{Lookahead, RouteState};
use noc_sim::routing::{route_at, RoutingKind};
use noc_sim::Topology;

/// A routing relation to analyze.
#[derive(Clone, Copy, Debug)]
pub enum RouteModel {
    /// One of the simulator's routing functions (DOR, UGAL, torus
    /// dateline, and the no-dateline torus fixture).
    Simulator(RoutingKind),
    /// Negative fixture: the simulator's no-dateline torus route with a
    /// resource class that alternates on every hop. Each individual
    /// transition is legal under the rc_succ mask
    /// `[[false, true], [true, false]]`, but on an even-length ring the
    /// alternation closes a dependency cycle — deadlock that only the
    /// global CDG analysis can see.
    AlternatingClass,
}

impl RouteModel {
    /// Display name for reports.
    pub fn label(&self) -> String {
        match self {
            RouteModel::Simulator(RoutingKind::DimensionOrder) => "dor".to_string(),
            RouteModel::Simulator(RoutingKind::Ugal { threshold }) => format!("ugal{threshold}"),
            RouteModel::Simulator(RoutingKind::TorusDateline) => "torus-dateline".to_string(),
            RouteModel::Simulator(RoutingKind::TorusNoDateline) => "torus-no-dateline".to_string(),
            RouteModel::AlternatingClass => "alternating-class".to_string(),
        }
    }

    /// The simulator routing function whose route this model walks (and
    /// whose injection class a packet starts in).
    pub fn routing(&self) -> RoutingKind {
        match self {
            RouteModel::Simulator(kind) => *kind,
            RouteModel::AlternatingClass => RoutingKind::TorusNoDateline,
        }
    }

    /// Every distinct injection-time routing state a packet from `src` to
    /// `dest` can start with. UGAL enumerates the minimal route plus one
    /// Valiant route per non-degenerate intermediate; the deterministic
    /// models have a single state.
    pub fn initial_states(&self, topo: &Topology, src: usize, dest: usize) -> Vec<RouteState> {
        match self {
            RouteModel::Simulator(RoutingKind::Ugal { .. }) => {
                let (src_r, _) = topo.terminal_attach(src);
                let (dest_r, _) = topo.terminal_attach(dest);
                let mut states = vec![RouteState::default()];
                for i in 0..topo.num_routers() {
                    if i != src_r && i != dest_r {
                        states.push(RouteState {
                            intermediate: Some(i),
                            ..RouteState::default()
                        });
                    }
                }
                states
            }
            _ => vec![RouteState::default()],
        }
    }
}

/// One routing decision at `router` for a packet in resource class
/// `current_rc` heading to terminal `dest`.
pub fn route_step(
    topo: &Topology,
    model: &RouteModel,
    router: usize,
    dest: usize,
    current_rc: usize,
    state: RouteState,
) -> (Lookahead, RouteState) {
    let (la, state) = route_at(topo, model.routing(), router, dest, state);
    match model {
        RouteModel::Simulator(_) => (la, state),
        RouteModel::AlternatingClass => (
            Lookahead {
                resource_class: 1 - current_rc,
                ..la
            },
            state,
        ),
    }
}
