#![forbid(unsafe_code)]
//! Cycle-accurate network-on-chip simulator (§3.2 of the paper).
//!
//! Models input-queued VC routers with the paper's two-stage pipeline
//! (VA + speculative SA, then ST), credit-based flow control, statically
//! partitioned 8-flit VC buffers and lookahead routing, on the two
//! evaluated 64-node topologies: an 8×8 mesh with dimension-order routing
//! and a 4×4 concentration-4 flattened butterfly with UGAL routing.
//! Traffic follows the request/reply read/write transaction model.
//!
//! The allocators plugged into [`router::Router`] are the behavioural
//! models from `noc-core`, so Figures 13/14 exercise exactly the
//! architectures whose cost Figures 5/6/10/11 measure.

pub mod config;
pub mod digest;
pub mod network;
pub mod packet;
pub mod router;
pub mod routing;
pub mod sim;
pub mod stats;
pub mod steady;
pub mod terminal;
pub mod topology;
pub mod traffic;
pub mod verify;

pub use config::{ConfigError, SimConfig};
pub use digest::digest_pairs;
pub use network::Network;
pub use packet::{Flit, PacketKind};
pub use routing::RoutingKind;
pub use sim::{
    latency_curve, run_many, run_sim, run_sim_engine, run_sim_profiled, saturation_rate, summarize,
    Engine, Run, RunOutput, SimResult, TelemetryOptions, WatchdogTrip, MAX_SEEDS,
};
pub use topology::{Topology, TopologyKind};
pub use traffic::TrafficPattern;
pub use verify::StrictChecker;
