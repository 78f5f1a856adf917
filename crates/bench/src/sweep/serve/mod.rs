//! Sweep-as-a-service (`noc serve` / `noc client`).
//!
//! The batch sweep machinery — content-addressed cache, fsynced journal,
//! deterministic spec expansion — already makes any two runs of the same
//! point interchangeable. This module puts a daemon in front of it so
//! *concurrent* consumers share that property live: N clients hammering
//! overlapping grids over local TCP, every unique `SimConfig` digest
//! simulated at most once, ever, across requests, restarts, and
//! `kill -9`.
//!
//! Layering:
//!
//! - [`proto`]: daemon-side request parsing ([`ServeRequest`]) — the
//!   wire format itself is `noc_obs::serve` (`noc-serve/v1`).
//! - [`scheduler`]: the dedup core — cache-hit / coalesce / schedule
//!   classification, per-client queues drained round-robin by a bounded
//!   worker pool, completions stored → journaled → announced.
//! - [`daemon`]: nonblocking TCP accept loop + per-connection handler
//!   threads streaming JSONL responses.
//! - [`client`]: one-request client used by `noc client` and the tests.

pub mod client;
pub mod daemon;
pub mod proto;
pub mod scheduler;

pub use client::{request, ClientOutcome};
pub use daemon::{start, Daemon, ServeOptions};
pub use proto::ServeRequest;
pub use scheduler::{PointOutcome, Scheduler, ServeCounters, SubmitSummary};
