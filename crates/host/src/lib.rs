//! # purity-host
//!
//! A discrete-virtual-time **host front end** for the Purity array
//! reproduction: the piece between applications and
//! [`purity_core::FlashArray`] that real deployments get from FC/iSCSI
//! initiators and multipath drivers (§2, §4.1, §4.4 of the paper).
//!
//! * [`engine`] — the event loop: N initiators with configurable queue
//!   depths (closed-loop) or Poisson arrivals (open-loop), request
//!   coalescing for adjacent writes, host timeout/retry with
//!   exponential backoff, and an ack audit (every request completes
//!   exactly once, even across controller failover).
//! * [`audit`] — the exactly-once ack oracle itself, shared with the
//!   torture campaigns and extended cluster-wide by `purity-cluster`.
//! * [`queue`] — the volume's dispatch queue: first come, first served,
//!   with retried requests keeping their arrival's place.
//! * [`multipath`] — ALUA-style two-path model: primary-preferred,
//!   standby reachable at a forwarding penalty, timeout-driven
//!   failover and probe-based failback.
//! * [`report`] — per-run queueing/service/end-to-end histograms and
//!   the retry/failover audit, publishable into a
//!   [`purity_obs::MetricsRegistry`].
//!
//! Everything runs on the array's virtual clock: a run is exactly
//! reproducible given the workload seed, and the queue-depth-dependent
//! latency/throughput curves emerge from the array's internal per-die
//! timelines rather than from a fitted model.

pub mod audit;
pub mod engine;
pub mod multipath;
pub mod queue;
pub mod report;

pub use audit::{AckAudit, AckAuditReport};
pub use engine::{HostConfig, HostEngine};
pub use multipath::{Multipath, PathId, PathState};
pub use queue::DispatchQueue;
pub use report::HostReport;
