//! Virtual-time simulation substrate for the Purity reproduction.
//!
//! The Purity paper evaluates a physical flash appliance; this workspace
//! reproduces its behaviour on a *virtual* clock so latency experiments are
//! deterministic and fast. The data plane everywhere else is real (real
//! bytes, real parity math); only time is simulated, through three small
//! pieces:
//!
//! * [`Clock`] — a shared monotonic nanosecond counter.
//! * [`Timeline`] — per-resource (e.g. per flash die) busy tracking, so an
//!   operation issued while the resource is busy queues behind it exactly
//!   like a request queued behind an SSD erase.
//! * [`LatencyHistogram`] — log-bucketed latency recording with the
//!   quantiles the paper reports (p50/p95/p99/p99.9).

pub mod clock;
pub mod dist;
pub mod hist;
pub mod parallel;
pub mod timeline;
pub mod units;

pub use clock::Clock;
pub use dist::Zipf;
pub use hist::LatencyHistogram;
pub use timeline::{Reservation, Timeline};
pub use units::{Nanos, GIB, KIB, MIB, MS, SEC, US};
