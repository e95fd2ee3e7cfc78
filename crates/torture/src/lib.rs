//! # purity-torture
//!
//! One deterministic campaign engine for the Purity array, in virtual
//! time on the deterministic simulation. A campaign is a seeded run that
//! injects faults at adversarial instants and holds what comes back to a
//! contract; a run is a pure function of its spec, so a failure is a
//! one-line repro.
//!
//! - [`oracle::DurabilityOracle`] — the one reference model: acked
//!   writes bit-exact, unacked writes prefix-atomic, snapshots frozen
//!   forever. It reads back through an [`oracle::ReadTarget`] — one
//!   array, or a cluster seen through a client handle.
//! - [`shrink`] — the engine: the [`Campaign`] contract a kind signs
//!   (run, violations, smaller specs, fields), and [`shrink::shrink`],
//!   [`repro_line`] / [`parse_repro`], [`sweep`] and the type-erased
//!   [`KINDS`] registry written once against it.
//! - Three kinds, each only its fault staging and its plane's contract
//!   clauses: [`campaign`] (`array`: whole-array power loss in five
//!   write-path phases; also [`run_model_check`], the same op mix with
//!   drive pulls and failovers), [`cluster`] (`cluster`: kill or
//!   partition one of N arrays; exactly-once acks, rebuild, replica
//!   agreement) and [`repl`] (`repl`: destination crashes mid-ship, then
//!   source loss; every lineage snapshot is some acked source snapshot).
//!
//! The `torture` integration test (`tests/torture.rs` at the workspace
//! root) runs bounded seed sweeps in CI; `exp_torture --kind K` runs
//! wider ones and `exp_torture --repro <line>` replays any kind's line.

pub mod campaign;
pub mod cluster;
pub mod oracle;
pub mod repl;
pub mod shrink;

pub use campaign::{run_campaign, run_model_check, CampaignOutcome, CampaignSpec, CrashPhase};
pub use cluster::{ClusterCampaignOutcome, ClusterCampaignSpec, ClusterFault};
pub use oracle::{DurabilityOracle, ReadTarget};
pub use repl::{ReplCampaignOutcome, ReplCampaignSpec};
pub use shrink::{
    failing, kind, parse_repro, replay, repro_line, shrink, sweep, Campaign, Failure, Field, Kind,
    Replay, KINDS,
};
