//! # purity-core
//!
//! A reproduction of **Purity** (Colgrove et al., SIGMOD 2015): the
//! all-flash enterprise array behind Pure Storage's FlashArray — a
//! log-structured, Reed-Solomon-protected block store with inline
//! compression and deduplication, O(1) snapshots and clones via
//! *mediums*, LSM-tree metadata (*pyramids*), predicate deletion
//! (*elision*), frontier-set fast recovery, and tail-latency-aware I/O
//! scheduling — all running against a deterministic virtual-time
//! hardware simulation (`purity-ssd`).
//!
//! The front door is [`FlashArray`]:
//!
//! ```
//! use purity_core::{ArrayConfig, FlashArray};
//!
//! let mut array = FlashArray::new(ArrayConfig::test_small()).unwrap();
//! let vol = array.create_volume("demo", 4 << 20).unwrap();
//! let data = vec![42u8; 4096];
//! array.write(vol, 0, &data).unwrap();
//! let (read, _ack) = array.read(vol, 0, 4096).unwrap();
//! assert_eq!(read, data);
//! ```

pub mod array;
pub mod bootregion;
pub mod config;
pub mod controller;
pub mod error;
pub mod fault;
pub mod frontier;
pub mod gc;
pub mod medium;
pub mod records;
pub mod recovery;
pub mod scrub;
pub mod segment;
pub mod shelf;
pub mod stats;
pub mod tier;
pub mod types;

pub use array::{FailoverReport, FlashArray, InflightOp, Port, PowerLossReport, PowerLossSpec};
pub use config::ArrayConfig;
pub use controller::Ack;
pub use error::{PurityError, Result};
pub use fault::{AppliedFault, FaultEvent, FaultOutcome, FaultPlan};
pub use recovery::{RecoveryOptions, RecoveryReport, ScanMode};
pub use shelf::CrashTarget;
pub use tier::{ExecutedMove, TierTickReport};
pub use types::{MediumId, SnapshotId, VolumeId, SECTOR};
