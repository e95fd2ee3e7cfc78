//! "Pyramids": Purity's log-structured merge indexes (§3.2, §4.8, §4.10).
//!
//! All persistent state in Purity is immutable *facts* carrying sequence
//! numbers; pyramids index those facts. Insertions land in a DRAM
//! memtable (sorted, indexed in key order) whose batches are simultaneously
//! committed to NVRAM by the owner; flushes freeze the memtable into an
//! immutable [`Patch`] — "patches are analogous to levels or components in
//! other LSM-Tree implementations". *Merge* combines patches with
//! contiguous sequence ranges; *flatten* replaces the old patches with the
//! merged one. Both are idempotent and always safe, which is what lets
//! Purity run them lock-free below the top of the pyramid and recover
//! trivially from mid-merge crashes.
//!
//! Deletion is by **elision** (§4.10), not tombstones: each pyramid may
//! carry an [`ElideFilter`] consulted by readers and by merge, which drops
//! matching facts immediately — the paper's fast space reclamation.
//!
//! Because facts are immutable and lookups take the newest sequence
//! number, re-inserting stale or duplicate facts is harmless; recovery is
//! a set union (§4.3). Property tests below exercise exactly that.

pub mod patch;
pub mod pyramid;
pub mod seq;

pub use patch::Patch;
pub use pyramid::{ElideFilter, Pyramid, PyramidStats, RangeElision};
pub use seq::{Seq, SeqAllocator};
