//! Inline + background deduplication (§4.7).
//!
//! Purity tracks duplicates at 512 B granularity but only *records* the
//! hash of every eighth block written, while *looking up* every block's
//! hash — a deliberately small index. A hash hit is confirmed by byte
//! comparison (hashes are ≤ 64 bits; collisions cost a compare, never
//! correctness), and a confirmed duplicate becomes an **anchor**: the
//! engine walks forward and backward from it comparing neighbouring
//! blocks directly, detecting most duplicate runs of ≥ 8 blocks (4 KiB)
//! regardless of alignment.
//!
//! * [`hash`] — a from-scratch 64-bit block hash (XXH64 construction).
//! * [`index`] — the sampled hash index plus the inline heuristics:
//!   a recent-writes window and a frequently-deduplicated hot cache.
//! * [`engine`] — lookup → verify → anchor extension over a write buffer.

pub mod engine;
pub mod hash;
pub mod index;

pub use engine::{BlockFetcher, DedupEngine, Outcome};
pub use hash::block_hash;
pub use index::{DedupIndex, IndexStats};

/// Purity's dedup granularity: the 512 B minimum block size dictated by
/// existing storage protocols (§4.6).
pub const DEDUP_BLOCK: usize = 512;

/// One in every `SAMPLE_RATE` block hashes is recorded in the index.
pub const SAMPLE_RATE: u64 = 8;
