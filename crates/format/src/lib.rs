//! Purity's metadata page formats (§4.9).
//!
//! Metadata tables are stored in pages compressed "using formats similar
//! to those used in column stores": each page carries a dictionary header
//! with, per tuple field, a set of bases `b0..b_{B-1}` and a bit width
//! `W`; a field value `v = b_x + o` is encoded as the pair `(x, o)` where
//! `x` takes `ceil(lg B)` bits and `o` takes `W` bits. Both widths may be
//! zero — a field that is constant across the page costs **no bits at
//! all**. Because every encoded tuple has the same bit length, a page can
//! be scanned for a value *without decompressing*, by comparing the
//! encoded bit pattern at a fixed stride.
//!
//! * [`bitstream`] — LSB-first bit packing with random access.
//! * [`page`] — the dictionary page codec, its byte serialization (the
//!   on-flash form of a map patch) and compressed-domain scan.
//! * [`range_table`] — the "extremely efficient range encoding schemes
//!   ... used to bound the size of the elide tables" (§4.9–4.10).

pub mod bitstream;
pub mod page;
pub mod range_table;

pub use page::{Page, PageError, Rows};
pub use range_table::RangeTable;
