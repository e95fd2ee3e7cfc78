//! Device timing parameters.
//!
//! Values are drawn from published MLC/SLC NAND datasheet ranges of the
//! paper's era (2012–2015 consumer parts): ~50–100 µs page reads,
//! ~1–2 ms MLC page programs, ~3–5 ms erases, and an order of magnitude
//! faster programs on SLC. Absolute values only set the scale; every
//! experiment reports ratios and distribution shapes.

use purity_sim::Nanos;

/// Timing model for one device class.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Page read (cell-to-register) time.
    pub read_ns: Nanos,
    /// Page program time.
    pub program_ns: Nanos,
    /// Erase-block erase time.
    pub erase_ns: Nanos,
    /// Interface transfer cost per KiB (shared bus / SATA link).
    pub xfer_ns_per_kib: Nanos,
}

impl LatencyModel {
    /// Consumer MLC NAND: the drives Purity shelves are built from.
    pub const fn consumer_mlc() -> Self {
        Self {
            read_ns: 90_000,        // 90 us
            program_ns: 1_300_000,  // 1.3 ms
            erase_ns: 3_500_000,    // 3.5 ms
            xfer_ns_per_kib: 1_900, // ~500 MB/s link
        }
    }

    /// SLC NAND: the "NVRAM" device (§4.1) — bounded low latency, huge
    /// P/E budget.
    pub const fn slc_nvram() -> Self {
        Self {
            read_ns: 25_000,      // 25 us
            program_ns: 100_000,  // 100 us
            erase_ns: 1_500_000,  // 1.5 ms
            xfer_ns_per_kib: 950, // ~1 GB/s internal link
        }
    }

    /// QLC-like cold-tier NAND: the cheap-slow device class the tiering
    /// engine demotes cold extents to. Reads are ~1.5× MLC, programs and
    /// erases several times slower, and the link is a shared low-cost
    /// SATA lane — the latency asymmetry the five-minute-rule economics
    /// (Figure 7) trade against $/GB.
    pub const fn qlc_cold() -> Self {
        Self {
            read_ns: 140_000,       // 140 us
            program_ns: 3_500_000,  // 3.5 ms
            erase_ns: 15_000_000,   // 15 ms
            xfer_ns_per_kib: 3_800, // ~250 MB/s shared lane
        }
    }

    /// Transfer time for `bytes` over the interface.
    pub fn xfer(&self, bytes: usize) -> Nanos {
        // Round up to the KiB the link actually moves.
        (bytes as u64).div_ceil(1024) * self.xfer_ns_per_kib
    }

    /// Full read service time for one page of `bytes`.
    pub fn page_read(&self, bytes: usize) -> Nanos {
        self.read_ns + self.xfer(bytes)
    }

    /// Full program service time for one page of `bytes`.
    pub fn page_program(&self, bytes: usize) -> Nanos {
        self.program_ns + self.xfer(bytes)
    }
}

/// Endurance ratings (§2.1): SLC ~100k P/E cycles, MLC ~3k–5k.
#[derive(Debug, Clone, Copy)]
pub struct EnduranceModel {
    /// Rated program/erase cycles per block.
    pub rated_pe_cycles: u64,
}

impl EnduranceModel {
    /// Consumer MLC rating.
    pub const fn consumer_mlc() -> Self {
        Self {
            rated_pe_cycles: 3000,
        }
    }

    /// SLC rating.
    pub const fn slc() -> Self {
        Self {
            rated_pe_cycles: 100_000,
        }
    }

    /// QLC rating: the cold tier's tiny P/E budget (~500–1000 cycles).
    /// Demotion traffic must stay rare enough to live within it.
    pub const fn qlc() -> Self {
        Self {
            rated_pe_cycles: 800,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlc_program_is_slower_than_read() {
        let m = LatencyModel::consumer_mlc();
        assert!(m.program_ns > 10 * m.read_ns);
        assert!(m.erase_ns > m.program_ns);
    }

    #[test]
    fn slc_is_faster_than_mlc() {
        let slc = LatencyModel::slc_nvram();
        let mlc = LatencyModel::consumer_mlc();
        assert!(slc.program_ns * 10 <= mlc.program_ns * 2);
        assert!(slc.read_ns < mlc.read_ns);
    }

    #[test]
    fn xfer_rounds_up_to_kib() {
        let m = LatencyModel::consumer_mlc();
        assert_eq!(m.xfer(1), m.xfer(1024));
        assert_eq!(m.xfer(1025), 2 * m.xfer_ns_per_kib);
        assert_eq!(m.xfer(0), 0);
    }

    #[test]
    fn endurance_ratings_are_ordered() {
        assert!(
            EnduranceModel::slc().rated_pe_cycles
                > EnduranceModel::consumer_mlc().rated_pe_cycles * 10
        );
    }

    #[test]
    fn qlc_is_slower_and_frailer_than_mlc() {
        let qlc = LatencyModel::qlc_cold();
        let mlc = LatencyModel::consumer_mlc();
        assert!(qlc.read_ns > mlc.read_ns);
        assert!(qlc.program_ns >= 2 * mlc.program_ns);
        assert!(qlc.erase_ns > mlc.erase_ns);
        assert!(qlc.xfer_ns_per_kib > mlc.xfer_ns_per_kib);
        assert!(
            EnduranceModel::qlc().rated_pe_cycles * 3
                < EnduranceModel::consumer_mlc().rated_pe_cycles
        );
    }
}
