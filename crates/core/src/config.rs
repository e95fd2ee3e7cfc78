//! Array configuration.

use crate::shelf::SSD_OVER_PROVISION;
use crate::write::MAX_CBLOCK_BYTES;
use purity_obs::ObsConfig;
use purity_ssd::geometry::SsdGeometry;
use purity_ssd::latency::EnduranceModel;

/// Shape and policy of a simulated Flash Array.
#[derive(Debug, Clone)]
pub struct ArrayConfig {
    /// Drive slots in the shelf (the paper ships 11–24 per shelf). Each
    /// segment stripes across a stripe-width subset of them, rotating
    /// (§4.4: "each segment written across a (potentially different) set
    /// of the 11 drives in a write group"): here the hot drives are one
    /// write group.
    pub n_drives: usize,
    /// Reed-Solomon data shards (7 in production).
    pub rs_data: usize,
    /// Reed-Solomon parity shards (2 in production).
    pub rs_parity: usize,
    /// Allocation-unit size in bytes (8 MB in production arrays, §4.2).
    pub au_bytes: usize,
    /// Write-unit size in bytes (1 MB in production, §4.2).
    pub write_unit_bytes: usize,
    /// NVRAM log capacity.
    pub nvram_bytes: usize,
    /// Per-drive flash geometry.
    pub ssd_geometry: SsdGeometry,
    /// Per-drive endurance rating.
    pub ssd_endurance: EnduranceModel,
    /// Inline deduplication on/off (ablation hook).
    pub dedup_enabled: bool,
    /// Inline compression on/off (ablation hook).
    pub compression_enabled: bool,
    /// Read-around-writes scheduling on/off (ablation hook, §4.4).
    pub read_around_writes: bool,
    /// AUs per drive listed in one persisted frontier set (§4.3).
    pub frontier_aus_per_drive: usize,
    /// Dedup index recent-window capacity (blocks).
    pub dedup_recent_window: usize,
    /// Controller DRAM read-cache capacity in bytes: the one LRU of
    /// decoded cblocks every read, on every preset, goes through (and
    /// whose hot set warms the standby). 0 disables it.
    pub cache_bytes: usize,
    /// Pre-age every drive by this many P/E cycles at shelf construction
    /// (the paper's worn-flash validation, §5.1).
    pub preage_cycles: u64,
    /// Slow-op capture, flight recorder and SLO monitor (see
    /// OBSERVABILITY.md): exhibits that want a deeper tail or a finer
    /// cadence trade memory for it here.
    pub obs: ObsConfig,
    /// Cold-pool drive slots, numbered after the hot ones (0 disables the
    /// tiering engine's cold class entirely — the default for every
    /// legacy preset, which keeps their behaviour byte-identical). A cold
    /// segment stripes across all of them, one column of parity: at
    /// least two, at most a hot stripe's width.
    pub cold_drives: usize,
    /// Cold-tier drive geometry (ignored when `cold_drives == 0`).
    pub cold_geometry: SsdGeometry,
}

impl ArrayConfig {
    /// A small array for fast tests: 11 drives of 32 MiB raw each,
    /// 256 KiB AUs, 32 KiB write units.
    pub fn test_small() -> Self {
        Self {
            n_drives: 11,
            rs_data: 7,
            rs_parity: 2,
            // 7 stripes of 32 KiB write units + one 4 KiB header page.
            au_bytes: 7 * 32 * 1024 + 4096,
            write_unit_bytes: 32 * 1024,
            nvram_bytes: 8 * 1024 * 1024,
            ssd_geometry: SsdGeometry::test_small(),
            ssd_endurance: EnduranceModel::consumer_mlc(),
            dedup_enabled: true,
            compression_enabled: true,
            read_around_writes: true,
            frontier_aus_per_drive: 8,
            dedup_recent_window: 4096,
            cache_bytes: 4 * 1024 * 1024,
            preage_cycles: 0,
            obs: ObsConfig::default(),
            cold_drives: 0,
            cold_geometry: SsdGeometry::test_small(),
        }
    }

    /// [`ArrayConfig::test_small`] plus the tiering engine: two QLC-like
    /// cold drives and the migrator loop.
    pub fn tiered() -> Self {
        Self {
            cold_drives: 2,
            ..Self::test_small()
        }
    }

    /// A larger geometry (11 drives of 256 MiB raw) with production-like
    /// ratios, for benchmark harnesses.
    pub fn bench_medium() -> Self {
        Self {
            ssd_geometry: SsdGeometry::consumer_mlc_scaled(),
            // 7 stripes of 128 KiB write units + one 4 KiB header page.
            au_bytes: 7 * 128 * 1024 + 4096,
            write_unit_bytes: 128 * 1024,
            nvram_bytes: 32 * 1024 * 1024,
            cache_bytes: 16 * 1024 * 1024,
            dedup_recent_window: 16 * 1024,
            ..Self::test_small()
        }
    }

    /// The full FA-450 geometry: 22 drives of 128 dies each — 2816
    /// flash dies operating in parallel, the scale the paper's headline
    /// claims were measured at. Production-like reduction ratios ride on
    /// [`ArrayConfig::bench_medium`]'s policy knobs; only the shelf
    /// shape changes.
    pub fn fa450() -> Self {
        Self {
            n_drives: 22,
            ssd_geometry: SsdGeometry::fa450_drive(),
            ..Self::bench_medium()
        }
    }

    /// Total flash dies across the shelf.
    pub fn total_dies(&self) -> usize {
        self.n_drives * self.ssd_geometry.dies
    }

    /// Shards per stripe (data + parity).
    pub fn stripe_width(&self) -> usize {
        self.rs_data + self.rs_parity
    }

    /// Usable data bytes in one segment (stripes × data columns × WU),
    /// excluding the per-AU header page.
    pub fn segment_data_bytes(&self) -> usize {
        self.stripes_per_segment() * self.rs_data * self.write_unit_bytes
    }

    /// Stripes (segios) per segment.
    pub fn stripes_per_segment(&self) -> usize {
        (self.au_bytes - self.au_header_bytes()) / self.write_unit_bytes
    }

    /// Bytes reserved at the front of each AU for the self-describing
    /// segment header (§4.3).
    pub fn au_header_bytes(&self) -> usize {
        self.ssd_geometry.page_size
    }

    /// AUs per drive.
    pub fn aus_per_drive(&self) -> usize {
        // Leave one AU's worth of slack for the boot region on each drive.
        let usable = self.drive_bytes() - self.boot_region_bytes();
        usable / self.au_bytes
    }

    /// Logical bytes per drive.
    pub fn drive_bytes(&self) -> usize {
        let raw = self.ssd_geometry.raw_bytes();
        ((raw as f64) * (1.0 - SSD_OVER_PROVISION)) as usize
    }

    /// Bytes reserved per drive for the boot region ("a tiny percentage
    /// of the total storage", §4.3).
    pub fn boot_region_bytes(&self) -> usize {
        self.au_bytes
    }

    /// Whether the tiering engine's cold class is configured in.
    pub fn tiering_enabled(&self) -> bool {
        self.cold_drives > 0
    }

    /// AUs per cold drive (the cold pool carries no boot region).
    pub fn cold_aus_per_drive(&self) -> usize {
        let raw = self.cold_geometry.raw_bytes() as f64;
        (raw * (1.0 - SSD_OVER_PROVISION)) as usize / self.au_bytes
    }

    /// Validates internal consistency; call once at array construction.
    pub fn validate(&self) -> Result<(), String> {
        if self.stripe_width() > self.n_drives {
            return Err(format!(
                "stripe width {} exceeds drive count {}",
                self.stripe_width(),
                self.n_drives
            ));
        }
        if self.au_bytes <= self.au_header_bytes()
            || !(self.au_bytes - self.au_header_bytes()).is_multiple_of(self.write_unit_bytes)
        {
            return Err(
                "AU size minus header must be a positive multiple of the write unit".into(),
            );
        }
        if !self
            .write_unit_bytes
            .is_multiple_of(self.ssd_geometry.page_size)
        {
            return Err("write unit must be page-aligned".into());
        }
        if MAX_CBLOCK_BYTES > self.write_unit_bytes {
            return Err("cblocks must fit in a write unit".into());
        }
        if self.aus_per_drive() < self.frontier_aus_per_drive * 2 {
            return Err("too few AUs per drive for frontier management".into());
        }
        if self.cold_drives > 0 {
            if self.cold_drives < 2 || self.cold_drives > self.stripe_width() {
                return Err(format!(
                    "{} cold drives: a cold segment needs a data column and a parity column, \
                     and no more columns than a hot stripe",
                    self.cold_drives
                ));
            }
            if self.cold_aus_per_drive() == 0
                || !self
                    .write_unit_bytes
                    .is_multiple_of(self.cold_geometry.page_size)
            {
                return Err("cold drives cannot hold a page-aligned AU".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_config_is_valid() {
        ArrayConfig::test_small().validate().unwrap();
        ArrayConfig::bench_medium().validate().unwrap();
        ArrayConfig::fa450().validate().unwrap();
        ArrayConfig::tiered().validate().unwrap();
    }

    #[test]
    fn legacy_presets_keep_tiering_off() {
        assert!(!ArrayConfig::test_small().tiering_enabled());
        assert!(!ArrayConfig::bench_medium().tiering_enabled());
        assert!(!ArrayConfig::fa450().tiering_enabled());
        let t = ArrayConfig::tiered();
        assert!(t.tiering_enabled());
        assert!(t.cold_aus_per_drive() > t.frontier_aus_per_drive);
    }

    #[test]
    fn fa450_reaches_the_paper_die_count() {
        let c = ArrayConfig::fa450();
        assert!(c.total_dies() >= 2800, "got {} dies", c.total_dies());
        assert_eq!(c.n_drives, 22);
    }

    #[test]
    fn segment_math_is_consistent() {
        let c = ArrayConfig::test_small();
        assert_eq!(c.stripe_width(), 9);
        let stripes = c.stripes_per_segment();
        assert!(stripes >= 1);
        assert_eq!(c.segment_data_bytes(), stripes * 7 * c.write_unit_bytes);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = ArrayConfig::test_small();
        c.rs_data = 12;
        assert!(c.validate().is_err());

        let mut c = ArrayConfig::test_small();
        c.write_unit_bytes = 1000;
        assert!(c.validate().is_err());

        // A 16 KiB write unit cannot hold a 32 KiB cblock.
        let mut c = ArrayConfig::test_small();
        c.write_unit_bytes = MAX_CBLOCK_BYTES / 2;
        assert!(c.validate().is_err());

        // A cold pool of one drive has nowhere to put parity.
        let mut c = ArrayConfig::tiered();
        c.cold_drives = 1;
        assert!(c.validate().is_err());
    }
}
