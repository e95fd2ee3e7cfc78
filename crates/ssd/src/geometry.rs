//! Flash device geometry (Figure 1 of the paper): an SSD is a set of
//! independent dies, each divided into erase blocks, each divided into
//! pages. Pages are the minimum read/program unit; erase blocks are the
//! minimum erase unit.

/// Shape of one simulated SSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsdGeometry {
    /// Independent dies that can operate in parallel.
    pub dies: usize,
    /// Erase blocks per die.
    pub blocks_per_die: usize,
    /// Pages per erase block.
    pub pages_per_block: usize,
    /// Bytes per page (the paper cites 512–4096 B; modern parts use 4 KiB).
    pub page_size: usize,
}

impl SsdGeometry {
    /// A small geometry for fast tests: 4 dies × 64 blocks × 32 pages ×
    /// 4 KiB = 32 MiB raw.
    pub fn test_small() -> Self {
        Self {
            dies: 4,
            blocks_per_die: 64,
            pages_per_block: 32,
            page_size: 4096,
        }
    }

    /// A "consumer MLC" shape scaled down ~1000× from a real 256 GB part
    /// so simulations stay fast while keeping realistic block/page ratios:
    /// 8 dies × 128 blocks × 64 pages × 4 KiB = 256 MiB raw.
    pub fn consumer_mlc_scaled() -> Self {
        Self {
            dies: 8,
            blocks_per_die: 128,
            pages_per_block: 64,
            page_size: 4096,
        }
    }

    /// An FA-450-class drive: 128 independent dies, the die count that
    /// matters for the paper's tail-latency claims (erase blocking is
    /// per-die, so die parallelism sets how often a read lands behind an
    /// erase). Blocks and pages are scaled down so a 22-drive shelf
    /// (2816 dies — the full FA-450 geometry) stays simulable: a page's
    /// payload lives from its program until the FTL unmaps it, and a
    /// block's page state from its first program to its erase, so memory
    /// tracks mapped bytes, not raw capacity. 128 dies × 32 blocks × 32
    /// pages × 4 KiB = 512 MiB raw.
    pub fn fa450_drive() -> Self {
        Self {
            dies: 128,
            blocks_per_die: 32,
            pages_per_block: 32,
            page_size: 4096,
        }
    }

    /// Pages per die.
    pub fn pages_per_die(&self) -> usize {
        self.blocks_per_die * self.pages_per_block
    }

    /// Total pages in the device.
    pub fn total_pages(&self) -> usize {
        self.dies * self.pages_per_die()
    }

    /// Total erase blocks in the device.
    pub fn total_blocks(&self) -> usize {
        self.dies * self.blocks_per_die
    }

    /// Raw capacity in bytes.
    pub fn raw_bytes(&self) -> usize {
        self.total_pages() * self.page_size
    }

    /// Bytes per erase block.
    pub fn block_bytes(&self) -> usize {
        self.pages_per_block * self.page_size
    }
}

/// Physical page address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ppa {
    /// Die index.
    pub die: usize,
    /// Erase block within the die.
    pub block: usize,
    /// Page within the erase block.
    pub page: usize,
}

impl Ppa {
    /// Flat page index across the whole device, for dense map storage.
    pub fn flatten(&self, geo: &SsdGeometry) -> usize {
        (self.die * geo.blocks_per_die + self.block) * geo.pages_per_block + self.page
    }

    /// Inverse of [`Ppa::flatten`].
    pub fn unflatten(idx: usize, geo: &SsdGeometry) -> Self {
        let page = idx % geo.pages_per_block;
        let block_flat = idx / geo.pages_per_block;
        Self {
            die: block_flat / geo.blocks_per_die,
            block: block_flat % geo.blocks_per_die,
            page,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_math() {
        let g = SsdGeometry::test_small();
        assert_eq!(g.pages_per_die(), 64 * 32);
        assert_eq!(g.total_pages(), 4 * 64 * 32);
        assert_eq!(g.raw_bytes(), 32 * 1024 * 1024);
        assert_eq!(g.block_bytes(), 128 * 1024);
    }

    #[test]
    fn ppa_flatten_round_trips() {
        let g = SsdGeometry::test_small();
        for idx in [0usize, 1, 31, 32, 2047, 2048, g.total_pages() - 1] {
            let ppa = Ppa::unflatten(idx, &g);
            assert_eq!(ppa.flatten(&g), idx);
            assert!(ppa.die < g.dies);
            assert!(ppa.block < g.blocks_per_die);
            assert!(ppa.page < g.pages_per_block);
        }
    }
}
