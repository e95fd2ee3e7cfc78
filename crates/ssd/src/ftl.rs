//! A page-mapping flash translation layer.
//!
//! This is the device-internal software the paper calls "at least as
//! complicated as the operating system storage stack" (§2.1). It exists in
//! the reproduction for two reasons:
//!
//! * Purity's drives run one underneath the array, so device-internal GC
//!   and erase scheduling produce exactly the latency interference the
//!   array-level scheduler (§4.4) must work around;
//! * experiment E9 contrasts random-write and sequential-write behaviour
//!   on a raw FTL, reproducing the §3.3 motivation for Purity's
//!   log-structured layout.
//!
//! Design: strict page-level mapping, per-die active write blocks filled
//! round-robin (exploiting die parallelism), greedy min-valid victim
//! selection for GC, wear-aware free-block allocation (lowest erase count
//! first), and inline foreground GC when the free pool runs dry — the
//! behaviour that makes consumer SSDs "behave erratically when exposed to
//! random writes" \[43\].

use crate::flash::{Flash, FlashError, PageRead};
use crate::geometry::{Ppa, SsdGeometry};
use purity_sim::{Nanos, Reservation};

/// FTL-level errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtlError {
    /// Logical page number out of range.
    OutOfRange,
    /// Logical page was never written (or was trimmed).
    Unmapped,
    /// No free space remains even after GC (device full or worn out).
    DeviceFull,
    /// Underlying flash failure.
    Flash(FlashError),
}

impl std::fmt::Display for FtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtlError::OutOfRange => write!(f, "logical page out of range"),
            FtlError::Unmapped => write!(f, "logical page unmapped"),
            FtlError::DeviceFull => write!(f, "no free flash space"),
            FtlError::Flash(e) => write!(f, "flash error: {}", e),
        }
    }
}

impl std::error::Error for FtlError {}

impl From<FlashError> for FtlError {
    fn from(e: FlashError) -> Self {
        FtlError::Flash(e)
    }
}

/// Traffic statistics; write amplification is the headline number.
#[derive(Debug, Clone, Copy, Default)]
pub struct FtlStats {
    /// Pages written by the host.
    pub host_programs: u64,
    /// Pages copied by garbage collection.
    pub gc_programs: u64,
    /// GC passes run.
    pub gc_runs: u64,
    /// Blocks erased.
    pub erases: u64,
}

impl FtlStats {
    /// (host + GC programs) / host programs; 1.0 is perfect.
    pub fn write_amplification(&self) -> f64 {
        if self.host_programs == 0 {
            1.0
        } else {
            (self.host_programs + self.gc_programs) as f64 / self.host_programs as f64
        }
    }
}

const NO_PAGE: u32 = u32::MAX;

struct BlockState {
    valid: u32,
    /// free: erased, not yet written. active: currently being filled.
    /// sealed: fully written. bad: retired.
    kind: BlockKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockKind {
    Free,
    Active,
    Sealed,
    Bad,
}

/// The page-mapping FTL over a [`Flash`] device.
pub struct Ftl {
    flash: Flash,
    geo: SsdGeometry,
    /// Logical page -> flat physical page.
    l2p: Vec<u32>,
    /// Flat physical page -> logical page (for GC relocation).
    p2l: Vec<u32>,
    blocks: Vec<BlockState>,
    /// Per-die block currently accepting programs, and its fill cursor.
    active: Vec<Option<usize>>,
    next_die: usize,
    logical_pages: usize,
    /// GC kicks in when free blocks fall to this count.
    gc_low_water: usize,
    /// Count of blocks in `BlockKind::Free`, maintained on transitions
    /// so the per-write low-water check is O(1) instead of a scan over
    /// every block — at FA-450 die counts the scan dominates the write
    /// path.
    free_count: usize,
    stats: FtlStats,
}

impl Ftl {
    /// Wraps a flash device, reserving `over_provision` (e.g. 0.125) of
    /// raw capacity as GC headroom — the standard consumer-SSD trick.
    pub fn new(flash: Flash, over_provision: f64) -> Self {
        assert!(
            (0.02..0.9).contains(&over_provision),
            "implausible over-provisioning"
        );
        let geo = *flash.geometry();
        let logical_pages = ((geo.total_pages() as f64) * (1.0 - over_provision)) as usize;
        let total_blocks = geo.total_blocks();
        Self {
            flash,
            geo,
            l2p: vec![NO_PAGE; logical_pages],
            p2l: vec![NO_PAGE; geo.total_pages()],
            blocks: (0..total_blocks)
                .map(|_| BlockState {
                    valid: 0,
                    kind: BlockKind::Free,
                })
                .collect(),
            active: vec![None; geo.dies],
            next_die: 0,
            logical_pages,
            gc_low_water: geo.dies * 2,
            free_count: total_blocks,
            stats: FtlStats::default(),
        }
    }

    /// Number of logical pages exposed to the host.
    pub fn logical_pages(&self) -> usize {
        self.logical_pages
    }

    /// Bytes of logical capacity.
    pub fn logical_bytes(&self) -> usize {
        self.logical_pages * self.geo.page_size
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.geo.page_size
    }

    /// Traffic statistics.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Immutable access to the underlying flash (timelines, counters).
    pub fn flash(&self) -> &Flash {
        &self.flash
    }

    /// Mutable access for fault injection.
    pub fn flash_mut(&mut self) -> &mut Flash {
        &mut self.flash
    }

    fn flat_block(&self, die: usize, block: usize) -> usize {
        die * self.geo.blocks_per_die + block
    }

    fn block_of_flat_page(&self, flat_page: usize) -> usize {
        flat_page / self.geo.pages_per_block
    }

    /// Reads a logical page: its bytes, completion timestamp and latency
    /// decomposition (queueing vs service, plus what the queueing was
    /// behind).
    pub fn read(&mut self, lpn: usize, now: Nanos) -> Result<PageRead<'_>, FtlError> {
        if lpn >= self.logical_pages {
            return Err(FtlError::OutOfRange);
        }
        let phys = self.l2p[lpn];
        if phys == NO_PAGE {
            return Err(FtlError::Unmapped);
        }
        let ppa = Ppa::unflatten(phys as usize, &self.geo);
        Ok(self.flash.read_page(ppa, now)?)
    }

    /// What a read of the logical pages `lpns`, all issued at `now`,
    /// would be granted, without booking anything (see
    /// [`Flash::read_eta`]). `None` where the read would fail on a page
    /// out of range, unmapped or unreadable.
    pub fn read_eta(
        &self,
        lpns: std::ops::RangeInclusive<usize>,
        now: Nanos,
    ) -> Option<Reservation> {
        let pages = self.l2p.get(lpns)?;
        if pages.contains(&NO_PAGE) {
            return None;
        }
        let ppas = pages
            .iter()
            .map(|&phys| Ppa::unflatten(phys as usize, &self.geo));
        self.flash.read_eta(ppas, now)
    }

    /// Writes a logical page. Returns the completion timestamp, which
    /// includes any foreground GC the write had to wait for — the random
    /// write latency spike.
    pub fn write(&mut self, lpn: usize, data: &[u8], now: Nanos) -> Result<Nanos, FtlError> {
        if lpn >= self.logical_pages {
            return Err(FtlError::OutOfRange);
        }
        let mut done = now;
        // Refill the free pool first if we are at the low-water mark.
        while self.free_blocks() < self.gc_low_water {
            match self.gc_once(done) {
                Ok(Some(t)) => done = done.max(t),
                Ok(None) => break, // nothing collectable; rely on free pool
                Err(e) => return Err(e),
            }
        }
        let t = self.program_to_active(lpn, data, done)?;
        self.stats.host_programs += 1;
        Ok(t)
    }

    /// Drops the mapping for a logical page (ATA TRIM / SCSI UNMAP).
    pub fn trim(&mut self, lpn: usize) -> Result<(), FtlError> {
        if lpn >= self.logical_pages {
            return Err(FtlError::OutOfRange);
        }
        let phys = self.l2p[lpn];
        if phys != NO_PAGE {
            self.invalidate_phys(phys as usize);
            self.l2p[lpn] = NO_PAGE;
        }
        Ok(())
    }

    /// True if a logical page currently has a mapping.
    pub fn is_mapped(&self, lpn: usize) -> bool {
        lpn < self.logical_pages && self.l2p[lpn] != NO_PAGE
    }

    /// The flat physical page currently backing a logical page, if any.
    /// Exposed for fault injection (corrupting the byte a host wrote).
    pub fn physical_of(&self, lpn: usize) -> Option<usize> {
        if !self.is_mapped(lpn) {
            None
        } else {
            Some(self.l2p[lpn] as usize)
        }
    }

    fn free_blocks(&self) -> usize {
        debug_assert_eq!(
            self.free_count,
            self.blocks
                .iter()
                .filter(|b| b.kind == BlockKind::Free)
                .count(),
            "cached free-block count drifted from block states"
        );
        self.free_count
    }

    /// Unmaps a physical page (overwrite, trim, GC move). Its payload
    /// goes with it: nothing can read the page again before its erase.
    fn invalidate_phys(&mut self, flat_page: usize) {
        self.p2l[flat_page] = NO_PAGE;
        let b = self.block_of_flat_page(flat_page);
        self.blocks[b].valid = self.blocks[b].valid.saturating_sub(1);
        let ppa = Ppa::unflatten(flat_page, &self.geo);
        self.flash.invalidate_page(ppa);
    }

    /// Programs data for `lpn` into some die's active block: round-robin
    /// across dies, opening fresh blocks wear-aware and retiring bad
    /// blocks encountered.
    fn program_to_active(
        &mut self,
        lpn: usize,
        data: &[u8],
        now: Nanos,
    ) -> Result<Nanos, FtlError> {
        for _attempt in 0..self.geo.dies * 2 {
            let die = self.next_die;
            self.next_die = (self.next_die + 1) % self.geo.dies;
            let Some((ppa, flat_block)) = self.next_slot(die) else {
                continue;
            };
            // A pre-aged or worn-out block can be flash-bad while the
            // FTL still lists it as usable; retire it here (the program
            // would have failed with BadBlock anyway).
            if self.flash.is_bad(ppa.die, ppa.block) {
                self.retire_block(flat_block, die);
                continue;
            }
            let t = self.flash.program_page(ppa, data, now)?;
            let flat_page = ppa.flatten(&self.geo);
            let old = self.l2p[lpn];
            if old != NO_PAGE {
                self.invalidate_phys(old as usize);
            }
            self.l2p[lpn] = flat_page as u32;
            self.p2l[flat_page] = lpn as u32;
            self.blocks[flat_block].valid += 1;
            // Seal the block when its last page was written.
            if ppa.page + 1 == self.geo.pages_per_block {
                self.blocks[flat_block].kind = BlockKind::Sealed;
                self.active[ppa.die] = None;
            }
            return Ok(t);
        }
        Err(FtlError::DeviceFull)
    }

    /// Next programmable (die-local) slot, opening a fresh block if
    /// needed. The cursor is the flash block's own: every program goes
    /// through [`Flash::program_page`] before the next slot is asked for.
    fn next_slot(&mut self, die: usize) -> Option<(Ppa, usize)> {
        if self.active[die].is_none() {
            // Wear leveling: open the free block with the lowest erase count.
            let fb = (0..self.geo.blocks_per_die)
                .map(|b| self.flat_block(die, b))
                .filter(|&fb| self.blocks[fb].kind == BlockKind::Free)
                .min_by_key(|&fb| {
                    let b = fb % self.geo.blocks_per_die;
                    self.flash.erase_count(die, b)
                })?;
            self.blocks[fb].kind = BlockKind::Active;
            self.free_count -= 1;
            self.active[die] = Some(fb);
        }
        let fb = self.active[die].expect("just ensured");
        let block = fb % self.geo.blocks_per_die;
        let page = self.flash.write_cursor(die, block);
        debug_assert!(
            page < self.geo.pages_per_block,
            "a block seals on its last program, so an active one has room"
        );
        Some((Ppa { die, block, page }, fb))
    }

    /// Garbage-collects one victim block. Returns the completion time of
    /// the pass, or `None` when no sealed block is collectable.
    fn gc_once(&mut self, now: Nanos) -> Result<Option<Nanos>, FtlError> {
        purity_obs::profile_scope!(purity_obs::Plane::Gc);
        // Relocation programs are GC traffic for stall attribution,
        // whatever mode the caller left the flash in.
        let prev_gc = self.flash.gc_mode();
        self.flash.set_gc_mode(true);
        let r = self.gc_once_inner(now);
        self.flash.set_gc_mode(prev_gc);
        r
    }

    fn gc_once_inner(&mut self, now: Nanos) -> Result<Option<Nanos>, FtlError> {
        // Greedy: sealed block with fewest valid pages. A fully-valid
        // block yields no space, so it is never a victim (collecting it
        // would spin forever on a truly full device).
        let victim = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| {
                b.kind == BlockKind::Sealed && (b.valid as usize) < self.geo.pages_per_block
            })
            .min_by_key(|(_, b)| b.valid)
            .map(|(i, _)| i);
        let Some(victim) = victim else {
            return Ok(None);
        };
        let mut done = now;
        let base = victim * self.geo.pages_per_block;
        // Relocate live pages.
        for p in 0..self.geo.pages_per_block {
            let flat = base + p;
            let lpn = self.p2l[flat];
            if lpn == NO_PAGE {
                continue;
            }
            let ppa = Ppa::unflatten(flat, &self.geo);
            let read = self.flash.read_page(ppa, done)?;
            let data = read.data.to_vec();
            done = done.max(read.done);
            let t_prog = self.program_to_active(lpn as usize, &data, done)?;
            self.stats.gc_programs += 1;
            done = done.max(t_prog);
        }
        // Erase the victim.
        let die = victim / self.geo.blocks_per_die;
        let block = victim % self.geo.blocks_per_die;
        match self.flash.erase_block(die, block, done) {
            Ok(t) => {
                done = done.max(t);
                self.blocks[victim] = BlockState {
                    valid: 0,
                    kind: BlockKind::Free,
                };
                self.free_count += 1;
                self.p2l[base..base + self.geo.pages_per_block].fill(NO_PAGE);
            }
            Err(FlashError::BadBlock) => {
                self.retire_block(victim, die);
            }
            Err(e) => return Err(e.into()),
        }
        self.stats.gc_runs += 1;
        self.stats.erases += 1;
        Ok(Some(done))
    }

    fn retire_block(&mut self, flat_block: usize, die: usize) {
        if self.blocks[flat_block].kind == BlockKind::Free {
            self.free_count -= 1;
        }
        self.blocks[flat_block].kind = BlockKind::Bad;
        if self.active[die] == Some(flat_block) {
            self.active[die] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::SsdGeometry;
    use crate::latency::{EnduranceModel, LatencyModel};
    use purity_sim::Clock;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn mk_ftl() -> Ftl {
        let clock = Clock::new();
        let flash = Flash::new(
            SsdGeometry::test_small(),
            LatencyModel::consumer_mlc(),
            EnduranceModel::consumer_mlc(),
            clock,
            7,
        );
        Ftl::new(flash, 0.25)
    }

    fn page_of(b: u8) -> Vec<u8> {
        vec![b; 4096]
    }

    #[test]
    fn write_read_round_trip() {
        let mut ftl = mk_ftl();
        ftl.write(0, &page_of(0x11), 0).unwrap();
        ftl.write(1, &page_of(0x22), 0).unwrap();
        assert_eq!(ftl.read(0, 0).unwrap().data, page_of(0x11));
        assert_eq!(ftl.read(1, 0).unwrap().data, page_of(0x22));
    }

    #[test]
    fn overwrite_returns_latest() {
        let mut ftl = mk_ftl();
        for v in 0..10u8 {
            ftl.write(5, &page_of(v), 0).unwrap();
        }
        assert_eq!(ftl.read(5, 0).unwrap().data, page_of(9));
    }

    #[test]
    fn unmapped_and_out_of_range_reads_fail() {
        let mut ftl = mk_ftl();
        assert_eq!(ftl.read(3, 0).unwrap_err(), FtlError::Unmapped);
        let max = ftl.logical_pages();
        assert_eq!(ftl.read(max, 0).unwrap_err(), FtlError::OutOfRange);
    }

    #[test]
    fn trim_unmaps() {
        let mut ftl = mk_ftl();
        ftl.write(2, &page_of(9), 0).unwrap();
        assert!(ftl.is_mapped(2));
        ftl.trim(2).unwrap();
        assert!(!ftl.is_mapped(2));
        assert_eq!(ftl.read(2, 0).unwrap_err(), FtlError::Unmapped);
    }

    /// Overwrites, trims and GC moves drop the payloads they unmap: the
    /// device holds exactly the mapped pages' bytes.
    #[test]
    fn flash_holds_only_the_mapped_pages() {
        let mut ftl = mk_ftl();
        let n = ftl.logical_pages();
        let mut rng = StdRng::seed_from_u64(41);
        for i in 0..3 * n {
            let lpn = rng.gen_range(0..n);
            if i % 5 == 0 {
                ftl.trim(lpn).unwrap();
            } else {
                ftl.write(lpn, &page_of((i % 251) as u8), 0).unwrap();
            }
        }
        assert!(ftl.stats().gc_runs > 0, "the mix must reach FTL GC");
        let mapped = (0..n).filter(|&lpn| ftl.is_mapped(lpn)).count();
        assert_eq!(ftl.flash().payload_bytes(), mapped * ftl.page_size());
    }

    #[test]
    fn sequential_fill_has_unit_write_amplification() {
        let mut ftl = mk_ftl();
        let n = ftl.logical_pages();
        for lpn in 0..n {
            ftl.write(lpn, &page_of((lpn % 251) as u8), 0).unwrap();
        }
        let wa = ftl.stats().write_amplification();
        assert!(wa < 1.05, "sequential fill WA should be ~1.0, got {}", wa);
        // Verify a sample of the data survived.
        for lpn in (0..n).step_by(97) {
            assert_eq!(ftl.read(lpn, 0).unwrap().data, page_of((lpn % 251) as u8));
        }
    }

    #[test]
    fn random_overwrites_amplify_writes() {
        let mut ftl = mk_ftl();
        let n = ftl.logical_pages();
        // Fill once, then randomly overwrite 2x the logical space.
        for lpn in 0..n {
            ftl.write(lpn, &page_of(1), 0).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..2 * n {
            let lpn = rng.gen_range(0..n);
            ftl.write(lpn, &page_of(2), 0).unwrap();
        }
        let wa = ftl.stats().write_amplification();
        assert!(wa > 1.15, "random overwrites should amplify, got {}", wa);
        assert!(ftl.stats().gc_runs > 0);
    }

    #[test]
    fn device_survives_many_full_overwrites() {
        let mut ftl = mk_ftl();
        let n = ftl.logical_pages();
        for round in 0..5u8 {
            for lpn in 0..n {
                ftl.write(lpn, &page_of(round), 0).unwrap();
            }
        }
        for lpn in (0..n).step_by(131) {
            assert_eq!(ftl.read(lpn, 0).unwrap().data, page_of(4));
        }
    }

    #[test]
    fn gc_latency_shows_up_in_completion_times() {
        let mut ftl = mk_ftl();
        let n = ftl.logical_pages();
        for lpn in 0..n {
            ftl.write(lpn, &page_of(1), 0).unwrap();
        }
        // Now randomly overwrite; some writes must wait for foreground GC.
        let mut rng = StdRng::seed_from_u64(3);
        let mut max_latency = 0;
        let mut issue = ftl.flash().die_free_at(0);
        for _ in 0..n {
            let lpn = rng.gen_range(0..n);
            let done = ftl.write(lpn, &page_of(2), issue).unwrap();
            max_latency = max_latency.max(done.saturating_sub(issue));
            issue = done;
        }
        // A GC-stalled write waits for reads+programs+erase: >> one program.
        assert!(
            max_latency > 2 * LatencyModel::consumer_mlc().program_ns,
            "expected GC-induced latency spikes, max was {}ns",
            max_latency
        );
    }
}
