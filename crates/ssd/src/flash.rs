//! Raw NAND flash: real bytes, real constraints.
//!
//! Enforced device rules (§2.1):
//! * pages must be erased before they are programmed, and are programmed
//!   in order within an erase block;
//! * erases operate on whole blocks and block reads on the same die;
//! * blocks wear out with program/erase cycles — each block gets a true
//!   endurance drawn above its rating (§5.1: "P/E ratings significantly
//!   underestimate real-world endurance");
//! * worn blocks leak charge faster: a page programmed long ago on a
//!   high-wear block reads back as corrupt unless it has been rewritten
//!   (the reason Purity scrubs, §5.1).

use crate::geometry::{Ppa, SsdGeometry};
use crate::latency::{EnduranceModel, LatencyModel};
use purity_sim::{Clock, Nanos, Reservation, Timeline};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// One virtual year — the retention horizon a block at exactly its rated
/// wear is specified to hold data for (§5.1).
pub const RETENTION_AT_RATING: Nanos = 365 * 24 * 3600 * purity_sim::SEC;

/// Raw flash operation errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashError {
    /// Read of a page that was never programmed since the last erase.
    NotProgrammed,
    /// Program of a page that is already programmed (no overwrite in NAND).
    AlreadyProgrammed,
    /// Pages within a block must be programmed sequentially.
    OutOfOrderProgram,
    /// The erase block has worn out.
    BadBlock,
    /// The page's charge has leaked (retention failure) or it was
    /// explicitly corrupted by fault injection.
    Corrupt,
}

impl std::fmt::Display for FlashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FlashError::NotProgrammed => "page not programmed",
            FlashError::AlreadyProgrammed => "page already programmed",
            FlashError::OutOfOrderProgram => "out-of-order program within erase block",
            FlashError::BadBlock => "erase block worn out",
            FlashError::Corrupt => "page corrupt (retention failure or injected)",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FlashError {}

struct Block {
    /// Page payloads; allocated lazily on first program after erase.
    data: Vec<Option<Box<[u8]>>>,
    /// Virtual program timestamp per page, for retention modelling.
    programmed_at: Vec<Nanos>,
    /// Injected / leaked corruption flags.
    corrupt: Vec<bool>,
    /// Next page that may be programmed (NAND sequential-program rule).
    write_cursor: usize,
    erase_count: u64,
    /// True endurance limit for this block (>= rating).
    true_endurance: u64,
    bad: bool,
}

impl Block {
    fn new(pages: usize, true_endurance: u64) -> Self {
        Self {
            data: (0..pages).map(|_| None).collect(),
            programmed_at: vec![0; pages],
            corrupt: vec![false; pages],
            write_cursor: 0,
            erase_count: 0,
            true_endurance,
            bad: false,
        }
    }

    /// Retention horizon: a fresh block holds data for many virtual
    /// years; a block at its *rating* holds it for roughly
    /// [`RETENTION_AT_RATING`]; beyond that it decays inversely with
    /// wear. The horizon scales with the block's true (randomly drawn)
    /// endurance, so equally-worn blocks fail at *different* times — the
    /// variance real arrays rely on to scrub-repair ahead of correlated
    /// loss (§5.1).
    fn retention_limit(&self) -> Nanos {
        let wear = self.erase_count.max(1);
        ((RETENTION_AT_RATING as u128 * self.true_endurance as u128) / (wear as u128 * 2))
            .min(Nanos::MAX as u128) as Nanos
    }
}

struct Die {
    timeline: Timeline,
    blocks: Vec<Block>,
    /// Completion time of the most recent program on this die, for
    /// attributing read queueing to its cause.
    last_program_end: Nanos,
    /// Whether the program ending at `last_program_end` was issued on
    /// behalf of garbage collection (relocation) rather than host I/O —
    /// splits `die_stall_program` from `gc_interference` blame.
    last_program_gc: bool,
    /// Completion time of the most recent erase on this die.
    last_erase_end: Nanos,
    /// Recent program reservation ends `(end, gc)`, oldest first. A
    /// queued read blames a program only if one of these ends inside
    /// its wait window — the pacer books flushes into future slots, so
    /// the *latest* program end alone says nothing about what a read
    /// issued now actually waited behind.
    recent_program_ends: VecDeque<(Nanos, bool)>,
    /// Recent erase reservation ends, oldest first.
    recent_erase_ends: VecDeque<Nanos>,
}

/// Entries retained per die for stall attribution; enough to cover
/// every reservation inside any realistic wait window.
const RECENT_ENDS_CAP: usize = 128;

/// What a queued read was waiting behind on its die (§2.1: "while an SSD
/// is erasing a block, it cannot read data from physically-related
/// blocks").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Waiting behind a page program.
    Program,
    /// Waiting behind a block erase — the expensive one.
    Erase,
    /// Waiting behind other reads only.
    Read,
}

impl StallCause {
    pub fn as_str(&self) -> &'static str {
        match self {
            StallCause::Program => "program",
            StallCause::Erase => "erase",
            StallCause::Read => "read",
        }
    }
}

/// Point-in-time die status (see [`Flash::die_status`]).
#[derive(Debug, Clone, Copy)]
pub struct DieStatus {
    pub die: usize,
    /// Busy at the queried instant (a read issued now would queue).
    pub busy: bool,
    /// When the die's timeline next frees up.
    pub free_at: Nanos,
    /// The program/erase a queued read would blame, if one is pending.
    pub pending: Option<StallCause>,
}

/// A completed page read with its latency decomposition — the raw
/// material for tail-latency attribution.
#[derive(Debug, Clone)]
pub struct PageRead<'a> {
    /// The page's bytes, lent from the flash cells: the caller copies
    /// them wherever they are going, once.
    pub data: &'a [u8],
    /// Completion timestamp (includes queueing).
    pub done: Nanos,
    /// Time spent waiting for the die.
    pub queued: Nanos,
    /// Time the die spent servicing the read.
    pub service: Nanos,
    /// Die the page lives on.
    pub die: usize,
    /// Why the read queued, when it did.
    pub stall: Option<StallCause>,
    /// For a [`StallCause::Program`] stall: whether the blocking program
    /// was garbage-collection relocation (noisy-neighbour interference)
    /// rather than host traffic.
    pub stall_gc: bool,
}

/// Wear / traffic counters (SMART-style).
#[derive(Debug, Clone, Copy, Default)]
pub struct FlashCounters {
    /// Pages read.
    pub reads: u64,
    /// Pages programmed.
    pub programs: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Blocks retired as bad.
    pub bad_blocks: u64,
    /// Reads that queued behind a program.
    pub read_stalls_program: u64,
    /// Reads that queued behind an erase.
    pub read_stalls_erase: u64,
    /// Reads that queued behind other reads.
    pub read_stalls_read: u64,
    /// Total ns reads spent queued behind busy dies.
    pub read_stall_ns: u64,
    /// Sum of every block's erase count (bad blocks included) — with
    /// the block count, the mean wear telemetry reports.
    pub erase_sum: u64,
    /// Highest erase count of any block.
    pub erase_max: u64,
}

/// A raw NAND device: dies operating in parallel, each with its own
/// timeline.
pub struct Flash {
    geo: SsdGeometry,
    latency: LatencyModel,
    clock: Arc<Clock>,
    dies: Vec<Die>,
    counters: FlashCounters,
    /// While set, programs are attributed to garbage collection for
    /// stall-blame purposes (see [`Flash::set_gc_mode`]).
    gc_mode: bool,
}

impl Flash {
    /// Creates a fresh (fully erased) device. `seed` fixes the endurance
    /// draw so simulations are reproducible.
    pub fn new(
        geo: SsdGeometry,
        latency: LatencyModel,
        endurance: EnduranceModel,
        clock: Arc<Clock>,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let dies = (0..geo.dies)
            .map(|_| Die {
                timeline: Timeline::new(),
                blocks: (0..geo.blocks_per_die)
                    .map(|_| {
                        // Real endurance lands 1.5-4x above the rating.
                        let factor = rng.gen_range(1.5..4.0);
                        let limit = (endurance.rated_pe_cycles as f64 * factor) as u64;
                        Block::new(geo.pages_per_block, limit)
                    })
                    .collect(),
                last_program_end: 0,
                last_program_gc: false,
                last_erase_end: 0,
                recent_program_ends: VecDeque::new(),
                recent_erase_ends: VecDeque::new(),
            })
            .collect();
        Self {
            geo,
            latency,
            clock,
            dies,
            counters: FlashCounters::default(),
            gc_mode: false,
        }
    }

    /// Marks subsequent programs as garbage-collection relocation (or
    /// back to host traffic). Reads queueing behind a GC program report
    /// it via [`PageRead::stall_gc`], splitting noisy-neighbour
    /// interference from ordinary program stalls in blame accounting.
    pub fn set_gc_mode(&mut self, on: bool) {
        self.gc_mode = on;
    }

    /// Whether programs are currently attributed to garbage collection.
    pub fn gc_mode(&self) -> bool {
        self.gc_mode
    }

    /// Device geometry.
    pub fn geometry(&self) -> &SsdGeometry {
        &self.geo
    }

    /// Traffic counters.
    pub fn counters(&self) -> FlashCounters {
        self.counters
    }

    /// True if the die owning `ppa` is busy at `now` (would delay a read).
    pub fn die_busy_at(&self, die: usize, now: Nanos) -> bool {
        self.dies[die].timeline.busy_at(now)
    }

    /// When the die next becomes free.
    pub fn die_free_at(&self, die: usize) -> Nanos {
        self.dies[die].timeline.free_at()
    }

    /// Point-in-time status of one die — the per-die blame state an
    /// incident evidence bundle freezes ("die 3 busy erasing until
    /// t=1.2 ms").
    pub fn die_status(&self, die: usize, now: Nanos) -> DieStatus {
        let d = &self.dies[die];
        let prog_pending = d.last_program_end > now;
        let erase_pending = d.last_erase_end > now;
        let pending = match (prog_pending, erase_pending) {
            (_, true) if d.last_erase_end >= d.last_program_end => Some(StallCause::Erase),
            (true, _) => Some(StallCause::Program),
            (false, true) => Some(StallCause::Erase),
            (false, false) => None,
        };
        DieStatus {
            die,
            busy: d.timeline.busy_at(now),
            free_at: d.timeline.free_at(),
            pending,
        }
    }

    /// Reads one page: its bytes, its completion timestamp (includes any
    /// queueing behind programs/erases on the die) and its latency
    /// decomposition — how long it queued, how long the die worked, and
    /// what the queueing was behind (program / erase / other reads), the
    /// per-die attribution the observability layer surfaces for tail
    /// samples. A bad-block or never-programmed page fails before
    /// touching the die; a corrupt or leaked page is only discovered by
    /// reading it, so it charges the die's timeline first.
    pub fn read_page(&mut self, ppa: Ppa, now: Nanos) -> Result<PageRead<'_>, FlashError> {
        let virtual_now = self.clock.now();
        let die = &mut self.dies[ppa.die];
        let service = {
            let block = &die.blocks[ppa.block];
            if block.bad {
                return Err(FlashError::BadBlock);
            }
            let data = block.data[ppa.page]
                .as_ref()
                .ok_or(FlashError::NotProgrammed)?;
            self.latency.page_read(data.len())
        };
        let res = die.timeline.reserve(now, service);
        self.counters.reads += 1;
        let queued = res.queueing(now);
        let mut stall_gc = false;
        let stall = if queued == 0 {
            None
        } else {
            // Blame a program/erase only when its reservation actually sits
            // in this read's wait window [now, start): bookings never
            // overlap, so an op that blocked us must *end* by our start. A
            // flush the pacer booked for a future slot (end > start) never
            // delayed this read — it gap-filled ahead of it — so the stall
            // falls through to read-vs-read queueing. Fully-past entries
            // can never block again (read issue times are monotonic), so
            // drop them here where `now` is the true present.
            while die
                .recent_program_ends
                .front()
                .is_some_and(|&(e, _)| e <= now)
            {
                die.recent_program_ends.pop_front();
            }
            while die.recent_erase_ends.front().is_some_and(|&e| e <= now) {
                die.recent_erase_ends.pop_front();
            }
            let blocking_program = die
                .recent_program_ends
                .iter()
                .filter(|&&(e, _)| e > now && e <= res.start)
                .max_by_key(|&&(e, _)| e)
                .copied();
            let blocking_erase = die
                .recent_erase_ends
                .iter()
                .filter(|&&e| e > now && e <= res.start)
                .max()
                .copied();
            let cause = match (blocking_program, blocking_erase) {
                (Some((pe, _)), Some(ee)) if ee >= pe => StallCause::Erase,
                (Some(_), _) => StallCause::Program,
                (None, Some(_)) => StallCause::Erase,
                (None, None) => StallCause::Read,
            };
            match cause {
                StallCause::Program => self.counters.read_stalls_program += 1,
                StallCause::Erase => self.counters.read_stalls_erase += 1,
                StallCause::Read => self.counters.read_stalls_read += 1,
            }
            if let (StallCause::Program, Some((_, gc))) = (cause, blocking_program) {
                stall_gc = gc;
            }
            self.counters.read_stall_ns += queued;
            Some(cause)
        };
        let block = &mut die.blocks[ppa.block];
        if block.corrupt[ppa.page] {
            return Err(FlashError::Corrupt);
        }
        if virtual_now.saturating_sub(block.programmed_at[ppa.page]) > block.retention_limit() {
            block.corrupt[ppa.page] = true;
            return Err(FlashError::Corrupt);
        }
        Ok(PageRead {
            data: block.data[ppa.page]
                .as_deref()
                .expect("checked programmed above"),
            done: res.end,
            queued,
            service: res.service(),
            die: ppa.die,
            stall,
            stall_gc,
        })
    }

    /// What a read of `ppas`, every page issued at `now` in this order,
    /// would be granted, without booking a die: the reservation of its
    /// critical-path page — the one [`Flash::read_page`] would
    /// complete last, so `end` is when the read is done and `start` is
    /// how long it queues first. Pages that share a die chain behind
    /// each other, as the bookings would. `None` where the read would
    /// fail before touching its die (bad block, page never programmed).
    pub fn read_eta(&self, ppas: impl IntoIterator<Item = Ppa>, now: Nanos) -> Option<Reservation> {
        let mut crit = Reservation {
            start: now,
            end: now,
        };
        // (die, end of this read's last page on it). Every page read of
        // one device is the same length, so the gap the previous page
        // took was the earliest that fits and the next page's search
        // resumes exactly at its end. A tail is kept only while a later
        // page could meet it, so a one-page read allocates nothing.
        let mut tails: Vec<(usize, Nanos)> = Vec::new();
        let mut ppas = ppas.into_iter().peekable();
        while let Some(ppa) = ppas.next() {
            let die = &self.dies[ppa.die];
            let block = &die.blocks[ppa.block];
            if block.bad {
                return None;
            }
            let service = self.latency.page_read(block.data[ppa.page].as_ref()?.len());
            let tail = tails.iter_mut().find(|(d, _)| *d == ppa.die);
            let from = tail.as_ref().map_or(now, |(_, end)| *end);
            let res = die.timeline.probe(from, service);
            match tail {
                Some(t) => t.1 = res.end,
                None if ppas.peek().is_some() => tails.push((ppa.die, res.end)),
                None => {}
            }
            if res.end >= crit.end {
                crit = res;
            }
        }
        Some(crit)
    }

    /// Programs one page. Pages must be erased and programmed in order.
    /// Returns the completion timestamp.
    pub fn program_page(&mut self, ppa: Ppa, data: &[u8], now: Nanos) -> Result<Nanos, FlashError> {
        assert_eq!(data.len(), self.geo.page_size, "programs are whole pages");
        let virtual_now = self.clock.now().max(now);
        let die = &mut self.dies[ppa.die];
        {
            let block = &die.blocks[ppa.block];
            if block.bad {
                return Err(FlashError::BadBlock);
            }
            if block.data[ppa.page].is_some() {
                return Err(FlashError::AlreadyProgrammed);
            }
            if ppa.page != block.write_cursor {
                return Err(FlashError::OutOfOrderProgram);
            }
        }
        let res = die
            .timeline
            .reserve(now, self.latency.page_program(data.len()));
        if res.end >= die.last_program_end {
            die.last_program_gc = self.gc_mode;
        }
        die.last_program_end = die.last_program_end.max(res.end);
        // Cap-prune only: `now` here is the paced (possibly future) issue
        // slot, so time-pruning against it would discard programs that are
        // still ahead of present-time reads. Readers prune by their own
        // clock instead.
        if die.recent_program_ends.len() >= RECENT_ENDS_CAP {
            die.recent_program_ends.pop_front();
        }
        die.recent_program_ends.push_back((res.end, self.gc_mode));
        let block = &mut die.blocks[ppa.block];
        block.data[ppa.page] = Some(data.to_vec().into_boxed_slice());
        block.programmed_at[ppa.page] = virtual_now;
        block.corrupt[ppa.page] = false;
        block.write_cursor += 1;
        self.counters.programs += 1;
        Ok(res.end)
    }

    /// Erases a whole block. Wears the block; past its true endurance the
    /// block goes bad. Returns the completion timestamp.
    pub fn erase_block(
        &mut self,
        die: usize,
        block: usize,
        now: Nanos,
    ) -> Result<Nanos, FlashError> {
        let pages = self.geo.pages_per_block;
        if self.dies[die].blocks[block].bad {
            return Err(FlashError::BadBlock);
        }
        let res = self.dies[die].timeline.reserve(now, self.latency.erase_ns);
        let d = &mut self.dies[die];
        d.last_erase_end = d.last_erase_end.max(res.end);
        if d.recent_erase_ends.len() >= RECENT_ENDS_CAP {
            d.recent_erase_ends.pop_front();
        }
        d.recent_erase_ends.push_back(res.end);
        let b = &mut self.dies[die].blocks[block];
        let (prior_erases, true_endurance) = (b.erase_count, b.true_endurance);
        *b = Block::new(pages, true_endurance);
        b.erase_count = prior_erases + 1;
        self.counters.erases += 1;
        self.counters.erase_sum += 1;
        self.counters.erase_max = self.counters.erase_max.max(b.erase_count);
        if b.erase_count >= b.true_endurance {
            b.bad = true;
            self.counters.bad_blocks += 1;
            return Err(FlashError::BadBlock);
        }
        Ok(res.end)
    }

    /// Erase count of a block (for wear-aware allocation).
    pub fn erase_count(&self, die: usize, block: usize) -> u64 {
        self.dies[die].blocks[block].erase_count
    }

    /// Next page of a block the sequential-program rule allows — how
    /// many pages it has taken since its last erase.
    pub fn write_cursor(&self, die: usize, block: usize) -> usize {
        self.dies[die].blocks[block].write_cursor
    }

    /// Whether a block has been retired.
    pub fn is_bad(&self, die: usize, block: usize) -> bool {
        self.dies[die].blocks[block].bad
    }

    /// Fault injection: marks a single page corrupt (bit rot / UBER event).
    pub fn corrupt_page(&mut self, ppa: Ppa) {
        self.dies[ppa.die].blocks[ppa.block].corrupt[ppa.page] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> (Flash, Arc<Clock>) {
        let clock = Clock::new();
        let f = Flash::new(
            SsdGeometry::test_small(),
            LatencyModel::consumer_mlc(),
            EnduranceModel::consumer_mlc(),
            clock.clone(),
            42,
        );
        (f, clock)
    }

    fn page(fill: u8, size: usize) -> Vec<u8> {
        vec![fill; size]
    }

    #[test]
    fn program_then_read_round_trips() {
        let (mut f, _) = mk();
        let ppa = Ppa {
            die: 0,
            block: 0,
            page: 0,
        };
        let data = page(0xab, 4096);
        f.program_page(ppa, &data, 0).unwrap();
        assert_eq!(f.read_page(ppa, 0).unwrap().data, data);
    }

    #[test]
    fn unprogrammed_read_fails() {
        let (mut f, _) = mk();
        let ppa = Ppa {
            die: 1,
            block: 2,
            page: 3,
        };
        assert_eq!(f.read_page(ppa, 0).unwrap_err(), FlashError::NotProgrammed);
    }

    #[test]
    fn no_overwrite_without_erase() {
        let (mut f, _) = mk();
        let ppa = Ppa {
            die: 0,
            block: 0,
            page: 0,
        };
        f.program_page(ppa, &page(1, 4096), 0).unwrap();
        assert_eq!(
            f.program_page(ppa, &page(2, 4096), 0).unwrap_err(),
            FlashError::AlreadyProgrammed
        );
        f.erase_block(0, 0, 0).unwrap();
        f.program_page(ppa, &page(2, 4096), 0).unwrap();
        assert_eq!(f.read_page(ppa, 0).unwrap().data, page(2, 4096));
    }

    #[test]
    fn pages_program_in_order() {
        let (mut f, _) = mk();
        let p1 = Ppa {
            die: 0,
            block: 0,
            page: 1,
        };
        assert_eq!(
            f.program_page(p1, &page(1, 4096), 0).unwrap_err(),
            FlashError::OutOfOrderProgram
        );
        f.program_page(
            Ppa {
                die: 0,
                block: 0,
                page: 0,
            },
            &page(0, 4096),
            0,
        )
        .unwrap();
        f.program_page(p1, &page(1, 4096), 0).unwrap();
    }

    #[test]
    fn erase_wipes_all_pages() {
        let (mut f, _) = mk();
        for p in 0..4 {
            f.program_page(
                Ppa {
                    die: 0,
                    block: 5,
                    page: p,
                },
                &page(p as u8, 4096),
                0,
            )
            .unwrap();
        }
        f.erase_block(0, 5, 0).unwrap();
        for p in 0..4 {
            assert_eq!(
                f.read_page(
                    Ppa {
                        die: 0,
                        block: 5,
                        page: p
                    },
                    0
                )
                .unwrap_err(),
                FlashError::NotProgrammed
            );
        }
    }

    #[test]
    fn reads_queue_behind_programs_on_same_die() {
        let (mut f, _) = mk();
        let w = Ppa {
            die: 0,
            block: 0,
            page: 0,
        };
        let done = f.program_page(w, &page(7, 4096), 0).unwrap();
        assert!(done >= LatencyModel::consumer_mlc().program_ns);
        // Read on the same die waits for the program.
        let read_done = f.read_page(w, 1000).unwrap().done;
        assert!(read_done > done, "read should queue behind the program");
        // Read on another die proceeds immediately.
        f.program_page(
            Ppa {
                die: 1,
                block: 0,
                page: 0,
            },
            &page(8, 4096),
            0,
        )
        .unwrap();
        let free = f.die_free_at(1);
        assert!(f.die_busy_at(1, 0));
        assert!(!f.die_busy_at(1, free));
    }

    #[test]
    fn gc_mode_splits_program_stall_attribution() {
        let (mut f, _) = mk();
        let host = Ppa {
            die: 0,
            block: 0,
            page: 0,
        };
        // Host-origin program: a queued read blames a plain program stall.
        f.program_page(host, &page(1, 4096), 0).unwrap();
        let r = f.read_page(host, 0).unwrap();
        assert_eq!(r.stall, Some(StallCause::Program));
        assert!(!r.stall_gc, "host program is not GC interference");
        // GC-origin program on another die: the stall is GC-attributed.
        let gc = Ppa {
            die: 1,
            block: 0,
            page: 0,
        };
        f.set_gc_mode(true);
        f.program_page(gc, &page(2, 4096), 0).unwrap();
        f.set_gc_mode(false);
        let r = f.read_page(gc, 0).unwrap();
        assert_eq!(r.stall, Some(StallCause::Program));
        assert!(r.stall_gc, "relocation program is GC interference");
    }

    #[test]
    fn blocks_wear_out_past_true_endurance() {
        let clock = Clock::new();
        let mut f = Flash::new(
            SsdGeometry {
                dies: 1,
                blocks_per_die: 1,
                pages_per_block: 4,
                page_size: 512,
            },
            LatencyModel::consumer_mlc(),
            EnduranceModel {
                rated_pe_cycles: 10,
            },
            clock,
            1,
        );
        let mut erases = 0u64;
        loop {
            match f.erase_block(0, 0, 0) {
                Ok(_) => erases += 1,
                Err(FlashError::BadBlock) => break,
                Err(e) => panic!("unexpected erase error {e:?}"),
            }
        }
        // True endurance is 1.5-4x rating.
        assert!((14..40).contains(&erases), "erases = {}", erases);
        assert_eq!(f.counters().bad_blocks, 1);
    }

    #[test]
    fn injected_corruption_is_detected() {
        let (mut f, _) = mk();
        let ppa = Ppa {
            die: 2,
            block: 1,
            page: 0,
        };
        f.program_page(ppa, &page(9, 4096), 0).unwrap();
        f.corrupt_page(ppa);
        assert_eq!(f.read_page(ppa, 0).unwrap_err(), FlashError::Corrupt);
    }

    #[test]
    fn worn_blocks_leak_charge_over_virtual_time() {
        let clock = Clock::new();
        let geo = SsdGeometry {
            dies: 1,
            blocks_per_die: 2,
            pages_per_block: 2,
            page_size: 512,
        };
        let mut f = Flash::new(
            geo,
            LatencyModel::consumer_mlc(),
            EnduranceModel { rated_pe_cycles: 4 },
            clock.clone(),
            2,
        );
        // Wear block 0 to its rating.
        for _ in 0..4 {
            f.erase_block(0, 0, clock.now()).unwrap();
        }
        let ppa = Ppa {
            die: 0,
            block: 0,
            page: 0,
        };
        f.program_page(ppa, &page(1, 512), clock.now()).unwrap();
        // Data still fine shortly after.
        assert!(f.read_page(ppa, clock.now()).is_ok());
        // Two virtual years later the worn block has leaked...
        clock.advance(2 * RETENTION_AT_RATING);
        assert_eq!(
            f.read_page(ppa, clock.now()).unwrap_err(),
            FlashError::Corrupt
        );
        // ...but a freshly written page on a fresh block survives.
        let fresh = Ppa {
            die: 0,
            block: 1,
            page: 0,
        };
        f.program_page(fresh, &page(2, 512), clock.now()).unwrap();
        clock.advance(2 * RETENTION_AT_RATING);
        assert!(
            f.read_page(fresh, clock.now()).is_ok(),
            "fresh block retention should exceed 2 years"
        );
    }
}
