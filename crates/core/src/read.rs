//! The read path (§4.4, §4.5): a volume or medium range resolved through
//! the medium chain and the map, its cblocks fetched (cache → pending
//! buffer → flash) in runs, and each extent read off its own drive or
//! rebuilt around a busy or failed one.

use crate::controller::{Ack, Controller, MapKey, Stored, CPU_OVERHEAD_NS};
use crate::error::{PurityError, Result};
use crate::segment::{Extent, SegmentInfo, SegmentLayout, SegmentWriter, COLD, HOT};
use crate::shelf::Shelf;
use crate::stats::ArrayStats;
use crate::types::{BlockLoc, DriveId, MediumId, Pba, SegmentId, VolumeId, SECTOR};
use purity_dedup::engine::{BlockFetcher, DedupEngine};
use purity_ecc::ReedSolomon;
use purity_obs::OpTrace;
use purity_sim::units::format_nanos;
use purity_sim::{Nanos, Reservation};
use purity_tier::RamCache;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

/// Checks a read of `len` bytes at `offset` of something `size_sectors`
/// long: whole sectors, at least one, all inside it.
pub(crate) fn check_read(offset: u64, len: usize, size_sectors: u64) -> Result<()> {
    if !offset.is_multiple_of(SECTOR as u64) || !len.is_multiple_of(SECTOR) || len == 0 {
        return Err(PurityError::BadRequest(
            "reads must be whole sectors".into(),
        ));
    }
    if offset + len as u64 > size_sectors * SECTOR as u64 {
        return Err(PurityError::BadRequest("read beyond end of volume".into()));
    }
    Ok(())
}

impl Controller {
    /// Reads `len` bytes at `offset` of `volume`. An upstream `trace`
    /// takes the array-plane spans, as [`Controller::write`]'s does.
    pub(crate) fn read(
        &mut self,
        shelf: &mut Shelf,
        volume: VolumeId,
        offset: u64,
        len: usize,
        now: Nanos,
        trace: Option<&mut OpTrace>,
    ) -> Result<(Vec<u8>, Ack)> {
        purity_obs::profile_scope!(purity_obs::Plane::ArrayRead);
        let vol = self
            .volumes
            .get(&volume.0)
            .ok_or(PurityError::NoSuchVolume)?;
        check_read(offset, len, vol.size_sectors)?;
        let medium = vol.anchor;
        let mut op = OpTrace::new("read", now);
        let (out, done) = self.read_medium(
            shelf,
            medium,
            offset / SECTOR as u64,
            len / SECTOR,
            now,
            Some(&mut op),
        )?;
        self.stats.logical_bytes_read += len as u64;
        // Heat: the time of a volume's last read decides its class; the
        // count is published as `volume_reads`.
        self.tier.record_read(volume.0, now);
        let latency = done.saturating_sub(now) + CPU_OVERHEAD_NS;
        self.stats.read_latency.record(latency);
        op.stage("cpu", done, done + CPU_OVERHEAD_NS);
        match trace {
            Some(t) => t.absorb(op),
            None => {
                self.obs.tracer.finish(op, now + latency);
            }
        }
        Ok((out, Ack { latency }))
    }

    /// Reads `n_sectors` from a medium chain (also used to read
    /// snapshots and by replication), stamping per-stage spans into
    /// `trace` if given.
    pub(crate) fn read_medium(
        &mut self,
        shelf: &mut Shelf,
        medium: MediumId,
        start_sector: u64,
        n_sectors: usize,
        now: Nanos,
        mut trace: Option<&mut OpTrace>,
    ) -> Result<(Vec<u8>, Nanos)> {
        let mut out = vec![0u8; n_sectors * SECTOR];
        // Group sector fetches by cblock. Ordered map: fetch order decides
        // die-timeline reservation order, so it must be deterministic.
        let mut plan: BTreeMap<Pba, Vec<(usize, u16)>> = BTreeMap::new();
        let mut zero_sectors = 0u64;
        for (i, entry) in self
            .resolve_range_entries(medium, start_sector, n_sectors)
            .into_iter()
            .enumerate()
        {
            match entry {
                Some((_key, val)) => plan
                    .entry(val.loc.pba)
                    .or_default()
                    .push((i, val.loc.sector)),
                None => {
                    self.stats.zero_reads += 1;
                    zero_sectors += 1;
                }
            }
        }
        if zero_sectors > 0 {
            if let Some(tr) = trace.as_deref_mut() {
                tr.stage_note(
                    "zero_fill",
                    now,
                    now,
                    format!("{zero_sectors} unwritten sectors"),
                );
            }
        }
        let pbas: Vec<Pba> = plan.keys().copied().collect();
        let fetched = self.fetcher(shelf, now).1.fetch_run(&pbas, trace)?;
        let mut done = now;
        for ((pba, uses), fetched) in plan.into_iter().zip(fetched) {
            done = done.max(fetched.done);
            let payload = fetched.payload;
            for (i, cs) in uses {
                let src = cs as usize * SECTOR;
                if src + SECTOR > payload.len() {
                    return Err(PurityError::DataLoss(format!(
                        "cblock at {:?} shorter than mapped sector {}",
                        pba, cs
                    )));
                }
                out[i * SECTOR..(i + 1) * SECTOR].copy_from_slice(&payload[src..src + SECTOR]);
            }
        }
        Ok((out, done))
    }

    /// Enumerates the sector runs whose content differs between two
    /// medium chains, as half-open `(start, end)` ranges in ascending
    /// order. With `base = None` it enumerates every mapped run (the
    /// full-seed case: unmapped sectors read as zeros on both sides and
    /// never need shipping). The diff compares *resolved locations*:
    /// facts are immutable, so identical locations mean identical
    /// content, and a rewrite always makes a new fact. This is the
    /// medium-diff API replication delta shipping is built on.
    pub fn medium_diff(
        &self,
        base: Option<MediumId>,
        newer: MediumId,
        size_sectors: u64,
    ) -> Vec<(u64, u64)> {
        let n = size_sectors as usize;
        let newer = self.resolve_range_entries(newer, 0, n);
        let base = match base {
            Some(b) => self.resolve_range_entries(b, 0, n),
            None => vec![None; n],
        };
        let mut runs = Vec::new();
        let mut run_start: Option<u64> = None;
        for (sector, (new, old)) in (0..).zip(newer.iter().zip(&base)) {
            let changed = new.map(|(_, v)| v.loc) != old.map(|(_, v)| v.loc);
            match (changed, run_start) {
                (true, None) => run_start = Some(sector),
                (false, Some(s)) => {
                    runs.push((s, sector));
                    run_start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = run_start {
            runs.push((s, size_sectors));
        }
        runs
    }

    /// Resolves a contiguous sector range through the medium chain and
    /// the map in one pass, returning each sector's winning map key — the
    /// chain step whose fact satisfied the lookup (GC's reachability scan
    /// needs it) — and value. One pyramid *range* query per chain level,
    /// instead of one point `get` (memtable probe + per-patch binary
    /// search) per sector: at 64 sectors per cblock the point-get version
    /// was the single largest read-path cost. Reads, GC and the medium
    /// diff are all built on this.
    ///
    /// Slot `i` of the result covers `start_sector + i`; `None` means
    /// unwritten (reads as zeros).
    pub(crate) fn resolve_range_entries(
        &self,
        medium: MediumId,
        start_sector: u64,
        n_sectors: usize,
    ) -> Vec<Option<(MapKey, Stored)>> {
        let mut out = vec![None; n_sectors];
        self.resolve_range_rec(
            medium,
            start_sector,
            start_sector + n_sectors as u64,
            0,
            &mut out,
            0,
        );
        // The batched resolver replaces one map probe per sector; keep
        // the per-sector event count so the perf trajectory stays
        // comparable with the point-lookup read path it superseded.
        purity_obs::profiler::add_events(purity_obs::Plane::Lsm, n_sectors as u64);
        out
    }

    /// Fills still-`None` slots of `out[out_off..]` from `medium`'s own
    /// facts over `[lo, hi)`, then recurses into chain targets. Top-down
    /// fill order reproduces chain seniority: a higher medium's fact
    /// always lands before a lower one is consulted. Only sectors
    /// covered by a medium row participate — exactly the
    /// `row_covering`-then-break walk of the per-sector resolver.
    fn resolve_range_rec(
        &self,
        medium: MediumId,
        lo: u64,
        hi: u64,
        out_off: usize,
        out: &mut [Option<(MapKey, Stored)>],
        depth: usize,
    ) {
        if depth > 64 || lo >= hi {
            return;
        }
        for (start, row) in self.mediums.rows_of(medium) {
            let ilo = lo.max(start);
            let ihi = hi.min(row.end);
            if ilo >= ihi {
                continue;
            }
            let base = out_off + (ilo - lo) as usize;
            self.map.range_for_each(
                Bound::Included(&(medium.0, ilo)),
                Bound::Excluded(&(medium.0, ihi)),
                |key, val, _seq| {
                    let slot = base + (key.1 - ilo) as usize;
                    if out[slot].is_none() {
                        out[slot] = Some((*key, *val));
                    }
                },
            );
            if let Some(target) = row.target {
                let t_lo = row.target_offset + (ilo - start);
                let t_hi = row.target_offset + (ihi - start);
                self.resolve_range_rec(target, t_lo, t_hi, base, out, depth + 1);
            }
        }
    }

    /// Fetches and decodes one cblock for a move (cache → pending →
    /// flash), stamping `trace` if given: a run of one (see
    /// [`CtrlFetcher::fetch_run`]) that admits nothing to the cache, as
    /// the move repoints every reference away from `pba`. The stored
    /// bytes the fetch read come back beside the payload: relocation
    /// places them verbatim.
    pub(crate) fn fetch_for_move(
        &mut self,
        shelf: &mut Shelf,
        pba: &Pba,
        now: Nanos,
        trace: Option<&mut OpTrace>,
    ) -> Result<Fetched> {
        let mut fetcher = self.fetcher(shelf, now).1;
        fetcher.admit = false;
        let mut fetched = fetcher.fetch_run(&[*pba], trace)?;
        Ok(fetched.remove(0))
    }

    /// Splits the controller into the dedup engine and the fetch path
    /// the engine verifies its candidates through.
    pub(crate) fn fetcher<'a>(
        &'a mut self,
        shelf: &'a mut Shelf,
        now: Nanos,
    ) -> (&'a mut DedupEngine<BlockLoc>, CtrlFetcher<'a>) {
        let fetcher = CtrlFetcher {
            shelf,
            cache: &mut self.cache,
            segments: &self.segments,
            writers: &self.writers,
            n_hot: self.cfg.n_drives,
            read_around: self.cfg.read_around_writes,
            stats: &mut self.stats,
            now,
            admit: true,
        };
        (&mut self.dedup, fetcher)
    }
}

/// The blame stage a drive read's queueing belongs to when it queued
/// behind a program or an erase; `None` when it did not queue, or queued
/// behind other reads only (that time stays in the read's own span).
fn stall_stage(dr: &purity_ssd::DeviceRead) -> Option<&'static str> {
    use purity_ssd::StallCause;
    match (dr.stall, dr.stall_gc) {
        (Some(StallCause::Erase), _) => Some("die_stall_erase"),
        (Some(StallCause::Program), true) => Some("gc_interference"),
        (Some(StallCause::Program), false) => Some("die_stall_program"),
        _ => None,
    }
}

/// Which copy a direct read took, for its span note.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Via {
    /// The extent's own column, as planned.
    Own,
    /// A mirror's other column, which the planner found sooner.
    Mirror,
    /// The extent's own column, after a rebuild found too few columns.
    Fallback,
}

/// Stamps the span(s) for one completed direct drive read. Die-stall
/// queueing becomes its own blame span — `die_stall_program`,
/// `die_stall_erase`, or `gc_interference` — ahead of the `drive_read`
/// service span, so the critical-path folder attributes tail time to
/// its cause rather than to generic drive queueing.
fn stamp_drive_read(
    tr: &mut OpTrace,
    dr: &purity_ssd::DeviceRead,
    drive: DriveId,
    now: Nanos,
    via: Via,
) {
    let prefix = match via {
        Via::Own => "",
        Via::Mirror => "mirror copy: ",
        Via::Fallback => "fallback (too few columns to rebuild): ",
    };
    match stall_stage(dr) {
        Some(stage) => {
            // The critical-path page's completion is exactly
            // now + queued + service, so the stall span and the service
            // span partition [now, done].
            let split = now + dr.queued;
            tr.stage_note(
                stage,
                now,
                split,
                format!(
                    "{prefix}queued {} behind {} on die {} of drive {}",
                    format_nanos(dr.queued),
                    dr.stall.map(|c| c.as_str()).unwrap_or("?"),
                    dr.die,
                    drive
                ),
            );
            tr.stage("drive_read", split, dr.done);
        }
        None => {
            let note = match dr.stall {
                Some(cause) => format!(
                    "{prefix}queued {} behind {} on die {} of drive {}",
                    format_nanos(dr.queued),
                    cause.as_str(),
                    dr.die,
                    drive
                ),
                None if via == Via::Mirror => format!("mirror copy from drive {drive}"),
                None => format!("{prefix}direct from drive {drive}"),
            };
            tr.stage_note("drive_read", now, dr.done, note);
        }
    }
}

/// Stamps the span(s) for one completed rebuild, the way
/// [`stamp_drive_read`] does for a direct read: the time the critical
/// source column (`crit`, the last to arrive) spent queued behind a
/// program or an erase is charged to that cause, and only the rest of
/// `[now, done)` to `reconstruct`.
fn stamp_reconstruct(
    tr: &mut OpTrace,
    crit: &purity_ssd::DeviceRead,
    crit_drive: DriveId,
    now: Nanos,
    note: String,
) {
    let mut from = now;
    if let Some(stage) = stall_stage(crit) {
        from = now + crit.queued;
        tr.stage_note(
            stage,
            now,
            from,
            format!(
                "rebuild source queued {} behind {} on die {} of drive {}",
                format_nanos(crit.queued),
                crit.stall.map(|c| c.as_str()).unwrap_or("?"),
                crit.die,
                crit_drive
            ),
        );
    }
    tr.stage_note("reconstruct", from, crit.done, note);
}

/// How many bytes of `ext`'s range column `column` of its stripe holds
/// on flash, from `ext.within` ([`SegmentInfo::on_flash`]). A padded
/// stripe's column reads as zeros past them, with no device read.
fn span_on_flash(info: &SegmentInfo, layout: &SegmentLayout, column: usize, ext: &Extent) -> usize {
    let unit = info.on_flash(layout, ext.stripe, column);
    unit.saturating_sub(ext.within).min(ext.len)
}

/// The other columns of `ext`'s stripe a rebuild could read, soonest
/// first: `(estimated completion, column)`, from the non-booking
/// [`Shelf::read_eta`] at `now`. A column holding none of the range on
/// flash is zeros, known at `now` whatever its drive's state; columns
/// whose drive would refuse the read are left out.
fn rebuild_sources(
    shelf: &Shelf,
    info: &SegmentInfo,
    layout: &SegmentLayout,
    ext: &Extent,
    now: Nanos,
) -> Vec<(Nanos, usize)> {
    let mut sources: Vec<(Nanos, usize)> = (0..info.columns.len())
        .filter(|&c| c != ext.column)
        .filter_map(|c| {
            let span = span_on_flash(info, layout, c, ext);
            if span == 0 {
                return Some((now, c));
            }
            let au = info.columns[c];
            let off = layout.wu_byte_offset(au.index, ext.stripe, ext.within);
            Some((shelf.read_eta(au.drive, off, span, now)?.end, c))
        })
        .collect();
    sources.sort_unstable();
    sources
}

/// How [`read_extent`] reads one extent, as [`plan_rebuild`] decides.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ReadPlan {
    /// Read it off this column's drive: the extent's own column, or in a
    /// mirror the other copy when that one is done sooner.
    Direct(usize),
    /// Rebuild it from these other columns (see [`rebuild_sources`]).
    Rebuild(Vec<(Nanos, usize)>),
}

/// The §4.4 scheduling decision for one extent, taken from the schedule
/// the array itself made and booking nothing.
///
/// A failed drive's data is always rebuilt. With read-around enabled, a
/// live drive's data is rebuilt only when the `k` soonest other columns
/// would all have delivered before the drive so much as starts on the
/// direct read. A rebuild that merely shaves part of one page read off
/// the wait costs `k` page reads to do it: it moves the wait onto whoever
/// reads those dies next. Past that, what the wait must buy depends on
/// what the drive is waiting for:
///
/// - A drive the array writes to at any point of the span the direct
///   read would occupy it is treated as failed: nothing more is asked.
/// - A drive queued behind reads alone is read around only when the wait
///   saved covers the die time the rebuild adds. A rebuild books `k`
///   reads where the direct read books one, each about the direct read's
///   own service time `svc`, so it must arrive `(k-1)·svc` before the
///   direct read ends: `sources[k-1] + (k-1)·svc <= direct.end`. The
///   price comes from the stripe's geometry and the latency model alone.
///
/// A mirror (`k == 1`) has nothing to rebuild: the RS generator row is
/// `[1]`, so its other column is a byte-identical copy. With read-around
/// enabled it reads whichever copy would be done first, write scheduled
/// or not — one page read either way, so choosing costs nothing. A tie
/// keeps the data column.
pub(crate) fn plan_rebuild(
    shelf: &Shelf,
    info: &SegmentInfo,
    layout: &SegmentLayout,
    read_around: bool,
    ext: &Extent,
    now: Nanos,
) -> ReadPlan {
    let au = info.columns[ext.column];
    if shelf.drive(au.drive).is_failed() {
        return ReadPlan::Rebuild(rebuild_sources(shelf, info, layout, ext, now));
    }
    let own = ReadPlan::Direct(ext.column);
    if !read_around {
        return own;
    }
    if layout.k == 1 {
        let soonest = (0..info.columns.len())
            .filter_map(|c| Some((direct_eta(shelf, info, layout, ext, c, now)?.end, c)))
            .min();
        return soonest.map_or(own, |(_, c)| ReadPlan::Direct(c));
    }
    // An extent the drive would refuse has no estimate: go direct and let
    // the media error choose the rebuild.
    let Some(direct) = direct_eta(shelf, info, layout, ext, ext.column, now) else {
        return own;
    };
    let writing = shelf.writes_overlap(au.drive, now, direct.end);
    let k = layout.k as Nanos;
    let svc = direct.end - direct.start;
    // A source that reads is done no sooner than one read from now, so a
    // read done within `k·svc` of now cannot pass the price (a padding
    // column, which reads nothing, is not credited): most reads end
    // here, on the one estimate.
    if !writing && direct.end - now < k * svc {
        return own;
    }
    // At a pair hand-off four drives are within one read of a program and
    // fewer than k columns are clear: waiting out the window that is
    // ending is then the cheapest plan.
    let sources = rebuild_sources(shelf, info, layout, ext, now);
    let Some(&(kth, _)) = sources.get(layout.k - 1) else {
        return own;
    };
    if kth < direct.start && (writing || kth + (k - 1) * svc <= direct.end) {
        ReadPlan::Rebuild(sources)
    } else {
        own
    }
}

/// The non-booking estimate of reading `ext` off column `column`'s drive.
fn direct_eta(
    shelf: &Shelf,
    info: &SegmentInfo,
    layout: &SegmentLayout,
    ext: &Extent,
    column: usize,
    now: Nanos,
) -> Option<Reservation> {
    let au = info.columns[column];
    let off = layout.wu_byte_offset(au.index, ext.stripe, ext.within);
    shelf.read_eta(au.drive, off, ext.len, now)
}

/// Why [`plan_rebuild`] read around the live drive under `ext`, for the
/// rebuild's span note: the write it is busy with, or how long the direct
/// read would have queued behind other reads.
fn read_around_cause(
    shelf: &Shelf,
    info: &SegmentInfo,
    layout: &SegmentLayout,
    ext: &Extent,
    now: Nanos,
) -> String {
    let drive = info.columns[ext.column].drive;
    match direct_eta(shelf, info, layout, ext, ext.column, now) {
        Some(direct) if !shelf.writes_overlap(drive, now, direct.end) => format!(
            "read-around: drive {drive} queued {} behind reads",
            format_nanos(direct.start - now)
        ),
        _ => format!("read-around: drive {drive} busy writing"),
    }
}

/// Reads `ext` straight off column `column`'s drive, counting it as a
/// direct read and stamping its span(s).
#[allow(clippy::too_many_arguments)]
fn read_direct(
    shelf: &mut Shelf,
    info: &SegmentInfo,
    layout: &SegmentLayout,
    stats: &mut ArrayStats,
    ext: &Extent,
    column: usize,
    via: Via,
    now: Nanos,
    trace: Option<&mut OpTrace>,
) -> Result<(Vec<u8>, Nanos)> {
    let au = info.columns[column];
    let off = layout.wu_byte_offset(au.index, ext.stripe, ext.within);
    let dr = shelf.read_drive(au.drive, off, ext.len, now)?;
    stats.direct_reads += 1;
    stats.read_queueing.record(dr.queued);
    stats.read_service.record(dr.service);
    stats
        .direct_read_latency
        .record(dr.done.saturating_sub(now));
    if let Some(tr) = trace {
        stamp_drive_read(tr, &dr, au.drive, now, via);
    }
    Ok((dr.data, dr.done))
}

/// Reads one extent of a segment as [`plan_rebuild`] decides: off one
/// column's drive, or rebuilt from `k` other columns via Reed-Solomon. A
/// direct read that meets a media error falls through to the rebuild; a
/// rebuild that finds too few readable columns falls back to waiting on
/// the busy drive.
#[allow(clippy::too_many_arguments)]
pub(crate) fn read_extent(
    shelf: &mut Shelf,
    info: &SegmentInfo,
    layout: &SegmentLayout,
    rs: &ReedSolomon,
    read_around: bool,
    stats: &mut ArrayStats,
    ext: &Extent,
    now: Nanos,
    mut trace: Option<&mut OpTrace>,
) -> Result<(Vec<u8>, Nanos)> {
    let au = info.columns[ext.column];
    let k = layout.k;
    let failed = shelf.drive(au.drive).is_failed();
    let mut media_error = false;
    let sources = match plan_rebuild(shelf, info, layout, read_around, ext, now) {
        ReadPlan::Rebuild(sources) => sources,
        ReadPlan::Direct(column) => {
            let via = if column == ext.column {
                Via::Own
            } else {
                Via::Mirror
            };
            let read = read_direct(
                shelf,
                info,
                layout,
                stats,
                ext,
                column,
                via,
                now,
                trace.as_deref_mut(),
            );
            if read.is_ok() {
                return read;
            }
            // A corrupt page: rebuild below, from columns other than the
            // copy that just failed. Only the extent's own column failing
            // rules out the fallback read of it.
            media_error = via == Via::Own;
            let mut sources = rebuild_sources(shelf, info, layout, ext, now);
            sources.retain(|&(_, c)| c != column);
            sources
        }
    };

    // Reconstruct from the k other columns that deliver soonest. A
    // column's bytes past what it holds on flash are zeros, read from
    // nowhere; only the device reads count.
    let mut available: Vec<(usize, Vec<u8>)> = Vec::with_capacity(k);
    let mut reads = 0u64;
    // The source read that arrives last, and its drive.
    let mut crit: Option<(purity_ssd::DeviceRead, DriveId)> = None;
    for (_, c) in sources {
        if available.len() == k {
            break;
        }
        let span = span_on_flash(info, layout, c, ext);
        let mut bytes = Vec::new();
        if span > 0 {
            let cau = info.columns[c];
            let coff = layout.wu_byte_offset(cau.index, ext.stripe, ext.within);
            let Ok(mut dr) = shelf.read_drive(cau.drive, coff, span, now) else {
                continue;
            };
            reads += 1;
            bytes = std::mem::take(&mut dr.data);
            if crit.as_ref().is_none_or(|(worst, _)| dr.done > worst.done) {
                crit = Some((dr, cau.drive));
            }
        }
        bytes.resize(ext.len, 0);
        available.push((c, bytes));
    }
    if available.len() >= k {
        let done = crit.as_ref().map_or(now, |(dr, _)| dr.done);
        let refs: Vec<(usize, &[u8])> = available.iter().map(|(c, b)| (*c, b.as_slice())).collect();
        let rebuilt = rs
            .reconstruct_one(ext.column, &refs)
            .map_err(|e| PurityError::DataLoss(format!("reconstruction failed: {}", e)))?;
        stats.reconstructed_reads += 1;
        stats.reconstruction_extra_reads += reads.saturating_sub(1);
        stats
            .reconstructed_read_latency
            .record(done.saturating_sub(now));
        if let (Some(tr), Some((crit, crit_drive))) = (trace.as_deref_mut(), &crit) {
            let why = if failed {
                format!("drive {} failed", au.drive)
            } else if media_error {
                format!("media error on drive {}", au.drive)
            } else {
                read_around_cause(shelf, info, layout, ext, now)
            };
            let from = if reads == k as u64 {
                format!("{k} columns")
            } else {
                format!("{reads} columns read and {} padding", k as u64 - reads)
            };
            let note = format!("{why}; rebuilt column {} from {from}", ext.column);
            stamp_reconstruct(tr, crit, *crit_drive, now, note);
        }
        return Ok((rebuilt, done));
    }

    // Not enough healthy columns to rebuild. If we only came here to
    // dodge a *busy* drive, fall back to queueing behind it — slower, but
    // available (the scheduler is an optimization, not a requirement).
    let mut fallback_err = String::new();
    if !failed && !media_error {
        let column = ext.column;
        match read_direct(
            shelf,
            info,
            layout,
            stats,
            ext,
            column,
            Via::Fallback,
            now,
            trace,
        ) {
            Ok(read) => return Ok(read),
            Err(e) => fallback_err = format!("; fallback: {}", e),
        }
    }
    Err(PurityError::Unavailable(format!(
        "only {} of {} columns readable for segment {:?} (target column {}, drive {}{}{})",
        available.len(),
        k,
        info.id,
        ext.column,
        au.drive,
        if failed {
            ", failed"
        } else if media_error {
            ", media error"
        } else {
            ", busy"
        },
        fallback_err
    )))
}

/// A fetched cblock.
pub(crate) struct Fetched {
    /// The decoded payload.
    pub payload: Arc<Vec<u8>>,
    /// The stored (encoded) bytes `payload` was decoded from. `None` on
    /// a cache hit, which reads no device.
    pub stored: Option<Vec<u8>>,
    /// Completion time.
    pub done: Nanos,
}

/// The fetch path's borrow of the controller — everything a cblock
/// fetch touches. It is also the dedup engine's view of stored blocks,
/// which is why the engine is not part of it.
pub(crate) struct CtrlFetcher<'a> {
    shelf: &'a mut Shelf,
    cache: &'a mut RamCache<Pba>,
    segments: &'a BTreeMap<u64, SegmentInfo>,
    writers: &'a [SegmentWriter; 2],
    n_hot: DriveId,
    read_around: bool,
    stats: &'a mut ArrayStats,
    now: Nanos,
    /// Whether a cblock read from a device is put in the cache. Every
    /// fetch looks the cache up; only a move's fetch admits nothing —
    /// its entry would be keyed by an address no reference keeps, and
    /// could only evict entries host reads hit.
    admit: bool,
}

impl CtrlFetcher<'_> {
    /// Fetches and decodes the cblocks at `pbas`, in ascending order as a
    /// read plan holds them, and returns one [`Fetched`] for each, in
    /// that order. Each cblock is looked up in the cache once. The ones
    /// it misses go to their segment in *runs*: consecutive misses in one
    /// segment, each starting no later than the page after the run's last
    /// byte. A run is read as one byte range (open-segment pending buffer
    /// → flash) and each cblock decoded from its own slice, so a page
    /// that `n` adjacent cblocks share is read once, not `n` times in
    /// series on one die — and a run reads no page that fetching its
    /// cblocks one by one would not have read.
    fn fetch_run(&mut self, pbas: &[Pba], mut trace: Option<&mut OpTrace>) -> Result<Vec<Fetched>> {
        let now = self.now;
        let mut out = Vec::with_capacity(pbas.len());
        // The misses not yet read: `pbas[run]`.
        let mut run = 0..0;
        for (i, pba) in pbas.iter().enumerate() {
            let hit = self.cache.get(pba);
            if hit.is_some() || (!run.is_empty() && !self.adjoins(&pbas[run.end - 1], pba)) {
                self.read_run(&pbas[run], &mut out, trace.as_deref_mut())?;
                run = i..i;
            }
            let Some(payload) = hit else {
                run.end = i + 1;
                continue;
            };
            run = i + 1..i + 1;
            self.stats.cache_reads += 1;
            if let Some(tr) = trace.as_deref_mut() {
                tr.stage("cache_hit", now, now);
            }
            out.push(Fetched {
                payload,
                stored: None,
                done: now,
            });
        }
        self.read_run(&pbas[run], &mut out, trace)?;
        Ok(out)
    }

    /// Whether `next` may extend a run that ends with `last`: same
    /// segment, and starting no later than the page after `last`'s final
    /// byte, in the segment's class's page size.
    fn adjoins(&self, last: &Pba, next: &Pba) -> bool {
        let Some(info) = self.segments.get(&last.segment.0) else {
            return false;
        };
        let page = self.writers[info.class(self.n_hot)].page_size() as u64;
        let end = last.offset + u64::from(last.stored_len);
        next.segment == last.segment && next.offset <= end.next_multiple_of(page)
    }

    /// Reads one run (see [`CtrlFetcher::fetch_run`]) and appends its
    /// decoded cblocks to `out`, each admitted to the cache unless this
    /// fetch is a move's. A cblock that does not decode is data loss at
    /// its own address.
    fn read_run(
        &mut self,
        run: &[Pba],
        out: &mut Vec<Fetched>,
        trace: Option<&mut OpTrace>,
    ) -> Result<()> {
        let (Some(first), Some(last)) = (run.first(), run.last()) else {
            return Ok(());
        };
        let start = first.offset;
        let len = (last.offset + u64::from(last.stored_len) - start) as usize;
        let (mut raw, done) = self.read_stored(first.segment, start, len, run.len(), trace)?;
        for pba in run {
            let at = (pba.offset - start) as usize;
            let stored = &raw[at..at + pba.stored_len as usize];
            let payload = Arc::new(purity_compress::decompress(stored).map_err(|e| {
                PurityError::DataLoss(format!("cblock decode at {:?}: {}", pba, e))
            })?);
            if self.admit {
                self.cache.put(*pba, payload.clone());
            }
            // A run of one is its cblock's bytes: relocation copies none.
            let stored = if run.len() == 1 {
                std::mem::take(&mut raw)
            } else {
                stored.to_vec()
            };
            out.push(Fetched {
                payload,
                stored: Some(stored),
                done,
            });
        }
        Ok(())
    }

    /// Reads `len` stored bytes at data-space `offset` of `segment`, in
    /// either class; `cblocks` is how many cblocks the range holds (a
    /// cold read counts each). A range in an open segment may straddle
    /// the flush boundary: head bytes already on flash, tail still in the
    /// pending DRAM buffer. The flash part is read write unit by write
    /// unit, each extent planned on its own.
    fn read_stored(
        &mut self,
        segment: SegmentId,
        offset: u64,
        len: usize,
        cblocks: usize,
        mut trace: Option<&mut OpTrace>,
    ) -> Result<(Vec<u8>, Nanos)> {
        let now = self.now;
        let miss = |what: &str| PurityError::Internal(format!("{what} at {segment:?}+{offset}"));
        let info = (self.segments.get(&segment.0))
            .ok_or_else(|| PurityError::Internal(format!("unknown segment {segment:?}")))?;
        let class = info.class(self.n_hot);
        let writer = &self.writers[class];
        let flash_len = match writer.flushed_boundary(segment) {
            Some(boundary) => (boundary.saturating_sub(offset) as usize).min(len),
            None => len,
        };
        if flash_len == 0 {
            let bytes = writer
                .read_pending(segment, offset, len)
                .ok_or_else(|| miss("pending read miss"))?;
            if let Some(tr) = trace.as_deref_mut() {
                tr.stage("pending_buffer", now, now);
            }
            return Ok((bytes, now));
        }
        // Reading around a write buys latency for the op that waits on
        // the read. A fetch that carries no op's trace — GC or tier
        // relocation, dedup verification — has nobody waiting: a rebuild
        // would spend k reads to save time no one is counting.
        let read_around = self.read_around && trace.is_some();
        // A cold read is charged to the tier, one span for all of it.
        let mut extent_trace = if class == HOT {
            trace.as_deref_mut()
        } else {
            None
        };
        // The first extent's bytes become the buffer: most runs are one
        // extent, and need no second copy.
        let mut buf = Vec::new();
        let mut done = now;
        for ext in writer.layout().data_extents(offset, flash_len) {
            let (bytes, t) = read_extent(
                self.shelf,
                info,
                writer.layout(),
                writer.rs(),
                read_around,
                self.stats,
                &ext,
                now,
                extent_trace.as_deref_mut(),
            )?;
            done = done.max(t);
            if buf.is_empty() {
                buf = bytes;
            } else {
                buf.extend_from_slice(&bytes);
            }
        }
        if class == COLD {
            self.stats.cold_reads += cblocks as u64;
            if let Some(tr) = trace {
                tr.stage("cold_read", now, done);
            }
        }
        if flash_len < len {
            let tail = writer
                .read_pending(segment, offset + flash_len as u64, len - flash_len)
                .ok_or_else(|| miss("pending tail miss"))?;
            buf.extend_from_slice(&tail);
        }
        Ok((buf, done))
    }

    fn payload(&mut self, pba: &Pba) -> Option<Arc<Vec<u8>>> {
        let mut fetched = self.fetch_run(std::slice::from_ref(pba), None).ok()?;
        Some(fetched.remove(0).payload)
    }
}

impl BlockFetcher<BlockLoc> for CtrlFetcher<'_> {
    fn fetch(&mut self, loc: &BlockLoc, delta: i64) -> Option<Vec<u8>> {
        let sector = (loc.sector as i64).checked_add(delta)?;
        if sector < 0 {
            return None;
        }
        let payload = self.payload(&loc.pba)?;
        let start = sector as usize * SECTOR;
        (start + SECTOR <= payload.len()).then(|| payload[start..start + SECTOR].to_vec())
    }

    fn displace(&self, loc: &BlockLoc, delta: i64) -> Option<BlockLoc> {
        let sector = (loc.sector as i64).checked_add(delta)?;
        // Bounded by the cblock's payload; fetch() enforces the upper
        // bound against actual payload length.
        (0..=u16::MAX as i64).contains(&sector).then_some(BlockLoc {
            pba: loc.pba,
            sector: sector as u16,
        })
    }

    fn matches(&mut self, loc: &BlockLoc, delta: i64, expect: &[u8]) -> Option<bool> {
        let sector = (loc.sector as i64).checked_add(delta)?;
        if sector < 0 {
            return None;
        }
        let payload = self.payload(&loc.pba)?;
        let start = sector as usize * SECTOR;
        (start + SECTOR <= payload.len()).then(|| &payload[start..start + SECTOR] == expect)
    }
}
