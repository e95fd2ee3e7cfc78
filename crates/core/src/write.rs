//! The write path (§4.6–4.8): NVRAM commit, the reduction pipeline
//! (dedup → pack → compress), cblock placement, and segment open / seal.

use crate::controller::{Ack, Controller, MapVal, CPU_OVERHEAD_NS};
use crate::error::{PurityError, Result};
use crate::records::encode_intent_parts;
use crate::segment::{Append, SegmentInfo, COLD, HOT};
use crate::shelf::Shelf;
use crate::types::{BlockLoc, DriveId, MediumId, Pba, SegmentId, VolumeId, SECTOR};
use purity_dedup::engine::Outcome;
use purity_dedup::hash::block_hash;
use purity_lsm::Seq;
use purity_obs::OpTrace;
use purity_sim::Nanos;

/// The stored form of a cblock payload. A pure function of its input —
/// relocation rests on that: re-encoding what a stored cblock decodes to
/// gives back the stored bytes, so an unchanged cblock moves as a copy.
pub fn encode_cblock(payload: &[u8], compression: bool) -> Vec<u8> {
    if compression {
        purity_compress::compress(payload)
    } else {
        purity_compress::store_raw(payload)
    }
}

impl Controller {
    /// Writes `data` at `offset` of `volume`. Acknowledged at NVRAM
    /// persistence (Figure 4); segment flushes happen in the background
    /// of virtual time. With an upstream `trace`, the array-plane spans
    /// are absorbed into it and the op is *not* finished here — the
    /// initiator (host engine / cluster) owns the end-to-end trace and
    /// finishes it at ack delivery.
    pub(crate) fn write(
        &mut self,
        shelf: &mut Shelf,
        volume: VolumeId,
        offset: u64,
        data: &[u8],
        now: Nanos,
        trace: Option<&mut OpTrace>,
    ) -> Result<Ack> {
        purity_obs::profile_scope!(purity_obs::Plane::ArrayWrite);
        let vol = self
            .volumes
            .get(&volume.0)
            .ok_or(PurityError::NoSuchVolume)?;
        if !offset.is_multiple_of(SECTOR as u64)
            || !data.len().is_multiple_of(SECTOR)
            || data.is_empty()
        {
            return Err(PurityError::BadRequest(
                "writes must be whole sectors".into(),
            ));
        }
        if offset + data.len() as u64 > vol.size_sectors * SECTOR as u64 {
            return Err(PurityError::BadRequest("write beyond end of volume".into()));
        }
        let medium = vol.anchor;
        // §4.6: size cblocks to match this volume's observed writes.
        let cblock_bytes = vol.inferred_cblock_bytes(self.cfg.max_cblock_bytes);
        if let Some(v) = self.volumes.get_mut(&volume.0) {
            v.observe_write(data.len());
        }
        let mut op = OpTrace::new("write", now);
        let dedup_before = self.stats.dedup_bytes_saved;
        let compress_before = self.stats.compress_bytes_saved;
        let stored_before = self.stats.physical_bytes_stored;
        let mut start_sector = offset / SECTOR as u64;
        let mut ack_at = now;
        for chunk in data.chunks(cblock_bytes) {
            let seq = self.seq.next();
            let (idx, t) = self.nvram_append(
                shelf,
                &encode_intent_parts(seq, medium, start_sector, chunk),
                now,
            )?;
            self.last_nvram_index = Some(idx);
            ack_at = ack_at.max(t);
            self.apply_write(shelf, medium, start_sector, chunk, seq, now)?;
            start_sector += (chunk.len() / SECTOR) as u64;
        }
        self.stats.logical_bytes_written += data.len() as u64;
        let latency = ack_at.saturating_sub(now) + CPU_OVERHEAD_NS;
        self.stats.write_latency.record(latency);
        // Span breakdown: the ack is bound by NVRAM persistence; the
        // reduction pipeline runs in zero virtual time (CPU stages), and
        // segment flushes happen behind the ack. Zero-duration spans
        // carry the pipeline's attribution for slow-op captures.
        op.stage("nvram_commit", now, ack_at);
        op.stage_note(
            "dedup",
            ack_at,
            ack_at,
            format!("saved {} B", self.stats.dedup_bytes_saved - dedup_before),
        );
        op.stage_note(
            "compress",
            ack_at,
            ack_at,
            format!(
                "saved {} B",
                self.stats.compress_bytes_saved - compress_before
            ),
        );
        op.stage_note(
            "segment_fill",
            ack_at,
            ack_at,
            format!(
                "placed {} B",
                self.stats.physical_bytes_stored - stored_before
            ),
        );
        op.stage("cpu", ack_at, ack_at + CPU_OVERHEAD_NS);
        match trace {
            Some(t) => t.absorb(op),
            None => {
                self.obs.tracer.finish(op, now + latency);
            }
        }
        self.maybe_background(shelf, now)?;
        Ok(Ack { latency })
    }

    /// The internal write pipeline: dedup → pack → compress → place →
    /// map facts. Shared by the foreground path and recovery replay
    /// (which is what makes replay idempotent at the fact level).
    pub(crate) fn apply_write(
        &mut self,
        shelf: &mut Shelf,
        medium: MediumId,
        start_sector: u64,
        chunk: &[u8],
        seq: Seq,
        now: Nanos,
    ) -> Result<()> {
        let n = chunk.len() / SECTOR;
        let outcomes = if self.cfg.dedup_enabled {
            let (dedup, mut fetcher) = self.fetcher(shelf, now);
            dedup.process(chunk, &mut fetcher)
        } else {
            vec![Outcome::Unique; n]
        };

        // Pack unique sectors into the cblock payload.
        let mut payload = Vec::with_capacity(chunk.len());
        let mut packed_index = vec![u16::MAX; n];
        for (i, o) in outcomes.iter().enumerate() {
            if matches!(o, Outcome::Unique) {
                packed_index[i] = (payload.len() / SECTOR) as u16;
                payload.extend_from_slice(&chunk[i * SECTOR..(i + 1) * SECTOR]);
            }
        }
        let dup_sectors = n - payload.len() / SECTOR;
        self.stats.dedup_bytes_saved += (dup_sectors * SECTOR) as u64;

        let pba = if payload.is_empty() {
            None
        } else {
            let encoded = encode_cblock(&payload, self.cfg.compression_enabled);
            if encoded.len() < payload.len() {
                self.stats.compress_bytes_saved += (payload.len() - encoded.len()) as u64;
            }
            self.stats.physical_bytes_stored += encoded.len() as u64;

            Some(self.place_cblock(shelf, HOT, &encoded, false, now)?.0)
        };

        // Map facts + dedup index records, batched into one LSM pass.
        let index = self.dedup.index_mut();
        let facts = outcomes.iter().enumerate().map(|(i, o)| {
            let sector = start_sector + i as u64;
            let (loc, deduped) = match o {
                Outcome::Unique => {
                    let pba = pba.expect("unique sectors imply a cblock");
                    let loc = BlockLoc {
                        pba,
                        sector: packed_index[i],
                    };
                    let h = block_hash(&chunk[i * SECTOR..(i + 1) * SECTOR]);
                    index.record_write(h, loc);
                    (loc, false)
                }
                Outcome::Dup { loc, .. } => (*loc, true),
            };
            ((medium.0, sector), MapVal { loc, deduped }, seq)
        });
        self.map.insert_many(facts);
        Ok(())
    }

    /// Appends an encoded cblock into `class`'s open segment, handling
    /// seal-and-reopen. Returns where it landed and when the stripe
    /// writes it completed (`now` while it waits in the stripe buffer).
    /// `use_reserve` lets GC/metadata dig into the reserved AU headroom
    /// that user writes and tier moves may not touch — §4.10's guard
    /// against "running out of space inside the garbage collector".
    pub(crate) fn place_cblock(
        &mut self,
        shelf: &mut Shelf,
        class: usize,
        encoded: &[u8],
        use_reserve: bool,
        now: Nanos,
    ) -> Result<(Pba, Nanos)> {
        for _ in 0..4 {
            if self.writers[class].open_segment().is_none() {
                self.open_new_segment(shelf, class, use_reserve, now)?;
            }
            let (result, t) = self.writers[class].append_data(shelf, encoded, now)?;
            self.sync_open_segment(class);
            match result {
                Append::Placed(pba) => return Ok((pba, t)),
                Append::Full => self.seal_open_segment(shelf, class, now)?,
            }
        }
        Err(PurityError::Internal(
            "could not place cblock after reopening".into(),
        ))
    }

    /// Keeps the in-memory segment table in sync with a writer: copies
    /// its open segment's fill counters into the entry made when it
    /// opened (nothing else about it changes until it seals).
    pub(crate) fn sync_open_segment(&mut self, class: usize) {
        let Some(open) = self.writers[class].open_segment() else {
            return;
        };
        let entry = self
            .segments
            .get_mut(&open.id.0)
            .expect("open_new_segment entered the open segment in the table");
        entry.data_bytes = open.data_bytes;
        entry.data_stripes = open.data_stripes;
        entry.log_stripes = open.log_stripes;
        entry.log_bytes = open.log_bytes;
    }

    pub(crate) fn seal_open_segment(
        &mut self,
        shelf: &mut Shelf,
        class: usize,
        now: Nanos,
    ) -> Result<()> {
        let seq = self.seq.next();
        if let Some((info, _t)) = self.writers[class].seal(shelf, seq, now)? {
            self.segments.insert(info.id.0, info);
        }
        Ok(())
    }

    /// AUs per drive held back for GC and metadata so a full array can
    /// always delete and collect its way out (§4.10).
    pub(crate) const RESERVE_AUS: usize = 3;

    /// Opens a new segment of `class`: picks its stripe width of the
    /// class's drives (rotating, skipping failed drives), allocating one
    /// AU each. Without `use_reserve`, drives whose available AUs are at
    /// or below the reserve are not eligible.
    pub(crate) fn open_new_segment(
        &mut self,
        shelf: &mut Shelf,
        class: usize,
        use_reserve: bool,
        now: Nanos,
    ) -> Result<()> {
        let layout = self.writers[class].layout();
        let width = layout.k + layout.m;
        let (first, n) = if class == HOT {
            (0, self.cfg.n_drives)
        } else {
            (self.cfg.n_drives, self.cfg.cold_drives)
        };
        // Frontier discipline: persist a fresh frontier (boot-region
        // write) if any drive's persisted set ran dry (§4.3). This never
        // trims NVRAM — a map patch may be mid-persist right now. The
        // cold pool persists no frontier.
        if self.allocators[class].any_needs_persist() {
            if class == HOT {
                self.persist_frontier(shelf, now)?;
            } else {
                self.allocators[COLD].build_persist_set();
            }
        }
        let start = (self.next_segment as usize) % n;
        let allocator = &mut self.allocators[class];
        let mut columns = Vec::with_capacity(width);
        for i in 0..n {
            let d: DriveId = first + (start + i) % n;
            if shelf.drive(d).is_failed() {
                continue;
            }
            if !use_reserve && allocator.available(d) <= Self::RESERVE_AUS {
                continue; // leave headroom for GC/metadata
            }
            if let Some(au) = allocator.allocate(d) {
                columns.push(au);
                if columns.len() == width {
                    break;
                }
            }
        }
        if columns.len() < width {
            // Return whatever we took.
            for au in columns {
                allocator.release(au);
            }
            return Err(PurityError::OutOfSpace);
        }
        let id = SegmentId(self.next_segment);
        self.next_segment += 1;
        let info = SegmentInfo::open(id, columns, self.seq.high_water() + 1);
        self.segments.insert(id.0, info.clone());
        if class == COLD {
            // In the durable segment table before a byte of it is
            // written: recovery learns cold segments from the checkpoint
            // alone and never probes a cold AU.
            self.persist_frontier(shelf, now)?;
        }
        self.writers[class].open_segment_on(shelf, info, now)?;
        Ok(())
    }
}
