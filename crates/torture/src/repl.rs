//! Crash-during-replication torture: a seeded two-array campaign that
//! crashes the *destination* mid-ship (and optionally loses the source
//! outright) and holds the replica to the consistency contract.
//!
//! The contract is narrower than the single-array durability oracle
//! and absolute: **every snapshot in a protection group's lineage —
//! and therefore anything promotion can produce — is bit-exact some
//! fully-acked source snapshot.** The replica *volume's anchor* may
//! hold a torn, half-shipped delta after a crash; no lineage snapshot
//! ever may. A run is a pure function of its [`ReplCampaignSpec`].
//!
//! The oracle models the source volume; each completed ship freezes that
//! model as an oracle snapshot keyed by the *destination* snapshot the
//! ship produced, so "the replica is some fully-acked source snapshot"
//! is the oracle's ordinary frozen-snapshot check read through the
//! destination.

use crate::campaign::final_checks;
use crate::oracle::DurabilityOracle;
use crate::shrink::{halvings, Campaign, Field};
use purity_core::{
    ArrayConfig, CrashTarget, FlashArray, PowerLossSpec, SnapshotId, VolumeId, SECTOR,
};
use purity_repl::{LinkConfig, ReplFabric, ReplicaLink, ShipReport};
use purity_sim::{MS, SEC};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything that determines a replication campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplCampaignSpec {
    /// Seed for the op mix, crash staging, and the link flap schedule.
    pub seed: u64,
    /// Delta rounds shipped (each: writes, ship, verify).
    pub rounds: usize,
    /// After the rounds, lose the source mid-transfer, promote the
    /// replica, verify it, then recover the source and reprotect.
    pub crash_source: bool,
    /// Test-only sabotage: the first image shipped differs from the
    /// acked source state by one sector the oracle never saw written. A
    /// correct contract MUST flag this run.
    pub sabotage: bool,
}

/// What a replication campaign did.
#[derive(Debug, Clone, Default)]
pub struct ReplCampaignOutcome {
    /// Consistency violations; empty means the contract held.
    pub violations: Vec<String>,
    /// Destination power losses injected mid-ship.
    pub dst_crashes: u64,
    /// Transfers that resumed from a persisted cursor past chunk 0.
    pub cursor_resumes: u64,
    /// Wire retransmissions across the campaign.
    pub retransmits: u64,
    /// Ships that ran to completion.
    pub ships_completed: u64,
    /// Whether the promote-after-source-loss drill ran and verified.
    pub promoted_ok: bool,
}

const VOLUME_BYTES: usize = 2 << 20;

/// Run state: the two arrays, the fabric between them, the oracle.
struct Drill {
    src: FlashArray,
    dst: FlashArray,
    fabric: ReplFabric,
    pg: u64,
    vol: VolumeId,
    oracle: DurabilityOracle,
    /// The destination snapshot of every completed ship, oldest first:
    /// index-aligned with the group's lineage.
    shipped: Vec<SnapshotId>,
    /// The sabotage has yet to be staged.
    sabotage: bool,
    out: ReplCampaignOutcome,
}

impl Drill {
    fn new(spec: &ReplCampaignSpec) -> Result<Self, String> {
        let bring_up = |what: &str| {
            FlashArray::new(ArrayConfig::test_small())
                .map_err(|e| format!("{what} bring-up failed: {e:?}"))
        };
        let (mut src, dst) = (bring_up("source")?, bring_up("destination")?);
        let vol = src
            .create_volume("prod", VOLUME_BYTES as u64)
            .map_err(|e| format!("create_volume failed: {e:?}"))?;
        let mut oracle = DurabilityOracle::new();
        oracle.create_volume(vol, VOLUME_BYTES as u64);

        // Link personality varies by seed: some campaigns flap gently
        // (retransmits), some brutally (stalls + resumes on top of the
        // injected crashes).
        let mean_down = MS * (4 + (spec.seed % 3) * 150);
        let cfg = LinkConfig::flaky(50 << 20, spec.seed, 50 * MS, mean_down);
        let mut fabric = ReplFabric::new(ReplicaLink::with_config(cfg));
        let pg = fabric
            .protect(&src, vol, "prod", SEC)
            .map_err(|e| format!("protect failed: {e:?}"))?;
        Ok(Drill {
            src,
            dst,
            fabric,
            pg,
            vol,
            oracle,
            shipped: Vec::new(),
            sabotage: spec.sabotage,
            out: ReplCampaignOutcome::default(),
        })
    }

    /// One source write through the oracle; a refusal is a violation.
    fn write(&mut self, off: usize, data: &[u8]) {
        let (vol, src) = (self.vol, &mut self.src);
        let acked = self
            .oracle
            .write_through(vol, (off / SECTOR) as u64, data, || {
                src.write(vol, off as u64, data)
            });
        if let Err(e) = acked {
            self.out.violations.push(format!(
                "source write at sector {} failed: {e:?}",
                off / SECTOR
            ));
            let settled = self.oracle.settle(&mut self.src);
            self.out.violations.extend(settled);
        }
    }

    /// Starts or resumes the group's ship. Before the campaign's first,
    /// a sabotaged run slips one sector into the source that the oracle
    /// never sees written.
    fn ship(&mut self) -> purity_core::Result<ShipReport> {
        if std::mem::take(&mut self.sabotage) {
            let last = (VOLUME_BYTES - SECTOR) as u64;
            let _ = self.src.write(self.vol, last, &[0xA5; SECTOR]);
        }
        self.fabric.ship_now(self.pg, &mut self.src, &mut self.dst)
    }

    /// Whether a ship has completed since the last one noted; if so its
    /// destination snapshot must hold the source as the oracle has it.
    fn note_completed_ship(&mut self) -> bool {
        let lineage = self.fabric.group(self.pg).map(|g| g.lineage.as_slice());
        match lineage {
            Some(l) if l.len() == self.shipped.len() + 1 => {
                let tip = l[l.len() - 1].dst_snapshot;
                self.oracle.snapshot(tip, self.vol);
                self.shipped.push(tip);
                true
            }
            _ => false,
        }
    }

    /// `image` must be the source as the last completed ship froze it.
    fn check_against_tip(&mut self, what: &str, image: purity_core::Result<Vec<u8>>) -> bool {
        let Some(&tip) = self.shipped.last() else {
            return true;
        };
        let bad = match image {
            Ok(got) => self.oracle.check_snapshot_read(tip, 0, &got, what),
            Err(e) => vec![format!("{what} unreadable: {e:?}")],
        };
        let ok = bad.is_empty();
        self.out.violations.extend(bad);
        ok
    }

    /// The lineage has one entry per completed ship, its tip is
    /// bit-exact the acked source snapshot, and its mediums stack.
    fn verify_lineage_tip(&mut self, when: &str) {
        let entries = self.fabric.group(self.pg).map_or(0, |g| g.lineage.len());
        if entries != self.shipped.len() {
            self.out.violations.push(format!(
                "{when}: lineage has {entries} entries, {} ships completed",
                self.shipped.len()
            ));
            return;
        }
        if let Some(&tip) = self.shipped.last() {
            let image = self.dst.read_snapshot(tip, 0, VOLUME_BYTES);
            self.check_against_tip(&format!("{when}: lineage tip"), image);
        }
        for p in self.fabric.verify_lineage(self.pg, &self.dst) {
            self.out.violations.push(format!("{when}: {p}"));
        }
    }

    /// Cold-starts the destination after an injected crash and checks the
    /// contract *before* anything resumes: the lineage must still be
    /// consistent, the torn delta confined to the replica volume's
    /// anchor.
    fn recover_destination(&mut self, when: &str) -> Result<(), String> {
        self.out.dst_crashes += 1;
        self.dst
            .power_loss(PowerLossSpec::default())
            .map_err(|e| format!("{when}: destination recovery failed: {e:?}"))?;
        for p in self.dst.verify_integrity() {
            self.out.violations.push(format!("{when}: {p}"));
        }
        self.verify_lineage_tip(when);
        Ok(())
    }

    /// The campaign proper. `Err` is a violation nothing can follow.
    fn run(&mut self, spec: &ReplCampaignSpec, rng: &mut StdRng) -> Result<(), String> {
        for round in 0..spec.rounds {
            // Mutate the source.
            let writes = if round == 0 {
                8
            } else {
                2 + rng.gen_range(0..4)
            };
            for _ in 0..writes {
                let len = SECTOR << rng.gen_range(0..8u32);
                let off = rng.gen_range(0..(VOLUME_BYTES - len) / SECTOR) * SECTOR;
                let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                self.write(off, &data);
            }
            self.src.advance(5 * MS);

            // Stage a destination crash on most rounds: power dies mid
            // NVRAM-append or mid segment-flush while replica chunks land.
            if rng.gen_bool(0.7) {
                let target = if rng.gen_bool(0.5) {
                    CrashTarget::NvramAppend
                } else {
                    CrashTarget::SegmentWrite
                };
                let after = rng.gen_range(2..10);
                let keep = rng.gen_range(1..512);
                self.dst.arm_power_loss(target, after, keep);
            }

            // Drive the ship to completion through crashes and flaps.
            let mut guard = 0;
            loop {
                let report = match self.ship() {
                    Ok(r) => r,
                    Err(e) => {
                        if self.dst.powered() {
                            self.out
                                .violations
                                .push(format!("round {round}: ship failed on live arrays: {e:?}"));
                            break;
                        }
                        // The crash tripped outside the transfer loop (e.g.
                        // while snapshotting the replica) — recover below.
                        ShipReport::default()
                    }
                };
                self.out.retransmits = self.fabric.stats().retransmits;
                if report.resumed_from_chunk > 0 {
                    self.out.cursor_resumes += 1;
                }
                if report.completed && self.note_completed_ship() {
                    break;
                }
                if !self.dst.powered() {
                    self.recover_destination(&format!("round {round} post-crash"))?;
                }
                self.src.advance(100 * MS);
                guard += 1;
                if guard > 300 {
                    return Err(format!("round {round}: transfer never completed"));
                }
            }
            self.verify_lineage_tip(&format!("round {round}"));
            self.src.advance(20 * MS);
        }
        self.out.ships_completed = self.fabric.stats().ships_completed;

        // A trigger still armed would fire inside the DR drill below, which
        // exercises source loss: a clean destination power cycle disarms
        // it, and is one more crash the lineage must survive.
        if self.dst.power_loss_armed() {
            self.recover_destination("post-rounds")?;
        }

        if !spec.crash_source {
            return Ok(());
        }
        // One more delta gets under way; the source dies before (or
        // while) it completes. Whatever was mid-flight must not leak
        // into what promotion produces.
        let data: Vec<u8> = (0..64 * 1024).map(|_| rng.gen()).collect();
        self.write(0, &data);
        let _ = self.ship(); // may stall or complete
        self.note_completed_ship();
        self.src.cut_power();
        if self.shipped.is_empty() {
            // Nothing ever completed: there is no replica to promote.
            return Ok(());
        }

        match self.fabric.promote(self.pg, &mut self.dst) {
            Ok(promoted) => {
                let image = self.dst.read(promoted, 0, VOLUME_BYTES).map(|(got, _)| got);
                self.out.promoted_ok = self.check_against_tip("promoted volume", image);
            }
            Err(e) => self.out.violations.push(format!("promotion failed: {e:?}")),
        }

        // The old source recovers; reprotect ships the surviving state
        // back and the reverse replica must match the promoted volume.
        self.src
            .power_loss(PowerLossSpec::default())
            .map_err(|e| format!("source recovery failed: {e:?}"))?;
        let (back_pg, mut report) = self
            .fabric
            .reprotect(self.pg, &mut self.dst, &mut self.src)
            .map_err(|e| format!("reprotect failed: {e:?}"))?;
        let mut guard = 0;
        while !report.completed {
            self.dst.advance(100 * MS);
            report = self
                .fabric
                .resume(back_pg, &mut self.dst, &mut self.src)
                .map_err(|e| format!("reprotect resume failed: {e:?}"))?;
            guard += 1;
            if guard > 300 {
                return Err("reprotect never completed".into());
            }
        }
        let back = self.fabric.group(back_pg).and_then(|g| g.replica_volume);
        let back = back.ok_or("reprotect completed without a reverse replica")?;
        let image = self.src.read(back, 0, VOLUME_BYTES).map(|(got, _)| got);
        self.check_against_tip("reverse replica", image);
        Ok(())
    }
}

/// Runs one seeded crash-during-replication campaign.
fn run(spec: &ReplCampaignSpec) -> ReplCampaignOutcome {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5EED_5EED);
    let mut d = match Drill::new(spec) {
        Ok(d) => d,
        Err(fatal) => {
            return ReplCampaignOutcome {
                violations: vec![fatal],
                ..Default::default()
            }
        }
    };
    if let Err(fatal) = d.run(spec, &mut rng) {
        d.out.violations.push(fatal);
    }
    for (who, a) in [("source: ", &d.src), ("destination: ", &d.dst)] {
        d.out.violations.extend(final_checks(who, a));
    }
    d.out.retransmits = d.fabric.stats().retransmits;
    d.out
}

impl Campaign for ReplCampaignSpec {
    const KIND: &'static str = "repl";
    type Outcome = ReplCampaignOutcome;

    fn from_seed(seed: u64) -> Self {
        Self {
            seed,
            rounds: 4,
            crash_source: true,
            sabotage: false,
        }
    }

    fn run(&self) -> ReplCampaignOutcome {
        run(self)
    }

    fn violations(outcome: &ReplCampaignOutcome) -> &[String] {
        &outcome.violations
    }

    /// Fewer delta rounds first, then without the source-loss drill.
    fn smaller(&self) -> Vec<Self> {
        let mut out: Vec<Self> = halvings(self.rounds)
            .map(|rounds| Self { rounds, ..*self })
            .collect();
        if self.crash_source {
            out.push(Self {
                crash_source: false,
                ..*self
            });
        }
        out
    }

    fn fields(&mut self) -> Vec<(&'static str, &mut dyn Field)> {
        vec![
            ("seed", &mut self.seed),
            ("rounds", &mut self.rounds),
            ("crash_source", &mut self.crash_source),
            ("sabotage", &mut self.sabotage),
        ]
    }
}
