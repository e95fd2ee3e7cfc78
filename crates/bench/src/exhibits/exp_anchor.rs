//! E6 (§4.7): anchor-based dedup detects duplicate runs of >= 8 blocks
//! (4 KiB) regardless of alignment, despite sampling only every 8th hash.

use crate::Report;
use purity_dedup::engine::{BlockFetcher, DedupEngine, Outcome};
use purity_dedup::hash::block_hash;
use purity_dedup::index::DedupIndex;
use purity_dedup::DEDUP_BLOCK;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct MemStore {
    blocks: Vec<Vec<u8>>,
}

impl BlockFetcher<u64> for MemStore {
    fn fetch(&mut self, loc: &u64, delta: i64) -> Option<Vec<u8>> {
        let idx = (*loc as i64).checked_add(delta)?;
        self.blocks.get(usize::try_from(idx).ok()?).cloned()
    }
    fn displace(&self, loc: &u64, delta: i64) -> Option<u64> {
        let idx = (*loc as i64).checked_add(delta)?;
        (idx >= 0 && (idx as usize) < self.blocks.len()).then_some(idx as u64)
    }
}

pub fn run(_args: &[String], r: &mut Report) {
    let mut rng = StdRng::seed_from_u64(1);
    let original: Vec<u8> = (0..256 * DEDUP_BLOCK).map(|_| rng.gen()).collect();

    let mut rows = Vec::new();
    for run_blocks in [2usize, 4, 8, 16, 64] {
        // Average detection across every alignment offset 0..8.
        let mut total_detect = 0.0;
        for align in 0..8usize {
            let mut store = MemStore { blocks: Vec::new() };
            // Cold-data dedup: no recent-write window, so hits come only from
            // the 1-in-8 sampled index — the paper's sizing argument.
            let mut eng = DedupEngine::new(DedupIndex::new(0, 512));
            // Ingest the original.
            for o in eng.process(&original, &mut store) {
                assert!(matches!(o, Outcome::Unique));
            }
            for (i, b) in original.chunks(DEDUP_BLOCK).enumerate() {
                store.blocks.push(b.to_vec());
                eng.index_mut().record_write(block_hash(b), i as u64);
            }
            // A new stream embedding a duplicate run at `align` blocks in.
            let mut stream: Vec<u8> = (0..align * DEDUP_BLOCK).map(|_| rng.gen()).collect();
            // Vary the source position so short runs sample the 1-in-8
            // hit probability rather than one fixed outcome.
            let src = ((17 + align * 31) % 150) * DEDUP_BLOCK;
            stream.extend_from_slice(&original[src..src + run_blocks * DEDUP_BLOCK]);
            let outcomes = eng.process(&stream, &mut store);
            let dups = outcomes[align..]
                .iter()
                .filter(|o| matches!(o, Outcome::Dup { .. }))
                .count();
            total_detect += dups as f64 / run_blocks as f64;
        }
        rows.push(vec![
            format!(
                "{} blocks ({} KiB)",
                run_blocks,
                run_blocks * DEDUP_BLOCK / 1024
            ),
            format!("{:.0}%", 100.0 * total_detect / 8.0),
        ]);
    }
    r.table(
        "E6: duplicate-run detection vs run length (averaged over all 8 alignments)",
        &["Duplicate run length", "Blocks deduplicated"],
        &rows,
    );
    r.line("\npaper: 1-in-8 sampled hashes + anchor extension detect most runs of >= 8 blocks (4 KiB),");
    r.line("regardless of alignment; shorter runs may be missed — the accepted tradeoff (§4.7).");
}
