//! The migrator tick walks the map once: each volume is resolved a single
//! time, whether or not cold data is in use — GC, not the tick, frees
//! cold space. Counted in `purity_obs::profiler` Lsm-plane events, which are
//! seed-exact: `resolve_range_entries` adds one per sector it resolves
//! and a relocation one per fact it repoints. The profiler is
//! process-global, so this is the only test in its binary.

use purity_core::{ArrayConfig, FlashArray};
use purity_obs::profiler;

const MS: u64 = 1_000_000;
const VOLUME_BYTES: usize = 256 * 1024;

fn lsm_events() -> u64 {
    profiler::snapshot().plane("lsm").map_or(0, |p| p.events)
}

#[test]
fn a_tick_resolves_each_volume_once() {
    let mut a = FlashArray::new(ArrayConfig::tiered()).unwrap();
    let busy = a.create_volume("busy", VOLUME_BYTES as u64).unwrap();
    let idle = a.create_volume("idle", VOLUME_BYTES as u64).unwrap();
    // Fully written, so every sector of both volumes resolves to a fact.
    for (vol, modulus) in [(busy, 251), (idle, 241)] {
        let data: Vec<u8> = (0..VOLUME_BYTES).map(|i| (i % modulus) as u8).collect();
        a.write(vol, 0, &data).unwrap();
    }
    a.read(idle, 0, 4096).unwrap();
    let sectors = 2 * (VOLUME_BYTES / 512) as u64;

    profiler::enable();
    let (mut quiet, mut demoting, mut settled) = (0, 0, 0);
    for _ in 0..40 {
        a.read(busy, 0, 8192).unwrap();
        let cold_in_use = a.stats().tier_demotions > 0;
        let inserts = a.metrics_snapshot().counter_total("lsm_inserts");
        let events = lsm_events();
        a.advance(50 * MS);
        let events = lsm_events() - events;
        let repointed = a.metrics_snapshot().counter_total("lsm_inserts") - inserts;
        if repointed > 0 {
            // The walk and the facts the move repointed — no second walk
            // of the volume that moved.
            assert_eq!(events, sectors + repointed, "demoting tick");
            demoting += 1;
        } else if cold_in_use {
            assert_eq!(events, sectors, "tick with cold data and nothing to move");
            settled += 1;
        } else {
            assert_eq!(events, sectors, "tick with nothing to move");
            quiet += 1;
        }
    }
    profiler::disable();
    assert!(
        quiet > 0 && demoting > 0 && settled > 0,
        "ticks seen: {quiet} quiet, {demoting} demoting, {settled} settled"
    );
    assert_eq!(a.read(idle, 4096, 8192).unwrap().0.len(), 8192);
    assert!(a.verify_integrity().is_empty());
}
