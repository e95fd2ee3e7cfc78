//! E7 (§4.10): elision vs tombstones. Deleting a snapshot-sized object is
//! one elide-table insert; space is reclaimed at the *next* merge, while
//! tombstones must sink through every LSM level before space returns.
//! Elide tables themselves stay bounded: dense keys collapse to ranges.

use crate::Report;
use purity_format::RangeTable;
use purity_lsm::{Pyramid, Seq};
use std::sync::Arc;

/// Tombstone baseline: deletion = inserting a tombstone fact; space for
/// a (key, value) pair returns only when a merge sees the tombstone and
/// the value in the SAME patch (i.e. after it sinks to the data's level).
fn tombstone_reclaim(n_keys: u64, merges_between: usize) -> (u64, usize) {
    // Value = Some(payload) | None (tombstone).
    let mut p: Pyramid<u64, Option<u64>> = Pyramid::with_thresholds(1024, 64);
    for k in 0..n_keys {
        p.insert(k, Some(k), k + 1);
    }
    p.flush();
    // Delete everything via tombstones: n_keys inserts.
    for (i, k) in (0..n_keys).enumerate() {
        p.insert(k, None, n_keys + 1 + i as u64);
    }
    p.flush();
    let writes = n_keys; // one tombstone per key
                         // Merges gradually drop superseded values, but tombstones themselves
                         // remain until the final full flatten.
    for _ in 0..merges_between {
        p.merge_oldest_pair();
    }
    p.flatten();
    // After flatten: newest fact per key is the tombstone (still stored!).
    (writes, p.total_facts())
}

/// Elision: deletion = one range-table insert; merge drops matching facts.
fn elision_reclaim(n_keys: u64) -> (u64, usize) {
    let mut p: Pyramid<u64, Option<u64>> = Pyramid::with_thresholds(1024, 64);
    for k in 0..n_keys {
        p.insert(k, Some(k), k + 1);
    }
    p.flush();
    let mut elide = RangeTable::new();
    elide.insert_range(0, n_keys - 1); // ONE insert deletes everything
    let elide = Arc::new(elide);
    let e = elide.clone();
    p.set_elide_filter(Arc::new(move |k: &u64, _s: Seq| e.contains(*k)));
    p.flatten(); // first merge reclaims everything
    (1, p.total_facts())
}

pub fn run(_args: &[String], r: &mut Report) {
    let n = 50_000u64;
    let (t_writes, t_facts) = tombstone_reclaim(n, 8);
    let (e_writes, e_facts) = elision_reclaim(n);
    let rows = vec![
        vec![
            "tombstones".to_string(),
            format!("{}", t_writes),
            format!("{}", t_facts),
            "tombstones persist until they sink to the bottom level".to_string(),
        ],
        vec![
            "elision".to_string(),
            format!("{}", e_writes),
            format!("{}", e_facts),
            "one predicate insert; facts dropped at the first merge".to_string(),
        ],
    ];
    r.table(
        &format!("E7: deleting {} keys — tombstones vs elision", n),
        &[
            "Mechanism",
            "Delete writes",
            "Facts left after merges",
            "Notes",
        ],
        &rows,
    );

    // Elide-table boundedness: dense monotone keys collapse to one range
    // regardless of arrival order (§4.10).
    let mut table = RangeTable::new();
    use rand::seq::SliceRandom;
    let mut keys: Vec<u64> = (0..100_000).collect();
    keys.shuffle(&mut rand::rngs::ThreadRng::default());
    for k in keys {
        table.insert(k);
    }
    r.line(format!(
        "\nelide-table boundedness: 100,000 random-order deletions collapse to {} range(s)",
        table.range_count()
    ));
    r.line("sequence numbers are never reused, so elide entries never need removal (§4.10).");
}
