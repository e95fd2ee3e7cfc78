//! Randomized model checking: the array vs the durability oracle's
//! sector map, across random interleavings of writes, overwrites,
//! snapshots, clones, destroys, GC, scrub, drive pulls and failovers.
//!
//! This is the highest-leverage test in the suite: any divergence
//! between the log-structured, deduped, compressed, erasure-coded,
//! failure-injected array and a `BTreeMap<sector, bytes>` is a bug. The
//! op mix is the campaign engine's (`purity_torture::run_model_check`):
//! the torture campaigns replay the same interleavings around a power
//! loss.

use purity_core::FlashArray;
use purity_torture::run_model_check;

fn run_model(seed: u64, ops: usize) -> FlashArray {
    let (array, violations) = run_model_check(seed, ops);
    assert!(
        violations.is_empty(),
        "seed {seed}, {ops} ops: the array diverged from the model:\n  {}",
        violations.join("\n  ")
    );
    array
}

/// One test per (seed, op count), so a failure names its seed.
macro_rules! model_seeds {
    ($($name:ident: $seed:literal, $ops:literal;)*) => {$(
        #[test]
        fn $name() {
            run_model($seed, $ops);
        }
    )*};
}

model_seeds! {
    model_seed_1: 1, 400;
    model_seed_2: 2, 400;
    model_seed_3: 3, 400;
    model_seed_4_long: 4, 900;
    model_seed_5_long: 5, 900;
    model_seed_6: 6, 400;
    model_seed_7_long: 7, 900;
}

/// Determinism regression: the same seed run twice must produce
/// byte-identical observability exports — virtual time, every counter,
/// every histogram bucket, every captured slow-op trace. Catches
/// iteration-order bugs (e.g. a HashMap sneaking into a hot path, two
/// of which were fixed in PR 2) that would silently break seed replay
/// in the torture harness.
#[test]
fn model_seed_runs_are_byte_identical() {
    let a = run_model(11, 300).export_observability_json();
    let b = run_model(11, 300).export_observability_json();
    assert_eq!(a, b, "same seed, same ops — export must be byte-identical");
}
