//! E8 (§4.2): 7+2 Reed-Solomon durability — data survives every
//! two-drive failure combination; three concurrent failures are detected
//! as unavailability, never returned as wrong data.

use crate::Report;
use purity_core::{ArrayConfig, FlashArray, PurityError};
use purity_wkld::ContentModel;

fn loaded() -> (FlashArray, purity_core::VolumeId, Vec<u8>) {
    let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
    let vol = a.create_volume("db", 8 << 20).unwrap();
    let data = ContentModel::Rdbms.buffer(11, 0, 2048);
    a.write(vol, 0, &data).unwrap();
    a.checkpoint().unwrap();
    (a, vol, data)
}

pub fn run(_args: &[String], r: &mut Report) {
    r.line("=== E8: durability under drive-failure combinations ===");
    let n = ArrayConfig::test_small().n_drives;
    let mut pass = 0;
    let mut combos = 0;
    for a_ in 0..n {
        for b in (a_ + 1)..n {
            combos += 1;
            let (mut arr, vol, data) = loaded();
            arr.fail_drive(a_);
            arr.fail_drive(b);
            let (read, _) = arr.read(vol, 0, data.len()).unwrap();
            assert_eq!(read, data, "drives ({},{})", a_, b);
            pass += 1;
        }
    }
    r.line(format!(
        "two-drive combinations verified: {}/{} (all {} C(11,2) pairs return exact data)",
        pass, combos, combos
    ));

    // Three failures: must be an explicit error or exact data, never junk.
    let mut unavailable = 0;
    let mut still_ok = 0;
    for trio in [(0usize, 1usize, 2usize), (2, 5, 8), (1, 4, 7), (8, 9, 10)] {
        let (mut arr, vol, data) = loaded();
        arr.fail_drive(trio.0);
        arr.fail_drive(trio.1);
        arr.fail_drive(trio.2);
        match arr.read(vol, 0, data.len()) {
            Err(PurityError::Unavailable(_)) => unavailable += 1,
            Ok((read, _)) => {
                assert_eq!(read, data, "if it answers, it must be right");
                still_ok += 1;
            }
            Err(e) => panic!("unexpected error class: {}", e),
        }
    }
    r.line(format!(
        "three-drive trios: {} unavailable (explicit), {} survived (stripes dodged the trio)",
        unavailable, still_ok
    ));
    r.line("\npaper: Reed-Solomon 7+2 tolerates the loss of two SSDs without losing availability (§4.2).");
}
