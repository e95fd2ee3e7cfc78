//! Property tests: the FTL against a reference map under random
//! write/trim/overwrite interleavings, and the drive's whole-range I/O
//! against the same ranges issued one page at a time.

use proptest::prelude::*;
use purity_sim::{Clock, Nanos};
use purity_ssd::flash::{Flash, StallCause};
use purity_ssd::ftl::{Ftl, FtlError};
use purity_ssd::geometry::SsdGeometry;
use purity_ssd::latency::{EnduranceModel, LatencyModel};
use purity_ssd::{DeviceError, DeviceRead, Ssd};
use std::collections::HashMap;

fn mk() -> Ftl {
    Ftl::new(
        Flash::new(
            SsdGeometry {
                dies: 2,
                blocks_per_die: 32,
                pages_per_block: 16,
                page_size: 512,
            },
            LatencyModel::consumer_mlc(),
            EnduranceModel::consumer_mlc(),
            Clock::new(),
            9,
        ),
        0.25,
    )
}

#[derive(Debug, Clone)]
enum Op {
    Write(u16, u8),
    Trim(u16),
    Read(u16),
}

fn ops() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (any::<u16>(), any::<u8>()).prop_map(|(l, v)| Op::Write(l, v)),
        1 => any::<u16>().prop_map(Op::Trim),
        2 => any::<u16>().prop_map(Op::Read),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ftl_matches_reference(script in proptest::collection::vec(ops(), 0..400)) {
        let mut ftl = mk();
        let n = ftl.logical_pages();
        let mut reference: HashMap<usize, u8> = HashMap::new();
        let mut t = 0;
        for op in script {
            match op {
                Op::Write(l, v) => {
                    let lpn = l as usize % n;
                    let done = ftl.write(lpn, &vec![v; 512], t).unwrap();
                    reference.insert(lpn, v);
                    t = done;
                }
                Op::Trim(l) => {
                    let lpn = l as usize % n;
                    ftl.trim(lpn).unwrap();
                    reference.remove(&lpn);
                }
                Op::Read(l) => {
                    let lpn = l as usize % n;
                    match (ftl.read(lpn, t), reference.get(&lpn)) {
                        (Ok(r), Some(&v)) => prop_assert_eq!(r.data, vec![v; 512]),
                        (Err(FtlError::Unmapped), None) => {}
                        (got, want) => prop_assert!(
                            false,
                            "lpn {} divergence: {:?} vs {:?}",
                            lpn,
                            got.map(|_| "data"),
                            want
                        ),
                    }
                }
            }
        }
        // Full final verification.
        for lpn in 0..n {
            match (ftl.read(lpn, t), reference.get(&lpn)) {
                (Ok(r), Some(&v)) => prop_assert_eq!(r.data, vec![v; 512]),
                (Err(FtlError::Unmapped), None) => {}
                (got, want) => prop_assert!(false, "final lpn {}: {:?} vs {:?}", lpn, got.map(|_| "data"), want),
            }
        }
    }
}

const PS: usize = 512;

/// A drive small enough that a few dozen overwrites push the FTL under
/// its GC low-water mark (2 dies x 8 blocks x 8 pages; 96 logical pages).
fn mk_ssd() -> Ssd {
    Ssd::new(
        SsdGeometry {
            dies: 2,
            blocks_per_die: 8,
            pages_per_block: 8,
            page_size: PS,
        },
        LatencyModel::consumer_mlc(),
        EnduranceModel::consumer_mlc(),
        Clock::new(),
        9,
        0.25,
    )
}

#[derive(Debug, Clone)]
enum RangeOp {
    /// (first page, pages, fill byte, ns since the previous op)
    Write(u8, u8, u8, u32),
    Read(u8, u8, u32),
    Trim(u8),
    Corrupt(u8),
}

fn range_ops() -> impl Strategy<Value = RangeOp> {
    let dt = 0u32..300_000;
    prop_oneof![
        6 => (any::<u8>(), 1u8..9, any::<u8>(), dt.clone())
            .prop_map(|(p, n, v, dt)| RangeOp::Write(p, n, v, dt)),
        4 => (any::<u8>(), 1u8..9, dt).prop_map(|(p, n, dt)| RangeOp::Read(p, n, dt)),
        1 => any::<u8>().prop_map(RangeOp::Trim),
        1 => any::<u8>().prop_map(RangeOp::Corrupt),
    ]
}

/// Everything a [`DeviceRead`] reports, comparable.
type ReadOutcome = (
    Vec<u8>,
    Nanos,
    Nanos,
    Nanos,
    usize,
    Option<StallCause>,
    bool,
);

fn outcome(r: DeviceRead) -> ReadOutcome {
    (
        r.data, r.done, r.queued, r.service, r.die, r.stall, r.stall_gc,
    )
}

/// A multi-page write issued one page at a time, all at `now`; stops
/// at the first error like the whole-range call.
fn write_paged(ssd: &mut Ssd, page: usize, data: &[u8], now: Nanos) -> Result<Nanos, DeviceError> {
    let mut done = now;
    for (i, chunk) in data.chunks(PS).enumerate() {
        done = done.max(ssd.write((page + i) * PS, chunk, now)?);
    }
    Ok(done)
}

/// A multi-page traced read issued one page at a time, all at `now`:
/// bytes concatenate, and the decomposition is that of the last page
/// to complete (ties to the later page).
fn read_paged(
    ssd: &mut Ssd,
    page: usize,
    pages: usize,
    now: Nanos,
) -> Result<ReadOutcome, DeviceError> {
    let mut crit: Option<ReadOutcome> = None;
    let mut data = Vec::new();
    for p in page..page + pages {
        let r = outcome(ssd.read(p * PS, PS, now)?);
        data.extend_from_slice(&r.0);
        if crit.as_ref().is_none_or(|c| r.1 >= c.1) {
            crit = Some(r);
        }
    }
    let mut crit = crit.expect("at least one page");
    crit.0 = data;
    Ok(crit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One drive driven by whole-range `write`/`read` and a
    /// same-seed twin driven one page at a time see the same device:
    /// every completion timestamp, every read decomposition, every
    /// error, and the FTL and flash counters — through foreground GC,
    /// trimmed holes and corrupt pages.
    #[test]
    fn whole_range_io_equals_page_at_a_time(
        script in proptest::collection::vec(range_ops(), 40..160),
    ) {
        let (mut whole, mut paged) = (mk_ssd(), mk_ssd());
        let logical = whole.capacity_bytes() / PS;
        // Fill the drive so the script's first overwrites reach the
        // low-water mark.
        let fill = vec![0x5a; logical * PS];
        prop_assert_eq!(whole.write(0, &fill, 0), write_paged(&mut paged, 0, &fill, 0));
        let mut now: Nanos = 0;
        let mut overwritten = 0;
        for op in script {
            match op {
                RangeOp::Write(p, n, v, dt) => {
                    now += dt as Nanos;
                    let page = p as usize % logical;
                    let pages = (n as usize).min(logical - page);
                    let data = vec![v; pages * PS];
                    prop_assert_eq!(
                        whole.write(page * PS, &data, now),
                        write_paged(&mut paged, page, &data, now)
                    );
                    overwritten += pages;
                }
                RangeOp::Read(p, n, dt) => {
                    now += dt as Nanos;
                    let page = p as usize % logical;
                    let pages = (n as usize).min(logical - page);
                    prop_assert_eq!(
                        whole.read(page * PS, pages * PS, now).map(outcome),
                        read_paged(&mut paged, page, pages, now)
                    );
                }
                RangeOp::Trim(p) => {
                    let at = (p as usize % logical) * PS;
                    prop_assert_eq!(whole.trim(at, PS), paged.trim(at, PS));
                }
                RangeOp::Corrupt(p) => {
                    let at = (p as usize % logical) * PS;
                    prop_assert_eq!(whole.corrupt_at(at), paged.corrupt_at(at));
                }
            }
            prop_assert_eq!(
                format!("{:?} {:?}", whole.stats(), whole.flash_counters()),
                format!("{:?} {:?}", paged.stats(), paged.flash_counters())
            );
        }
        // A full drive has 4 free blocks = the low-water mark; the second
        // page written after that finds 3 and collects.
        prop_assert!(overwritten < 2 || whole.stats().gc_runs > 0);
    }
}
