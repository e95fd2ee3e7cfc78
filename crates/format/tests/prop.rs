//! Property tests: page codec fidelity, the page's byte form,
//! compressed-domain scan equivalence, range-table vs reference-set
//! semantics.

use proptest::prelude::*;
use purity_format::{Page, RangeTable};
use std::collections::BTreeSet;

fn row_strategy() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![
            0u64..16,                // tiny enums
            1_000_000u64..1_001_000, // clustered ids
            any::<u64>(),            // raw values
        ],
        3,
    )
}

/// One fixed-arity row: a constant column, the extremes mixed with
/// anything (a 63-bit offset behind a selector: a full 64-bit field),
/// sequence-like ids, tiny enums, and the extremes around small values.
fn fixed_row_strategy() -> impl Strategy<Value = [u64; 5]> {
    (
        Just(0xdead_beef_u64),
        prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()],
        1_000_000u64..1_004_096,
        0u64..4,
        prop_oneof![Just(0u64), Just(u64::MAX), 0u64..1 << 40],
    )
        .prop_map(|(a, b, c, d, e)| [a, b, c, d, e])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fixed_rows_round_trip_through_bytes(rows in proptest::collection::vec(fixed_row_strategy(), 0..300)) {
        let page = Page::encode(&rows);
        let mut bytes = Vec::new();
        page.write_to(&mut bytes);
        prop_assert_eq!(bytes.len(), page.encoded_bytes());
        bytes.push(0x5a);
        let (back, used) = Page::read_from(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len() - 1);
        let decoded: Vec<[u64; 5]> = back.rows::<5>().unwrap().collect();
        prop_assert_eq!(&decoded, &rows);
        let random_access: Vec<Vec<u64>> = back.decode_all();
        prop_assert_eq!(random_access, rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>());
        if let Some(first) = rows.first() {
            // The constant column costs nothing, so it is in no row's bits.
            prop_assert_eq!(back.scan_col_eq(0, first[0]).unwrap().len(), rows.len());
        }
    }

    #[test]
    fn page_round_trips(rows in proptest::collection::vec(row_strategy(), 0..200)) {
        let page = Page::encode(&rows);
        prop_assert_eq!(page.decode_all(), rows);
    }

    #[test]
    fn scan_matches_decode(rows in proptest::collection::vec(row_strategy(), 1..200), col in 0usize..3, pick in any::<prop::sample::Index>()) {
        let page = Page::encode(&rows);
        let probe = rows[pick.index(rows.len())][col];
        let expect: Vec<usize> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r[col] == probe)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(page.scan_col_eq(col, probe).unwrap(), expect);
    }

    #[test]
    fn range_table_matches_reference(ops in proptest::collection::vec((0u64..500, 0u64..30), 0..200)) {
        let mut table = RangeTable::new();
        let mut reference = BTreeSet::new();
        for (start, span) in ops {
            table.insert_range(start, start + span);
            for v in start..=start + span {
                reference.insert(v);
            }
        }
        for v in 0..560u64 {
            prop_assert_eq!(table.contains(v), reference.contains(&v));
        }
        prop_assert_eq!(table.cardinality(), reference.len() as u128);
        let back = RangeTable::from_pairs(&table.to_pairs());
        prop_assert_eq!(back, table);
    }
}
