//! Property tests: compression round-trips and varint correctness.

use proptest::prelude::*;
use purity_compress::{compress, decompress, store_raw, varint};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compress_round_trips(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        let enc = compress(&data);
        prop_assert_eq!(decompress(&enc).unwrap(), data);
    }

    /// Repetitive data: still exact, and never larger than raw + header.
    #[test]
    fn compressed_size_is_bounded(data in proptest::collection::vec(0u8..4, 0..8192)) {
        let enc = compress(&data);
        prop_assert!(enc.len() <= data.len() + 16);
        prop_assert_eq!(decompress(&enc).unwrap(), data);
    }

    #[test]
    fn store_raw_round_trips(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        prop_assert_eq!(decompress(&store_raw(&data)).unwrap(), data);
    }

    #[test]
    fn truncation_never_panics(data in proptest::collection::vec(any::<u8>(), 0..2048), cut in any::<usize>()) {
        let enc = compress(&data);
        let cut = cut % (enc.len() + 1);
        let _ = decompress(&enc[..cut]); // may Err, must not panic
    }

    /// Arbitrary bytes after either format byte are a block or an error,
    /// never a panic.
    #[test]
    fn arbitrary_blocks_never_panic(
        lz in any::<bool>(),
        body in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut block = vec![u8::from(lz)];
        block.extend_from_slice(&body);
        let _ = decompress(&block);
    }

    #[test]
    fn varint_round_trips(v in any::<u64>()) {
        let mut buf = Vec::new();
        varint::encode(v, &mut buf);
        prop_assert_eq!(varint::decode(&buf), Some((v, buf.len())));
        prop_assert_eq!(buf.len(), varint::encoded_len(v));
    }
}
