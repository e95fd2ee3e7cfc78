//! Systematic Reed-Solomon over GF(2^8).
//!
//! Purity's production geometry is 7 data + 2 parity across 11-drive write
//! groups (§4.2); the code here supports any `k + m <= 256`. The generator
//! is an extended Vandermonde matrix normalized so its top k×k block is
//! the identity — making the code systematic (data shards are stored
//! verbatim) — and retaining the property that *any* k of the k+m shards
//! suffice to recover the rest.

use crate::gf256;
use crate::matrix::Matrix;

/// Errors from encode/reconstruct operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// Fewer than k shards are present; the stripe is unrecoverable.
    TooFewShards { present: usize, needed: usize },
    /// Shards passed in have inconsistent lengths.
    ShardSizeMismatch,
    /// The shard vector has the wrong number of entries.
    WrongShardCount { got: usize, expected: usize },
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::TooFewShards { present, needed } => {
                write!(
                    f,
                    "unrecoverable: {} shards present, {} needed",
                    present, needed
                )
            }
            RsError::ShardSizeMismatch => write!(f, "shard sizes differ"),
            RsError::WrongShardCount { got, expected } => {
                write!(f, "expected {} shards, got {}", expected, got)
            }
        }
    }
}

impl std::error::Error for RsError {}

/// A systematic k+m Reed-Solomon codec.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    /// (k+m) x k generator; top k rows are the identity.
    generator: Matrix,
}

impl ReedSolomon {
    /// Creates a codec with `k` data shards and `m` parity shards.
    pub fn new(k: usize, m: usize) -> Self {
        assert!(
            k >= 1 && m >= 1,
            "need at least one data and one parity shard"
        );
        assert!(k + m <= 256, "GF(256) supports at most 256 shards");
        let vandermonde = Matrix::vandermonde(k + m, k);
        let top = vandermonde.select_rows(&(0..k).collect::<Vec<_>>());
        let top_inv = top.inverted().expect("vandermonde top block is invertible");
        let generator = vandermonde.mul(&top_inv);
        Self { k, m, generator }
    }

    /// Purity's production geometry: 7 data + 2 parity.
    pub fn purity_default() -> Self {
        Self::new(7, 2)
    }

    /// Computes the `m` parity shards for `k` equal-length data shards.
    pub fn encode(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, RsError> {
        if data.len() != self.k {
            return Err(RsError::WrongShardCount {
                got: data.len(),
                expected: self.k,
            });
        }
        let len = data[0].len();
        if data.iter().any(|d| d.len() != len) {
            return Err(RsError::ShardSizeMismatch);
        }
        let mut parity = vec![vec![0u8; len]; self.m];
        for (p, out) in parity.iter_mut().enumerate() {
            let row = self.generator.row(self.k + p);
            for (c, shard) in data.iter().enumerate() {
                gf256::mul_slice_xor(row[c], shard, out);
            }
        }
        Ok(parity)
    }

    /// Incrementally updates parity when data shard `idx` changes from
    /// `old` to `new`: `parity[p] ^= coeff[p][idx] * (old ^ new)`.
    ///
    /// This is what makes rewriting one write unit inside a buffered segio
    /// cheap: O(changed bytes × m), independent of k.
    pub fn update_parity(
        &self,
        idx: usize,
        old: &[u8],
        new: &[u8],
        parity: &mut [Vec<u8>],
    ) -> Result<(), RsError> {
        if parity.len() != self.m {
            return Err(RsError::WrongShardCount {
                got: parity.len(),
                expected: self.m,
            });
        }
        if old.len() != new.len() || parity.iter().any(|p| p.len() != old.len()) {
            return Err(RsError::ShardSizeMismatch);
        }
        let delta: Vec<u8> = old.iter().zip(new).map(|(a, b)| a ^ b).collect();
        for (p, out) in parity.iter_mut().enumerate() {
            let coeff = self.generator.get(self.k + p, idx);
            gf256::mul_slice_xor(coeff, &delta, out);
        }
        Ok(())
    }

    /// Reconstructs all missing shards in place. `shards` must have
    /// `k + m` entries; `None` marks an erasure. Succeeds as long as at
    /// least `k` shards are present.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), RsError> {
        if shards.len() != self.k + self.m {
            return Err(RsError::WrongShardCount {
                got: shards.len(),
                expected: self.k + self.m,
            });
        }
        let present: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_some()).collect();
        if present.len() < self.k {
            return Err(RsError::TooFewShards {
                present: present.len(),
                needed: self.k,
            });
        }
        if present.len() == shards.len() {
            return Ok(()); // nothing missing
        }
        let len = shards[present[0]].as_ref().unwrap().len();
        if present
            .iter()
            .any(|&i| shards[i].as_ref().unwrap().len() != len)
        {
            return Err(RsError::ShardSizeMismatch);
        }

        // Take any k present shards; invert their generator rows to get a
        // decode matrix mapping those shards back to the data shards.
        let use_rows = &present[..self.k];
        let sub = self.generator.select_rows(use_rows);
        let decode = sub.inverted().expect("any k generator rows are invertible");

        // Recover missing data shards.
        let missing_data: Vec<usize> = (0..self.k).filter(|&i| shards[i].is_none()).collect();
        for &target in &missing_data {
            let mut out = vec![0u8; len];
            for (j, &src_row) in use_rows.iter().enumerate() {
                let coeff = decode.get(target, j);
                gf256::mul_slice_xor(coeff, shards[src_row].as_ref().unwrap(), &mut out);
            }
            shards[target] = Some(out);
        }

        // With all data shards present, re-encode any missing parity.
        for p in 0..self.m {
            if shards[self.k + p].is_none() {
                let mut out = vec![0u8; len];
                let row = self.generator.row(self.k + p);
                for c in 0..self.k {
                    gf256::mul_slice_xor(row[c], shards[c].as_ref().unwrap(), &mut out);
                }
                shards[self.k + p] = Some(out);
            }
        }
        Ok(())
    }

    /// Recomputes a single data shard from any k *other* shards, without
    /// mutating the input. Used by the I/O scheduler's read-around-writes
    /// path (§4.4): it rebuilds a busy drive's contribution from the idle
    /// drives in the write group.
    pub fn reconstruct_one(
        &self,
        target: usize,
        available: &[(usize, &[u8])],
    ) -> Result<Vec<u8>, RsError> {
        if available.len() < self.k {
            return Err(RsError::TooFewShards {
                present: available.len(),
                needed: self.k,
            });
        }
        let len = available[0].1.len();
        if available.iter().any(|(_, d)| d.len() != len) {
            return Err(RsError::ShardSizeMismatch);
        }
        let rows: Vec<usize> = available[..self.k].iter().map(|(i, _)| *i).collect();
        let sub = self.generator.select_rows(&rows);
        let decode = sub.inverted().expect("any k generator rows are invertible");

        if target < self.k {
            let mut out = vec![0u8; len];
            for (j, (_, data)) in available[..self.k].iter().enumerate() {
                gf256::mul_slice_xor(decode.get(target, j), data, &mut out);
            }
            Ok(out)
        } else {
            // Parity target: recover all data coefficients combined with
            // the parity row — compose decode with the generator row.
            let gen_row = self.generator.row(target);
            let mut combined = vec![0u8; self.k];
            for (j, c) in combined.iter_mut().enumerate() {
                for (d, &g) in gen_row.iter().enumerate().take(self.k) {
                    *c ^= gf256::mul(g, decode.get(d, j));
                }
            }
            let mut out = vec![0u8; len];
            for (j, (_, data)) in available[..self.k].iter().enumerate() {
                gf256::mul_slice_xor(combined[j], data, &mut out);
            }
            Ok(out)
        }
    }

    /// Verifies that the parity shards are consistent with the data shards.
    pub fn verify(&self, shards: &[&[u8]]) -> Result<bool, RsError> {
        if shards.len() != self.k + self.m {
            return Err(RsError::WrongShardCount {
                got: shards.len(),
                expected: self.k + self.m,
            });
        }
        let parity = self.encode(&shards[..self.k])?;
        Ok(parity
            .iter()
            .zip(&shards[self.k..])
            .all(|(a, b)| a.as_slice() == *b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_shards(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..len).map(|_| rng.gen()).collect())
            .collect()
    }

    #[test]
    fn encode_verify_round_trip() {
        let rs = ReedSolomon::purity_default();
        let data = random_shards(7, 1024, 1);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        let mut all: Vec<&[u8]> = refs.clone();
        all.extend(parity.iter().map(|p| p.as_slice()));
        assert!(rs.verify(&all).unwrap());
    }

    #[test]
    fn corrupted_shard_fails_verify() {
        let rs = ReedSolomon::purity_default();
        let data = random_shards(7, 128, 2);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        let mut bad = data.clone();
        bad[3][64] ^= 0xff;
        let mut all: Vec<&[u8]> = bad.iter().map(|d| d.as_slice()).collect();
        all.extend(parity.iter().map(|p| p.as_slice()));
        assert!(!rs.verify(&all).unwrap());
    }

    #[test]
    fn reconstructs_every_two_shard_loss_combination() {
        // The paper's durability claim: no data lost when any 2 of the
        // 9 stripe members fail.
        let rs = ReedSolomon::purity_default();
        let data = random_shards(7, 256, 3);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity.iter().cloned()).collect();

        for a in 0..9 {
            for b in (a + 1)..9 {
                let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                shards[a] = None;
                shards[b] = None;
                rs.reconstruct(&mut shards).unwrap();
                for (i, s) in shards.iter().enumerate() {
                    assert_eq!(
                        s.as_ref().unwrap(),
                        &full[i],
                        "loss ({},{}) shard {}",
                        a,
                        b,
                        i
                    );
                }
            }
        }
    }

    #[test]
    fn three_losses_are_detected_as_unrecoverable() {
        let rs = ReedSolomon::purity_default();
        let data = random_shards(7, 64, 4);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data.into_iter().chain(parity).map(Some).collect();
        shards[0] = None;
        shards[4] = None;
        shards[8] = None;
        assert_eq!(
            rs.reconstruct(&mut shards),
            Err(RsError::TooFewShards {
                present: 6,
                needed: 7
            })
        );
    }

    #[test]
    fn reconstruct_one_matches_original_for_all_targets() {
        let rs = ReedSolomon::new(5, 3);
        let data = random_shards(5, 512, 5);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity.iter().cloned()).collect();

        for target in 0..8 {
            let available: Vec<(usize, &[u8])> = (0..8)
                .filter(|&i| i != target)
                .map(|i| (i, full[i].as_slice()))
                .collect();
            let rebuilt = rs.reconstruct_one(target, &available).unwrap();
            assert_eq!(rebuilt, full[target], "target {}", target);
        }
    }

    #[test]
    fn incremental_parity_update_matches_full_reencode() {
        let rs = ReedSolomon::purity_default();
        let mut data = random_shards(7, 256, 6);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut parity = rs.encode(&refs).unwrap();

        // Change shard 2.
        let old = data[2].clone();
        let new: Vec<u8> = old.iter().map(|b| b.wrapping_add(13)).collect();
        rs.update_parity(2, &old, &new, &mut parity).unwrap();
        data[2] = new;

        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let expect = rs.encode(&refs).unwrap();
        assert_eq!(parity, expect);
    }

    #[test]
    fn nothing_missing_is_a_noop() {
        let rs = ReedSolomon::new(3, 2);
        let data = random_shards(3, 32, 7);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> =
            data.iter().cloned().chain(parity).map(Some).collect();
        let before = shards.clone();
        rs.reconstruct(&mut shards).unwrap();
        assert_eq!(shards, before);
    }

    #[test]
    fn shard_size_mismatch_is_rejected() {
        let rs = ReedSolomon::new(2, 1);
        let a = vec![0u8; 16];
        let b = vec![0u8; 8];
        assert_eq!(
            rs.encode(&[a.as_slice(), b.as_slice()]),
            Err(RsError::ShardSizeMismatch)
        );
    }

    #[test]
    fn wide_geometries_work() {
        // e.g. 17+3 for future shelf configurations.
        let rs = ReedSolomon::new(17, 3);
        let data = random_shards(17, 100, 8);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> =
            data.iter().cloned().chain(parity).map(Some).collect();
        shards[0] = None;
        shards[10] = None;
        shards[19] = None;
        rs.reconstruct(&mut shards).unwrap();
        assert_eq!(shards[0].as_ref().unwrap(), &data[0]);
        assert_eq!(shards[10].as_ref().unwrap(), &data[10]);
    }
}
