//! What the benchmark believes the volumes hold: every acked write is
//! mirrored here, every read is compared with it, and after the restart
//! the whole of every volume is read back against it.

use purity_core::{FlashArray, VolumeId, SECTOR};
use purity_torture::DurabilityOracle;
use std::collections::BTreeMap;

/// Read-back granularity of the final sweep.
const SWEEP_CHUNK: usize = 128 * 1024;

pub enum Mirror {
    /// One flat image per volume. `DurabilityOracle::verify_all` reads a
    /// sector at a time (23 s on a 96 MiB volume) and its per-sector map
    /// doubles the memory, so the large workloads keep plain bytes.
    Image(BTreeMap<u64, Vec<u8>>),
    /// `purity-torture`'s sector oracle, for the workload that loses power
    /// mid-write: it settles an unacked write as a prefix of its sectors.
    Oracle(DurabilityOracle, BTreeMap<u64, u64>),
}

impl Mirror {
    pub fn image() -> Self {
        Mirror::Image(BTreeMap::new())
    }

    pub fn oracle() -> Self {
        Mirror::Oracle(DurabilityOracle::new(), BTreeMap::new())
    }

    pub fn create_volume(&mut self, vol: VolumeId, bytes: u64) {
        match self {
            Mirror::Image(images) => {
                images.insert(vol.0, vec![0u8; bytes as usize]);
            }
            Mirror::Oracle(oracle, sizes) => {
                oracle.create_volume(vol, bytes);
                sizes.insert(vol.0, bytes);
            }
        }
    }

    /// A write is about to be issued.
    pub fn stage(&mut self, vol: VolumeId, offset: u64, data: &[u8]) {
        if let Mirror::Oracle(oracle, _) = self {
            oracle.stage_write(vol, offset / SECTOR as u64, data);
        }
    }

    /// The staged write was acked.
    pub fn commit(&mut self, vol: VolumeId, offset: u64, data: &[u8]) {
        match self {
            Mirror::Image(images) => {
                let at = offset as usize;
                images.get_mut(&vol.0).expect("mirrored volume")[at..at + data.len()]
                    .copy_from_slice(data);
            }
            Mirror::Oracle(oracle, _) => oracle.commit_staged(),
        }
    }

    /// The staged write was refused. With the array powered that is a
    /// failure the caller counts; with power out it is the crash the
    /// oracle settles after the cold start.
    pub fn refused(&mut self) {
        if let Mirror::Oracle(oracle, _) = self {
            oracle.abandon_staged();
        }
    }

    /// After a cold start: resolves a write that died with the power.
    pub fn settle(&mut self, a: &mut FlashArray) -> Vec<String> {
        match self {
            Mirror::Image(_) => Vec::new(),
            Mirror::Oracle(oracle, _) => oracle.settle(a),
        }
    }

    /// One violation line per sector of `data` that differs from the
    /// acked contents at `offset`.
    pub fn check_read(&self, vol: VolumeId, offset: u64, data: &[u8], ctx: &str) -> Vec<String> {
        match self {
            Mirror::Image(images) => {
                let at = offset as usize;
                let expect = &images[&vol.0][at..at + data.len()];
                data.chunks(SECTOR)
                    .zip(expect.chunks(SECTOR))
                    .enumerate()
                    .filter(|(_, (got, want))| got != want)
                    .map(|(i, _)| {
                        format!(
                            "{ctx} vol {} sector {}: acked data lost or corrupt",
                            vol.0,
                            offset / SECTOR as u64 + i as u64
                        )
                    })
                    .collect()
            }
            Mirror::Oracle(oracle, _) => oracle.check_read(vol, offset / SECTOR as u64, data, ctx),
        }
    }

    /// Reads the whole of every volume back through `a`.
    pub fn sweep(&self, a: &mut FlashArray) -> Vec<String> {
        let volumes: Vec<(u64, u64)> = match self {
            Mirror::Image(images) => images.iter().map(|(&v, i)| (v, i.len() as u64)).collect(),
            Mirror::Oracle(_, sizes) => sizes.iter().map(|(&v, &s)| (v, s)).collect(),
        };
        let mut violations = Vec::new();
        for (vol, bytes) in volumes {
            let mut offset = 0u64;
            while offset < bytes {
                let len = SWEEP_CHUNK.min((bytes - offset) as usize);
                match a.read(VolumeId(vol), offset, len) {
                    Ok((data, _)) => {
                        violations.extend(self.check_read(VolumeId(vol), offset, &data, "sweep"))
                    }
                    Err(e) => violations.push(format!("sweep vol {vol} @{offset}: {e}")),
                }
                offset += len as u64;
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_flags_exactly_the_sectors_that_differ() {
        let vol = VolumeId(3);
        let mut m = Mirror::image();
        m.create_volume(vol, 4096);
        let data = vec![7u8; 1024];
        m.stage(vol, 512, &data);
        m.commit(vol, 512, &data);
        assert!(m.check_read(vol, 512, &data, "t").is_empty());
        assert!(m.check_read(vol, 0, &[0u8; 512], "t").is_empty());
        let mut bad = data.clone();
        bad[600] ^= 1;
        let v = m.check_read(vol, 512, &bad, "t");
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("sector 2"), "{v:?}");
    }
}
