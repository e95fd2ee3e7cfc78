//! E5 (§1, §5.2, §5.3): data reduction by application class. The paper's
//! telemetry: 5.4x fleet average; 3-8x RDBMS; ~10x document stores;
//! 5-10x server virtualization; >20x VDI.

use crate::Report;
use purity_core::{ArrayConfig, FlashArray, SECTOR};
use purity_wkld::ContentModel;

fn run_class(label: &str, paper_band: &str, volumes: Vec<ContentModel>) -> Vec<String> {
    let mut a = FlashArray::new(ArrayConfig::bench_medium()).unwrap();
    let vol_sectors: u64 = (24 << 20) / SECTOR as u64;
    for (i, model) in volumes.iter().enumerate() {
        let vol = a
            .create_volume(&format!("v{}", i), vol_sectors * SECTOR as u64)
            .unwrap();
        // Write in 32 KiB chunks.
        let chunk = 64usize;
        let mut s = 0u64;
        while s < vol_sectors {
            let n = chunk.min((vol_sectors - s) as usize);
            let data = model.buffer(42, s, n);
            a.write(vol, s * SECTOR as u64, &data).unwrap();
            a.advance(50_000);
            s += n as u64;
        }
    }
    a.run_gc().unwrap();
    let st = a.stats();
    vec![
        label.to_string(),
        format!("{:.2}x", st.reduction_ratio()),
        paper_band.to_string(),
        format!(
            "dedup {:.1}% | compress {:.1}%",
            100.0 * st.dedup_bytes_saved as f64 / st.logical_bytes_written as f64,
            100.0 * st.compress_bytes_saved as f64 / st.logical_bytes_written as f64
        ),
    ]
}

pub fn run(_args: &[String], r: &mut Report) {
    let rows = vec![
        run_class("Random (worst case)", "~1x", vec![ContentModel::Random]),
        run_class("RDBMS", "3-8x", vec![ContentModel::Rdbms]),
        run_class(
            "Document store (MongoDB)",
            "~10x",
            vec![ContentModel::DocStore],
        ),
        run_class(
            "VDI (8 clones, 5% mutated)",
            ">20x",
            (0..8)
                .map(|i| ContentModel::VdiClone {
                    clone_id: i,
                    mutation_pct: 5,
                })
                .collect(),
        ),
    ];
    r.table(
        "E5: data reduction by application class",
        &[
            "Workload",
            "Measured",
            "Paper",
            "Breakdown (of logical bytes)",
        ],
        &rows,
    );
    r.line("\npaper fleet average: 5.4x (excluding thin provisioning); bands above from §5.2-5.3.");
}
