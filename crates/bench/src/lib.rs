//! Shared support for the table/figure harness binaries.
//!
//! Every binary in `src/bin/` regenerates one exhibit of the paper
//! (tables 1–2, figures 1–7, in-text experiments E1–E10); this module
//! holds the common plumbing: a driven-workload runner that paces an
//! open-loop request stream against a [`FlashArray`] in virtual time,
//! and small table-printing helpers.

pub mod json;

pub use json::{parse_json, JsonValue};

use purity_core::{Ack, FlashArray, VolumeId};
use purity_obs::json::JsonWriter;
use purity_obs::HistogramSummary;
use purity_sim::units::{format_bytes, format_nanos};
use purity_sim::{LatencyHistogram, Nanos, SEC};
use purity_wkld::{Op, WorkloadGen};
use std::path::PathBuf;

/// Results of driving a workload.
#[derive(Debug, Clone)]
pub struct DriveReport {
    /// Operations completed.
    pub ops: u64,
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Bytes moved (logical).
    pub bytes: u64,
    /// Virtual time elapsed.
    pub elapsed: Nanos,
    /// Read latency distribution.
    pub read_latency: LatencyHistogram,
    /// Write latency distribution.
    pub write_latency: LatencyHistogram,
}

impl DriveReport {
    /// Operations per virtual second.
    pub fn iops(&self) -> f64 {
        if self.elapsed == 0 {
            return 0.0;
        }
        self.ops as f64 * SEC as f64 / self.elapsed as f64
    }

    /// Logical throughput, bytes per virtual second.
    pub fn throughput_bps(&self) -> f64 {
        if self.elapsed == 0 {
            return 0.0;
        }
        self.bytes as f64 * SEC as f64 / self.elapsed as f64
    }

    /// Machine-readable form: throughput plus full latency summaries.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.u64_field("ops", self.ops)
            .u64_field("reads", self.reads)
            .u64_field("writes", self.writes)
            .u64_field("bytes", self.bytes)
            .u64_field("elapsed_ns", self.elapsed)
            .f64_field("iops", self.iops())
            .f64_field("throughput_bytes_per_sec", self.throughput_bps())
            .raw_field(
                "read_latency",
                &HistogramSummary::of(&self.read_latency).to_json(),
            )
            .raw_field(
                "write_latency",
                &HistogramSummary::of(&self.write_latency).to_json(),
            );
        w.finish()
    }

    /// Pretty one-liner.
    pub fn summary(&self) -> String {
        format!(
            "{} ops in {} ({:.0} IOPS, {}/s) | read {} | write {}",
            self.ops,
            format_nanos(self.elapsed),
            self.iops(),
            format_bytes(self.throughput_bps() as u64),
            self.read_latency.summary(),
            self.write_latency.summary(),
        )
    }
}

/// Drives `n_ops` requests from `gen` against `vol`, advancing the
/// virtual clock by the generator's inter-arrival time per request
/// (open-loop). Runs GC every `gc_every` ops if nonzero.
pub fn drive(
    array: &mut FlashArray,
    vol: VolumeId,
    gen: &mut WorkloadGen,
    n_ops: u64,
    gc_every: u64,
) -> DriveReport {
    let start = array.now();
    let mut report = DriveReport {
        ops: 0,
        reads: 0,
        writes: 0,
        bytes: 0,
        elapsed: 0,
        read_latency: LatencyHistogram::new(),
        write_latency: LatencyHistogram::new(),
    };
    for i in 0..n_ops {
        match gen.next_op() {
            Op::Read { offset, len } => {
                let (_, Ack { latency }) = array.read(vol, offset, len).expect("read");
                report.read_latency.record(latency);
                report.reads += 1;
                report.bytes += len as u64;
            }
            Op::Write { offset, data } => {
                let Ack { latency } = array.write(vol, offset, &data).expect("write");
                report.write_latency.record(latency);
                report.writes += 1;
                report.bytes += data.len() as u64;
            }
        }
        report.ops += 1;
        array.advance(gen.interarrival);
        if gc_every > 0 && i % gc_every == gc_every - 1 {
            array.run_gc().expect("gc");
        }
    }
    report.elapsed = array.now() - start;
    report
}

/// The repo-level `results/` directory the harness binaries emit
/// machine-readable snapshots into (created on first use).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results/");
    dir
}

/// Writes one JSON document under `results/<name>.json` and reports
/// where it went. Every exhibit binary ends with one of these so runs
/// leave a metrics trail that scripts can diff, not just stdout.
pub fn write_results(name: &str, json: &str) -> PathBuf {
    let path = results_dir().join(format!("{name}.json"));
    std::fs::write(&path, json).expect("write results json");
    println!("\nwrote {}", path.display());
    path
}

/// Prints a header row followed by aligned rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {} ===", title);
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&headers));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a ratio as `N.N×`.
pub fn times(x: f64) -> String {
    format!("{:.2}x", x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use purity_core::ArrayConfig;
    use purity_wkld::{AccessPattern, ContentModel, SizeMix};

    #[test]
    fn drive_runs_a_mixed_workload() {
        let mut a = FlashArray::new(ArrayConfig::test_small()).unwrap();
        let vol = a.create_volume("w", 8 << 20).unwrap();
        let mut gen = WorkloadGen::new(
            1,
            8 << 20,
            AccessPattern::Uniform,
            SizeMix::fixed(32 * 1024),
            50,
            ContentModel::Rdbms,
            200_000,
        );
        let report = drive(&mut a, vol, &mut gen, 200, 0);
        assert_eq!(report.ops, 200);
        assert!(report.reads > 0 && report.writes > 0);
        assert!(report.iops() > 0.0);
        assert!(!report.summary().is_empty());
    }
}
