//! The exhibit harness: one registry, one runner.
//!
//! Every table, figure and in-text experiment of the paper is one
//! entry of [`EXHIBITS`]; the `exhibit` binary lists them, runs one, or
//! (`--gate`) regenerates every gated entry's `results/` files so
//! `scripts/check_results.sh` can require them to stay unchanged.
//!
//! An exhibit's only output channel is its [`Report`]: text becomes
//! `results/<name>.txt`, an optional JSON document `results/<name>.json`.
//! Both are pure functions of the seed and the arguments, so wall-clock
//! figures go to stderr, never into a `Report`. The module also holds
//! what exhibits share: an open-loop workload driver over a
//! [`FlashArray`] in virtual time, the preload, argument lookup and the
//! die-quiescence poll.

use purity_core::{Ack, FlashArray, VolumeId, SECTOR};
use purity_obs::json::{parse_json, JsonValue, JsonWriter};
use purity_obs::{profiler, HistogramSummary};
use purity_sim::units::{format_bytes, format_nanos};
use purity_sim::{LatencyHistogram, Nanos, MS, SEC};
use purity_wkld::{AccessPattern, ContentModel, Op, SizeMix, WorkloadGen};
use std::path::PathBuf;
use std::str::FromStr;

mod exhibits;

pub use exhibits::EXHIBITS;

/// One registry entry.
pub struct Exhibit {
    /// The name on the command line and of its `results/` files.
    pub name: &'static str,
    /// What the exhibit reproduces and which claim it asserts.
    pub about: &'static str,
    /// The arguments its committed files were produced with; `None`
    /// for an exhibit whose output is not a function of the seed.
    pub gate: Option<&'static [&'static str]>,
    /// The scenario. Panics when the claim it reproduces does not hold.
    pub run: fn(&[String], &mut Report),
}

impl Exhibit {
    /// Runs the scenario with `args` from a clean process-global
    /// profiler, so an exhibit's bytes do not depend on what ran before
    /// it. `echo` streams the text to stdout as it is produced.
    pub fn run(&self, args: &[impl AsRef<str>], echo: bool) -> Report {
        let args: Vec<String> = args.iter().map(|a| a.as_ref().to_string()).collect();
        profiler::disable();
        profiler::reset();
        let mut report = Report {
            text: String::new(),
            json: None,
            echo,
        };
        (self.run)(&args, &mut report);
        report
    }
}

/// What an exhibit produced: its text and, optionally, one JSON
/// document.
pub struct Report {
    text: String,
    json: Option<String>,
    echo: bool,
}

impl Report {
    /// Appends `line` and a newline, `println!`-style.
    pub fn line(&mut self, line: impl AsRef<str>) {
        let line = line.as_ref();
        self.text.push_str(line);
        self.text.push('\n');
        if self.echo {
            println!("{line}");
        }
    }

    /// Appends a titled table: a header row, a rule, aligned rows.
    pub fn table(&mut self, title: &str, headers: &[&str], rows: &[Vec<String>]) {
        for line in format_table(title, headers, rows).lines() {
            self.line(line);
        }
    }

    /// Sets the exhibit's JSON document and parses it back, so every
    /// emitted document is known to be well-formed and the exhibit
    /// asserts its claim on what was written, not on private state.
    pub fn json(&mut self, doc: String) -> JsonValue {
        let parsed = parse_json(&doc).expect("emitted JSON must parse");
        self.json = Some(doc);
        parsed
    }

    /// The text produced so far.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The JSON document, if the exhibit emitted one.
    pub fn json_doc(&self) -> Option<&str> {
        self.json.as_deref()
    }

    /// Writes `results/<name>.txt` and, if a document was emitted,
    /// `results/<name>.json`.
    pub fn write(&self, name: &str) {
        let dir = results_dir();
        std::fs::create_dir_all(&dir).expect("create results/");
        std::fs::write(dir.join(format!("{name}.txt")), &self.text).expect("write results text");
        if let Some(json) = &self.json {
            std::fs::write(dir.join(format!("{name}.json")), json).expect("write results json");
        }
    }
}

/// The repo-level `results/` directory.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Whether the bare flag `name` is among an exhibit's arguments.
pub fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The value following `name` among an exhibit's arguments. A flag
/// given without a parsable value is an error, never a silent default.
pub fn value<T: FromStr>(args: &[String], name: &str) -> Option<T> {
    let at = args.iter().position(|a| a == name)?;
    let parsed = args
        .get(at + 1)
        .filter(|v| !v.starts_with("--"))
        .and_then(|v| v.parse().ok());
    Some(parsed.unwrap_or_else(|| panic!("{name} takes a value")))
}

/// Results of driving a workload.
#[derive(Debug, Clone, Default)]
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
    let mut report = DriveReport::default();
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

/// Fills `vol` front to back: `ops` sequential writes of `unit` bytes of
/// `content`, one every `interarrival` ns. The preload most exhibits
/// start from, so that later reads hit real drive blocks.
pub fn preload(
    array: &mut FlashArray,
    vol: VolumeId,
    seed: u64,
    unit: usize,
    content: ContentModel,
    interarrival: Nanos,
    ops: u64,
) {
    let vol_bytes = array.volume(vol).expect("volume").size_sectors * SECTOR as u64;
    let sizes = SizeMix::fixed(unit);
    let mut loader = WorkloadGen::new(
        seed,
        vol_bytes,
        AccessPattern::Sequential,
        sizes,
        0,
        content,
        interarrival,
    );
    drive(array, vol, &mut loader, ops, 0);
}

/// The paper's enterprise mix (≈55 KiB mean I/O, RDBMS content) over
/// Zipfian offsets, `read_pct`% reads, one op every `interarrival` ns.
pub fn enterprise_mix(seed: u64, vol_bytes: u64, read_pct: u8, interarrival: Nanos) -> WorkloadGen {
    WorkloadGen::new(
        seed,
        vol_bytes,
        AccessPattern::Zipfian(0.99),
        SizeMix::enterprise(),
        read_pct,
        ContentModel::Rdbms,
        interarrival,
    )
}

/// Idles the array until no die still has a program or erase booked.
/// Segment flushes chain device work far past the issuing clock, so a
/// fixed-length drain either wastes virtual time or leaks stragglers
/// into the next phase; polling the die horizons is exact and stays
/// deterministic. `advance` keeps the recorder sampling through the
/// gap, so the quiet intervals still land in the time-series.
pub fn settle(a: &mut FlashArray) {
    loop {
        let now = a.now();
        let (_, shelf) = a.controller_and_shelf();
        let quiet = (0..shelf.n_drives()).all(|d| {
            let drv = shelf.drive(d);
            drv.is_failed() || drv.die_statuses(now).iter().all(|s| s.pending.is_none())
        });
        if quiet {
            return;
        }
        a.advance(5 * MS);
    }
}

/// A titled table as text: a header row, a rule, aligned rows.
pub fn format_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
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
    let mut out = format!("\n=== {title} ===\n{}\n", fmt_row(&headers));
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
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
