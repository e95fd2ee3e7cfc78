//! Table 1: Comparison of Purity and a disk array.
//!
//! The paper compares an FA-420-class appliance against an EMC-VNX-class
//! performance disk array. We *measure* the Purity side on the simulated
//! array: a rate sweep finds the saturation point (highest offered 32 KiB
//! random 70/30 load whose p95 stays under a latency SLO), and latency is
//! reported at half that load. The simulated shelf is a ~1/500-scale
//! miniature (11 × 256 MiB drives), so throughput rows are also shown
//! normalized per GiB of raw media, where flash's advantage is scale-
//! free. Constants the paper takes from price sheets (RU, price, power,
//! install time) carry over unchanged; the disk column comes from the
//! first-principles `DiskArrayModel`.

use crate::{drive, preload, times, DriveReport, Report};
use purity_core::{ArrayConfig, FlashArray, VolumeId};
use purity_sim::units::format_nanos;
use purity_sim::{Nanos, MS};
use purity_wkld::{AccessPattern, ContentModel, DiskArrayModel, SizeMix, WorkloadGen};

const VOL_BYTES: u64 = 128 << 20;
const SLO_NS: Nanos = 2 * MS;

fn fresh_array() -> (FlashArray, VolumeId) {
    let cfg = ArrayConfig::bench_medium();
    let mut array = FlashArray::new(cfg).unwrap();
    let vol = array.create_volume("bench", VOL_BYTES).unwrap();
    preload(&mut array, vol, 7, 128 * 1024, ContentModel::Rdbms, 50_000, 700);
    array.run_gc().unwrap();
    // Drain all device queues before measuring.
    array.advance(10 * purity_sim::SEC);
    (array, vol)
}

fn run_at(interarrival: Nanos, ops: u64) -> (DriveReport, FlashArray) {
    let (mut array, vol) = fresh_array();
    let mut gen = WorkloadGen::new(
        11,
        VOL_BYTES,
        AccessPattern::Uniform,
        SizeMix::fixed(32 * 1024),
        70,
        ContentModel::Rdbms,
        interarrival,
    );
    // No GC during measurement: GC paces itself off-peak in production.
    let report = drive(&mut array, vol, &mut gen, ops, 0);
    (report, array)
}

pub fn run(_args: &[String], r: &mut Report) {
    // ---- Rate sweep to saturation. -------------------------------------
    let ladder: Vec<Nanos> = vec![
        1_000_000, 500_000, 250_000, 125_000, 62_500, 31_250, 15_625, 8_000, 4_000,
    ];
    let mut peak_iops = 0.0f64;
    let mut peak_inter = ladder[0];
    r.line(format!(
        "rate sweep (32 KiB random, 70/30 read/write, SLO p95 < {}):",
        format_nanos(SLO_NS)
    ));
    for &inter in &ladder {
        let (report, _) = run_at(inter, 2500);
        let ok = report.read_latency.p95() < SLO_NS && report.write_latency.p95() < SLO_NS;
        r.line(format!(
            "  offered {:>7.0} IOPS -> read p95 {:>10} write p95 {:>10}  {}",
            1e9 / inter as f64,
            format_nanos(report.read_latency.p95()),
            format_nanos(report.write_latency.p95()),
            if ok { "OK" } else { "SATURATED" }
        ));
        if ok {
            peak_iops = report.iops();
            peak_inter = inter;
        } else {
            break;
        }
    }

    // Latency at ~50% of peak (the regime customers run in).
    let (report, array) = run_at(peak_inter * 2, 2500);
    let p_latency = {
        let r = &report.read_latency;
        let w = &report.write_latency;
        ((r.mean() * r.count() + w.mean() * w.count()) / (r.count() + w.count()).max(1)).max(1)
    };
    let reduction = array.stats().reduction_ratio();

    // ---- Scale framing. -------------------------------------------------
    let sim_raw_gib = (array.config().ssd_geometry.raw_bytes() as u64
        * array.config().n_drives as u64) as f64
        / (1 << 30) as f64;
    let disk = DiskArrayModel::vnx7500_class();
    let d_iops = disk.peak_iops_cached();
    let d_latency = disk.latency_ns(32 * 1024, 0.5);
    let d_raw_gib = disk.disk.capacity_bytes as f64 * disk.n_disks as f64 / 1e9;

    let p_iops_per_gib = peak_iops / sim_raw_gib;
    let d_iops_per_gib = d_iops / d_raw_gib;

    // IOPS scales with die parallelism, not bytes: the mini-array has
    // 11 x 8 = 88 dies; an FA-450-class appliance has ~2800 (22 drives x
    // 128 dies). Scale by die count.
    let sim_dies = (array.config().n_drives * array.config().ssd_geometry.dies) as f64;
    let appliance_dies = 22.0 * 128.0;

    // Appliance-scale capacity: 11 × 1 TB drives, 7/9 parity efficiency,
    // measured reduction.
    let purity_usable_tb = 11.0 * (7.0 / 9.0) * reduction;
    let d_usable_tb = 25.0; // Table 1's configuration
    let (p_ru, p_install_h, p_watts, p_price) = (8.0, 4.0, 1240.0, 200_000.0);
    let p_power_usd = p_watts / 1000.0 * 24.0 * 365.0 * 1.2;
    let d_power_usd = disk.annual_power_usd(1.2);
    // Appliance scaling: flash parallelism scales with die count, but a
    // real FA-450 is *controller-bound* at ~200K IOPS (§4: the challenge
    // is an environment "that could easily become CPU-bound, not I/O
    // bound"). The appliance figure is therefore min(flash, controller).
    let flash_scaled = peak_iops * appliance_dies / sim_dies;
    let controller_bound = 200_000.0;
    let p_appliance_iops = flash_scaled.min(controller_bound);

    let rows: Vec<Vec<String>> = vec![
        vec![
            "Peak IOPS @32KB (measured mini-array)".into(),
            format!("{:.0}", peak_iops),
            "-".into(),
            "-".into(),
        ],
        vec![
            "IOPS per GiB raw media".into(),
            format!("{:.1}", p_iops_per_gib),
            format!("{:.3}", d_iops_per_gib),
            times(p_iops_per_gib / d_iops_per_gib),
        ],
        vec![
            "Peak IOPS (appliance, flash-limit)".into(),
            format!("{:.0}", flash_scaled),
            "-".into(),
            "-".into(),
        ],
        vec![
            "Peak IOPS (appliance, ctrl-bound)".into(),
            format!("{:.0}", p_appliance_iops),
            format!("{:.0}", d_iops),
            times(p_appliance_iops / d_iops),
        ],
        vec![
            "Latency @50% load".into(),
            format_nanos(p_latency),
            format_nanos(d_latency),
            times(d_latency as f64 / p_latency as f64),
        ],
        vec![
            "Usable Capacity (TB)".into(),
            format!("{:.0}", purity_usable_tb),
            format!("{:.0}", d_usable_tb),
            times(purity_usable_tb / d_usable_tb),
        ],
        vec![
            "Rack Units (RUs)".into(),
            "8".into(),
            "28".into(),
            times(28.0 / 8.0),
        ],
        vec![
            "Installation (hours)".into(),
            "4".into(),
            "40".into(),
            times(10.0),
        ],
        vec![
            "Power (W)".into(),
            "1240".into(),
            "3500".into(),
            times(3500.0 / 1240.0),
        ],
        vec![
            "Annual Power Cost ($)".into(),
            format!("{:.0}", p_power_usd),
            format!("{:.0}", d_power_usd),
            times(d_power_usd / p_power_usd),
        ],
        vec![
            "$/GB".into(),
            format!("{:.1}", p_price / (purity_usable_tb * 1000.0)),
            format!("{:.1}", disk.price_usd as f64 / (d_usable_tb * 1000.0)),
            times(
                (disk.price_usd as f64 / (d_usable_tb * 1000.0))
                    / (p_price / (purity_usable_tb * 1000.0)),
            ),
        ],
        vec![
            "IOPS/RU".into(),
            format!("{:.0}", p_appliance_iops / p_ru),
            format!("{:.0}", d_iops / disk.rack_units as f64),
            times((p_appliance_iops / p_ru) / (d_iops / disk.rack_units as f64)),
        ],
        vec![
            "IOPS/W".into(),
            format!("{:.1}", p_appliance_iops / p_watts),
            format!("{:.1}", d_iops / disk.power_watts as f64),
            times((p_appliance_iops / p_watts) / (d_iops / disk.power_watts as f64)),
        ],
        vec![
            "IOPS/$".into(),
            format!("{:.2}", p_appliance_iops / p_price),
            format!("{:.3}", d_iops / disk.price_usd as f64),
            times((p_appliance_iops / p_price) / (d_iops / disk.price_usd as f64)),
        ],
    ];
    r.table(
        "Table 1: Purity (measured) vs disk array (modelled)",
        &["Metric", "Purity", "Disk", "Improvement"],
        &rows,
    );
    r.line(format!("\nmeasured reduction {:.2}x (paper: 5.4x fleet average) | install/RU/power/price rows carry the paper's constants",
        reduction
    ));
    r.line(format!("half-load workload: {}", report.summary()));
    r.line("paper's published row: 200K vs 65K IOPS (3.08x), 1ms vs 5ms (5x), 40 vs 25 TB, $5 vs $18 /GB (3.6x)");
    r.line(format!(
        "install hours: {} vs {}",
        p_install_h, disk.install_hours
    ));
}
