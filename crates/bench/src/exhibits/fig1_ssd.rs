//! Figure 1: architecture of an SSD — the geometry hierarchy (chips →
//! dies → erase blocks → pages) and the behavioural evidence behind it:
//! erase-before-program, sequential page programming, and reads stalling
//! behind erases on the same die.

use crate::Report;
use purity_sim::units::format_nanos;
use purity_sim::Clock;
use purity_ssd::flash::Flash;
use purity_ssd::geometry::{Ppa, SsdGeometry};
use purity_ssd::latency::{EnduranceModel, LatencyModel};

pub fn run(_args: &[String], r: &mut Report) {
    let geo = SsdGeometry::consumer_mlc_scaled();
    r.line("=== Figure 1: SSD architecture (simulated consumer MLC) ===");
    r.line(format!("dies:              {}", geo.dies));
    r.line(format!("erase blocks/die:  {}", geo.blocks_per_die));
    r.line(format!("pages/erase block: {}", geo.pages_per_block));
    r.line(format!("page size:         {} B", geo.page_size));
    r.line(format!(
        "erase block size:  {} KiB",
        geo.block_bytes() / 1024
    ));
    r.line(format!("raw capacity:      {} MiB", geo.raw_bytes() >> 20));

    let lat = LatencyModel::consumer_mlc();
    r.line(format!(
        "\ntiming: read {} | program {} | erase {}",
        format_nanos(lat.read_ns),
        format_nanos(lat.program_ns),
        format_nanos(lat.erase_ns)
    ));

    let clock = Clock::new();
    let mut flash = Flash::new(geo, lat, EnduranceModel::consumer_mlc(), clock, 1);
    let page = vec![0xAAu8; geo.page_size];

    // Erase-before-program and sequential programming are enforced.
    let p0 = Ppa {
        die: 0,
        block: 0,
        page: 0,
    };
    flash.program_page(p0, &page, 0).unwrap();
    let again = flash.program_page(p0, &page, 0);
    r.line(format!(
        "\nprogram same page twice -> {:?}",
        again.unwrap_err()
    ));
    let out_of_order = flash.program_page(
        Ppa {
            die: 0,
            block: 0,
            page: 3,
        },
        &page,
        0,
    );
    r.line(format!(
        "program page 3 before 1-2 -> {:?}",
        out_of_order.unwrap_err()
    ));

    // Reads queue behind an erase on the same die but not other dies.
    let t_erase = flash.erase_block(0, 1, 0).unwrap();
    let t_same = flash.read_page(p0, 0).unwrap().done;
    flash
        .program_page(
            Ppa {
                die: 1,
                block: 0,
                page: 0,
            },
            &page,
            0,
        )
        .unwrap();
    r.line(format!(
        "\nerase busy until {}; read on SAME die completes {} (stalled)",
        format_nanos(t_erase),
        format_nanos(t_same)
    ));
    r.line(
        "-> this per-die blocking is the latency spike Purity's I/O scheduler works around (§4.4)",
    );
}
