//! Figure 6: the medium table — rebuilds the paper's exact nine-row
//! example (snapshots 14/20/22, clones 15/18, shortcut rows) and resolves
//! lookups through it.

use crate::Report;
use purity_core::medium::{MediumRow, MediumTable};
use purity_core::types::MediumId;

pub fn run(_args: &[String], r: &mut Report) {
    let mut t = MediumTable::new();
    let row = |end, target: Option<u64>, offset, rw| MediumRow {
        end,
        target: target.map(MediumId),
        target_offset: offset,
        writable: rw,
        seq: 1,
    };
    // The paper's table, row for row.
    let fixture: Vec<(u64, u64, MediumRow)> = vec![
        (12, 0, row(4000, None, 0, false)),
        (14, 0, row(4000, Some(12), 0, true)),
        (15, 0, row(1000, Some(12), 2000, true)),
        (18, 0, row(1000, Some(12), 2000, false)),
        (20, 0, row(1000, Some(18), 0, false)),
        (21, 0, row(1000, Some(20), 0, false)),
        (22, 0, row(500, Some(21), 0, true)),
        (22, 500, row(1000, Some(12), 2500, true)),
        (22, 1000, row(2000, None, 0, true)),
    ];
    for (m, start, r) in &fixture {
        t.insert_row(MediumId(*m), *start, *r);
    }

    let rows: Vec<Vec<String>> = fixture
        .iter()
        .map(|(m, start, r)| {
            vec![
                format!("{}", m),
                format!("{}:{}", start, r.end - 1),
                r.target
                    .map(|t| t.0.to_string())
                    .unwrap_or_else(|| "none".into()),
                if r.target.is_some() {
                    r.target_offset.to_string()
                } else {
                    "-".into()
                },
                if r.writable { "RW".into() } else { "RO".into() },
            ]
        })
        .collect();
    r.table(
        "Figure 6: medium table (paper's example)",
        &[
            "Source Medium",
            "Start:End",
            "Target Medium",
            "Offset",
            "Status",
        ],
        &rows,
    );

    r.line("\nlookup resolution chains:");
    for (m, s) in [(14u64, 100u64), (15, 10), (22, 42), (22, 600), (22, 1500)] {
        let chain = t.resolve(MediumId(m), s);
        let path: Vec<String> = chain
            .iter()
            .map(|c| format!("<{},{}>", c.medium.0, c.sector))
            .collect();
        r.line(format!("  <{},{}> -> {}", m, s, path.join(" -> ")));
    }
    r.line("\nnote medium 22's 500:999 range shortcuts directly to 12 (fewer lookups, §4.5),");
    r.line("and 22's 1000:1999 terminates recursion (freshly written space).");
}
