//! The exhibit registry and the committed `results/` directory must
//! agree, and the cheap structural exhibits must still print their
//! committed bytes — so plain `cargo test` catches an exhibit drifting
//! from its published output, not only `scripts/check_results.sh`.

use purity_bench::{results_dir, EXHIBITS};
use std::collections::BTreeSet;

#[test]
fn names_are_unique() {
    let names: BTreeSet<_> = EXHIBITS.iter().map(|e| e.name).collect();
    assert_eq!(names.len(), EXHIBITS.len(), "duplicate exhibit name");
}

#[test]
fn committed_results_match_the_registry() {
    let gated: BTreeSet<_> = EXHIBITS
        .iter()
        .filter(|e| e.gate.is_some())
        .map(|e| e.name)
        .collect();
    for name in &gated {
        let text = results_dir().join(format!("{name}.txt"));
        assert!(text.exists(), "{name} is gated but {text:?} is missing");
    }
    for entry in std::fs::read_dir(results_dir()).expect("results/") {
        let path = entry.unwrap().path();
        let stem = path.file_stem().unwrap().to_str().unwrap();
        if stem.ends_with("_repro") {
            continue; // a failed torture sweep's one-line repro: gitignored, never committed
        }
        let ext = path.extension().and_then(|e| e.to_str());
        assert!(
            gated.contains(stem) && matches!(ext, Some("txt" | "json")),
            "{path:?} belongs to no gated exhibit"
        );
    }
}

#[test]
fn structural_exhibits_print_their_committed_bytes() {
    for name in [
        "fig1_ssd",
        "fig2_array",
        "fig3_segment",
        "fig4_wal",
        "fig5_frontier",
        "fig6_mediums",
        "table2",
        "exp_anchor",
        "exp_rollback",
        "exp_elision",
    ] {
        let e = EXHIBITS.iter().find(|e| e.name == name).expect(name);
        let report = e.run(e.gate.expect(name), false);
        let committed = std::fs::read_to_string(results_dir().join(format!("{name}.txt")));
        assert_eq!(
            report.text(),
            committed.expect(name),
            "{name} drifted from results/{name}.txt"
        );
        assert_eq!(
            report.json_doc().is_some(),
            results_dir().join(format!("{name}.json")).exists(),
            "{name}: emitted JSON and results/{name}.json disagree"
        );
    }
}
