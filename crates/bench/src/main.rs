//! `exhibit`: the one binary behind every table, figure and in-text
//! experiment.
//!
//!   exhibit --list           print the registry
//!   exhibit <name> [args]    run one exhibit, streaming its text
//!   exhibit --gate           run every gated exhibit with its gate args
//!
//! A gated exhibit's run leaves `results/<name>.txt` (and `.json` if it
//! emits a document) behind, whatever the arguments; only the gate
//! arguments reproduce the committed bytes.

use purity_bench::EXHIBITS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--list") => {
            for e in EXHIBITS {
                let gate = match e.gate {
                    None => "not gated".to_string(),
                    Some([]) => "gate: no arguments".to_string(),
                    Some(args) => format!("gate: {}", args.join(" ")),
                };
                println!("{} ({gate})\n    {}", e.name, e.about);
            }
        }
        Some("--gate") => {
            for e in EXHIBITS {
                let Some(gate) = e.gate else { continue };
                eprintln!("==> {} {}", e.name, gate.join(" "));
                e.run(gate, false).write(e.name);
            }
        }
        name => {
            let Some(e) = name.and_then(|n| EXHIBITS.iter().find(|e| e.name == n)) else {
                eprintln!("usage: exhibit --list | --gate | <name> [args]  (--list names them)");
                std::process::exit(2);
            };
            let report = e.run(&args[1..], true);
            if e.gate.is_some() {
                report.write(e.name);
            }
        }
    }
}
