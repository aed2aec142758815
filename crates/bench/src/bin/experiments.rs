//! Regenerate the paper's evaluation.
//!
//! ```text
//! experiments              # every entry: writes results/<name>.txt and
//!                          # prints the verdict table EXPERIMENTS.md carries
//! experiments fig06 fig09  # prints only the named entries
//! ```
//!
//! Exits 2 on an unknown entry name.

use std::path::Path;
use std::time::Instant;

use gcr_bench::experiments::{verdict_table, Sweeps, ENTRIES};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(n) = names.iter().find(|n| ENTRIES.iter().all(|e| e.name != *n)) {
        let known: Vec<&str> = ENTRIES.iter().map(|e| e.name).collect();
        eprintln!("unknown entry '{n}' (entries: {})", known.join(" "));
        std::process::exit(2);
    }
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let sweeps = Sweeps::default();
    let mut rows = Vec::new();
    for e in ENTRIES
        .iter()
        .filter(|e| names.is_empty() || names.iter().any(|n| n == e.name))
    {
        let start = Instant::now();
        let out = e.run(&sweeps);
        if names.is_empty() {
            let path = results.join(format!("{}.txt", e.name));
            std::fs::write(&path, out.render())
                .unwrap_or_else(|err| panic!("writing {}: {err}", path.display()));
            eprintln!(
                "{}: {} in {:.0} s",
                e.name,
                out.verdict(),
                start.elapsed().as_secs_f64()
            );
        } else {
            print!("{}", out.render());
        }
        rows.push((e, out));
    }
    if names.is_empty() {
        let rows: Vec<_> = rows.iter().map(|(e, o)| (*e, o)).collect();
        print!("{}", verdict_table(&rows));
    }
}
