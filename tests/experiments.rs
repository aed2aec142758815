//! The paper's verdict table is computed, not asserted. Table 1, the
//! one entry that runs in well under a second in a debug build (the next
//! cheapest, the GC ablation, takes about 10 s), reproduces its committed
//! `results/table1.txt` byte for byte, verdict line included, and
//! EXPERIMENTS.md's verdict column carries the verdict line of every
//! committed result, one row per entry. `cargo run --release -p
//! gcr-bench --bin experiments` regenerates both.

use gcr_bench::experiments::{Sweeps, ENTRIES};

fn read(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn table1_reproduces_its_committed_result() {
    let entry = ENTRIES
        .iter()
        .find(|e| e.name == "table1")
        .expect("an entry of the table");
    assert_eq!(
        entry.run(&Sweeps::default()).render(),
        read("results/table1.txt")
    );
}

#[test]
fn the_verdict_table_carries_every_committed_verdict() {
    let doc = read("EXPERIMENTS.md");
    // `| `name` | paper claim | measured | verdict |`
    let rows: Vec<(&str, &str)> = doc
        .lines()
        .filter_map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let name = cells.get(1)?.strip_prefix('`')?.strip_suffix('`')?;
            Some((name, cells[cells.len() - 2]))
        })
        .collect();
    for e in ENTRIES {
        let verdicts: Vec<&str> = rows
            .iter()
            .filter(|(name, _)| *name == e.name)
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(
            verdicts.len(),
            1,
            "{}: one row in the verdict table",
            e.name
        );
        let result = read(&format!("results/{}.txt", e.name));
        let last = result.lines().last().unwrap_or_default();
        assert_eq!(last, format!("verdict: {}", verdicts[0]), "{}", e.name);
    }
    assert_eq!(rows.len(), ENTRIES.len(), "a row for no entry: {rows:?}");
}
