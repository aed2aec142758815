//! Seeded mutation fuzz of the JSON readers: a group definition, a trace
//! and a lint baseline are spliced, cut and overwritten with hostile
//! numbers, brackets and escapes, and every result goes through every
//! reader. A reader may reject a document; none may panic. Every trace
//! a reader accepts also goes through the consumers that size and sum
//! from it (`summarize`, `pair_flows`, `form_groups`). The lint cache's
//! workspace entry is fuzzed the same way in place: a corrupt entry is a
//! miss, and a replayed one must render.
//!
//! Mutations come from the deterministic [`DetRng`], so a failing case
//! replays from its index. The tier-1 run is small; run the long one
//! with `cargo test --test json_fuzz -- --ignored`. Keep it a debug
//! build: the test profile's overflow checks are what turn a wrapped
//! tally into a panic here.

use std::fs;
use std::ops::Range;
use std::panic;

use gcr_group::{form_groups, GroupDef};
use gcr_lint::cache::lint_workspace_cached;
use gcr_lint::Baseline;
use gcr_sim::DetRng;
use gcr_trace::{pair_flows, summarize, Trace};

/// One valid document per reader. Small numbers, so that overwriting one
/// with a hostile piece yields a document that still parses.
const SEEDS: [&str; 3] = [
    r#"{"n":6,"groups":[[0,1,2],[3,4],[5]]}"#,
    r#"{"meta":{"n":4,"workload":"ring"},"events":[{"ev":"send","t":1,"src":0,"dst":1,"tag":7,"bytes":8},{"ev":"recv","t_sent":1,"t":3,"src":0,"dst":1,"tag":7,"bytes":8},{"ev":"send","t":2,"src":1,"dst":2,"tag":7,"bytes":9},{"ev":"send","t":4,"src":2,"dst":3,"tag":7,"bytes":5},{"ev":"send","t":5,"src":3,"dst":0,"tag":7,"bytes":6}]}"#,
    r#"{"version":1,"findings":[{"file":"src/a.rs","rule":"D01","snippet":"let s = \"a\\\"b\";","count":2,"note":"tolerated"}]}"#,
];

/// What the mutator inserts: numbers at and past the integer limits the
/// readers convert to, structure, and escapes. `MAX_TRACE_RANKS + 1` is
/// here but not the cap itself: a trace of 2^24 ranks is valid, and
/// forming its 2^24 singleton groups takes seconds and a gigabyte.
const PIECES: [&str; 23] = [
    "18446744073709551615",
    "18446744073709551616",
    "4294967295",
    "4294967296",
    "16777217",
    "-1",
    "-0",
    "0.5",
    "1e309",
    "99999999999999999999999",
    "0",
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "\\u0000",
    "null",
];

/// Byte ranges of the maximal runs of ASCII digits in `bytes`.
fn digit_runs(bytes: &[u8]) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i > start {
            runs.push(start..i);
        } else {
            i += 1;
        }
    }
    runs
}

/// One to three edits: splice a piece in, cut up to three bytes, overwrite
/// up to three bytes with a piece, or overwrite a whole number with one.
fn mutate(rng: &mut DetRng, doc: &str) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for _ in 0..rng.range_u64(1, 4) {
        let at = rng.index(bytes.len() + 1);
        let end = (at + rng.index(4)).min(bytes.len());
        let piece = PIECES[rng.index(PIECES.len())].bytes();
        match rng.index(4) {
            0 => drop(bytes.splice(at..at, piece)),
            1 => drop(bytes.drain(at..end)),
            2 => drop(bytes.splice(at..end, piece)),
            _ => {
                let runs = digit_runs(&bytes);
                if !runs.is_empty() {
                    let run = runs[rng.index(runs.len())].clone();
                    drop(bytes.splice(run, piece));
                }
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Feed `doc` to every reader; returns which of them accepted it.
fn read_all(doc: &str, max_size: usize) -> [bool; 3] {
    let trace = Trace::from_json_str(doc);
    if let Ok(trace) = &trace {
        summarize(trace);
        pair_flows(trace);
        form_groups(trace, max_size);
    }
    [
        GroupDef::from_json_str(doc).is_ok(),
        trace.is_ok(),
        Baseline::parse(doc).is_ok(),
    ]
}

fn fuzz(cases: u64) {
    let mut accepted = [0u64; 3];
    for case in 0..cases {
        let mut rng = DetRng::new(0x150f_f022).fork_idx(case);
        let doc = mutate(&mut rng, SEEDS[case as usize % SEEDS.len()]);
        let max_size = 1 + rng.index(4);
        let Ok(ok) = panic::catch_unwind(|| read_all(&doc, max_size)) else {
            panic!("case {case} panicked on {doc}");
        };
        for (n, ok) in accepted.iter_mut().zip(ok) {
            *n += u64::from(ok);
        }
    }
    // Each reader must accept some mutants, or the consumers behind it
    // would go unexercised.
    assert!(accepted.iter().all(|&n| n > 0), "accepted {accepted:?}");
}

#[test]
fn mutated_json_documents_never_panic_a_reader() {
    fuzz(20_000);
}

#[test]
#[ignore = "long run: about a million cases"]
fn mutated_json_documents_never_panic_a_reader_long() {
    fuzz(1_000_000);
}

fn fuzz_cache(cases: u64) {
    let root = std::env::temp_dir().join(format!("gcr-json-fuzz-cache-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("crates/sim/src")).expect("scratch tree");
    fs::write(
        root.join("crates/sim/src/lib.rs"),
        "pub fn f() -> u64 { let t = std::time::Instant::now(); 7 }\n",
    )
    .expect("scratch source");
    let cache = root.join("target/lint-cache");
    let baseline = Baseline::default();
    lint_workspace_cached(&root, &baseline, &cache).expect("cold run");
    let entries: Vec<_> = fs::read_dir(&cache)
        .expect("cache dir")
        .map(|e| e.expect("cache entry").path())
        .collect();
    let [entry] = entries.as_slice() else {
        panic!("one workspace entry expected: {entries:?}");
    };
    let rendered = fs::read_to_string(entry).expect("cached report");
    for case in 0..cases {
        let mut rng = DetRng::new(0x1c_ac4e).fork_idx(case);
        let doc = mutate(&mut rng, &rendered);
        fs::write(entry, &doc).expect("overwrite entry");
        let run = panic::catch_unwind(|| {
            let (report, _) = lint_workspace_cached(&root, &baseline, &cache)?;
            report.human();
            report.to_json().pretty();
            report.to_sarif().pretty();
            Ok::<_, std::io::Error>(())
        });
        match run {
            Ok(Ok(())) => {}
            Ok(Err(e)) => panic!("case {case} failed ({e}) on {doc}"),
            Err(_) => panic!("case {case} panicked on {doc}"),
        }
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn mutated_lint_cache_entries_never_panic_a_cached_run() {
    fuzz_cache(2_000);
}

#[test]
#[ignore = "long run: a hundred thousand cases"]
fn mutated_lint_cache_entries_never_panic_a_cached_run_long() {
    fuzz_cache(100_000);
}
