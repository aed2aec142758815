//! CI runtime budget: `gcrsim lint` runs on every push, so the full
//! analysis — lexing, call graph, semantic passes, and the
//! flow-sensitive and conformance engines — must stay interactive, and
//! warm runs through the incremental cache must feel instant. CI runs
//! this test in
//! release mode (the `lint-workspace` job); the wall-clock assertion is
//! meaningless under an unoptimized build, so it is release-gated.

use std::path::Path;
use std::time::{Duration, Instant};

use gcr_lint::cache::lint_workspace_cached;
use gcr_lint::{lint_workspace, Baseline};

const BUDGET: Duration = Duration::from_secs(10);

/// A warm (fully cached) run must feel instant — the interactive bar.
const WARM_BUDGET: Duration = Duration::from_secs(2);

#[test]
fn full_workspace_lint_stays_under_the_ci_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root");
    let t0 = Instant::now();
    let report = lint_workspace(root, &Baseline::default()).expect("workspace must be readable");
    let elapsed = t0.elapsed();
    // The walk must have seen the real tree, or the timing is a lie.
    assert!(
        report.files_scanned > 50,
        "only {} files scanned",
        report.files_scanned
    );
    if cfg!(not(debug_assertions)) {
        assert!(
            elapsed < BUDGET,
            "full-workspace lint took {elapsed:?} (budget {BUDGET:?}) — \
             profile the flow-sensitive passes before raising this"
        );
    }
}

#[test]
fn warm_cache_lint_stays_under_the_interactive_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root");
    let cache_dir = std::env::temp_dir().join(format!("gcr-lint-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let baseline = Baseline::default();
    let cold = lint_workspace_cached(root, &baseline, &cache_dir).expect("cold run");
    assert!(!cold.1.hit, "first run against an empty cache must be cold");

    let t0 = Instant::now();
    let warm = lint_workspace_cached(root, &baseline, &cache_dir).expect("warm run");
    let elapsed = t0.elapsed();
    assert!(warm.1.hit, "second run of an unchanged tree must hit");
    // The cache must be a pure memo: byte-identical reports, cold or warm.
    assert_eq!(
        cold.0.to_json().pretty(),
        warm.0.to_json().pretty(),
        "cached report drifted from the cold run"
    );
    if cfg!(not(debug_assertions)) {
        assert!(
            elapsed < WARM_BUDGET,
            "warm-cache lint took {elapsed:?} (budget {WARM_BUDGET:?}) — \
             the workspace artifact should replay without re-analysis"
        );
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}
