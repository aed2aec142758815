//! Incremental-cache behavior: hits replay byte-identical reports, and
//! edits and baseline changes invalidate exactly as content changes.

use std::fs;
use std::path::PathBuf;

use gcr_lint::cache::lint_workspace_cached;
use gcr_lint::{Baseline, BaselineEntry};

/// A throwaway workspace root with one deterministic-crate source file.
fn scratch(name: &str, src: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("gcr-lint-cache-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("crates/sim/src")).expect("scratch tree");
    fs::write(root.join("crates/sim/src/lib.rs"), src).expect("scratch source");
    root
}

const CLEAN: &str = "pub fn f() -> u64 { 7 }\n";
const DIRTY: &str = "pub fn f() -> u64 { let t = std::time::Instant::now(); 7 }\n";

#[test]
fn warm_run_hits_and_replays_the_exact_report() {
    let root = scratch("hit", CLEAN);
    let cache = root.join("target/lint-cache");
    let baseline = Baseline::default();
    let (cold, s0) = lint_workspace_cached(&root, &baseline, &cache).expect("cold");
    assert!(!s0.hit);
    let (warm, s1) = lint_workspace_cached(&root, &baseline, &cache).expect("warm");
    assert!(s1.hit, "unchanged tree must hit the workspace artifact");
    assert_eq!(
        cold.to_json().pretty(),
        warm.to_json().pretty(),
        "cache replay must be lossless"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn an_edit_invalidates_and_the_new_findings_appear() {
    let root = scratch("edit", CLEAN);
    let cache = root.join("target/lint-cache");
    let baseline = Baseline::default();
    let (cold, _) = lint_workspace_cached(&root, &baseline, &cache).expect("cold");
    assert!(cold.passed(), "the clean source must lint clean");

    fs::write(root.join("crates/sim/src/lib.rs"), DIRTY).expect("edit");
    let (edited, stats) = lint_workspace_cached(&root, &baseline, &cache).expect("edited");
    assert!(
        !stats.hit,
        "a content edit must miss the workspace artifact"
    );
    assert!(
        edited
            .findings
            .iter()
            .any(|f| f.rule == gcr_lint::Rule::D02),
        "the wall-clock read must surface after the edit: {:#?}",
        edited.findings
    );

    // Reverting restores the original key: full workspace hit again.
    fs::write(root.join("crates/sim/src/lib.rs"), CLEAN).expect("revert");
    let (reverted, s2) = lint_workspace_cached(&root, &baseline, &cache).expect("reverted");
    assert!(s2.hit, "reverting must hit the original artifact");
    assert_eq!(cold.to_json().pretty(), reverted.to_json().pretty());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_baseline_change_invalidates_the_workspace_artifact() {
    let root = scratch("baseline", DIRTY);
    let cache = root.join("target/lint-cache");
    let (report, _) = lint_workspace_cached(&root, &Baseline::default(), &cache).expect("cold");
    assert!(!report.passed());

    let grandfathered = Baseline {
        entries: report
            .findings
            .iter()
            .map(|f| BaselineEntry {
                file: f.file.clone(),
                rule: f.rule.id().to_string(),
                snippet: f.snippet.clone(),
                count: 1,
                note: "fixture".to_string(),
            })
            .collect(),
    };
    let (rebased, stats) = lint_workspace_cached(&root, &grandfathered, &cache).expect("rebased");
    assert!(!stats.hit, "a baseline change must miss the workspace tier");
    assert!(rebased.passed(), "grandfathered findings must not fail");
    let _ = fs::remove_dir_all(&root);
}
