//! Fixture tests for the conformance passes: P20 session tag-duality
//! and P21 GC-floor soundness. Each fixture pretends to live at the real
//! protocol path so the checked-in session tables activate, and is fed
//! through [`gcr_lint::lint_files`] as a synthetic workspace.

use gcr_lint::{lint_files, Baseline, Finding, Report, Rule};

/// Lint an in-memory workspace.
fn ws(files: &[(&str, &str)]) -> Report {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.to_string()))
        .collect();
    lint_files(&owned, &Baseline::default())
}

fn of_rule(report: &Report, rule: Rule) -> Vec<&Finding> {
    report.findings.iter().filter(|f| f.rule == rule).collect()
}

/// The session tables only activate at the real protocol paths.
const BLOCKING: &str = "crates/core/src/blocking.rs";
const VCL: &str = "crates/core/src/vcl.rs";
const CONFIG: &str = "crates/core/src/config.rs";
const RESTART: &str = "crates/core/src/restart.rs";
const HOOKS: &str = "crates/core/src/hooks.rs";

// ---------------------------------------------------------------- P20

#[test]
fn p20_fires_on_orphaned_tag_and_dead_dispatch_arm() {
    let report = ws(&[(BLOCKING, include_str!("fixtures/p20_fire.rs"))]);
    let p20 = of_rule(&report, Rule::P20);
    assert!(
        p20.iter().any(|f| f.message.contains("`MARKER`")
            && f.message.contains("rendezvous blocks the wave forever")),
        "the unhandled MARKER emit must fire: {p20:#?}"
    );
    assert!(
        p20.iter()
            .any(|f| f.message.contains("`COMMIT`") && f.message.contains("dead dispatch arm")),
        "the unemittable COMMIT handler must fire: {p20:#?}"
    );
}

#[test]
fn p20_quiet_on_a_tag_dual_session() {
    let report = ws(&[(BLOCKING, include_str!("fixtures/p20_quiet.rs"))]);
    let p20 = of_rule(&report, Rule::P20);
    assert!(p20.is_empty(), "a dual session must be clean: {p20:#?}");
}

#[test]
fn p20_fires_on_mode_mismatched_tag() {
    let report = ws(&[
        (
            BLOCKING,
            include_str!("fixtures/p20_mode_mismatch_blocking.rs"),
        ),
        (VCL, include_str!("fixtures/p20_mode_mismatch_vcl.rs")),
    ]);
    let p20 = of_rule(&report, Rule::P20);
    assert!(
        p20.iter().any(|f| f.message.contains("`CVC_CLOCK`")
            && f.message.contains("emitted under mode `Vcl`")
            && f.message.contains("handled only under")),
        "the Vcl emit with a Blocking-only handler must fire: {p20:#?}"
    );
    assert!(
        p20.iter().any(|f| f.message.contains("`CVC_CLOCK`")
            && f.message.contains("handled under mode `Blocking`")
            && f.message.contains("emitted only under [Vcl]")),
        "the Blocking handler fed only by Vcl must fire: {p20:#?}"
    );
}

#[test]
fn p20_fires_on_a_mode_variant_without_a_session_table() {
    let report = ws(&[
        (CONFIG, include_str!("fixtures/p20_enroll_config.rs")),
        (BLOCKING, include_str!("fixtures/p20_quiet.rs")),
        (RESTART, include_str!("fixtures/p20_enroll_restart.rs")),
    ]);
    let p20 = of_rule(&report, Rule::P20);
    assert!(
        p20.iter().any(|f| f.file == CONFIG
            && f.message.contains("`Extra`")
            && f.message.contains("no live P20 session table")),
        "the unregistered `Extra` variant must fire at the enum: {p20:#?}"
    );
    assert!(
        !p20.iter().any(|f| f.message.contains("`Blocking`")),
        "the fully-live `Blocking` table must not fire: {p20:#?}"
    );
}

// ---------------------------------------------------------------- P21

#[test]
fn p21_fires_when_a_pending_value_reaches_the_gc_surfaces() {
    let report = ws(&[(HOOKS, include_str!("fixtures/p21_fire.rs"))]);
    let p21 = of_rule(&report, Rule::P21);
    assert!(
        p21.iter().any(|f| f.message.contains("`advertise(…)`")
            && f.message.contains("pending generation ledger")),
        "the pending-derived advertise must fire with its chain: {p21:#?}"
    );
    assert!(
        p21.iter().any(|f| f.message.contains("`gc(…)`")),
        "the pending-derived log trim must fire: {p21:#?}"
    );
}

#[test]
fn p21_quiet_on_committed_floors_and_killed_bindings() {
    let report = ws(&[(HOOKS, include_str!("fixtures/p21_quiet.rs"))]);
    let p21 = of_rule(&report, Rule::P21);
    assert!(
        p21.is_empty(),
        "committed-ledger floors and cleanly reassigned bindings must be \
         quiet: {p21:#?}"
    );
}
