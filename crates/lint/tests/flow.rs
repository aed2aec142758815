//! Fixture tests for the flow-sensitive passes: P10 protocol phase-order
//! model checking and D10 determinism taint dataflow. Each fixture is
//! fed through [`gcr_lint::lint_files`] as a synthetic workspace so the
//! interprocedural machinery (symbol index, call graph, spec activation)
//! runs exactly as it does on the live tree.

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

// ---------------------------------------------------------------- P10

/// The blocking-2pc spec only activates when the entry lives at its
/// real path, so every P10 fixture pretends to be `blocking.rs`.
const BLOCKING: &str = "crates/core/src/blocking.rs";

#[test]
fn p10_quiet_on_a_well_phased_blocking_wave() {
    let report = ws(&[(BLOCKING, include_str!("fixtures/p10_quiet.rs"))]);
    assert!(
        report.findings.is_empty(),
        "a spec-conforming wave must be clean: {:#?}",
        report.findings
    );
}

#[test]
fn p10_fires_on_send_after_commit() {
    let report = ws(&[(BLOCKING, include_str!("fixtures/p10_send_after_commit.rs"))]);
    let p10 = of_rule(&report, Rule::P10);
    assert!(
        p10.iter().any(|f| f
            .message
            .contains("`send:BOOKMARK` is illegal in phase `resolved`")
            && f.message.contains("witness")),
        "the post-commit BOOKMARK send must fire with a witness: {p10:#?}"
    );
}

#[test]
fn p10_fires_on_commit_without_post_write_barrier() {
    let report = ws(&[(
        BLOCKING,
        include_str!("fixtures/p10_commit_without_barrier.rs"),
    )]);
    let p10 = of_rule(&report, Rule::P10);
    assert!(
        p10.iter().any(|f| f
            .message
            .contains("`store.commit` is illegal in phase `pending`")
            && f.message.contains("witness")),
        "commit before BARRIER2 must fire with a witness: {p10:#?}"
    );
}

#[test]
fn p10_fires_when_abort_is_unreachable() {
    let report = ws(&[(BLOCKING, include_str!("fixtures/p10_abort_unreachable.rs"))]);
    let p10 = of_rule(&report, Rule::P10);
    assert!(
        p10.iter().any(|f| f
            .message
            .contains("required event `store.abort` is unreachable")),
        "an always-commit coordinator must fire the required-event check: {p10:#?}"
    );
}

#[test]
fn p10_fires_on_an_unresolved_generation() {
    let report = ws(&[(BLOCKING, include_str!("fixtures/p10_unmatched_begin.rs"))]);
    let p10 = of_rule(&report, Rule::P10);
    assert!(
        p10.iter()
            .any(|f| f.message.contains("non-accepting phase `pending`")),
        "a wave ending mid-generation must fire the accepting-state check: {p10:#?}"
    );
}

#[test]
fn p10_specs_stay_inactive_outside_their_entry_file() {
    // The same violating body at a different path matches no spec.
    let report = ws(&[(
        "crates/core/src/other.rs",
        include_str!("fixtures/p10_send_after_commit.rs"),
    )]);
    assert!(of_rule(&report, Rule::P10).is_empty());
}

// ---------------------------------------------------------------- D10

/// Bench is D02-exempt (wall-clock measurement is its job), so only the
/// flow-sensitive rule can fire here — exactly D10's value over D02.
const BENCH: &str = "crates/bench/src/fixture.rs";

#[test]
fn d10_fires_on_direct_and_interprocedural_flows() {
    let report = ws(&[(BENCH, include_str!("fixtures/d10_fire.rs"))]);
    let d10 = of_rule(&report, Rule::D10);
    assert_eq!(d10.len(), 2, "digest + trace_send sinks: {d10:#?}");
    assert!(
        d10.iter().any(|f| f.message.contains("`digest(…)`")
            && f.message.contains("Instant::now()")
            && f.message.contains("`wall`")),
        "the direct flow must carry its witness chain: {d10:#?}"
    );
    assert!(
        d10.iter().any(|f| f.message.contains("`trace_send(…)`")
            && f.message.contains("returns a nondeterministic value")),
        "the helper-return flow must name the tainted call: {d10:#?}"
    );

    // Consuming iteration observes hash order just like `.keys()`.
    for method in ["into_keys", "into_values"] {
        let src = format!(
            "use std::collections::HashMap;\n\
             pub fn fold(m: HashMap<u64, u64>, out: &mut Vec<u64>) {{\n\
             \x20   out.push(digest(m.{method}().next().unwrap_or(0)));\n\
             }}\n\
             fn digest(x: u64) -> u64 {{ x }}\n"
        );
        let report = ws(&[(BENCH, &src)]);
        let d10 = of_rule(&report, Rule::D10);
        assert!(
            d10.len() == 1
                && d10[0].line == 3
                && d10[0].message.contains("hash-ordered iteration over `m`"),
            "`.{method}()` on a hash-bound map must taint the digest: {d10:#?}"
        );
    }
}

#[test]
fn d10_quiet_on_killed_taint_and_unsinked_wall_time() {
    let report = ws(&[(BENCH, include_str!("fixtures/d10_quiet.rs"))]);
    assert!(
        report.findings.is_empty(),
        "reassignment kills taint; reporting is not digesting: {:#?}",
        report.findings
    );
}

// -------------------------------------------------------------- SARIF

#[test]
fn sarif_renders_findings_with_rule_metadata() {
    let report = ws(&[(BENCH, include_str!("fixtures/d10_fire.rs"))]);
    let sarif = report.to_sarif().pretty();
    assert!(sarif.contains("\"version\": \"2.1.0\""));
    assert!(sarif.contains("\"name\": \"gcr-lint\""));
    assert!(sarif.contains("\"ruleId\": \"D10\""));
    assert!(sarif.contains("crates/bench/src/fixture.rs"));
    // Rendering is a pure function of the (sorted) report: byte-stable.
    assert_eq!(sarif, report.to_sarif().pretty());
}
