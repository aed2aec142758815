//! Fixture tests for the workspace semantic passes (D03-T and P01),
//! driven through [`gcr_lint::lint_files`] with synthetic multi-file
//! workspaces. Paths are chosen so the policy tiers resolve
//! the way each scenario needs (recovery-critical roots live in
//! `crates/core/src/restart.rs`, helpers in other workspace crates).

use gcr_lint::{lint_files, Baseline, Rule};

fn ws(files: &[(&str, &str)]) -> Vec<(String, String)> {
    files
        .iter()
        .map(|(r, s)| (r.to_string(), s.to_string()))
        .collect()
}

fn run(files: &[(&str, &str)]) -> gcr_lint::Report {
    lint_files(&ws(files), &Baseline::default())
}

fn rules_of(rep: &gcr_lint::Report) -> Vec<(String, usize, Rule)> {
    rep.findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.rule))
        .collect()
}

// ---------------------------------------------------------------- D03-T

#[test]
fn d03t_fires_through_a_cross_crate_chain() {
    let rep = run(&[
        (
            "crates/core/src/restart.rs",
            "use x::helper;\npub fn restart() { helper(0); }\n",
        ),
        (
            "crates/net/src/storage.rs",
            "pub fn helper(n: usize) { inner(n); }\nfn inner(n: usize) { let v = vec![1]; let _x = v[n]; }\n",
        ),
    ]);
    let d03t: Vec<_> = rep
        .findings
        .iter()
        .filter(|f| f.rule == Rule::D03T)
        .collect();
    assert_eq!(d03t.len(), 1, "{:?}", rules_of(&rep));
    assert_eq!(d03t[0].file, "crates/core/src/restart.rs");
    assert_eq!(d03t[0].line, 2);
    assert!(d03t[0].message.contains("`helper`"), "{}", d03t[0].message);
    assert!(d03t[0].message.contains("`inner`"), "{}", d03t[0].message);
}

#[test]
fn d03t_quiet_when_no_callee_panics() {
    let rep = run(&[
        (
            "crates/core/src/restart.rs",
            "pub fn restart() { helper(); }\n",
        ),
        (
            "crates/net/src/other.rs",
            "pub fn helper() -> Option<u32> { Some(1) }\n",
        ),
    ]);
    assert!(
        rep.findings.iter().all(|f| f.rule != Rule::D03T),
        "{:?}",
        rules_of(&rep)
    );
}

#[test]
fn d03t_quiet_on_primitive_qualified_calls() {
    // `u64::from` is std's conversion, not a workspace `fn from` that
    // happens to panic in another crate.
    let rep = run(&[
        (
            "crates/core/src/restart.rs",
            "pub fn restart(r: u32) -> u64 { u64::from(r) }\n",
        ),
        (
            "crates/net/src/rank.rs",
            "pub struct Rank(u32);\nimpl From<usize> for Rank {\n    fn from(v: usize) -> Rank { Rank(u32::try_from(v).expect(\"rank\")) }\n}\n",
        ),
    ]);
    assert!(
        rep.findings.iter().all(|f| f.rule != Rule::D03T),
        "{:?}",
        rules_of(&rep)
    );
}

#[test]
fn d03t_quiet_when_the_panic_is_outside_the_scope_crates() {
    // `sim` is not in D03T_SCOPE_CRATES: the call is a trusted boundary.
    let rep = run(&[
        (
            "crates/core/src/restart.rs",
            "pub fn restart() { kernel_step(); }\n",
        ),
        (
            "crates/sim/src/exec.rs",
            "pub fn kernel_step() { panic!(\"kernel bug\"); }\n",
        ),
    ]);
    assert!(
        rep.findings.iter().all(|f| f.rule != Rule::D03T),
        "{:?}",
        rules_of(&rep)
    );
}

#[test]
fn d03t_honors_a_trust_directive_and_reports_it_stale_when_unused() {
    let trusted = "// gcr-lint: trust(D03-T) table sized at construction\n\
                   pub fn helper(n: usize) { let v = vec![1]; let _x = v[n]; }\n";
    let rep = run(&[
        (
            "crates/core/src/restart.rs",
            "pub fn restart() { helper(0); }\n",
        ),
        ("crates/net/src/storage.rs", trusted),
    ]);
    assert!(
        rep.findings.is_empty(),
        "trusted file's panics are certified: {:?}",
        rules_of(&rep)
    );

    // The same directive on a panic-free file is stale (W00).
    let rep = run(&[(
        "crates/net/src/storage.rs",
        "// gcr-lint: trust(D03-T) nothing here\npub fn helper() {}\n",
    )]);
    assert_eq!(
        rules_of(&rep),
        vec![("crates/net/src/storage.rs".into(), 1, Rule::W00)]
    );
}

#[test]
fn d03t_call_site_waiver_suppresses_and_is_tracked() {
    let rep = run(&[
        (
            "crates/core/src/restart.rs",
            "pub fn restart() {\n    // gcr-lint: allow(D03-T) guarded by resize above\n    helper(0);\n}\n",
        ),
        (
            "crates/net/src/storage.rs",
            "pub fn helper(n: usize) { let v = vec![1]; let _x = v[n]; }\n",
        ),
    ]);
    assert!(
        rep.findings.is_empty(),
        "waived call site, waiver used: {:?}",
        rules_of(&rep)
    );
}

// ------------------------------------------------------------------ P01

#[test]
fn p01_fires_on_a_send_only_tag_and_names_the_missing_side() {
    let rep = run(&[(
        "crates/core/src/ctrl.rs",
        "pub mod tags { pub const MARKER: u64 = 1; pub const ACK: u64 = 2; }\n\
         pub fn a(x: &X) {\n    x.ctrl_send(tags::MARKER);\n    x.ctrl_send(tags::ACK);\n}\n\
         pub fn b(x: &X) {\n    x.ctrl_recv(tags::ACK);\n}\n",
    )]);
    assert_eq!(
        rules_of(&rep),
        vec![("crates/core/src/ctrl.rs".into(), 3, Rule::P01)]
    );
    assert!(rep.findings[0].message.contains("ctrl_recv"));
    assert!(rep.findings[0].message.contains("MARKER"));
}

#[test]
fn p01_quiet_when_paired_or_routed_through_a_helper() {
    let rep = run(&[(
        "crates/core/src/ctrl.rs",
        "pub mod tags { pub const BARRIER: u64 = 1; }\n\
         pub fn a(x: &X) {\n    ctrl_barrier(x, tags::BARRIER);\n}\n",
    )]);
    // The helper use makes pairing the helper's contract — no finding.
    assert!(rep.findings.is_empty(), "{:?}", rules_of(&rep));
}

// ------------------------------------------------------------- reporting

#[test]
fn graph_stats_flow_into_json_and_human_output() {
    let rep = run(&[(
        "crates/core/src/a.rs",
        "pub fn a() { b(); }\npub fn b() {}\n",
    )]);
    let g = rep.graph.as_ref().expect("graph stats");
    assert_eq!((g.functions, g.call_sites, g.resolved), (2, 1, 1));
    let json = rep.to_json().dump();
    assert!(json.contains("\"callgraph\""), "{json}");
    assert!(json.contains("\"resolution_rate\":\"1.0000\""), "{json}");
    assert!(
        rep.human().contains("call graph: 2 fn(s)"),
        "{}",
        rep.human()
    );
}
