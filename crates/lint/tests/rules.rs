//! Fixture tests: each rule has a positive fixture it must fire on and a
//! negative fixture it must stay quiet on, under the policy tier the rule
//! targets. The fixtures live under `tests/fixtures/` and are never
//! compiled — they are inputs to the analyzer, not code.

use gcr_lint::{lint_source, Baseline, BaselineEntry, Rule, Status};

/// Lint a fixture as if it lived at `rel` inside the workspace.
fn lint_at(rel: &str, src: &str) -> Vec<gcr_lint::Finding> {
    lint_source(rel, src)
}

fn rules_of(findings: &[gcr_lint::Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- D02

#[test]
fn d02_fires_on_wall_clock_and_threads() {
    let fs = lint_at(
        "crates/net/src/fixture.rs",
        include_str!("fixtures/d02_fire.rs"),
    );
    assert_eq!(
        rules_of(&fs),
        vec![Rule::D02, Rule::D02],
        "Instant::now and available_parallelism each fire once: {fs:?}"
    );

    // Overlapping patterns give one finding per line, naming the first
    // pattern in D02's list that matches.
    let fs = lint_at(
        "crates/net/src/fixture.rs",
        "fn f() { let t = std::time::Instant::now(); }\n",
    );
    assert_eq!(rules_of(&fs), vec![Rule::D02], "{fs:?}");
    assert!(fs[0].message.contains("`Instant::now`"), "{fs:?}");

    // A pattern at the start of a line, at its end, and before a `\r\n`
    // line ending each fire.
    let src = "std::env::var(\"X\");\nlet p = available_parallelism\n\
               let r = RandomState\r\nlet s = 1;\r\n";
    let fs = lint_at("crates/net/src/fixture.rs", src);
    let lines: Vec<usize> = fs.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![1, 2, 3], "{fs:?}");
    assert!(fs.iter().all(|f| f.rule == Rule::D02));
}

#[test]
fn d02_quiet_on_sim_time_and_comments() {
    let fs = lint_at(
        "crates/net/src/fixture.rs",
        include_str!("fixtures/d02_quiet.rs"),
    );
    assert!(fs.is_empty(), "comments and strings are not code: {fs:?}");

    // Identifier boundaries: a longer identifier hides the pattern, and a
    // pattern never matches across spaces.
    let src = "fn f() { my_std::env::x(); SystemTimeX::new(); std :: env :: var(); }\n";
    let fs = lint_at("crates/net/src/fixture.rs", src);
    assert!(fs.is_empty(), "{fs:?}");

    // Strings, comments and `#[cfg(test)]` items are not simulated code.
    let src = "fn f() -> &'static str { \"thread::spawn\" }\n\
               // RandomState\n\
               /* SystemTime */\n\
               #[cfg(test)]\n\
               mod tests {\n    fn t() { std::thread::sleep(d); }\n}\n";
    let fs = lint_at("crates/net/src/fixture.rs", src);
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn d02_exempt_in_bench_and_cli() {
    let src = include_str!("fixtures/d02_fire.rs");
    assert!(lint_at("crates/bench/src/fixture.rs", src).is_empty());
    assert!(lint_at("src/cli.rs", src).is_empty());
}

// ---------------------------------------------------------------- D03

#[test]
fn d03_fires_on_aborts_in_recovery_critical_file() {
    let fs = lint_at(
        "crates/core/src/restart.rs",
        include_str!("fixtures/d03_fire.rs"),
    );
    let d03 = fs.iter().filter(|f| f.rule == Rule::D03).count();
    assert!(
        d03 >= 4,
        "unwrap, expect, indexing and panic! must all fire: {fs:?}"
    );
}

#[test]
fn d03_quiet_on_typed_errors_and_checked_access() {
    let fs = lint_at(
        "crates/core/src/restart.rs",
        include_str!("fixtures/d03_quiet.rs"),
    );
    assert!(
        fs.is_empty(),
        "ok_or and .get() are the sanctioned forms: {fs:?}"
    );
}

#[test]
fn d03_not_applied_outside_recovery_critical_files() {
    let fs = lint_at(
        "crates/core/src/blocking.rs",
        include_str!("fixtures/d03_fire.rs"),
    );
    assert!(
        fs.iter().all(|f| f.rule != Rule::D03),
        "blocking.rs is not recovery-critical: {fs:?}"
    );
}

// ------------------------------------------------------- suppressions

#[test]
fn justified_suppression_waives_the_finding() {
    let fs = lint_at(
        "crates/net/src/fixture.rs",
        include_str!("fixtures/suppress_ok.rs"),
    );
    assert!(fs.is_empty(), "waived finding must not be reported: {fs:?}");
}

#[test]
fn stale_suppression_is_reported_as_w00() {
    let fs = lint_at(
        "crates/net/src/fixture.rs",
        include_str!("fixtures/suppress_stale.rs"),
    );
    assert_eq!(rules_of(&fs), vec![Rule::W00], "{fs:?}");

    // A waiver naming a retired rule id is malformed, hence W00 too.
    let fs = lint_at(
        "crates/net/src/fixture.rs",
        "// gcr-lint: allow(D01) reason\nlet x = 1;\n",
    );
    assert_eq!(rules_of(&fs), vec![Rule::W00], "{fs:?}");
}

#[test]
fn unjustified_suppression_waives_but_earns_w01() {
    let fs = lint_at(
        "crates/net/src/fixture.rs",
        include_str!("fixtures/suppress_unjustified.rs"),
    );
    assert_eq!(rules_of(&fs), vec![Rule::W01], "{fs:?}");
}

// ----------------------------------------------------------- baseline

#[test]
fn baseline_round_trips_and_grandfathers_findings() {
    let mut findings = lint_at(
        "crates/net/src/fixture.rs",
        include_str!("fixtures/d02_fire.rs"),
    );
    assert!(!findings.is_empty());

    // dump → parse must be lossless.
    let base = Baseline {
        entries: findings
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
    let reparsed = Baseline::parse(&base.dump()).expect("own dump must parse");
    assert_eq!(base, reparsed);

    // The round-tripped baseline covers every finding…
    let unused = reparsed.apply(&mut findings);
    assert!(unused.is_empty(), "everything should match: {unused:?}");
    assert!(findings.iter().all(|f| f.status == Status::Baselined));

    // …and an entry that matches nothing is reported as unused.
    let mut none: Vec<gcr_lint::Finding> = Vec::new();
    let unused = reparsed.apply(&mut none);
    assert_eq!(unused.len(), reparsed.entries.len());
}

#[test]
fn baseline_rejects_unknown_version() {
    assert!(Baseline::parse("{\"version\": 2, \"findings\": []}").is_err());
}
