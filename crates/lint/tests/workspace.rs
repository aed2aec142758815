//! Tier-1 gate: the live workspace must lint clean against the committed
//! baseline. This is the test that keeps nondeterminism from re-entering:
//! a new wall-clock read or recovery-path unwrap fails the build right
//! here. Some guards live outside the lint, and the last test below keeps
//! them in place: `clippy.toml` bans the hash containers and
//! `Result::unwrap_or_default`, the protocol crates forbid `dead_code`,
//! the library crates deny discarded `Result`s, and the recovery-critical
//! files deny wildcard enum arms.

use std::path::Path;

use gcr_lint::policy::{PROTOCOL_CRATES, RECOVERY_CRITICAL};
use gcr_lint::{lint_workspace, load_baseline};

/// The workspace root, two levels up from this crate's manifest.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
}

#[test]
fn live_workspace_has_zero_non_baseline_findings() {
    let root = workspace_root();
    let baseline = load_baseline(&root.join("lint-baseline.json")).expect("baseline must parse");
    let report = lint_workspace(root, &baseline).expect("workspace must be readable");
    assert!(
        report.passed(),
        "gcr-lint found new issues:\n{}",
        report.human()
    );
    assert!(
        report.unused_baseline.is_empty(),
        "baseline entries matching nothing should be removed:\n{}",
        report.human()
    );
    // Sanity: the walk actually saw the workspace, not an empty dir.
    assert!(
        report.files_scanned > 50,
        "only {} files",
        report.files_scanned
    );
}

#[test]
fn every_protocol_phase_spec_is_active_on_the_live_workspace() {
    // Zero P10 findings is only meaningful if every spec actually bound
    // to its entry point: a renamed/moved protocol fn would otherwise
    // silently deactivate its spec and pass vacuously.
    let root = workspace_root();
    let files = gcr_lint::collect_workspace_files(root).expect("workspace must be readable");
    let lexed: Vec<_> = files
        .iter()
        .map(|(_, src)| gcr_lint::lexer::lex(src))
        .collect();
    let views: Vec<(&str, &gcr_lint::lexer::Lexed)> = files
        .iter()
        .zip(&lexed)
        .map(|((rel, _), lx)| (rel.as_str(), lx))
        .collect();
    let index = gcr_lint::symbols::build(&views);
    let active = gcr_lint::phases::active_specs(&index, &views);
    for spec in gcr_lint::phases::SPECS {
        assert!(
            active.contains(&spec.protocol),
            "spec `{}` lost its entry `{}` in {} — update the spec table \
             alongside the protocol",
            spec.protocol,
            spec.entry,
            spec.entry_file
        );
    }
}

#[test]
fn every_protocol_mode_is_bound_to_a_live_session_table() {
    // Zero P20 findings is only meaningful if every `Mode` variant bound
    // to a fully-live session table. This also auto-enrolls protocol #8:
    // adding a variant without registering its wave/restart/serve
    // entries in session.rs fails right here (and fires P20 itself).
    let root = workspace_root();
    let files = gcr_lint::collect_workspace_files(root).expect("workspace must be readable");
    let lexed: Vec<_> = files
        .iter()
        .map(|(_, src)| gcr_lint::lexer::lex(src))
        .collect();
    let views: Vec<(&str, &gcr_lint::lexer::Lexed)> = files
        .iter()
        .zip(&lexed)
        .map(|((rel, _), lx)| (rel.as_str(), lx))
        .collect();
    let index = gcr_lint::symbols::build(&views);
    let active = gcr_lint::session::active_modes(&index, &views);
    let mode = index
        .enums
        .iter()
        .find(|e| e.name == "Mode" && e.krate == "core")
        .expect("the core crate defines the protocol Mode enum");
    assert!(!mode.variants.is_empty(), "Mode enum lost its variants");
    for v in &mode.variants {
        assert!(
            active.contains(v),
            "protocol mode `{v}` has no fully-live session table — \
             register its entries in crates/lint/src/session.rs"
        );
    }
}

#[test]
fn call_graph_resolves_enough_of_the_live_workspace() {
    let root = workspace_root();
    let report =
        lint_workspace(root, &gcr_lint::Baseline::default()).expect("workspace must be readable");
    let g = report
        .graph
        .expect("workspace lint always builds the graph");
    // The semantic passes are only as good as the graph under them: if
    // resolution decays (lexer drift, new call idioms), D03-T silently
    // loses edges. Keep the floor explicit.
    assert!(
        g.resolution_rate() >= 0.95,
        "call-graph resolution degraded: {} of {} sites ({:.1}%) — {} ambiguous",
        g.resolved + g.external,
        g.call_sites,
        g.resolution_rate() * 100.0,
        g.ambiguous
    );
    assert!(g.functions > 500, "index saw only {} fns", g.functions);
}

#[test]
fn the_compiler_guards_that_replace_lint_rules_stay_in_place() {
    let root = workspace_root();
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    };
    let carries = |rel: &str, attr: &str| {
        assert!(
            read(rel).lines().any(|l| l.trim() == attr),
            "{rel} must carry `{attr}`"
        );
    };
    // Dead code in a protocol crate is a compile error, not a finding.
    for krate in PROTOCOL_CRATES {
        carries(
            &format!("crates/{krate}/src/lib.rs"),
            "#![forbid(dead_code)]",
        );
    }
    // A `Result` dropped by `let _ =` or a statement `.ok()` fails clippy
    // in every library crate that can name a protocol error type.
    for krate in ["net", "mpi", "group", "trace", "workloads", "core", "chaos"] {
        carries(
            &format!("crates/{krate}/src/lib.rs"),
            "#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]",
        );
    }
    // A `_ =>` arm over an enum fails clippy on the recovery path.
    for rel in RECOVERY_CRITICAL {
        carries(rel, "#![deny(clippy::wildcard_enum_match_arm)]");
    }
    // clippy.toml bans hash-ordered containers and the `Result` form of
    // `unwrap_or_default`; CI runs clippy with `-D warnings`.
    let clippy = read("clippy.toml");
    for path in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "core::result::Result::unwrap_or_default",
    ] {
        assert!(
            clippy.contains(&format!("path = \"{path}\"")),
            "clippy.toml must disallow `{path}`"
        );
    }
}
