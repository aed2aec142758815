//! Golden output: every fixture under `tests/fixtures/`, linted at the
//! path and in the file combination its fire/quiet test uses, plus the
//! firing semantic-pass workspaces of `tests/semantic.rs`, folded into
//! one FNV-1a digest of the rendered JSON reports. The fire/quiet tests
//! check verdicts and message fragments; this test pins every byte —
//! file, line, rule, full message, snippet, call-graph stats — so a
//! refactor of the analyzer's internals can prove it changed no output.

use gcr_lint::{lint_files, lint_source, Baseline, Report};

/// Digest of every case below, rendered with `Report::to_json().pretty()`.
const PINNED: u64 = 0x67ff_cb22_8084_6f8e;

const BLOCKING: &str = "crates/core/src/blocking.rs";
const RESTART: &str = "crates/core/src/restart.rs";
const HOOKS: &str = "crates/core/src/hooks.rs";
const BENCH: &str = "crates/bench/src/fixture.rs";

/// Local-rule fixtures: each is linted alone, by `lint_source` and as a
/// one-file workspace, at every path its tests use.
const LOCAL: &[(&str, &str)] = &[
    (
        "crates/net/src/fixture.rs",
        include_str!("fixtures/d02_fire.rs"),
    ),
    (
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/d02_fire.rs"),
    ),
    ("src/cli.rs", include_str!("fixtures/d02_fire.rs")),
    (
        "crates/net/src/fixture.rs",
        include_str!("fixtures/d02_quiet.rs"),
    ),
    (RESTART, include_str!("fixtures/d03_fire.rs")),
    (BLOCKING, include_str!("fixtures/d03_fire.rs")),
    (RESTART, include_str!("fixtures/d03_quiet.rs")),
    (
        "crates/net/src/fixture.rs",
        include_str!("fixtures/suppress_ok.rs"),
    ),
    (
        "crates/net/src/fixture.rs",
        include_str!("fixtures/suppress_stale.rs"),
    ),
    (
        "crates/net/src/fixture.rs",
        include_str!("fixtures/suppress_unjustified.rs"),
    ),
];

/// Workspace fixtures, in the file combinations the flow and
/// conformance tests lint them in.
const WORKSPACES: &[&[(&str, &str)]] = &[
    &[(BLOCKING, include_str!("fixtures/p10_quiet.rs"))],
    &[(BLOCKING, include_str!("fixtures/p10_send_after_commit.rs"))],
    &[(
        BLOCKING,
        include_str!("fixtures/p10_commit_without_barrier.rs"),
    )],
    &[(BLOCKING, include_str!("fixtures/p10_abort_unreachable.rs"))],
    &[(BLOCKING, include_str!("fixtures/p10_unmatched_begin.rs"))],
    &[(
        "crates/core/src/other.rs",
        include_str!("fixtures/p10_send_after_commit.rs"),
    )],
    &[(BENCH, include_str!("fixtures/d10_fire.rs"))],
    &[(BENCH, include_str!("fixtures/d10_quiet.rs"))],
    &[(BLOCKING, include_str!("fixtures/p20_fire.rs"))],
    &[(BLOCKING, include_str!("fixtures/p20_quiet.rs"))],
    &[
        (
            BLOCKING,
            include_str!("fixtures/p20_mode_mismatch_blocking.rs"),
        ),
        (
            "crates/core/src/vcl.rs",
            include_str!("fixtures/p20_mode_mismatch_vcl.rs"),
        ),
    ],
    &[
        (
            "crates/core/src/config.rs",
            include_str!("fixtures/p20_enroll_config.rs"),
        ),
        (BLOCKING, include_str!("fixtures/p20_quiet.rs")),
        (RESTART, include_str!("fixtures/p20_enroll_restart.rs")),
    ],
    &[(HOOKS, include_str!("fixtures/p21_fire.rs"))],
    &[(HOOKS, include_str!("fixtures/p21_quiet.rs"))],
];

/// The firing workspaces of the semantic passes (D03-T, E01–E03, P01,
/// P02 and a stale trust directive), copied from `tests/semantic.rs`.
const SEMANTIC: &[&[(&str, &str)]] = &[
    &[
        (RESTART, "use x::helper;\npub fn restart() { helper(0); }\n"),
        (
            "crates/net/src/storage.rs",
            "pub fn helper(n: usize) { inner(n); }\nfn inner(n: usize) { let v = vec![1]; let _x = v[n]; }\n",
        ),
    ],
    &[(
        "crates/net/src/storage.rs",
        "// gcr-lint: trust(D03-T) nothing here\npub fn helper() {}\n",
    )],
    &[
        ("crates/core/src/a.rs", "pub fn go() { let _ = fallible(); }\n"),
        (
            "crates/net/src/err.rs",
            "pub struct StorageError;\npub fn fallible() -> Result<u32, StorageError> { Ok(1) }\n",
        ),
    ],
    &[
        ("crates/core/src/a.rs", "pub fn go() {\n    fallible().ok();\n}\n"),
        (
            "crates/core/src/err.rs",
            "pub struct RecoveryError;\npub fn fallible() -> Result<u32, RecoveryError> { Ok(1) }\n",
        ),
    ],
    &[
        (
            "crates/core/src/a.rs",
            "pub fn go() -> u32 {\n    fallible().unwrap_or_default()\n}\n",
        ),
        (
            "crates/core/src/err.rs",
            "pub struct RecoveryError;\npub fn fallible() -> Result<u32, RecoveryError> { Ok(1) }\n",
        ),
    ],
    &[(
        "crates/core/src/ctrl.rs",
        "pub mod tags { pub const MARKER: u64 = 1; pub const ACK: u64 = 2; }\n\
         pub fn a(x: &X) {\n    x.ctrl_send(tags::MARKER);\n    x.ctrl_send(tags::ACK);\n}\n\
         pub fn b(x: &X) {\n    x.ctrl_recv(tags::ACK);\n}\n",
    )],
    &[
        (
            RESTART,
            "pub fn go(s: State) -> u32 {\n    match s {\n        State::Up => 1,\n        _ => 0,\n    }\n}\n",
        ),
        ("crates/mpi/src/state.rs", "pub enum State { Up, Down, Draining }\n"),
    ],
];

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn report(files: &[(&str, &str)]) -> String {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.to_string()))
        .collect();
    lint_files(&files, &Baseline::default()).to_json().pretty()
}

#[test]
fn every_fixture_report_matches_the_pinned_digest() {
    let mut rendered: Vec<String> = Vec::new();
    for &(rel, src) in LOCAL {
        let single = Report {
            findings: lint_source(rel, src),
            files_scanned: 1,
            ..Report::default()
        };
        rendered.push(single.to_json().pretty());
        rendered.push(report(&[(rel, src)]));
    }
    for ws in WORKSPACES.iter().chain(SEMANTIC) {
        rendered.push(report(ws));
    }
    let digest = rendered.iter().fold(0xcbf2_9ce4_8422_2325, |h, r| {
        fnv1a(fnv1a(h, r.as_bytes()), b"\0")
    });
    assert_eq!(
        digest,
        PINNED,
        "lint output drifted from the pinned fixtures (digest {digest:#018x}):\n{}",
        rendered.join("\n")
    );
}
