//! # gcr-lint — workspace determinism & protocol-safety analyzer
//!
//! The restart protocol's `R`/`RR`/`S` accounting and the chaos harness's
//! bit-determinism oracle both assume the simulator is *exactly*
//! reproducible: one stray `HashMap` iteration or wall-clock read silently
//! breaks replay, shrinking, and every figure in EXPERIMENTS.md. The chaos
//! harness checks this dynamically, seed by seed; `gcr-lint` is the static
//! half — it catches nondeterminism and unsafe recovery paths at the
//! source level, before any seed runs.
//!
//! Self-contained by design: a hand-rolled Rust surface lexer
//! ([`lexer`]) feeds two engines. The local line/token rules ([`rules`])
//! run per file; on top of them a symbol index ([`symbols`]) and an
//! approximate workspace call graph ([`callgraph`]) power the semantic
//! passes ([`semantic`]): transitive panic-reachability (D03-T) and
//! control-protocol conformance (P01). The flow-sensitive layer
//! ([`phases`], [`dataflow`]) adds phase-order model checking (P10) and
//! determinism taint (D10); the conformance layer ([`session`]) checks
//! session tag-duality per protocol mode (P20). Policy tiers
//! ([`policy`]) decide which rules apply where; inline waivers
//! ([`suppress`]) and a committed baseline ([`baseline`]) manage the
//! path to zero findings. An incremental cache ([`cache`]) keyed by
//! content hashes keeps warm runs fast without changing any output.
//!
//! Each mechanism exists once and the engines share it: the lexer
//! computes test spans, one `Finding` constructor builds every finding,
//! D03 and D03-T read one panic-site scan, P20 reads the event trees P10
//! extracts, and the cache stores reports in the report's own JSON form.
//!
//! What the compiler checks more strongly is left to it: discarded
//! protocol `Result`s and `_ =>` over protocol enums are clippy lints
//! denied at the crate roots and recovery-critical files, hash
//! containers and `Result::unwrap_or_default` are disallowed in
//! `clippy.toml`, and the GC-floor property is a `GpState` unit test
//! (DESIGN.md §9 and §14).
//!
//! Run it as `gcrsim lint`; CI runs it with `--json` and fails on any
//! non-baseline finding.

#![warn(missing_docs)]

pub mod baseline;
pub mod cache;
pub mod callgraph;
pub mod catalog;
pub mod cfg;
pub mod dataflow;
pub mod lexer;
pub mod phases;
pub mod policy;
pub mod report;
pub mod rules;
pub mod semantic;
pub mod session;
pub mod suppress;
pub mod symbols;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use baseline::{Baseline, BaselineEntry};
pub use policy::{policy_for, Policy};
pub use report::{Finding, GraphStats, Report, Rule, Status};

/// Analyze one source file in isolation (its workspace-relative path
/// selects the policy tier). Only the local rules run — the semantic
/// passes need the whole workspace; use [`lint_files`] for those.
/// Suppressions are already applied; baseline matching happens at the
/// workspace level.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    let lx = lexer::lex(src);
    let policy = policy_for(rel);
    let raw = rules::check(rel, &lx, policy);
    let waivers = suppress::FileWaivers::parse(rel, &lx);
    suppress::apply_file_waivers(rel, &lx, waivers, raw)
}

/// Analyze a set of sources as one workspace: local rules per file, then
/// the symbol index, call graph and semantic passes across all of them,
/// with waiver/stale-waiver accounting shared between every pass.
///
/// `files` pairs workspace-relative paths with their contents (as
/// produced by [`collect_workspace_files`], but any in-memory set works —
/// the fixture tests feed synthetic workspaces).
pub fn lint_files(files: &[(String, String)], baseline: &Baseline) -> Report {
    let lexed: Vec<lexer::Lexed> = files.iter().map(|(_, src)| lexer::lex(src)).collect();
    let views: Vec<(&str, &lexer::Lexed)> = files
        .iter()
        .zip(&lexed)
        .map(|((rel, _), lx)| (rel.as_str(), lx))
        .collect();

    let mut waivers: Vec<suppress::FileWaivers> = views
        .iter()
        .map(|(rel, lx)| suppress::FileWaivers::parse(rel, lx))
        .collect();

    // Local rules (raw — waivers applied after the semantic passes, so
    // usage marks accumulate across every engine before staleness is
    // judged).
    let mut raw: Vec<Finding> = Vec::new();
    for (rel, lx) in &views {
        raw.extend(rules::check(rel, lx, policy_for(rel)));
    }

    // Workspace passes. Building the graph consults the waivers (panic
    // sites excluded by line waivers / trust directives change what
    // propagates); the semantic passes' findings are waived below.
    let index = symbols::build(&views);
    let graph = callgraph::build(&index, &views, &mut waivers);
    raw.extend(semantic::check(&index, &graph, &views));

    // Flow-sensitive passes: protocol phase-order model checking (P10)
    // and determinism taint dataflow (D10). Their findings go through
    // the same waiver/baseline machinery below.
    let extracted = phases::extract(&index, &views);
    raw.extend(phases::check(&extracted, &index, &views));
    raw.extend(dataflow::check(&index, &graph, &views));

    // Conformance pass: session tag-duality per protocol mode (P20),
    // over P10's extracted trees; same waiver/baseline machinery.
    raw.extend(session::check(&extracted, &index, &views));

    // Apply line waivers to every engine's findings, then collect
    // stale/reasonless waiver findings.
    let mut findings: Vec<Finding> = Vec::new();
    for f in raw {
        let fi = views
            .iter()
            .position(|(rel, _)| *rel == f.file)
            .expect("finding refers to a linted file");
        if !waivers[fi].waives(f.line, f.rule) {
            findings.push(f);
        }
    }
    for ((rel, lx), w) in views.iter().zip(waivers) {
        findings.extend(w.finish(rel, lx));
    }

    // Full-key sort: `--json`/`--sarif` must be byte-stable even when two
    // findings of the same rule land on one line.
    findings.sort_by(|a, b| {
        (
            a.file.as_str(),
            a.line,
            a.rule,
            a.message.as_str(),
            a.snippet.as_str(),
        )
            .cmp(&(
                b.file.as_str(),
                b.line,
                b.rule,
                b.message.as_str(),
                b.snippet.as_str(),
            ))
    });
    let unused_baseline = baseline.apply(&mut findings);
    Report {
        findings,
        files_scanned: files.len(),
        unused_baseline,
        graph: Some(graph.stats),
    }
}

/// Collect the workspace's analyzable sources: the root package's `src/`
/// tree and every `crates/*/src` tree. Test directories, benches and
/// examples are out of scope — they run outside the simulated world.
/// Deterministic order (sorted paths), because the analyzer holds itself
/// to its own rules.
///
/// # Errors
/// Propagates I/O errors from directory walks and file reads.
pub fn collect_workspace_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut dirs: Vec<PathBuf> = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        dirs.extend(members.into_iter().map(|m| m.join("src")));
    }
    let mut files = Vec::new();
    for dir in dirs {
        if dir.is_dir() {
            walk_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.push((rel, fs::read_to_string(&path)?));
    }
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Analyze the whole workspace under `root` against `baseline` (pass the
/// default [`Baseline`] for none). Runs the local rules *and* the
/// workspace semantic passes.
///
/// # Errors
/// Propagates I/O errors from the source walk.
pub fn lint_workspace(root: &Path, baseline: &Baseline) -> io::Result<Report> {
    let files = collect_workspace_files(root)?;
    Ok(lint_files(&files, baseline))
}

/// Load the baseline at `path`; a missing file is an empty baseline.
///
/// # Errors
/// I/O errors other than not-found, and baseline parse errors (as
/// `io::Error` with `InvalidData`).
pub fn load_baseline(path: &Path) -> io::Result<Baseline> {
    match fs::read_to_string(path) {
        Ok(text) => {
            Baseline::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Baseline::default()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_has_no_findings() {
        let src = "use std::collections::BTreeMap;\n\
                   pub fn f() -> BTreeMap<u32, u32> { BTreeMap::new() }\n";
        assert!(lint_source("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn policy_gates_rules_by_path() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(lint_source("crates/sim/src/x.rs", src).len(), 1);
        assert!(lint_source("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn lint_files_reports_graph_stats() {
        let files = vec![(
            "crates/sim/src/a.rs".to_string(),
            "pub fn a() { b(); }\npub fn b() {}\n".to_string(),
        )];
        let rep = lint_files(&files, &Baseline::default());
        assert!(rep.findings.is_empty());
        let g = rep.graph.expect("graph stats");
        assert_eq!(g.functions, 2);
        assert_eq!(g.call_sites, 1);
        assert_eq!(g.resolved, 1);
        assert!((g.resolution_rate() - 1.0).abs() < 1e-9);
    }
}
