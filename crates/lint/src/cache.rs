//! Incremental analysis cache — warm `gcrsim lint` runs in well under
//! the interactive budget without changing a single output byte.
//!
//! Two artifact tiers, both keyed by content (never by timestamps — the
//! analyzer holds itself to its own determinism rules):
//!
//! * **Workspace report** — the full [`Report`] of a run, keyed by the
//!   analyzer version, the baseline dump and every `(path, content
//!   hash)` pair. Any edit, rename, add or delete anywhere in the
//!   workspace changes the key; a hit replays the entire report (new and
//!   baselined findings, unused-baseline warnings, call-graph stats)
//!   losslessly, so `--json` and `--sarif` stay byte-identical between
//!   cold and warm runs.
//! * **Per-file local findings** — the raw (pre-waiver) local-rule
//!   findings of one file, keyed by its path and content hash. After an
//!   edit the workspace key misses, but every *unchanged* file replays
//!   its local pass from here; only the edited files re-lex through the
//!   local rules. The workspace passes (call graph, semantic,
//!   flow-sensitive, conformance) always re-run — they are cross-file by
//!   nature and their inputs changed by definition.
//!
//! Both tiers store [`Report::to_json`] documents (a per-file entry is a
//! report holding only that file's findings) and read them back through
//! the one codec next to it in [`crate::report`].
//!
//! The cache is a pure memo: corrupt or unreadable entries are misses,
//! and a populated cache can be deleted at any time.

use std::fs;
use std::io;
use std::path::Path;

use gcr_json::Json;

use crate::baseline::Baseline;
use crate::collect_workspace_files;
use crate::lint_files_with_local;
use crate::policy_for;
use crate::report::{Report, Rule};
use crate::rules;

/// Bump on any analyzer behavior change that reuses the same rule set —
/// the key also folds in [`Rule::ALL`], so adding or removing a rule
/// invalidates without a bump.
const CACHE_VERSION: u64 = 3;

/// What the cache did for one run — reported by `gcrsim lint` and
/// asserted by the warm-run budget test.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// The whole report replayed from the workspace artifact.
    pub hit: bool,
    /// Files whose local-rule findings replayed from the per-file tier.
    pub file_hits: usize,
    /// Files whose local rules ran cold.
    pub file_misses: usize,
}

/// Analyze the workspace under `root` against `baseline`, memoized under
/// `cache_dir`. The report is bit-identical to [`crate::lint_workspace`];
/// only wall-clock differs.
///
/// # Errors
/// Propagates I/O errors from the source walk and from creating the
/// cache directory. Unreadable or corrupt cache *entries* are treated as
/// misses, never as errors.
pub fn lint_workspace_cached(
    root: &Path,
    baseline: &Baseline,
    cache_dir: &Path,
) -> io::Result<(Report, CacheStats)> {
    let files = collect_workspace_files(root)?;
    fs::create_dir_all(cache_dir)?;

    let version = version_hash();
    let ws_key = workspace_key(version, baseline, &files);
    let ws_path = cache_dir.join(format!("workspace-{ws_key:016x}.json"));
    if let Some(report) = read_report(&ws_path) {
        return Ok((
            report,
            CacheStats {
                hit: true,
                file_hits: files.len(),
                file_misses: 0,
            },
        ));
    }

    let mut stats = CacheStats::default();
    let report = lint_files_with_local(&files, baseline, &mut |rel, src, lx| {
        let path = cache_dir.join(format!("file-{:016x}.json", file_key(version, rel, src)));
        if let Some(found) = read_report(&path) {
            stats.file_hits += 1;
            return found.findings;
        }
        stats.file_misses += 1;
        let found = Report {
            findings: rules::check(rel, lx, policy_for(rel)),
            ..Report::default()
        };
        write_entry(&path, &found.to_json());
        found.findings
    });
    write_entry(&ws_path, &report.to_json());
    Ok((report, stats))
}

/// 64-bit FNV-1a — the workspace's standard content fingerprint.
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(1099511628211);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Analyzer identity: the manual version plus the full rule list.
fn version_hash() -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &CACHE_VERSION.to_le_bytes());
    for r in Rule::ALL {
        h = fnv1a(h, r.id().as_bytes());
        h = fnv1a(h, b"\0");
    }
    h
}

fn workspace_key(version: u64, baseline: &Baseline, files: &[(String, String)]) -> u64 {
    let mut h = fnv1a(version, baseline.dump().as_bytes());
    for (rel, src) in files {
        h = fnv1a(h, rel.as_bytes());
        h = fnv1a(h, b"\0");
        h = fnv1a(h, &fnv1a(FNV_OFFSET, src.as_bytes()).to_le_bytes());
    }
    h
}

fn file_key(version: u64, rel: &str, src: &str) -> u64 {
    let h = fnv1a(version, rel.as_bytes());
    fnv1a(fnv1a(h, b"\0"), src.as_bytes())
}

/// Best-effort write: the cache is advisory, a full disk must not fail
/// the lint run itself.
fn write_entry(path: &Path, doc: &Json) {
    if fs::write(path, doc.pretty()).is_err() {
        remove_entry(path); // never leave a truncated artifact behind
    }
}

fn remove_entry(path: &Path) {
    if fs::remove_file(path).is_err() {
        // Nothing left to do: the next read treats it as a miss.
    }
}

fn read_report(path: &Path) -> Option<Report> {
    let text = fs::read_to_string(path).ok()?;
    Report::from_json(&Json::parse(&text).ok()?)
}
