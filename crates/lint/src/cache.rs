//! Incremental analysis cache — warm `gcrsim lint` runs in well under
//! the interactive budget without changing a single output byte.
//!
//! One artifact, keyed by content (never by timestamps — the analyzer
//! holds itself to its own determinism rules): the full [`Report`] of a
//! run, keyed by the analyzer version, the baseline dump and every
//! `(path, content hash)` pair. Any edit, rename, add or delete anywhere
//! in the workspace changes the key; a hit replays the entire report (new
//! and baselined findings, unused-baseline warnings, call-graph stats)
//! losslessly, so `--json` and `--sarif` stay byte-identical between cold
//! and warm runs. A miss re-runs the whole analysis.
//!
//! The artifact is a [`Report::to_json`] document, read back through the
//! one codec next to it in [`crate::report`].
//!
//! The cache is a pure memo: corrupt or unreadable entries are misses,
//! and a populated cache can be deleted at any time.

use std::fs;
use std::io;
use std::path::Path;

use gcr_json::Json;

use crate::baseline::Baseline;
use crate::report::{Report, Rule};
use crate::{collect_workspace_files, lint_files};

/// Bump on any analyzer behavior change that reuses the same rule set —
/// the key also folds in [`Rule::ALL`], so adding or removing a rule
/// invalidates without a bump.
const CACHE_VERSION: u64 = 4;

/// What the cache did for one run — reported by `gcrsim lint` and
/// asserted by the warm-run budget test.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// The whole report replayed from the workspace artifact.
    pub hit: bool,
    /// Files whose findings replayed from the cache: every file on a hit,
    /// none on a miss.
    pub file_hits: usize,
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

    let ws_key = workspace_key(baseline, &files);
    let ws_path = cache_dir.join(format!("workspace-{ws_key:016x}.json"));
    if let Some(report) = read_report(&ws_path) {
        return Ok((
            report,
            CacheStats {
                hit: true,
                file_hits: files.len(),
            },
        ));
    }

    let report = lint_files(&files, baseline);
    write_entry(&ws_path, &report.to_json());
    Ok((report, CacheStats::default()))
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

fn workspace_key(baseline: &Baseline, files: &[(String, String)]) -> u64 {
    let mut h = fnv1a(version_hash(), baseline.dump().as_bytes());
    for (rel, src) in files {
        h = fnv1a(h, rel.as_bytes());
        h = fnv1a(h, b"\0");
        h = fnv1a(h, &fnv1a(FNV_OFFSET, src.as_bytes()).to_le_bytes());
    }
    h
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
