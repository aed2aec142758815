//! Inline suppressions: `// gcr-lint: allow(D02) <reason>`.
//!
//! A suppression on its own line covers the next code line; a trailing
//! suppression covers its own line. Several rules may be listed
//! (`allow(D02,D03)`). Every suppression must carry a justification, and
//! a suppression that suppresses nothing is itself a finding (W00) — the
//! analyzer refuses to let dead waivers accumulate.
//!
//! The transitive pass (D03-T) adds a second, file-scoped form:
//! `// gcr-lint: trust(D03-T) <reason>`. It certifies that every panic
//! site in the file is invariant-guarded (validated per-rank arrays and
//! the like), so none of them propagate to recovery-critical callers.
//! Direct D03 findings in recovery-critical files are *not* affected —
//! trust only removes the file from the transitive panic set.

use crate::lexer::Lexed;
use crate::report::{Finding, Rule};

/// One parsed suppression comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Line the comment sits on.
    pub line: usize,
    /// Line whose findings it waives.
    pub applies_to: usize,
    /// Rules waived.
    pub rules: Vec<Rule>,
    /// Justification text after the `allow(...)`.
    pub reason: String,
}

/// One file-scoped `trust(D03-T)` directive.
#[derive(Debug, Clone)]
pub struct Trust {
    /// Line the directive sits on.
    pub line: usize,
    /// Justification text after the `trust(...)`.
    pub reason: String,
}

/// All waivers of one file, with usage tracking shared between the local
/// rule engine and the workspace-level semantic passes. Every pass that
/// honors a waiver marks it used; [`FileWaivers::finish`] then reports
/// the stale (W00) and reasonless (W01) leftovers.
#[derive(Debug, Default)]
pub struct FileWaivers {
    /// Line suppressions in source order.
    pub sups: Vec<Suppression>,
    /// File-scoped trust directives.
    pub trusts: Vec<Trust>,
    malformed: Vec<Finding>,
    used: Vec<bool>,
    trust_used: Vec<bool>,
}

impl FileWaivers {
    /// Extract waivers from a lexed file. Malformed `gcr-lint:` comments
    /// (unknown rule id, missing `allow(...)`/`trust(...)`) are recorded
    /// as W00 findings immediately — a waiver that silently fails to
    /// parse is worse than none.
    pub fn parse(rel: &str, lx: &Lexed) -> FileWaivers {
        let mut w = FileWaivers::default();
        for c in &lx.comments {
            let body = c.text.trim_start_matches('/').trim();
            let Some(rest) = body.strip_prefix("gcr-lint:") else {
                continue;
            };
            let rest = rest.trim();
            let malformed = || {
                Finding::new(
                    rel,
                    lx,
                    c.line,
                    Rule::W00,
                    format!(
                        "malformed suppression `{body}` — expected \
                         `gcr-lint: allow(D0x[,D0y]) <reason>` or \
                         `gcr-lint: trust(D03-T) <reason>`"
                    ),
                )
            };
            if let Some(inner) = rest.strip_prefix("trust(") {
                let parsed = inner.split_once(')').and_then(|(id, reason)| {
                    (Rule::parse(id.trim()) == Some(Rule::D03T)).then(|| reason.trim().to_string())
                });
                match parsed {
                    Some(reason) => w.trusts.push(Trust {
                        line: c.line,
                        reason,
                    }),
                    None => w.malformed.push(malformed()),
                }
                continue;
            }
            let parsed = (|| {
                let inner = rest.strip_prefix("allow(")?;
                let (ids, reason) = inner.split_once(')')?;
                let mut rules = Vec::new();
                for id in ids.split(',') {
                    rules.push(Rule::parse(id.trim())?);
                }
                Some((rules, reason.trim().to_string()))
            })();
            match parsed {
                Some((rules, reason)) => {
                    let applies_to = if c.own_line {
                        next_code_line(lx, c.line)
                    } else {
                        c.line
                    };
                    w.sups.push(Suppression {
                        line: c.line,
                        applies_to,
                        rules,
                        reason,
                    });
                }
                None => w.malformed.push(malformed()),
            }
        }
        w.used = vec![false; w.sups.len()];
        w.trust_used = vec![false; w.trusts.len()];
        w
    }

    /// Is a finding of `rule` on `line` waived? Marks matching
    /// suppressions used. A line waiver for D03 also covers D03-T (and
    /// vice versa): both certify the same site cannot panic.
    pub fn waives(&mut self, line: usize, rule: Rule) -> bool {
        let mut hit = false;
        for (i, s) in self.sups.iter().enumerate() {
            if s.applies_to != line {
                continue;
            }
            let matches = s.rules.contains(&rule)
                || (matches!(rule, Rule::D03 | Rule::D03T)
                    && (s.rules.contains(&Rule::D03) || s.rules.contains(&Rule::D03T)));
            if matches {
                self.used[i] = true;
                hit = true;
            }
        }
        hit
    }

    /// Is the whole file a trusted D03-T boundary? `had_panic_sites` is
    /// whether the file actually contains panic sites — a trust directive
    /// in a panic-free file is stale and stays unused.
    pub fn trusted(&mut self, had_panic_sites: bool) -> bool {
        if self.trusts.is_empty() {
            return false;
        }
        if had_panic_sites {
            for u in &mut self.trust_used {
                *u = true;
            }
        }
        true
    }

    /// Report stale (W00) and reasonless (W01) waivers. Call once, after
    /// every pass has had the chance to mark usage.
    pub fn finish(mut self, rel: &str, lx: &Lexed) -> Vec<Finding> {
        let mut out = std::mem::take(&mut self.malformed);
        for (i, s) in self.sups.iter().enumerate() {
            if !self.used[i] {
                out.push(Finding::new(
                    rel,
                    lx,
                    s.line,
                    Rule::W00,
                    format!(
                        "stale suppression: allow({}) waives nothing on line {} — remove it",
                        s.rules.iter().map(Rule::id).collect::<Vec<_>>().join(","),
                        s.applies_to
                    ),
                ));
            }
            if s.reason.is_empty() {
                out.push(Finding::new(
                    rel,
                    lx,
                    s.line,
                    Rule::W01,
                    "suppression without a justification — say why the waiver is safe",
                ));
            }
        }
        for (i, t) in self.trusts.iter().enumerate() {
            if !self.trust_used[i] {
                out.push(Finding::new(
                    rel,
                    lx,
                    t.line,
                    Rule::W00,
                    "stale trust(D03-T): the file has no panic sites to certify — remove it",
                ));
            }
            if t.reason.is_empty() {
                out.push(Finding::new(
                    rel,
                    lx,
                    t.line,
                    Rule::W01,
                    "trust(D03-T) without a justification — say why every panic \
                     site in this file is invariant-guarded",
                ));
            }
        }
        out
    }
}

/// The first line after `line` that carries a code token (the item an
/// own-line suppression decorates); `line` itself if none follows.
fn next_code_line(lx: &Lexed, line: usize) -> usize {
    lx.toks
        .iter()
        .map(|t| t.line)
        .find(|&l| l > line)
        .unwrap_or(line)
}

/// Apply a file's waivers to its raw local findings: waived findings are
/// removed, then stale (W00) and unjustified (W01) waivers are appended
/// as findings of their own. Single-file convenience around
/// [`FileWaivers`] for [`crate::lint_source`].
pub fn apply_file_waivers(
    rel: &str,
    lx: &Lexed,
    mut waivers: FileWaivers,
    findings: Vec<Finding>,
) -> Vec<Finding> {
    let mut kept: Vec<Finding> = findings
        .into_iter()
        .filter(|f| !waivers.waives(f.line, f.rule))
        .collect();
    kept.append(&mut waivers.finish(rel, lx));
    kept.sort_by_key(|f| (f.line, f.rule));
    kept
}
