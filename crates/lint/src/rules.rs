//! The two local determinism & protocol-safety rules, implemented over
//! the lexer's token stream and blanked line text.
//!
//! | Rule | Scope | What it catches |
//! |------|-------|-----------------|
//! | D02  | everything but bench + CLI | wall clock, OS entropy, threads, env |
//! | D03  | recovery-critical modules | `unwrap`/`expect`/`panic!`/unchecked `[...]` |

use std::collections::BTreeMap;

use crate::callgraph::{panic_sites, PanicKind};
use crate::lexer::{in_spans, Lexed};
use crate::policy::Policy;
use crate::report::{Finding, Rule};

/// Nondeterministic sources banned by D02 (substring over blanked code,
/// with identifier-boundary checks).
const D02_PATTERNS: &[&str] = &[
    "Instant::now",
    "std::time::Instant",
    "SystemTime",
    "std::thread",
    "thread::spawn",
    "thread::scope",
    "available_parallelism",
    "std::env",
    "RandomState",
];

/// Keywords that may legitimately sit directly before a `[` that is *not*
/// an index expression (slice patterns, array expressions, types). Shared
/// with the call graph's panic-site extractor so D03 and D03-T agree on
/// what counts as an unchecked index.
pub(crate) const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "mut", "ref", "move", "as", "else", "return", "break", "continue", "match",
    "loop", "while", "if", "unsafe", "dyn", "impl", "where", "static", "const", "use", "mod",
    "enum", "struct", "fn", "pub", "type", "trait", "box",
];

/// Run every rule enabled by `policy` on one lexed file. Findings inside
/// `#[cfg(test)]` spans are skipped: test code runs outside the simulated
/// world and its determinism is checked dynamically, not statically.
pub fn check(rel: &str, lx: &Lexed, policy: Policy) -> Vec<Finding> {
    let mut out = Vec::new();
    if policy.d02 {
        d02(rel, lx, &mut out);
    }
    if policy.d03 {
        d03(rel, lx, &mut out);
    }
    out.sort_by_key(|f| (f.line, f.rule));
    out
}

fn d02(rel: &str, lx: &Lexed, out: &mut Vec<Finding>) {
    // One pass over the whole blanked text, trying the patterns where an
    // identifier starts with a pattern's first byte. No pattern holds a
    // line break, so every hit lies within one line, and a line break
    // next to a hit passes the identifier-boundary test as a line edge
    // would. Report at most one finding per line, naming the first
    // pattern that matches: the patterns overlap (`std::time::Instant`
    // and `Instant::now` both match one call).
    let code = lx.code.as_bytes();
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut lead = [false; 256];
    for pat in D02_PATTERNS {
        lead[usize::from(pat.as_bytes()[0])] = true;
    }
    let mut first: BTreeMap<usize, usize> = BTreeMap::new();
    for at in 0..code.len() {
        if !lead[usize::from(code[at])] || at > 0 && is_ident(code[at - 1]) {
            continue;
        }
        let hit = D02_PATTERNS.iter().position(|pat| {
            code[at..].starts_with(pat.as_bytes())
                && code.get(at + pat.len()).is_none_or(|&c| !is_ident(c))
        });
        if let Some(p) = hit {
            let q = first.entry(lx.line_of(at)).or_insert(p);
            *q = (*q).min(p);
        }
    }
    for (line, p) in first {
        if in_spans(&lx.tests, line) {
            continue;
        }
        let pat = D02_PATTERNS[p];
        out.push(Finding::new(
            rel,
            lx,
            line,
            Rule::D02,
            format!(
                "nondeterministic source `{pat}` — simulation code must use \
                 sim time / DetRng (bench and the CLI are exempt)"
            ),
        ));
    }
}

fn d03(rel: &str, lx: &Lexed, out: &mut Vec<Finding>) {
    for site in panic_sites(&lx.toks, 0, lx.toks.len()) {
        if in_spans(&lx.tests, site.line) {
            continue;
        }
        let advice = match site.kind {
            PanicKind::Unwrap => "an injected fault must degrade into a typed `Err`, not an abort",
            PanicKind::Macro => "return a typed error through the recovery coordinator instead",
            PanicKind::Index => "use `.get()` and propagate the miss",
        };
        out.push(Finding::new(
            rel,
            lx,
            site.line,
            Rule::D03,
            format!("{} on the recovery path — {advice}", site.what),
        ));
    }
}
