//! The four determinism & protocol-safety rules, implemented over the
//! lexer's token stream and blanked line text.
//!
//! | Rule | Scope | What it catches |
//! |------|-------|-----------------|
//! | D01  | deterministic crates | iteration over `HashMap`/`HashSet` |
//! | D02  | everything but bench + CLI | wall clock, OS entropy, threads, env |
//! | D03  | recovery-critical modules | `unwrap`/`expect`/`panic!`/unchecked `[...]` |
//! | D04  | protocol crates | `#[allow(dead_code)]` on `pub fn … (&mut …)` |

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{panic_sites, PanicKind};
use crate::lexer::{in_spans, Lexed, Tok, TokKind};
use crate::policy::Policy;
use crate::report::{Finding, Rule};

/// Methods whose call on a hash-ordered container observes its order
/// (D01's method check and D10's hash-iteration source).
pub(crate) const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

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
    if policy.d01 {
        d01(rel, lx, &mut out);
    }
    if policy.d02 {
        d02(rel, lx, &mut out);
    }
    if policy.d03 {
        d03(rel, lx, &mut out);
    }
    if policy.d04 {
        d04(rel, lx, &mut out);
    }
    out.sort_by_key(|f| (f.line, f.rule));
    out
}

fn is_hash_type(t: &Tok) -> bool {
    t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet")
}

/// Identifiers bound to a `HashMap`/`HashSet` anywhere in the file:
/// `let m = HashMap::new()`, `m: HashMap<..>` (locals, fields, params),
/// including `std::collections::`-qualified spellings.
pub(crate) fn hash_bound_idents<'a>(toks: &[Tok<'a>]) -> BTreeSet<&'a str> {
    let mut bound = BTreeSet::new();
    for (k, t) in toks.iter().enumerate() {
        if !is_hash_type(t) {
            continue;
        }
        // Walk back over a path prefix: (`ident` `:` `:`)* .
        let mut j = k;
        while j >= 3
            && toks[j - 1].text == ":"
            && toks[j - 2].text == ":"
            && toks[j - 3].kind == TokKind::Ident
        {
            j -= 3;
        }
        if j == 0 {
            continue;
        }
        // `name : HashMap` (ascription, not a path `::`) or `name = Hash…`.
        let prev = &toks[j - 1];
        let ascription = prev.text == ":" && (j < 2 || toks[j - 2].text != ":");
        let binder = if ascription || prev.text == "=" {
            toks.get(j.wrapping_sub(2))
        } else {
            None
        };
        if let Some(b) = binder {
            if b.kind == TokKind::Ident && !NON_INDEX_KEYWORDS.contains(&b.text) {
                bound.insert(b.text);
            }
        }
    }
    bound
}

fn d01(rel: &str, lx: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lx.toks;
    let bound = hash_bound_idents(toks);
    for (i, t) in toks.iter().enumerate() {
        if in_spans(&lx.tests, t.line) {
            continue;
        }
        // `name.iter()` / `name.keys()` / … where `name` is hash-bound,
        // and `HashMap::new().into_iter()`-style direct chains.
        if t.text == "." {
            let recv_hash = i > 0
                && ((toks[i - 1].kind == TokKind::Ident && bound.contains(toks[i - 1].text))
                    || toks[i - 1].text == ")" && chain_root_is_hash(toks, i - 1, &bound));
            if recv_hash {
                if let (Some(m), Some(p)) = (toks.get(i + 1), toks.get(i + 2)) {
                    if m.kind == TokKind::Ident
                        && HASH_ITER_METHODS.contains(&m.text)
                        && p.text == "("
                    {
                        out.push(Finding::new(
                            rel,
                            lx,
                            t.line,
                            Rule::D01,
                            format!(
                                "iteration over hash-ordered container via `.{}()` — \
                                 use BTreeMap/BTreeSet or collect and sort",
                                m.text
                            ),
                        ));
                    }
                }
            }
        }
        // `for pat in &name { … }` / `for pat in name { … }`.
        if t.kind == TokKind::Ident && t.text == "for" {
            let mut j = i + 1;
            let mut in_at = None;
            while j < toks.len() && toks[j].text != "{" {
                if toks[j].kind == TokKind::Ident && toks[j].text == "in" {
                    in_at = Some(j);
                    break;
                }
                j += 1;
            }
            let Some(start) = in_at else { continue };
            let mut j = start + 1;
            while j < toks.len() && toks[j].text != "{" {
                let tk = &toks[j];
                if tk.kind == TokKind::Ident && bound.contains(tk.text) {
                    // Only when iterated directly (`&name` / `name`), not
                    // when a method is applied (`name.len()` is fine and
                    // `name.keys()` is caught by the method check above).
                    let next_is_dot = toks.get(j + 1).is_some_and(|n| n.text == ".");
                    if !next_is_dot {
                        out.push(Finding::new(
                            rel,
                            lx,
                            tk.line,
                            Rule::D01,
                            format!(
                                "`for … in` over hash-ordered `{}` — \
                                 use BTreeMap/BTreeSet or collect and sort",
                                tk.text
                            ),
                        ));
                    }
                }
                j += 1;
            }
        }
    }
}

/// Is the call chain ending at the `)` at index `close` rooted in a
/// hash-bound identifier or a `HashMap`/`HashSet` constructor? Covers
/// `HashMap::new().into_iter()` and `name.clone().drain()`.
fn chain_root_is_hash(toks: &[Tok], close: usize, bound: &BTreeSet<&str>) -> bool {
    // Walk back to the matching `(`.
    let mut depth = 0i32;
    let mut j = close;
    loop {
        match toks[j].text {
            ")" => depth += 1,
            "(" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        if j == 0 {
            return false;
        }
        j -= 1;
    }
    // Before `(` sits a method/function name; before that a path or chain.
    let mut j = j.saturating_sub(1);
    while j > 0 {
        let t = &toks[j];
        if is_hash_type(t) {
            return true;
        }
        if t.kind == TokKind::Ident && bound.contains(t.text) {
            return true;
        }
        match t.text {
            ":" | "." => j -= 1,
            _ if t.kind == TokKind::Ident => j -= 1,
            _ => return false,
        }
    }
    false
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

fn d04(rel: &str, lx: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lx.toks;
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let attr = toks[i].text == "#"
            && toks[i + 1].text == "["
            && toks[i + 2].text == "allow"
            && toks[i + 3].text == "("
            && toks[i + 4].text == "dead_code"
            && toks[i + 5].text == ")"
            && toks[i + 6].text == "]";
        if !attr || in_spans(&lx.tests, toks[i].line) {
            i += 1;
            continue;
        }
        let attr_line = toks[i].line;
        let mut j = i + 7;
        // Skip further attributes on the same item.
        while j + 1 < toks.len() && toks[j].text == "#" && toks[j + 1].text == "[" {
            let mut depth = 0i32;
            j += 1;
            while j < toks.len() {
                match toks[j].text {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // Visibility + qualifiers up to the item keyword.
        let mut is_pub = false;
        let mut fn_at = None;
        while j < toks.len() {
            match toks[j].text {
                "pub" => {
                    is_pub = true;
                    // Skip a `(crate)`/`(super)` restriction.
                    if toks.get(j + 1).is_some_and(|n| n.text == "(") {
                        while j < toks.len() && toks[j].text != ")" {
                            j += 1;
                        }
                    }
                }
                "fn" => {
                    fn_at = Some(j);
                    break;
                }
                "async" | "unsafe" | "const" | "extern" => {}
                _ => break, // struct/enum/mod/…: not a fn item
            }
            j += 1;
        }
        let Some(f) = fn_at else {
            i += 7;
            continue;
        };
        if !is_pub {
            i = f + 1;
            continue;
        }
        let name = toks.get(f + 1).map_or("", |t| t.text);
        // Signature: tokens until the body `{` or a trailing `;`.
        let mut k = f + 1;
        let mut takes_mut_ref = false;
        while k < toks.len() && toks[k].text != "{" && toks[k].text != ";" {
            if toks[k].text == "&" {
                let mut n = k + 1;
                if toks.get(n).is_some_and(|t| t.kind == TokKind::Lifetime) {
                    n += 1;
                }
                if toks.get(n).is_some_and(|t| t.text == "mut") {
                    takes_mut_ref = true;
                }
            }
            k += 1;
        }
        if takes_mut_ref {
            out.push(Finding::new(
                rel,
                lx,
                attr_line,
                Rule::D04,
                format!(
                    "`#[allow(dead_code)]` hides `pub fn {name}` taking `&mut` state — \
                     dead protocol paths rot; wire it up or delete it"
                ),
            ));
        }
        i = k.max(i + 7);
    }
}
