//! The workspace-level semantic passes, built on the symbol index and
//! call graph:
//!
//! * **D03-T** — transitive panic-reachability: a function defined in a
//!   recovery-critical module must not reach `unwrap`/`expect`/panic
//!   macros/unchecked indexing through any chain of workspace callees
//!   within the protocol-plane crates ([`crate::policy::D03T_SCOPE_CRATES`]).
//! * **E01/E02/E03** — error-flow: a `Result` carrying `RecoveryError`/
//!   `StorageError` (or produced by a protocol crate) must not be
//!   discarded via `let _ =`, a statement-level `.ok()`, or
//!   `.unwrap_or_default()`.
//! * **P01/P02** — protocol conformance: every `tags::*` control tag
//!   used in a `ctrl_send` must have a `ctrl_recv` somewhere (and vice
//!   versa), and recovery-critical `match`es over protocol enums must
//!   not hide behind a `_ =>` wildcard.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{self, CallGraph};
use crate::cfg;
use crate::lexer::{in_spans, Lexed, Tok, TokKind};
use crate::policy::{self, PROTOCOL_CRATES, PROTOCOL_ERROR_TYPES, RECOVERY_CRITICAL};
use crate::report::{Finding, Rule};
use crate::symbols::{FnDef, SymbolIndex, KEYWORDS};

/// Run every semantic pass. `files` pairs workspace-relative paths with
/// lexer output. Line waivers are applied to the findings afterwards, by
/// the same step that applies them to every other engine's findings.
pub fn check(index: &SymbolIndex, graph: &CallGraph, files: &[(&str, &Lexed)]) -> Vec<Finding> {
    let mut out = Vec::new();
    d03t(index, graph, files, &mut out);
    e_rules(index, files, &mut out);
    p01(index, files, &mut out);
    p02(index, files, &mut out);
    // Nested fns are walked by both their own body scan and their
    // enclosing fn's, so identical findings can be produced twice.
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
    out
}

// ---------------------------------------------------------------- D03-T

fn d03t(index: &SymbolIndex, graph: &CallGraph, files: &[(&str, &Lexed)], out: &mut Vec<Finding>) {
    let scope = callgraph::crate_scope(index, policy::D03T_SCOPE_CRATES);
    let reach = graph.reaches_panic(&scope);
    for (id, f) in index.fns.iter().enumerate() {
        let rel = files[f.file].0;
        if !RECOVERY_CRITICAL.contains(&rel) {
            continue;
        }
        let mut seen_lines = BTreeSet::new();
        for cs in &graph.calls[id] {
            let Some(&bad) = cs
                .targets
                .iter()
                .find(|&&t| t != id && scope[t] && reach[t])
            else {
                continue;
            };
            if !seen_lines.insert(cs.line) {
                continue;
            }
            let msg = match graph.witness(bad, &scope) {
                Some(path) => {
                    let chain: Vec<String> = path
                        .iter()
                        .map(|&p| format!("`{}`", index.fns[p].qualified()))
                        .collect();
                    let last = *path.last().unwrap_or(&bad);
                    let site = &graph.panics[last][0];
                    format!(
                        "`{}` transitively reaches {} at {}:{} via {} — \
                         degrade the fault into a typed error (or certify the \
                         callee with trust(D03-T))",
                        f.qualified(),
                        site.what,
                        files[index.fns[last].file].0,
                        site.line,
                        chain.join(" → "),
                    )
                }
                None => format!(
                    "`{}` transitively reaches a panic site via `{}`",
                    f.qualified(),
                    cs.name
                ),
            };
            out.push(Finding::new(rel, files[f.file].1, cs.line, Rule::D03T, msg));
        }
    }
}

// --------------------------------------------------------------- E-rules

/// Does discarding this callee's return value lose protocol error info?
fn protocol_result(fd: &FnDef) -> Option<String> {
    let is_result = fd.ret.contains(&"Result");
    if !is_result {
        return None;
    }
    if let Some(err) = fd.result_err() {
        if PROTOCOL_ERROR_TYPES.contains(&err) {
            return Some(format!("error type `{err}`"));
        }
    }
    PROTOCOL_CRATES
        .contains(&fd.krate)
        .then(|| format!("protocol crate `{}`", fd.krate))
}

fn e_rules(index: &SymbolIndex, files: &[(&str, &Lexed)], out: &mut Vec<Finding>) {
    for f in &index.fns {
        let rel = files[f.file].0;
        if !policy::policy_for(rel).e {
            continue;
        }
        let lx = files[f.file].1;
        let toks = &lx.toks;
        let Some((open, close)) = f.body else {
            continue;
        };
        let (start, end) = (open + 1, close);
        let mut i = start;
        while i < end.min(toks.len()) {
            // E01: `let _ = <expr with a protocol-Result call>;`
            if toks[i].text == "let"
                && toks.get(i + 1).is_some_and(|t| t.text == "_")
                && toks.get(i + 2).is_some_and(|t| t.text == "=")
            {
                let stmt_end = cfg::scan_to(toks, i + 3, end, ";");
                if let Some((name, why)) = first_protocol_call(index, f, toks, i + 3, stmt_end) {
                    out.push(Finding::new(
                        rel,
                        lx,
                        toks[i].line,
                        Rule::E01,
                        format!(
                            "`let _ =` discards the `Result` of `{name}` ({why}) — \
                             propagate with `?`/`map_err` or handle the error"
                        ),
                    ));
                }
                i = stmt_end;
                continue;
            }
            // E02: statement-level `<chain>.ok();`
            if toks[i].text == "."
                && toks.get(i + 1).is_some_and(|t| t.text == "ok")
                && toks.get(i + 2).is_some_and(|t| t.text == "(")
                && toks.get(i + 3).is_some_and(|t| t.text == ")")
                && toks.get(i + 4).is_some_and(|t| t.text == ";")
                && i > start
            {
                let (names, chain_start) = chain_callees(toks, i - 1, start);
                let at_stmt_start =
                    chain_start <= start || matches!(toks[chain_start - 1].text, ";" | "{" | "}");
                if at_stmt_start {
                    if let Some((name, why)) = chain_protocol_call(index, &names) {
                        out.push(Finding::new(
                            rel,
                            lx,
                            toks[i].line,
                            Rule::E02,
                            format!(
                                "`.ok()` throws away the error of `{name}` ({why}) — \
                                 propagate it or match on the `Err`"
                            ),
                        ));
                    }
                }
            }
            // E03: `<chain>.unwrap_or_default()` over a protocol Result.
            if toks[i].text == "."
                && toks
                    .get(i + 1)
                    .is_some_and(|t| t.text == "unwrap_or_default")
                && toks.get(i + 2).is_some_and(|t| t.text == "(")
                && i > start
            {
                let (names, _) = chain_callees(toks, i - 1, start);
                if let Some((name, why)) = chain_protocol_call(index, &names) {
                    out.push(Finding::new(
                        rel,
                        lx,
                        toks[i + 1].line,
                        Rule::E03,
                        format!(
                            "`.unwrap_or_default()` swallows the error of `{name}` \
                             ({why}) — a silent default hides an injected fault"
                        ),
                    ));
                }
            }
            i += 1;
        }
    }
}

/// The first call in `toks[from..to)` that resolves to a workspace fn
/// whose `Result` carries protocol error info.
fn first_protocol_call(
    index: &SymbolIndex,
    caller: &FnDef,
    toks: &[Tok],
    from: usize,
    to: usize,
) -> Option<(String, String)> {
    let mut stats = crate::report::GraphStats::default();
    for cs in callgraph::call_sites(index, caller, toks, from, to, &mut stats) {
        for &t in &cs.targets {
            if let Some(why) = protocol_result(&index.fns[t]) {
                return Some((index.fns[t].qualified(), why));
            }
        }
    }
    None
}

/// Resolve each chained callee name and return the first that produces a
/// protocol `Result`.
fn chain_protocol_call(index: &SymbolIndex, names: &[(&str, bool)]) -> Option<(String, String)> {
    for &(name, is_method) in names {
        for &id in index.by_name.get(name)? {
            let fd = &index.fns[id];
            if fd.is_method != is_method && is_method {
                continue;
            }
            if let Some(why) = protocol_result(fd) {
                return Some((fd.qualified(), why));
            }
        }
    }
    None
}

/// Walk a postfix chain leftwards from `end` (the last token of the
/// receiver expression). Returns the callee names encountered (with
/// whether each was a `.method()` call) and the chain's start index.
fn chain_callees<'a>(toks: &[Tok<'a>], mut end: usize, lo: usize) -> (Vec<(&'a str, bool)>, usize) {
    let mut names = Vec::new();
    loop {
        if end <= lo {
            return (names, end);
        }
        let t = &toks[end];
        match t.text {
            ")" => {
                let Some(open) = match_back(toks, end, lo, "(", ")") else {
                    return (names, end);
                };
                if open <= lo {
                    return (names, open);
                }
                let nm = &toks[open - 1];
                if nm.kind == TokKind::Ident && !KEYWORDS.contains(&nm.text) {
                    let is_m = open >= 2 && toks[open - 2].text == ".";
                    names.push((nm.text, is_m));
                    if is_m && open >= 3 {
                        end = open - 3;
                        continue;
                    }
                    return (names, open - 1);
                }
                // `(expr)` grouping: treat the paren group as the root.
                return (names, open);
            }
            "]" => {
                let Some(open) = match_back(toks, end, lo, "[", "]") else {
                    return (names, end);
                };
                if open == 0 {
                    return (names, open);
                }
                end = open - 1;
            }
            "?" => {
                if end == 0 {
                    return (names, end);
                }
                end -= 1;
            }
            _ if t.kind == TokKind::Ident => {
                if t.text == "await" && end >= 2 && toks[end - 1].text == "." {
                    end -= 2;
                    continue;
                }
                if end >= 2 && toks[end - 1].text == "." {
                    end -= 2; // field access: keep walking the receiver
                } else {
                    return (names, end);
                }
            }
            _ => return (names, end),
        }
    }
}

/// Index of the `open` matching the `close` at `at`, scanning backwards,
/// not crossing `lo`.
fn match_back(toks: &[Tok], at: usize, lo: usize, open: &str, close: &str) -> Option<usize> {
    let mut d = 0i32;
    let mut k = at;
    loop {
        let t = toks[k].text;
        if t == close {
            d += 1;
        } else if t == open {
            d -= 1;
            if d == 0 {
                return Some(k);
            }
        }
        if k == lo || k == 0 {
            return None;
        }
        k -= 1;
    }
}

// --------------------------------------------------------------- P-rules

#[derive(Default)]
struct TagUses {
    sends: Vec<(usize, usize)>, // (file idx, line)
    recvs: Vec<(usize, usize)>,
    unknown: usize,
}

fn p01(index: &SymbolIndex, files: &[(&str, &Lexed)], out: &mut Vec<Finding>) {
    // The tag universe: consts defined in a module literally named `tags`.
    let tag_names: BTreeSet<&str> = index
        .consts
        .iter()
        .filter(|c| c.module == "tags")
        .map(|c| c.name)
        .collect();
    if tag_names.is_empty() {
        return;
    }
    let mut uses: BTreeMap<&str, TagUses> = BTreeMap::new();
    for (file_idx, (_, lx)) in files.iter().enumerate() {
        let toks = &lx.toks;
        for i in 0..toks.len() {
            let is_tag = toks[i].text == "tags"
                && toks.get(i + 1).is_some_and(|t| t.text == ":")
                && toks.get(i + 2).is_some_and(|t| t.text == ":")
                && toks.get(i + 3).is_some_and(|t| tag_names.contains(t.text));
            if !is_tag || in_spans(&lx.tests, toks[i].line) {
                continue;
            }
            let name_tok = &toks[i + 3];
            // The definition site itself (`pub const BOOKMARK…`) has no
            // `tags::` qualifier, so every hit here is a *use*.
            let u = uses.entry(name_tok.text).or_default();
            match enclosing_call(toks, i) {
                Some("ctrl_send") => u.sends.push((file_idx, name_tok.line)),
                Some("ctrl_recv") => u.recvs.push((file_idx, name_tok.line)),
                _ => u.unknown += 1,
            }
        }
    }
    for (tag, u) in &uses {
        // A use outside ctrl_send/ctrl_recv (bound to a local, passed to
        // a helper like ctrl_barrier) makes the pairing undecidable for
        // this tag — the approximation errs toward silence.
        if u.unknown > 0 {
            continue;
        }
        let (witness, missing, have) = if !u.sends.is_empty() && u.recvs.is_empty() {
            (u.sends[0], "ctrl_recv", "sent")
        } else if !u.recvs.is_empty() && u.sends.is_empty() {
            (u.recvs[0], "ctrl_send", "received")
        } else {
            continue;
        };
        let (file_idx, line) = witness;
        out.push(Finding::new(
            files[file_idx].0,
            files[file_idx].1,
            line,
            Rule::P01,
            format!(
                "control tag `tags::{tag}` is {have} but has no matching `{missing}` \
                 anywhere in the workspace — an unpaired control tag deadlocks the wave"
            ),
        ));
    }
}

/// The name of the innermost `name(...)` call enclosing token `at`, if
/// any, walking outwards through every enclosing argument list until a
/// statement boundary.
fn enclosing_call<'a>(toks: &[Tok<'a>], at: usize) -> Option<&'a str> {
    let mut bal = 0i32;
    let mut k = at;
    while k > 0 {
        k -= 1;
        match toks[k].text {
            ")" => bal += 1,
            "(" => {
                if bal > 0 {
                    bal -= 1;
                } else if k > 0 && toks[k - 1].kind == TokKind::Ident {
                    let name = toks[k - 1].text;
                    if !KEYWORDS.contains(&name) {
                        return Some(name);
                    }
                }
            }
            ";" | "{" | "}" if bal == 0 => return None,
            _ => {}
        }
    }
    None
}

fn p02(index: &SymbolIndex, files: &[(&str, &Lexed)], out: &mut Vec<Finding>) {
    // Protocol enums: defined in the protocol-plane crates (the `json`
    // crate's generic value enum is deliberately out — matching it with
    // a wildcard is ordinary defensive parsing).
    let mut protocol_enums: BTreeMap<&str, &Vec<&str>> = BTreeMap::new();
    for e in &index.enums {
        if policy::D03T_SCOPE_CRATES.contains(&e.krate) || e.krate == "group" || e.krate == "mpi" {
            protocol_enums.insert(e.name, &e.variants);
        }
    }
    for (rel, lx) in files {
        if !RECOVERY_CRITICAL.contains(rel) {
            continue;
        }
        let toks = &lx.toks;
        let mut i = 0usize;
        while i < toks.len() {
            if toks[i].text != "match" || toks[i].kind != TokKind::Ident {
                i += 1;
                continue;
            }
            if in_spans(&lx.tests, toks[i].line) {
                i += 1;
                continue;
            }
            // Find the match body `{` (scrutinee has no top-level braces;
            // Rust requires parens around struct literals there).
            let mut j = i + 1;
            let mut d = 0i32;
            while j < toks.len() {
                match toks[j].text {
                    "(" | "[" => d += 1,
                    ")" | "]" => d -= 1,
                    "{" if d == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let close = cfg::matching(toks, j, toks.len());
            if close >= toks.len() {
                i += 1;
                continue;
            }
            let (wildcard, protocol) = scan_arms(toks, j, close, &protocol_enums);
            if wildcard && protocol {
                out.push(Finding::new(
                    rel,
                    lx,
                    toks[i].line,
                    Rule::P02,
                    "wildcard `_ =>` over a protocol enum in a recovery-critical \
                     module — name every variant so new protocol states cannot be \
                     silently ignored"
                        .to_string(),
                ));
            }
            i = j + 1;
        }
    }
}

/// Scan a match body for (a) a bare `_ =>` arm, (b) any protocol-enum
/// `Enum::Variant` in an arm pattern.
fn scan_arms(
    toks: &[Tok],
    open: usize,
    close: usize,
    protocol_enums: &BTreeMap<&str, &Vec<&str>>,
) -> (bool, bool) {
    let mut wildcard = false;
    let mut protocol = false;
    for arm in cfg::match_arms(toks, open, close) {
        let pat = &toks[arm.pat.0..arm.pat.1];
        if pat.len() == 1 && pat[0].text == "_" {
            wildcard = true;
        }
        for (p, t) in pat.iter().enumerate() {
            if t.kind == TokKind::Ident
                && protocol_enums.get(t.text).is_some_and(|variants| {
                    pat.get(p + 1).is_some_and(|c| c.text == ":")
                        && pat.get(p + 2).is_some_and(|c| c.text == ":")
                        && pat.get(p + 3).is_some_and(|v| variants.contains(&v.text))
                })
            {
                protocol = true;
            }
        }
    }
    (wildcard, protocol)
}
