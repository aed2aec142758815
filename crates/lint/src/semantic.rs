//! The workspace-level semantic passes, built on the symbol index and
//! call graph:
//!
//! * **D03-T** — transitive panic-reachability: a function defined in a
//!   recovery-critical module must not reach `unwrap`/`expect`/panic
//!   macros/unchecked indexing through any chain of workspace callees
//!   within the protocol-plane crates ([`crate::policy::D03T_SCOPE_CRATES`]).
//! * **P01** — protocol conformance: every `tags::*` control tag used
//!   in a `ctrl_send` must have a `ctrl_recv` somewhere (and vice versa).
//!
//! Discarded protocol `Result`s and `_ =>` wildcards over protocol enums
//! are type questions, so clippy answers them: every library crate root
//! denies `clippy::let_underscore_must_use` and `clippy::unused_result_ok`,
//! every recovery-critical file denies `clippy::wildcard_enum_match_arm`,
//! and `clippy.toml` disallows `Result::unwrap_or_default` (DESIGN.md §9).

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{self, CallGraph};
use crate::lexer::{in_spans, Lexed, Tok, TokKind};
use crate::policy::{self, RECOVERY_CRITICAL};
use crate::report::{Finding, Rule};
use crate::symbols::{SymbolIndex, KEYWORDS};

/// Run every semantic pass. `files` pairs workspace-relative paths with
/// lexer output. Line waivers are applied to the findings afterwards, by
/// the same step that applies them to every other engine's findings.
pub fn check(index: &SymbolIndex, graph: &CallGraph, files: &[(&str, &Lexed)]) -> Vec<Finding> {
    let mut out = Vec::new();
    d03t(index, graph, files, &mut out);
    p01(index, files, &mut out);
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

// ------------------------------------------------------------------ P01

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
