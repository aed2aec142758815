//! D10 — determinism taint dataflow.
//!
//! D10 upgrades D02's "any use anywhere" syntactic net into a
//! flow-sensitive question: does a nondeterministic *value* actually
//! reach a determinism-critical *sink*? Sources are the
//! clock/entropy/thread/env surfaces (hash-ordered containers need no
//! source here: `clippy.toml` bans `HashMap` and `HashSet` outright);
//! sinks are digest folds, trace/metrics records, and protocol message
//! payloads. The analysis is an intraprocedural worklist walk over the
//! structured CFG ([`crate::cfg`]) with a taint environment per simple
//! binding, merged at joins and iterated (twice) through loops, plus a
//! coarse interprocedural summary over the call graph: a function
//! *returns taint* if its body touches a source (or it calls one that
//! does) and it returns a value. Every finding carries the source→sink
//! witness chain. Bindings killed by a clean reassignment drop their
//! taint — the exact case the syntactic rules cannot express.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::cfg::{self, Cfg};
use crate::lexer::{Lexed, Tok, TokKind};
use crate::report::{sort_dedup, Finding, Rule};
use crate::symbols::SymbolIndex;

/// Sink function names: a call to one of these with a tainted argument
/// is a D10 finding. Digest folds, metrics/trace records, and the
/// protocol payload path.
const SINKS: &[&str] = &[
    "digest",
    "image_digest",
    "push_ckpt",
    "push_restart",
    "trace_send",
    "ctrl_send",
    "send_batch",
];

/// A taint chain: human-readable steps from source to the current value.
type Chain = Vec<(String, usize)>;

/// Taint environment: simple binding name → how it got tainted.
type Env<'a> = BTreeMap<&'a str, Chain>;

/// Run the D10 determinism taint pass over the workspace.
pub fn check(index: &SymbolIndex, graph: &CallGraph, views: &[(&str, &Lexed)]) -> Vec<Finding> {
    let n = index.fns.len();

    // Summary 1: does the body touch a source at all?
    let mut gen = vec![false; n];
    for (f, fd) in index.fns.iter().enumerate() {
        let Some((lo, hi)) = fd.body else { continue };
        let lx = views[fd.file].1;
        gen[f] = has_source(&lx.toks, lo, hi);
    }

    // Summary 2: returns-taint — generates (or transitively calls a
    // generator) *and* returns a value. Fixpoint over the call graph.
    let mut ret_taint: Vec<bool> = (0..n)
        .map(|f| gen[f] && !index.fns[f].ret.is_empty())
        .collect();
    loop {
        let mut grew = false;
        for f in 0..n {
            if ret_taint[f] || index.fns[f].ret.is_empty() {
                continue;
            }
            if graph.edges[f].iter().any(|&c| ret_taint[c]) {
                ret_taint[f] = true;
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }

    let mut out = Vec::new();
    for (f, fd) in index.fns.iter().enumerate() {
        let Some((lo, hi)) = fd.body else { continue };
        // A body with no source and no call into a taint-returning fn
        // cannot produce a flow; skip the CFG walk.
        let calls_taint = graph.calls[f]
            .iter()
            .any(|cs| cs.targets.iter().any(|&t| ret_taint[t]));
        if !gen[f] && !calls_taint {
            continue;
        }
        Flow::new(&ret_taint, index, views[fd.file], &mut out).run(lo, hi);
    }
    sort_dedup(&mut out);
    out
}

/// Does `[lo, hi)` contain a nondeterminism source?
fn has_source(toks: &[Tok], lo: usize, hi: usize) -> bool {
    (lo..hi.min(toks.len())).any(|i| source_at(toks, i).is_some())
}

/// The nondeterminism source starting at token `i`, if any.
fn source_at(toks: &[Tok], i: usize) -> Option<String> {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    let path_next = |j: usize| {
        toks.get(j).is_some_and(|a| a.text == ":") && toks.get(j + 1).is_some_and(|a| a.text == ":")
    };
    let source = match t.text {
        "Instant" if path_next(i + 1) && toks.get(i + 3).is_some_and(|a| a.text == "now") => {
            "Instant::now()"
        }
        "SystemTime" => "SystemTime",
        "RandomState" => "RandomState",
        "available_parallelism" => "available_parallelism()",
        "thread" if path_next(i + 1) => "std::thread",
        "env" if path_next(i + 1) => "std::env",
        _ => return None,
    };
    Some(source.to_string())
}

/// The flow-sensitive taint walker over one function body.
struct Flow<'a> {
    /// Per fn id: does a call to it return a tainted value?
    ret_taint: &'a [bool],
    index: &'a SymbolIndex<'a>,
    rel: &'a str,
    lx: &'a Lexed<'a>,
    reported: BTreeSet<(usize, &'a str)>,
    out: &'a mut Vec<Finding>,
}

impl<'a> Flow<'a> {
    fn new(
        ret_taint: &'a [bool],
        index: &'a SymbolIndex<'a>,
        (rel, lx): (&'a str, &'a Lexed<'a>),
        out: &'a mut Vec<Finding>,
    ) -> Self {
        Flow {
            ret_taint,
            index,
            rel,
            lx,
            reported: BTreeSet::new(),
            out,
        }
    }

    /// Walk the body `[lo, hi)` from an empty environment.
    fn run(&mut self, lo: usize, hi: usize) {
        let graph_cfg = cfg::build(&self.lx.toks, lo, hi);
        self.walk(&graph_cfg, Env::new());
    }

    fn walk(&mut self, c: &Cfg, mut env: Env<'a>) -> Env<'a> {
        match c {
            Cfg::Stmt(lo, hi) => {
                self.stmt(&mut env, *lo, *hi);
                env
            }
            Cfg::Seq(v) => v.iter().fold(env, |e, n| self.walk(n, e)),
            Cfg::Branch(v) => {
                let mut merged = Env::new();
                for n in v {
                    for (k, chain) in self.walk(n, env.clone()) {
                        merged.entry(k).or_insert(chain);
                    }
                }
                merged
            }
            Cfg::Loop(b) => {
                // Two rounds pick up loop-carried taint; the env only
                // grows, so this is a cheap truncated fixpoint.
                for _ in 0..2 {
                    for (k, chain) in self.walk(b, env.clone()) {
                        env.entry(k).or_insert(chain);
                    }
                }
                env
            }
        }
    }

    /// Transfer one straight-line run: per `;`-separated statement,
    /// check sinks against the pre-state, then apply the binding.
    fn stmt(&mut self, env: &mut Env<'a>, lo: usize, hi: usize) {
        let toks = &self.lx.toks;
        let hi = hi.min(toks.len());
        let mut a = lo;
        while a < hi {
            let b = cfg::scan_to(toks, a, hi, ";");
            if a < b {
                self.sinks(env, a, b);
                self.binding(env, a, b);
            }
            a = b + 1;
        }
    }

    /// Report tainted arguments reaching sink calls in `[a, b)`.
    fn sinks(&mut self, env: &Env, a: usize, b: usize) {
        let toks = &self.lx.toks;
        for i in a..b {
            let t = &toks[i];
            if t.kind != TokKind::Ident
                || !SINKS.contains(&t.text)
                || toks.get(i + 1).is_none_or(|n| n.text != "(")
            {
                continue;
            }
            let close = cfg::matching(toks, i + 1, toks.len());
            let Some(chain) = self.expr_taint(env, i + 2, close) else {
                continue;
            };
            let key = (t.line, t.text);
            if !self.reported.insert(key) {
                continue;
            }
            let steps: Vec<String> = chain
                .iter()
                .map(|(desc, line)| format!("{desc} (line {line})"))
                .collect();
            let (sink, steps) = (t.text, steps.join(" → "));
            self.out.push(Finding::new(
                self.rel,
                self.lx,
                t.line,
                Rule::D10,
                format!(
                    "nondeterministic value flows into sink `{sink}(…)`: {steps} → {sink}() \
                     — the digest/trace/payload plane must be replay-stable"
                ),
            ));
        }
    }

    /// Apply a simple `let x = …` / `x = …` binding: taint or kill.
    fn binding(&mut self, env: &mut Env<'a>, a: usize, b: usize) {
        let toks = &self.lx.toks;
        let Some((target, rhs)) = simple_binding(toks, a, b) else {
            return; // destructuring pattern: no simple binding to track
        };
        if rhs >= b {
            env.remove(target); // `let x;` — uninitialized, kills taint
            return;
        }
        match self.expr_taint(env, rhs, b) {
            Some(mut chain) => {
                if chain.last().map(|(d, _)| d.as_str()) != Some(&format!("`{target}`")) {
                    chain.push((format!("`{target}`"), toks[a].line));
                }
                env.insert(target, chain);
            }
            None => {
                env.remove(target);
            }
        }
    }

    /// The leftmost taint in an expression range, if any: a source, a
    /// tainted binding, or a call to a taint-returning function — checked
    /// in that order at each token.
    fn expr_taint(&self, env: &Env, lo: usize, hi: usize) -> Option<Chain> {
        let toks = &self.lx.toks;
        let hi = hi.min(toks.len());
        let mut i = lo;
        while i < hi {
            if let Some(desc) = source_at(toks, i) {
                return Some(vec![(desc, toks[i].line)]);
            }
            let t = &toks[i];
            if t.kind == TokKind::Ident {
                if let Some(chain) = env.get(t.text) {
                    return Some(chain.clone());
                }
                if toks.get(i + 1).is_some_and(|n| n.text == "(") {
                    if let Some(ids) = self.index.by_name.get(t.text) {
                        if ids.iter().any(|&id| self.ret_taint[id]) {
                            return Some(vec![(
                                format!("`{}()` (returns a nondeterministic value)", t.text),
                                t.line,
                            )]);
                        }
                    }
                }
            }
            i += 1;
        }
        None
    }
}

/// Parse a simple `let [mut] x [: T] = …` / `x = …` statement in
/// `[a, b)`: the bound name and the RHS start. An uninitialized `let x;`
/// returns the name with RHS start `b` (the binding kills taint);
/// destructuring patterns return `None` (nothing simple to track).
fn simple_binding<'a>(toks: &[Tok<'a>], a: usize, b: usize) -> Option<(&'a str, usize)> {
    if toks[a].text == "let" {
        let mut j = a + 1;
        if toks.get(j).is_some_and(|t| t.text == "mut") {
            j += 1;
        }
        let name = toks.get(j).filter(|t| t.kind == TokKind::Ident)?;
        // Only simple bindings: `let x = …` / `let x: T = …`. A
        // pattern (`let Some(x) = …`, `let (a, b) = …`) is skipped.
        if !toks
            .get(j + 1)
            .is_some_and(|t| t.text == ":" || t.text == "=" || t.text == ";")
        {
            return None;
        }
        let name = name.text;
        let mut k = j + 1;
        // Optional `: Type` annotation, then `=` (a bare `let x;` kills).
        let mut depth = 0i32;
        while k < b {
            match toks[k].text {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                "=" if depth <= 0 && toks.get(k + 1).is_none_or(|t| t.text != "=") => break,
                _ => {}
            }
            k += 1;
        }
        if k >= b {
            return Some((name, b)); // `let x;` — uninitialized
        }
        Some((name, k + 1))
    } else if toks[a].kind == TokKind::Ident
        && toks.get(a + 1).is_some_and(|t| t.text == "=")
        && toks.get(a + 2).is_none_or(|t| t.text != "=")
    {
        Some((toks[a].text, a + 2))
    } else {
        None
    }
}
