//! D10 — determinism taint dataflow; P21 — GC-floor soundness.
//!
//! **D10** upgrades D02's "any use anywhere" syntactic net into a
//! flow-sensitive question: does a nondeterministic *value* actually
//! reach a determinism-critical *sink*? Sources are hash-order iteration
//! (over bindings the file types as `HashMap`/`HashSet`; clippy bans
//! those types in the workspace outright) and the
//! clock/entropy/thread/env surfaces; sinks are digest folds,
//! trace/metrics records, and protocol message payloads. The analysis is
//! an intraprocedural worklist walk over the structured CFG
//! ([`crate::cfg`]) with a taint environment per simple binding, merged
//! at joins and iterated (twice) through loops, plus a coarse
//! interprocedural summary over the call graph: a function *returns
//! taint* if its body touches a source (or it calls one that does) and
//! it returns a value. Every finding carries the source→sink witness
//! chain. Bindings killed by a clean reassignment drop their taint — the
//! exact case the syntactic rules cannot express.
//!
//! **P21** runs the same walker (`Flow`) over the generation ledger; the
//! two rules differ only in the `Taint` parts they hand it (rule, sink
//! list, source matcher, message). A value read from the *pending*
//! (uncommitted) side of `GpState`'s ledger must never reach a log-trim
//! or floor-advertise sink (`advertise`, `reset_floors`, `gc`). The
//! sanctioned laundering point is promotion into `committed` — floors
//! derived from the committed ledger are clean by construction, and that
//! is exactly what the flow-sensitive kill expresses. Trimming to an uncommitted floor destroys log bytes a
//! fallback restart still needs; the survivability oracle only catches
//! it when chaos happens to schedule the crash inside the window.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::cfg::{self, Cfg};
use crate::lexer::{Lexed, Tok, TokKind};
use crate::report::{sort_dedup, Finding, Rule};
use crate::rules::NON_INDEX_KEYWORDS;
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

/// Methods whose call on a hash-ordered container observes its order
/// (D10's hash-iteration source).
const HASH_ITER_METHODS: &[&str] = &[
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

/// A taint chain: human-readable steps from source to the current value.
type Chain = Vec<(String, usize)>;

/// Taint environment: simple binding name → how it got tainted.
type Env<'a> = BTreeMap<&'a str, Chain>;

/// Run the D10 determinism taint pass over the workspace.
pub fn check(index: &SymbolIndex, graph: &CallGraph, views: &[(&str, &Lexed)]) -> Vec<Finding> {
    let n = index.fns.len();

    // Per-file hash-bound identifier sets.
    let hash_bound: Vec<BTreeSet<&str>> = views
        .iter()
        .map(|(_, lx)| hash_bound_idents(&lx.toks))
        .collect();

    // Summary 1: does the body touch a source at all?
    let mut gen = vec![false; n];
    for (f, fd) in index.fns.iter().enumerate() {
        let Some((lo, hi)) = fd.body else { continue };
        let lx = views[fd.file].1;
        gen[f] = has_source(&lx.toks, lo, hi, &hash_bound[fd.file]);
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
        let hash_bound = &hash_bound[fd.file];
        let taint = Taint {
            rule: Rule::D10,
            sinks: SINKS,
            source: &|toks, i, hi| source_at(toks, i, hi, hash_bound),
            ret_taint: &ret_taint,
            message: |sink, steps| {
                format!(
                    "nondeterministic value flows into sink `{sink}(…)`: {steps} → {sink}() \
                     — the digest/trace/payload plane must be replay-stable"
                )
            },
        };
        Flow::new(&taint, index, views[fd.file], &mut out).run(lo, hi);
    }
    sort_dedup(&mut out);
    out
}

fn is_hash_type(t: &Tok) -> bool {
    t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet")
}

/// Identifiers bound to a `HashMap`/`HashSet` anywhere in the file:
/// `let m = HashMap::new()`, `m: HashMap<..>` (locals, fields, params),
/// including `std::collections::`-qualified spellings.
fn hash_bound_idents<'a>(toks: &[Tok<'a>]) -> BTreeSet<&'a str> {
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

/// Does `[lo, hi)` contain a nondeterminism source?
fn has_source(toks: &[Tok], lo: usize, hi: usize, hash_bound: &BTreeSet<&str>) -> bool {
    let hi = hi.min(toks.len());
    (lo..hi).any(|i| source_at(toks, i, hi, hash_bound).is_some())
}

/// The nondeterminism source starting at token `i`, if any.
fn source_at(toks: &[Tok], i: usize, hi: usize, hash_bound: &BTreeSet<&str>) -> Option<String> {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    let path_next = |j: usize| {
        toks.get(j).is_some_and(|a| a.text == ":") && toks.get(j + 1).is_some_and(|a| a.text == ":")
    };
    match t.text {
        "Instant" if path_next(i + 1) && toks.get(i + 3).is_some_and(|a| a.text == "now") => {
            return Some("Instant::now()".to_string());
        }
        "SystemTime" => return Some("SystemTime".to_string()),
        "RandomState" => return Some("RandomState".to_string()),
        "available_parallelism" => return Some("available_parallelism()".to_string()),
        "thread" if path_next(i + 1) => return Some("std::thread".to_string()),
        "env" if path_next(i + 1) => return Some("std::env".to_string()),
        _ => {}
    }
    // Hash-order iteration: `m.iter()` where `m` is hash-bound.
    if hash_bound.contains(t.text)
        && toks.get(i + 1).is_some_and(|a| a.text == ".")
        && i + 2 < hi
        && toks[i + 2].kind == TokKind::Ident
        && HASH_ITER_METHODS.contains(&toks[i + 2].text)
    {
        return Some(format!("hash-ordered iteration over `{}`", t.text));
    }
    None
}

/// A taint source matcher: the source starting at token `i` of a range
/// ending at `hi`, described for the witness chain.
type Source<'a> = dyn Fn(&[Tok], usize, usize) -> Option<String> + 'a;

/// The rule-specific parts of a taint pass. D10 and P21 share the
/// walker ([`Flow`]) and differ only in these.
struct Taint<'a> {
    rule: Rule,
    /// Callee names whose tainted arguments are findings.
    sinks: &'a [&'a str],
    source: &'a Source<'a>,
    /// Per fn id: does a call to it return a tainted value?
    ret_taint: &'a [bool],
    /// The finding message for a sink name and its rendered chain.
    message: fn(&str, &str) -> String,
}

/// The flow-sensitive taint walker over one function body.
struct Flow<'a> {
    taint: &'a Taint<'a>,
    index: &'a SymbolIndex<'a>,
    rel: &'a str,
    lx: &'a Lexed<'a>,
    reported: BTreeSet<(usize, &'a str)>,
    out: &'a mut Vec<Finding>,
}

impl<'a> Flow<'a> {
    fn new(
        taint: &'a Taint<'a>,
        index: &'a SymbolIndex<'a>,
        (rel, lx): (&'a str, &'a Lexed<'a>),
        out: &'a mut Vec<Finding>,
    ) -> Self {
        Flow {
            taint,
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
                || !self.taint.sinks.contains(&t.text)
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
            let message = (self.taint.message)(t.text, &steps.join(" → "));
            self.out.push(Finding::new(
                self.rel,
                self.lx,
                t.line,
                self.taint.rule,
                message,
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
            if let Some(desc) = (self.taint.source)(toks, i, hi) {
                return Some(vec![(desc, toks[i].line)]);
            }
            let t = &toks[i];
            if t.kind == TokKind::Ident {
                if let Some(chain) = env.get(t.text) {
                    return Some(chain.clone());
                }
                if toks.get(i + 1).is_some_and(|n| n.text == "(") {
                    if let Some(ids) = self.index.by_name.get(t.text) {
                        if ids.iter().any(|&id| self.taint.ret_taint[id]) {
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

/// P21 sinks: log-trim and floor-advertise surfaces. A pending-ledger
/// value reaching one of these trims log a fallback restart still needs.
const GC_SINKS: &[&str] = &["advertise", "reset_floors", "gc"];

/// The generation-ledger file P21 audits. The pending/committed split is
/// this file's contract; elsewhere `pending` names unrelated state.
const GC_FILE: &str = "crates/core/src/hooks.rs";

/// Run the P21 GC-floor soundness pass: D10's walker with the pending
/// ledger as the sole source and the GC surfaces as sinks. Promotion into
/// `committed` is not a sink, so the committed-ledger laundering path
/// stays clean — exactly the sanctioned flow.
pub fn gc_floor(index: &SymbolIndex, views: &[(&str, &Lexed)]) -> Vec<Finding> {
    let no_ret_taint = vec![false; index.fns.len()];
    let taint = Taint {
        rule: Rule::P21,
        sinks: GC_SINKS,
        source: &|toks, i, _| {
            (toks[i].kind == TokKind::Ident && toks[i].text == "pending")
                .then(|| "the pending generation ledger".to_string())
        },
        ret_taint: &no_ret_taint,
        message: |sink, steps| {
            format!(
                "GC floor derived from an *uncommitted* generation reaches \
                 `{sink}(…)`: {steps} → {sink}() — promote the snapshot to the \
                 committed ledger first, or a crash inside the window trims log \
                 bytes the fallback restart still needs"
            )
        },
    };
    let mut out = Vec::new();
    for fd in &index.fns {
        if views[fd.file].0 != GC_FILE {
            continue;
        }
        let Some((lo, hi)) = fd.body else { continue };
        let lx = views[fd.file].1;
        // A body that never touches the pending ledger cannot leak it.
        let touches = (lo..hi.min(lx.toks.len()))
            .any(|i| lx.toks[i].kind == TokKind::Ident && lx.toks[i].text == "pending");
        if !touches {
            continue;
        }
        Flow::new(&taint, index, views[fd.file], &mut out).run(lo, hi);
    }
    sort_dedup(&mut out);
    out
}
