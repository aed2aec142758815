//! The approximate workspace call graph, built on [`crate::symbols`].
//!
//! Three call shapes are recognized in every indexed function body:
//! `name(..)` (bare), `recv.name(..)` (method) and `Qual::name(..)`
//! (path). Resolution is name-based with structural hints:
//!
//! * path calls prefer definitions owned by the qualifying type;
//! * bare calls prefer the same file, then the same crate;
//! * method calls fall back to *every* workspace method of that name —
//!   an over-approximation (no type inference, no trait dispatch) that
//!   is sound for panic-reachability and reported as `ambiguous` in the
//!   resolution statistics when several candidates match.
//!
//! A callee name that exists nowhere in the index is classified
//! `external` (std/core or a local closure) — confidently resolved as
//! "not a workspace function". The resolution rate the report carries is
//! `(resolved + external) / call_sites`.

use std::collections::BTreeMap;

use crate::lexer::{Lexed, Tok, TokKind};
use crate::report::GraphStats;
use crate::rules::NON_INDEX_KEYWORDS;
use crate::suppress::FileWaivers;
use crate::symbols::{FnDef, SymbolIndex, KEYWORDS};

/// How a call site was classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Linked to its workspace definition(s) with a structural match.
    Resolved,
    /// Callee name absent from the index: std/core or a closure.
    External,
    /// Name-fallback linked to several same-named definitions.
    Ambiguous,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite<'a> {
    /// 1-based source line.
    pub line: usize,
    /// Callee name as written.
    pub name: &'a str,
    /// Resolved workspace callee ids (empty for external).
    pub targets: Vec<usize>,
    /// Classification for the statistics.
    pub resolution: Resolution,
}

/// The three shapes of a panic site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()` / `.expect(…)`.
    Unwrap,
    /// `panic!`, `unreachable!`, `todo!`, `unimplemented!`.
    Macro,
    /// Unchecked indexing `x[…]`.
    Index,
}

/// One potential panic inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based source line.
    pub line: usize,
    /// Human description (``.unwrap()``, `panic!`, `buf[…]`, …).
    pub what: String,
    /// Which shape of panic it is.
    pub kind: PanicKind,
}

/// The call graph plus per-function panic sites.
#[derive(Debug, Default)]
pub struct CallGraph<'a> {
    /// Call sites per function id (source order).
    pub calls: Vec<Vec<CallSite<'a>>>,
    /// Deduplicated workspace callee ids per function id.
    pub edges: Vec<Vec<usize>>,
    /// Unwaived panic sites per function id.
    pub panics: Vec<Vec<PanicSite>>,
    /// Resolution statistics.
    pub stats: GraphStats,
}

/// Build the graph. `files` pairs each indexed file with its lexer
/// output; `waivers` is consulted (and marked) for panic-site line
/// waivers and file-scope `trust(D03-T)` directives.
pub fn build<'a>(
    index: &SymbolIndex,
    files: &[(&str, &Lexed<'a>)],
    waivers: &mut [FileWaivers],
) -> CallGraph<'a> {
    let mut g = CallGraph {
        calls: Vec::with_capacity(index.fns.len()),
        edges: Vec::with_capacity(index.fns.len()),
        panics: Vec::with_capacity(index.fns.len()),
        stats: GraphStats {
            functions: index.fns.len(),
            ..GraphStats::default()
        },
    };
    // Panic sites first, so trust directives see the whole file.
    let mut raw_panics: Vec<Vec<PanicSite>> = Vec::with_capacity(index.fns.len());
    let mut file_has_panics = vec![false; files.len()];
    for f in &index.fns {
        let sites = match f.body {
            Some((open, close)) => panic_sites(&files[f.file].1.toks, open + 1, close),
            None => Vec::new(),
        };
        if !sites.is_empty() {
            file_has_panics[f.file] = true;
        }
        raw_panics.push(sites);
    }
    for (id, f) in index.fns.iter().enumerate() {
        let w = &mut waivers[f.file];
        let trusted = w.trusted(file_has_panics[f.file]);
        let kept: Vec<PanicSite> = raw_panics[id]
            .iter()
            .filter(|p| !trusted && !w.waives(p.line, crate::report::Rule::D03T))
            .cloned()
            .collect();
        g.panics.push(kept);
    }
    for f in &index.fns {
        let sites = match f.body {
            Some((open, close)) => call_sites(
                index,
                f,
                &files[f.file].1.toks,
                open + 1,
                close,
                &mut g.stats,
            ),
            None => Vec::new(),
        };
        let mut edges: Vec<usize> = sites
            .iter()
            .flat_map(|c| c.targets.iter().copied())
            .collect();
        edges.sort_unstable();
        edges.dedup();
        g.calls.push(sites);
        g.edges.push(edges);
    }
    g
}

impl CallGraph<'_> {
    /// For every function, can it reach a (kept) panic site through
    /// edges within `scope`? Least fixpoint over the cyclic graph.
    pub fn reaches_panic(&self, scope: &[bool]) -> Vec<bool> {
        let n = self.edges.len();
        let mut reach: Vec<bool> = (0..n).map(|i| !self.panics[i].is_empty()).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                if reach[i] || !scope[i] {
                    continue;
                }
                if self.edges[i].iter().any(|&t| scope[t] && reach[t]) {
                    reach[i] = true;
                    changed = true;
                }
            }
        }
        reach
    }

    /// Shortest call chain from `from` to a function with its own panic
    /// site, walking only `scope` functions. Returns the fn ids along
    /// the path (including `from` and the panicking fn).
    pub fn witness(&self, from: usize, scope: &[bool]) -> Option<Vec<usize>> {
        let n = self.edges.len();
        if !scope[from] {
            return None;
        }
        let mut prev: Vec<Option<usize>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[from] = true;
        queue.push_back(from);
        while let Some(u) = queue.pop_front() {
            if !self.panics[u].is_empty() {
                let mut path = vec![u];
                let mut cur = u;
                while let Some(p) = prev[cur] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            for &v in &self.edges[u] {
                if scope[v] && !seen[v] {
                    seen[v] = true;
                    prev[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        None
    }
}

/// Names that are overwhelmingly `std` container/iterator methods. A
/// method call with one of these names is treated as external even when
/// a workspace type happens to define the same name — the alternative
/// links every `Vec::push` in the workspace to that one method and
/// floods the graph with false edges. Documented in DESIGN.md §9.
const STD_METHOD_NAMES: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "clone",
    "contains",
    "contains_key",
    "entry",
    "keys",
    "values",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "min",
    "max",
    "sum",
    "count",
    "next",
    "collect",
    "map",
    "filter",
    "fold",
    "rev",
    "clear",
    "extend",
    "take",
    "replace",
    "borrow",
    "borrow_mut",
    "to_string",
    "to_vec",
    "as_ref",
    "as_mut",
    "as_str",
    "as_bytes",
    "unwrap_or",
    "ok_or",
    "and_then",
    "or_else",
    "unwrap_or_else",
    "unwrap_or_default",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "cloned",
    "copied",
    "enumerate",
    "zip",
    "chain",
    "any",
    "all",
    "find",
    "position",
    "retain",
    "drain",
    "split_off",
    "last",
    "first",
    "abs",
    "min_by",
    "max_by",
    "set",
    "get_or_insert_with",
];

/// Extract and resolve the call sites in `toks[start..end)`.
pub fn call_sites<'a>(
    index: &SymbolIndex,
    caller: &FnDef,
    toks: &[Tok<'a>],
    start: usize,
    end: usize,
    stats: &mut GraphStats,
) -> Vec<CallSite<'a>> {
    let mut out = Vec::new();
    for i in start..end.min(toks.len()) {
        let t = &toks[i];
        if t.kind != TokKind::Ident || KEYWORDS.contains(&t.text) {
            continue;
        }
        if toks.get(i + 1).is_none_or(|n| n.text != "(") {
            continue; // not a call (macros are `name ! (` and fall out here)
        }
        if i > 0 && toks[i - 1].text == "fn" {
            continue; // nested definition, indexed separately
        }
        let (targets, resolution) = if i > 0 && toks[i - 1].text == "." {
            resolve_method(index, t.text)
        } else if i > 1 && toks[i - 1].text == ":" && toks[i - 2].text == ":" {
            resolve_path(index, caller, toks, i)
        } else {
            resolve_bare(index, caller, t.text)
        };
        stats.call_sites += 1;
        match resolution {
            Resolution::Resolved => stats.resolved += 1,
            Resolution::External => stats.external += 1,
            Resolution::Ambiguous => stats.ambiguous += 1,
        }
        out.push(CallSite {
            line: t.line,
            name: t.text,
            targets,
            resolution,
        });
    }
    out
}

/// The ids of the functions named `name` that satisfy `keep`.
fn named(index: &SymbolIndex, name: &str, keep: impl Fn(&FnDef) -> bool) -> Vec<usize> {
    index.by_name.get(name).map_or_else(Vec::new, |ids| {
        ids.iter()
            .copied()
            .filter(|&id| keep(&index.fns[id]))
            .collect()
    })
}

fn resolve_method(index: &SymbolIndex, name: &str) -> (Vec<usize>, Resolution) {
    if STD_METHOD_NAMES.contains(&name) {
        return (Vec::new(), Resolution::External);
    }
    let cands = named(index, name, |f| f.is_method);
    if cands.is_empty() {
        return (Vec::new(), Resolution::External);
    }
    // Several workspace types may implement a method of this name; without
    // type inference the candidate *set* is the resolution (class-hierarchy
    // style). Propagation over-approximates across all of them.
    (cands, Resolution::Resolved)
}

fn resolve_bare(index: &SymbolIndex, caller: &FnDef, name: &str) -> (Vec<usize>, Resolution) {
    let all = named(index, name, |f| !f.is_method);
    if all.is_empty() {
        return (Vec::new(), Resolution::External);
    }
    let same_file: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&id| index.fns[id].file == caller.file)
        .collect();
    if !same_file.is_empty() {
        return (same_file, Resolution::Resolved);
    }
    let same_crate: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&id| index.fns[id].krate == caller.krate)
        .collect();
    let pick = if same_crate.is_empty() {
        all
    } else {
        same_crate
    };
    match pick.len() {
        1 => (pick, Resolution::Resolved),
        _ => (pick, Resolution::Ambiguous),
    }
}

/// Primitive type names: a path call qualified by one (`u64::from`,
/// `usize::try_from`) is a std associated fn, never a workspace free fn.
const PRIMITIVES: &[&str] = &[
    "bool", "char", "f32", "f64", "i8", "i16", "i32", "i64", "i128", "isize", "str", "u8", "u16",
    "u32", "u64", "u128", "usize",
];

fn resolve_path(
    index: &SymbolIndex,
    caller: &FnDef,
    toks: &[Tok],
    at: usize,
) -> (Vec<usize>, Resolution) {
    let name = toks[at].text;
    // Qualifier: the path segment right before `::name`.
    let mut qual = toks
        .get(at.wrapping_sub(3))
        .filter(|q| q.kind == TokKind::Ident)
        .map_or("", |q| q.text);
    if qual == "Self" {
        qual = caller.owner.unwrap_or_default();
    }
    // A type-qualified associated call: prefer definitions owned by it.
    if !qual.is_empty() {
        let owned = named(index, name, |f| f.owner == Some(qual));
        if !owned.is_empty() {
            return (owned, Resolution::Resolved);
        }
        // A type-like qualifier (CamelCase or primitive) that owns nothing
        // by this name: either a foreign type (`Vec::new`, `u64::from`) or
        // a derived/trait-provided item on a workspace type. Both are
        // outside the index — External, never a bare-name guess.
        if qual.chars().next().is_some_and(char::is_uppercase) || PRIMITIVES.contains(&qual) {
            return (Vec::new(), Resolution::External);
        }
    }
    // Module-qualified (`ctrlplane::ctrl_barrier`) or unqualified leading
    // `::`: fall back to free fns by name.
    resolve_bare(index, caller, name)
}

/// Panic sites (unwrap/expect, panic-family macros, unchecked indexing)
/// in `toks[start..end)`. Rule D03 reports these sites over a whole file
/// and D03-T propagates them through the call graph, so the direct and
/// transitive passes can never disagree.
pub fn panic_sites(toks: &[Tok], start: usize, end: usize) -> Vec<PanicSite> {
    let mut out = Vec::new();
    for i in start..end.min(toks.len()) {
        let t = &toks[i];
        if t.kind == TokKind::Ident && (t.text == "unwrap" || t.text == "expect") {
            let dotted = i > 0 && toks[i - 1].text == ".";
            let called = toks.get(i + 1).is_some_and(|n| n.text == "(");
            if dotted && called {
                out.push(PanicSite {
                    line: t.line,
                    what: format!("`.{}()`", t.text),
                    kind: PanicKind::Unwrap,
                });
            }
        }
        if t.kind == TokKind::Ident
            && matches!(t.text, "panic" | "unreachable" | "todo" | "unimplemented")
            && toks.get(i + 1).is_some_and(|n| n.text == "!")
        {
            out.push(PanicSite {
                line: t.line,
                what: format!("`{}!`", t.text),
                kind: PanicKind::Macro,
            });
        }
        if t.text == "[" && i > start {
            let prev = &toks[i - 1];
            let indexes = match prev.kind {
                TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text),
                TokKind::Punct => prev.text == ")" || prev.text == "]",
                _ => false,
            };
            if indexes {
                out.push(PanicSite {
                    line: t.line,
                    what: format!("unchecked index `{}[…]`", prev.text),
                    kind: PanicKind::Index,
                });
            }
        }
    }
    out
}

/// Map each function id to whether its crate is in `crates`.
pub fn crate_scope(index: &SymbolIndex, crates: &[&str]) -> Vec<bool> {
    index
        .fns
        .iter()
        .map(|f| crates.contains(&f.krate))
        .collect()
}

/// Resolve-by-qualified-name helper for tests and messages.
pub fn fn_named(index: &SymbolIndex, qualified: &str) -> Option<usize> {
    let map: BTreeMap<String, usize> = index
        .fns
        .iter()
        .enumerate()
        .map(|(id, f)| (f.qualified(), id))
        .collect();
    map.get(qualified).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::symbols;

    fn graph_of<'a>(files: &[(&'a str, &'a str)]) -> (SymbolIndex<'a>, CallGraph<'a>) {
        let lexed: Vec<Lexed> = files.iter().map(|(_, s)| lex(s)).collect();
        let pairs: Vec<(&str, &Lexed)> = files
            .iter()
            .zip(&lexed)
            .map(|((rel, _), lx)| (*rel, lx))
            .collect();
        let index = symbols::build(&pairs);
        let mut waivers: Vec<FileWaivers> = pairs
            .iter()
            .map(|(rel, lx)| FileWaivers::parse(rel, lx))
            .collect();
        let g = build(&index, &pairs, &mut waivers);
        (index, g)
    }

    #[test]
    fn cross_crate_calls_resolve_and_propagate_panics() {
        let (ix, g) = graph_of(&[
            (
                "crates/core/src/a.rs",
                "pub fn top() { gcr_net::helper(1); }\n",
            ),
            (
                "crates/net/src/b.rs",
                "pub fn helper(n: u32) -> u32 { let v = vec![1, 2]; v[n as usize] }\n",
            ),
        ]);
        let top = fn_named(&ix, "top").unwrap();
        let helper = fn_named(&ix, "helper").unwrap();
        assert_eq!(g.edges[top], vec![helper]);
        assert_eq!(g.panics[helper].len(), 1);
        let scope = crate_scope(&ix, &["core", "net"]);
        let reach = g.reaches_panic(&scope);
        assert!(reach[top] && reach[helper]);
        assert_eq!(g.witness(top, &scope).unwrap(), vec![top, helper]);
    }

    #[test]
    fn recursion_and_cycles_terminate() {
        let (ix, g) = graph_of(&[(
            "crates/core/src/a.rs",
            "fn ping(n: u32) { pong(n); }\n\
             fn pong(n: u32) { ping(n); }\n\
             fn safe() { ping(0); }\n",
        )]);
        let scope = vec![true; ix.fns.len()];
        let reach = g.reaches_panic(&scope);
        // The cycle has no panic site anywhere: nothing reaches one.
        assert!(reach.iter().all(|r| !r));
        assert!(g.witness(fn_named(&ix, "safe").unwrap(), &scope).is_none());
    }

    #[test]
    fn method_calls_fall_back_by_name() {
        let (ix, g) = graph_of(&[(
            "crates/core/src/a.rs",
            "struct S;\n\
             impl S {\n    fn fire(&self) { panic!(\"boom\"); }\n}\n\
             fn go(s: &S) { s.fire(); }\n",
        )]);
        let go = fn_named(&ix, "go").unwrap();
        let fire = fn_named(&ix, "S::fire").unwrap();
        assert_eq!(g.edges[go], vec![fire]);
        assert_eq!(g.calls[go][0].resolution, Resolution::Resolved);
    }

    #[test]
    fn unknown_callees_classify_external() {
        let (ix, g) = graph_of(&[(
            "crates/core/src/a.rs",
            "fn go(v: &mut Vec<u32>) { v.push(1); std::mem::drop(v); format_args(0); }\n",
        )]);
        let go = fn_named(&ix, "go").unwrap();
        assert!(g.edges[go].is_empty());
        assert!(g.calls[go]
            .iter()
            .all(|c| c.resolution == Resolution::External));
        assert!((g.stats.resolution_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn trust_directive_clears_a_files_panic_sites() {
        let (ix, g) = graph_of(&[(
            "crates/mpi/src/a.rs",
            "// gcr-lint: trust(D03-T) per-rank arrays are sized n at construction\n\
             pub fn gate(v: &[u32], r: usize) -> u32 { v[r] }\n",
        )]);
        assert!(g.panics[fn_named(&ix, "gate").unwrap()].is_empty());
    }

    #[test]
    fn path_calls_prefer_the_owning_type() {
        let (ix, g) = graph_of(&[(
            "crates/core/src/a.rs",
            "struct A; struct B;\n\
             impl A {\n    fn make() -> A { A }\n}\n\
             impl B {\n    fn make() -> B { B }\n}\n\
             fn go() { let _x = A::make(); }\n",
        )]);
        let go = fn_named(&ix, "go").unwrap();
        assert_eq!(g.edges[go], vec![fn_named(&ix, "A::make").unwrap()]);
    }
}
