//! W10 — wire-shape pairing between encoders and decoders.
//!
//! Hand-rolled wire formats pair an encoder with a decoder by convention
//! only; a field-order swap or arity drift between them corrupts state
//! silently, on paths the chaos harness only schedules probabilistically.
//! This pass is the static analogue of the FNV digest oracle: for every
//! checked-in [`WireSpec`] pair, extract the encoder's ordered field
//! writes (the first array-literal group of plain identifiers, falling
//! back to an ordered `.push(…)` sequence) and the decoder's reads
//! (`chunks_exact(k)` / `chunks(k)` record arity plus the first
//! slice-pattern binder group), then compare: arity against arity, and
//! field order via prefix-related name pairing (`c` ↔ `comm`). A
//! resolvable pairing that is a non-identity permutation is a field-order
//! swap; unresolvable names stay quiet — the pass is conservative by
//! design.
//!
//! Ctrl payloads need no such check: a payload is a slice of `u64` words
//! (`gcr_mpi::Payload`), so the type sent and the type read cannot
//! differ. What the words *mean* — the order of a record's fields — is
//! what this pass pairs.

use std::collections::BTreeSet;

use crate::cfg;
use crate::lexer::{Lexed, TokKind};
use crate::phases;
use crate::report::{sort_dedup, Finding, Rule};
use crate::symbols::{FnDef, SymbolIndex};

/// One encoder/decoder pair whose record shapes must agree.
#[derive(Debug)]
pub struct WireSpec {
    /// Pair name, used in finding messages.
    pub name: &'static str,
    /// Workspace-relative file both functions live in. A spec whose
    /// functions are absent is inactive (fixture workspaces stay quiet).
    pub file: &'static str,
    /// The function that serializes the record stream.
    pub encoder: &'static str,
    /// The function that consumes it.
    pub decoder: &'static str,
}

/// The checked-in encoder/decoder pairs. The CVC flattened clock is the
/// one record stream in the tree today; every other ctrl payload is a
/// single word, and the msglog / ckptstore digests recompute through a
/// single shared function, which needs no pairing check.
pub const WIRE_SPECS: &[WireSpec] = &[WireSpec {
    name: "cvc-clock",
    file: "crates/core/src/cvc.rs",
    encoder: "flatten",
    decoder: "merge_max",
}];

/// Wire pairs whose encoder and decoder both resolve in this workspace.
/// Used by the tier-1 coverage test: zero W10 findings is only
/// meaningful while the checked-in pairs actually bind.
pub fn active_pairs(index: &SymbolIndex, views: &[(&str, &Lexed)]) -> Vec<&'static str> {
    WIRE_SPECS
        .iter()
        .filter(|s| {
            phases::find_fn(index, views, s.encoder, s.file).is_some()
                && phases::find_fn(index, views, s.decoder, s.file).is_some()
        })
        .map(|s| s.name)
        .collect()
}

/// Run the W10 wire-shape pass.
pub fn check(index: &SymbolIndex, views: &[(&str, &Lexed)]) -> Vec<Finding> {
    let mut out: Vec<Finding> = WIRE_SPECS
        .iter()
        .flat_map(|spec| check_pair(spec, index, views))
        .collect();
    sort_dedup(&mut out);
    out
}

/// Ordered field names plus the line they were extracted from.
#[derive(Debug)]
struct Shape<'a> {
    fields: Vec<&'a str>,
    line: usize,
}

fn check_pair(spec: &WireSpec, index: &SymbolIndex, views: &[(&str, &Lexed)]) -> Vec<Finding> {
    let (Some(enc), Some(dec)) = (
        phases::find_fn(index, views, spec.encoder, spec.file),
        phases::find_fn(index, views, spec.decoder, spec.file),
    ) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let efd = &index.fns[enc];
    let dfd = &index.fns[dec];
    let lx = views[efd.file].1;
    let Some(eshape) = encoder_shape(lx, efd) else {
        return out;
    };
    let dlx = views[dfd.file].1;
    let chunk = chunk_arity(dlx, dfd);
    let dshape = binder_group(dlx, dfd);

    if let Some((k, line)) = chunk {
        if k != eshape.fields.len() {
            out.push(Finding::new(
                views[dfd.file].0,
                dlx,
                line,
                Rule::W10,
                format!(
                    "wire pair `{}`: encoder `{}` writes {}-field records \
                     [{}] but decoder `{}` consumes them in chunks of {k} — \
                     record arity diverged",
                    spec.name,
                    spec.encoder,
                    eshape.fields.len(),
                    eshape.fields.join(", "),
                    spec.decoder,
                ),
            ));
            return out;
        }
    }
    let Some(dshape) = dshape else {
        return out;
    };
    if dshape.fields.len() != eshape.fields.len() {
        out.push(Finding::new(
            views[dfd.file].0,
            dlx,
            dshape.line,
            Rule::W10,
            format!(
                "wire pair `{}`: encoder `{}` writes fields [{}] but decoder \
                 `{}` destructures [{}] — record arity diverged",
                spec.name,
                spec.encoder,
                eshape.fields.join(", "),
                spec.decoder,
                dshape.fields.join(", "),
            ),
        ));
        return out;
    }
    // Pair fields by prefix-related names; a resolvable non-identity
    // permutation is a field-order swap. Unresolvable names (no related
    // partner, or several) are inconclusive and stay quiet.
    let mut perm = Vec::with_capacity(eshape.fields.len());
    for e in &eshape.fields {
        let matches: Vec<usize> = dshape
            .fields
            .iter()
            .enumerate()
            .filter(|(_, d)| related(e, d))
            .map(|(j, _)| j)
            .collect();
        match matches.as_slice() {
            [j] => perm.push(*j),
            _ => return out,
        }
    }
    let distinct: BTreeSet<usize> = perm.iter().copied().collect();
    if distinct.len() == perm.len() && perm.iter().enumerate().any(|(i, &j)| i != j) {
        out.push(Finding::new(
            views[dfd.file].0,
            dlx,
            dshape.line,
            Rule::W10,
            format!(
                "wire pair `{}`: decoder `{}` reads fields [{}] in a \
                 different order than encoder `{}` writes them [{}] — \
                 field-order swap corrupts every record",
                spec.name,
                spec.decoder,
                dshape.fields.join(", "),
                spec.encoder,
                eshape.fields.join(", "),
            ),
        ));
    }
    out
}

/// Field names are related when one is a prefix of the other (`c` names
/// the same thing as `comm` across an encode/decode boundary).
fn related(a: &str, b: &str) -> bool {
    a == b || a.starts_with(b) || b.starts_with(a)
}

/// The encoder's ordered field writes: the first array-literal group of
/// ≥2 plain identifiers, else the ordered `name` arguments of ≥2
/// `.push(…)` calls (a pushed `.len()` reads as the `len` prefix field).
fn encoder_shape<'a>(lx: &Lexed<'a>, fd: &FnDef) -> Option<Shape<'a>> {
    let (lo, hi) = fd.body?;
    if let Some(s) = bracket_group(lx, lo + 1, hi) {
        return Some(s);
    }
    let toks = &lx.toks;
    let mut fields = Vec::new();
    let mut line = fd.line;
    let mut i = lo + 1;
    while i + 2 < hi.min(toks.len()) {
        if toks[i].text == "." && toks[i + 1].text == "push" && toks[i + 2].text == "(" {
            let close = cfg::matching(toks, i + 2, toks.len());
            let name = if (i + 3..close)
                .any(|k| toks[k].text == "len" && toks.get(k + 1).is_some_and(|n| n.text == "("))
            {
                Some("len")
            } else {
                (i + 3..close)
                    .find(|&k| toks[k].kind == TokKind::Ident)
                    .map(|k| toks[k].text)
            };
            if let Some(n) = name {
                if fields.is_empty() {
                    line = toks[i + 1].line;
                }
                fields.push(n);
            }
            i = close;
            continue;
        }
        i += 1;
    }
    (fields.len() >= 2).then_some(Shape { fields, line })
}

/// The first `[a, b, …]` group of ≥2 plain identifiers in `[lo, hi)` that
/// is not an index expression (`x[i]`). Serves both array literals on the
/// encode side and slice patterns (`let [a, b] = …`) on the decode side.
fn bracket_group<'a>(lx: &Lexed<'a>, lo: usize, hi: usize) -> Option<Shape<'a>> {
    let toks = &lx.toks;
    let hi = hi.min(toks.len());
    let mut i = lo;
    while i < hi {
        // An opener right after an expression (`x[i]`, `f()[i]`) is an
        // index; the lexer lumps keywords in with idents, so `let [` /
        // `for [` / `in [` still count as group starts.
        let indexes = i > 0
            && (toks[i - 1].text == ")"
                || toks[i - 1].text == "]"
                || (toks[i - 1].kind == TokKind::Ident
                    && !matches!(
                        toks[i - 1].text,
                        "let"
                            | "mut"
                            | "ref"
                            | "for"
                            | "in"
                            | "if"
                            | "else"
                            | "match"
                            | "return"
                            | "while"
                            | "move"
                    )));
        if toks[i].text == "[" && !indexes {
            let close = cfg::matching(toks, i, hi);
            if let Some(fields) = ident_elements(lx, i + 1, close) {
                if fields.len() >= 2 {
                    return Some(Shape {
                        fields,
                        line: toks[i].line,
                    });
                }
            }
            i = close;
        }
        i += 1;
    }
    None
}

/// Split `[lo, hi)` on top-level commas; every element must reduce to a
/// single identifier (after stripping `&`/`*`/`mut`), else `None`.
fn ident_elements<'a>(lx: &Lexed<'a>, lo: usize, hi: usize) -> Option<Vec<&'a str>> {
    let toks = &lx.toks;
    let hi = hi.min(toks.len());
    let mut out = Vec::new();
    let mut elem: Vec<&str> = Vec::new();
    let mut depth = 0i32;
    for t in &toks[lo..hi] {
        match t.text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => {
                out.push(single_ident(&elem)?);
                elem.clear();
                continue;
            }
            _ => {}
        }
        if !matches!(t.text, "&" | "*" | "mut") {
            elem.push(t.text);
        }
    }
    if !elem.is_empty() {
        out.push(single_ident(&elem)?);
    }
    Some(out)
}

fn single_ident<'a>(elem: &[&'a str]) -> Option<&'a str> {
    match *elem {
        [one]
            if one
                .chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_') =>
        {
            Some(one)
        }
        _ => None,
    }
}

/// The decoder's record arity: the literal `k` of the first
/// `chunks_exact(k)` / `chunks(k)` call in the body.
fn chunk_arity(lx: &Lexed, fd: &FnDef) -> Option<(usize, usize)> {
    let (lo, hi) = fd.body?;
    let toks = &lx.toks;
    let hi = hi.min(toks.len());
    for i in lo + 1..hi {
        if matches!(toks[i].text, "chunks_exact" | "chunks")
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            if let Some(k) = toks.get(i + 2).and_then(|n| n.text.parse::<usize>().ok()) {
                return Some((k, toks[i].line));
            }
        }
    }
    None
}

/// The decoder's slice-pattern binder group.
fn binder_group<'a>(lx: &Lexed<'a>, fd: &FnDef) -> Option<Shape<'a>> {
    let (lo, hi) = fd.body?;
    bracket_group(lx, lo + 1, hi)
}
