//! W10 — wire-shape pairing between encoders and decoders.
//!
//! Hand-rolled wire formats pair an encoder with a decoder by convention
//! only; a field-order swap or arity drift between them corrupts state
//! silently, on paths the chaos harness only schedules probabilistically.
//! This pass is the static analogue of the FNV digest oracle, in two
//! halves:
//!
//! * **Record shapes** — for every checked-in [`WireSpec`] pair, extract
//!   the encoder's ordered field writes (the first array-literal group of
//!   plain identifiers, falling back to an ordered `.push(…)` sequence)
//!   and the decoder's reads (`chunks_exact(k)` / `chunks(k)` record
//!   arity plus the first slice-pattern binder group), then compare:
//!   arity against arity, and field order via prefix-related name pairing
//!   (`c` ↔ `comm`). A resolvable pairing that is a non-identity
//!   permutation is a field-order swap; unresolvable names stay quiet —
//!   the pass is conservative by design.
//! * **Payload types** — per ctrl tag, the payload type constructed on
//!   the send side (`Some(Rc::new(expr))`, inferred from `as` casts,
//!   local `let` bindings and workspace return types) must agree with
//!   every `payload_as::<T>()` decode associated with that tag. Unknown
//!   types are skipped, disagreement between *known* types fires.

use std::collections::{BTreeMap, BTreeSet};

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
/// one true record stream in the tree today; the ctrl payload plane is
/// covered pair-free by the payload-type half of this pass, and the
/// msglog / ckptstore digests recompute through a single shared function,
/// which needs no pairing check.
pub const WIRE_SPECS: &[WireSpec] = &[WireSpec {
    name: "cvc-clock",
    file: "crates/core/src/cvc.rs",
    encoder: "flatten",
    decoder: "merge_max",
}];

/// Crates whose ctrl traffic is audited for payload-type duality.
const PAYLOAD_CRATES: &[&str] = &["core", "mpi"];

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
    let mut out = Vec::new();
    for spec in WIRE_SPECS {
        out.extend(check_pair(spec, index, views));
    }
    out.extend(payload_duality(index, views));
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

/// Tag → payload type → first site `(file idx, line)`.
type TagTypes<'a> = BTreeMap<&'a str, BTreeMap<String, (usize, usize)>>;

/// Per ctrl tag, the payload type sent must match the type decoded.
fn payload_duality(index: &SymbolIndex, views: &[(&str, &Lexed)]) -> Vec<Finding> {
    let mut sent = TagTypes::new();
    let mut decoded = TagTypes::new();
    for fd in &index.fns {
        if !PAYLOAD_CRATES.contains(&fd.krate) {
            continue;
        }
        let Some((lo, hi)) = fd.body else { continue };
        let lx = views[fd.file].1;
        let tag_lets = phases::tag_lets(lx, lo, hi);
        let toks = &lx.toks;
        let hi = hi.min(toks.len());
        let mut last_recv: Option<&str> = None;
        let mut i = lo + 1;
        while i < hi {
            let t = &toks[i];
            let called = t.kind == TokKind::Ident && toks.get(i + 1).is_some_and(|n| n.text == "(");
            if !called {
                if t.text == "payload_as" {
                    if let (Some(tag), Some(ty)) = (last_recv, turbofish_type(lx, i + 1)) {
                        decoded
                            .entry(tag)
                            .or_default()
                            .entry(ty)
                            .or_insert((fd.file, t.line));
                    }
                }
                i += 1;
                continue;
            }
            match phases::ctrl_call(lx, i, &tag_lets) {
                Some(("send", close, Some(tag))) => {
                    if let Some(ty) = sent_payload_type(index, lx, lo, hi, i + 2, close) {
                        sent.entry(tag)
                            .or_default()
                            .entry(ty)
                            .or_insert((fd.file, t.line));
                    }
                }
                Some(("recv", _, Some(tag))) => last_recv = Some(tag),
                _ => {}
            }
            i += 1;
        }
    }

    let mut out = Vec::new();
    for (tag, dec_types) in &decoded {
        let Some(sent_types) = sent.get(tag) else {
            continue; // no send-side type inferred: inconclusive
        };
        if sent_types.keys().eq(dec_types.keys()) {
            continue;
        }
        let &(fi, line) = dec_types.values().next().expect("non-empty type map");
        out.push(Finding::new(
            views[fi].0,
            views[fi].1,
            line,
            Rule::W10,
            format!(
                "ctrl tag `{tag}`: payload is sent as [{}] but decoded as \
                 [{}] — the `Rc<dyn Any>` downcast returns None at runtime \
                 and the handler misreads the wave",
                sent_types.keys().cloned().collect::<Vec<_>>().join(", "),
                dec_types.keys().cloned().collect::<Vec<_>>().join(", "),
            ),
        ));
    }
    out
}

/// The `T` of a `::<T>` turbofish starting at token `at` (expected `:`).
fn turbofish_type(lx: &Lexed, at: usize) -> Option<String> {
    let toks = &lx.toks;
    if toks.get(at)?.text != ":" || toks.get(at + 1)?.text != ":" || toks.get(at + 2)?.text != "<" {
        return None;
    }
    let mut depth = 0i32;
    let mut ty = String::new();
    for t in &toks[at + 2..] {
        match t.text {
            "<" => {
                depth += 1;
                if depth == 1 {
                    continue;
                }
            }
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return Some(ty);
                }
            }
            _ => {}
        }
        ty.push_str(t.text);
    }
    None
}

/// The payload type a `ctrl_send` argument list constructs: the `expr` of
/// `Some(Rc::new(expr))`, typed by an `as` cast, a local `let` binding,
/// or a workspace callee's return type. `None` when inference would have
/// to guess.
fn sent_payload_type(
    index: &SymbolIndex,
    lx: &Lexed,
    body_lo: usize,
    body_hi: usize,
    lo: usize,
    hi: usize,
) -> Option<String> {
    let toks = &lx.toks;
    let hi = hi.min(toks.len());
    let mut i = lo;
    while i + 4 < hi {
        if toks[i].text == "Rc"
            && toks[i + 1].text == ":"
            && toks[i + 2].text == ":"
            && toks[i + 3].text == "new"
            && toks[i + 4].text == "("
        {
            let close = cfg::matching(toks, i + 4, toks.len());
            return expr_type(index, lx, body_lo, body_hi, i + 5, close);
        }
        i += 1;
    }
    None
}

/// The type of the expression in `[lo, hi)`, conservatively.
fn expr_type(
    index: &SymbolIndex,
    lx: &Lexed,
    body_lo: usize,
    body_hi: usize,
    lo: usize,
    hi: usize,
) -> Option<String> {
    let toks = &lx.toks;
    let hi = hi.min(toks.len());
    if hi <= lo {
        return None;
    }
    // `… as T` pins the type outright.
    for i in lo..hi {
        if toks[i].text == "as" {
            return toks.get(i + 1).map(|n| n.text.to_string());
        }
    }
    // A bare field access means the type lives outside this expression.
    for i in lo..hi.saturating_sub(1) {
        if toks[i].text == "."
            && toks[i + 1].kind == TokKind::Ident
            && toks.get(i + 2).is_none_or(|n| n.text != "(")
        {
            return None;
        }
    }
    // A single identifier: resolve its `let` binding within the body.
    if hi - lo == 1 && toks[lo].kind == TokKind::Ident {
        return binding_type(index, lx, body_lo, body_hi, toks[lo].text);
    }
    // A call: the callee's (unique) workspace return type.
    callee_ret(index, toks, lo, hi)
}

/// The declared or inferred type of `let [mut] name [: T] = rhs;`.
fn binding_type(
    index: &SymbolIndex,
    lx: &Lexed,
    lo: usize,
    hi: usize,
    name: &str,
) -> Option<String> {
    let toks = &lx.toks;
    let hi = hi.min(toks.len());
    let mut i = lo;
    while i + 2 < hi {
        if toks[i].text != "let" {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks[j].text == "mut" {
            j += 1;
        }
        if toks[j].text != name {
            i += 1;
            continue;
        }
        // `let name: T = …` — the annotation wins.
        if toks.get(j + 1).is_some_and(|n| n.text == ":")
            && toks.get(j + 2).is_none_or(|n| n.text != ":")
        {
            let mut ty = String::new();
            let mut k = j + 2;
            while k < hi && toks[k].text != "=" {
                ty.push_str(toks[k].text);
                k += 1;
            }
            return (!ty.is_empty()).then_some(ty);
        }
        if toks.get(j + 1).is_some_and(|n| n.text == "=") {
            // RHS runs to the statement's `;` at bracket depth 0.
            let k = cfg::scan_to(toks, j + 2, hi, ";");
            return expr_type(index, lx, lo, hi, j + 2, k);
        }
        i += 1;
    }
    None
}

/// The unique return type of the first called workspace fn in `[lo, hi)`.
fn callee_ret(
    index: &SymbolIndex,
    toks: &[crate::lexer::Tok],
    lo: usize,
    hi: usize,
) -> Option<String> {
    for i in lo..hi.min(toks.len()) {
        if toks[i].kind == TokKind::Ident && toks.get(i + 1).is_some_and(|n| n.text == "(") {
            let ids = index.by_name.get(toks[i].text)?;
            let rets: BTreeSet<String> = ids
                .iter()
                .map(|&id| index.fns[id].ret.join(""))
                .filter(|r| !r.is_empty())
                .collect();
            return match rets.len() {
                1 => rets.into_iter().next(),
                _ => None,
            };
        }
    }
    None
}
