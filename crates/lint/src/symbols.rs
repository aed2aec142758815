//! The workspace symbol index: functions (free, inherent, trait),
//! enums and consts per module, extracted from the surface lexer's token
//! stream. This is the foundation the call graph ([`crate::callgraph`])
//! and the semantic passes ([`crate::semantic`]) stand on.
//!
//! It is an *approximate* index by design (no type inference, no macro
//! expansion): items are recognized by their introducing keyword and
//! brace/paren matching, impl/trait blocks give methods an owner type
//! name, and `#[cfg(test)]` spans are excluded entirely so test helpers
//! never alias live code.

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg;
use crate::lexer::{in_spans, Lexed, Tok, TokKind};
use crate::policy;

/// One indexed function (or method) definition. Names borrow the source.
#[derive(Debug, Clone)]
pub struct FnDef<'a> {
    /// Index of the defining file in the workspace file list.
    pub file: usize,
    /// Bare name (`restart_rank`, `ctrl_send`, …).
    pub name: &'a str,
    /// Enclosing `impl`/`trait` type name, when any.
    pub owner: Option<&'a str>,
    /// Does the parameter list start with a `self` receiver?
    pub is_method: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token range of the body: `(open_brace_idx, close_brace_idx)`,
    /// exclusive of the braces themselves when iterated `open+1..close`.
    /// `None` for bodyless trait declarations.
    pub body: Option<(usize, usize)>,
    /// Return-type tokens (empty for `-> ()` elided returns).
    pub ret: Vec<&'a str>,
    /// Defining crate (`core`, `mpi`, …; `""` for the root package).
    pub krate: &'a str,
}

impl FnDef<'_> {
    /// `Type::name` or `name`, for witness chains in messages.
    pub fn qualified(&self) -> String {
        match self.owner {
            Some(o) => format!("{}::{}", o, self.name),
            None => self.name.to_string(),
        }
    }
}

/// One indexed enum definition.
#[derive(Debug, Clone)]
pub struct EnumDef<'a> {
    /// Enum name.
    pub name: &'a str,
    /// Variant names in declaration order.
    pub variants: Vec<&'a str>,
    /// Defining crate.
    pub krate: &'a str,
}

/// One indexed const definition.
#[derive(Debug, Clone)]
pub struct ConstDef<'a> {
    /// Index of the defining file.
    pub file: usize,
    /// Const name.
    pub name: &'a str,
    /// Innermost enclosing `mod` name (`""` at file top level).
    pub module: &'a str,
    /// 1-based line.
    pub line: usize,
    /// Defining crate.
    pub krate: &'a str,
}

/// The whole workspace's symbols, borrowing the sources and paths they
/// were built from.
#[derive(Debug, Default)]
pub struct SymbolIndex<'a> {
    /// All indexed functions; ids are indices into this vec.
    pub fns: Vec<FnDef<'a>>,
    /// All indexed enums.
    pub enums: Vec<EnumDef<'a>>,
    /// All indexed consts.
    pub consts: Vec<ConstDef<'a>>,
    /// Function ids by bare name.
    pub by_name: BTreeMap<&'a str, Vec<usize>>,
    /// Every type name the workspace implements something on (impl-block
    /// owners plus enum names). A `Type::assoc()` call whose qualifier is
    /// *not* in this set is a std/external type, not an unresolved one.
    pub owners: BTreeSet<&'a str>,
}

/// Keywords that introduce or qualify items — never call or index names.
pub(crate) const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "in", "match", "return", "loop", "break", "continue", "as",
    "move", "ref", "mut", "let", "fn", "impl", "trait", "struct", "enum", "mod", "use", "pub",
    "const", "static", "where", "unsafe", "async", "await", "dyn", "box", "type", "self", "Self",
    "super", "crate", "true", "false", "extern", "yield",
];

/// Build the index over every workspace file (`(rel, lexed)` pairs).
pub fn build<'a>(files: &[(&'a str, &Lexed<'a>)]) -> SymbolIndex<'a> {
    let mut ix = SymbolIndex::default();
    for (file_idx, &(rel, lx)) in files.iter().enumerate() {
        index_file(&mut ix, file_idx, rel, lx);
    }
    for (id, f) in ix.fns.iter().enumerate() {
        ix.by_name.entry(f.name).or_default().push(id);
    }
    ix.owners = ix
        .fns
        .iter()
        .filter_map(|f| f.owner)
        .chain(ix.enums.iter().map(|e| e.name))
        .collect();
    ix
}

fn index_file<'a>(ix: &mut SymbolIndex<'a>, file_idx: usize, rel: &'a str, lx: &Lexed<'a>) {
    let toks = &lx.toks;
    let krate = policy::crate_of(rel).unwrap_or_default();
    // Owner contexts: (brace depth the block's body lives at, type name).
    let mut owners: Vec<(usize, &str)> = Vec::new();
    let mut mods: Vec<(usize, &str)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.text {
            "{" => {
                depth += 1;
                i += 1;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                owners.retain(|&(d, _)| d <= depth);
                mods.retain(|&(d, _)| d <= depth);
                i += 1;
            }
            "impl" | "trait" if t.kind == TokKind::Ident => {
                if let Some((name, open)) = impl_owner(toks, i) {
                    owners.push((depth + 1, name));
                    depth += 1;
                    i = open + 1;
                } else {
                    i += 1;
                }
            }
            "mod" if t.kind == TokKind::Ident => {
                // `mod name {` opens a module scope; `mod name;` doesn't.
                if let (Some(n), Some(b)) = (toks.get(i + 1), toks.get(i + 2)) {
                    if n.kind == TokKind::Ident && b.text == "{" {
                        mods.push((depth + 1, n.text));
                        depth += 1;
                        i += 3;
                        continue;
                    }
                }
                i += 1;
            }
            "fn" if t.kind == TokKind::Ident => {
                if in_spans(&lx.tests, t.line) {
                    i += 1;
                    continue;
                }
                match parse_fn(toks, i) {
                    Some(parsed) => {
                        let owner = owners.last().map(|&(_, n)| n);
                        ix.fns.push(FnDef {
                            file: file_idx,
                            name: parsed.name,
                            owner,
                            is_method: parsed.is_method,
                            line: t.line,
                            body: parsed.body,
                            ret: parsed.ret,
                            krate,
                        });
                        // Skip the signature but *enter* the body, so
                        // nested items are still seen; depth tracking
                        // continues naturally at the `{`.
                        i = parsed.resume;
                    }
                    None => i += 1,
                }
            }
            "enum" if t.kind == TokKind::Ident && !in_spans(&lx.tests, t.line) => {
                if let Some((def, resume)) = parse_enum(toks, i, krate) {
                    ix.enums.push(def);
                    i = resume;
                } else {
                    i += 1;
                }
            }
            "const" if t.kind == TokKind::Ident && !in_spans(&lx.tests, t.line) => {
                // `const NAME :` — not `const fn` and not `*const T`.
                let named = toks
                    .get(i + 1)
                    .is_some_and(|n| n.kind == TokKind::Ident && n.text != "fn" && n.text != "_")
                    && toks.get(i + 2).is_some_and(|c| c.text == ":");
                let raw_ptr = i > 0 && toks[i - 1].text == "*";
                if named && !raw_ptr {
                    ix.consts.push(ConstDef {
                        file: file_idx,
                        name: toks[i + 1].text,
                        module: mods.last().map_or("", |&(_, n)| n),
                        line: t.line,
                        krate,
                    });
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// From an `impl`/`trait` keyword, the owner type name and the index of
/// the block's opening `{`. For `impl Trait for Type` the owner is
/// `Type`; for `impl Type` and `trait Name` it is the first identifier
/// after any generic parameter list.
fn impl_owner<'a>(toks: &[Tok<'a>], at: usize) -> Option<(&'a str, usize)> {
    let mut j = at + 1;
    // Skip `<...>` generic params right after the keyword.
    if toks.get(j).is_some_and(|t| t.text == "<") {
        let mut d = 0i32;
        while j < toks.len() {
            match toks[j].text {
                "<" => d += 1,
                ">" => {
                    d -= 1;
                    if d == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    let mut name: Option<&str> = None;
    let mut after_for = false;
    while j < toks.len() {
        let t = &toks[j];
        match t.text {
            "{" => return name.map(|n| (n, j)),
            ";" => return None, // `trait X: Y;`-style or parse confusion
            "for" => {
                after_for = true;
                name = None;
            }
            _ if t.kind == TokKind::Ident
                && !KEYWORDS.contains(&t.text)
                && (name.is_none() || after_for) =>
            {
                // Keep the *last* path segment: `impl gc::Store` → Store.
                let is_path_seg = toks.get(j + 1).is_some_and(|n| n.text == ":")
                    && toks.get(j + 2).is_some_and(|n| n.text == ":");
                if !is_path_seg {
                    name = Some(t.text);
                    after_for = false;
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

struct ParsedFn<'a> {
    name: &'a str,
    is_method: bool,
    body: Option<(usize, usize)>,
    ret: Vec<&'a str>,
    /// Token index to resume the item scan at (start of the body for
    /// brace-bodied fns, so nested items are indexed too).
    resume: usize,
}

fn parse_fn<'a>(toks: &[Tok<'a>], at: usize) -> Option<ParsedFn<'a>> {
    let name_tok = toks.get(at + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None; // `fn(u32) -> u32` pointer type
    }
    let name = name_tok.text;
    let mut j = at + 2;
    // Generic params.
    if toks.get(j).is_some_and(|t| t.text == "<") {
        let mut d = 0i32;
        while j < toks.len() {
            match toks[j].text {
                "<" => d += 1,
                ">" => {
                    d -= 1;
                    if d == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    if toks.get(j).is_none_or(|t| t.text != "(") {
        return None;
    }
    // Parameter list; `self` anywhere before the first top-level comma
    // makes it a method (`&self`, `&mut self`, `self`, `self: Rc<Self>`).
    let open_paren = j;
    let mut d = 0i32;
    let mut is_method = false;
    let mut seen_comma = false;
    while j < toks.len() {
        match toks[j].text {
            "(" => d += 1,
            ")" => {
                d -= 1;
                if d == 0 {
                    break;
                }
            }
            "," if d == 1 => seen_comma = true,
            "self" if d == 1 && !seen_comma && j > open_paren => is_method = true,
            _ => {}
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    j += 1; // past `)`
            // Return type and body/`;`.
    let mut ret = Vec::new();
    let mut in_ret = false;
    while j < toks.len() {
        let t = &toks[j];
        match t.text {
            "{" => {
                let close = Some(cfg::matching(toks, j, toks.len())).filter(|&c| c < toks.len())?;
                // Resume AT the `{` so the item scan's own brace-depth
                // tracking stays consistent while it walks the body.
                return Some(ParsedFn {
                    name,
                    is_method,
                    body: Some((j, close)),
                    ret,
                    resume: j,
                });
            }
            ";" => {
                return Some(ParsedFn {
                    name,
                    is_method,
                    body: None,
                    ret,
                    resume: j + 1,
                });
            }
            "-" if toks.get(j + 1).is_some_and(|n| n.text == ">") => {
                in_ret = true;
                j += 2;
                continue;
            }
            "where" => in_ret = false,
            _ => {
                if in_ret {
                    ret.push(t.text);
                }
            }
        }
        j += 1;
    }
    None
}

fn parse_enum<'a>(toks: &[Tok<'a>], at: usize, krate: &'a str) -> Option<(EnumDef<'a>, usize)> {
    let name_tok = toks.get(at + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    // Find the body `{` (skipping generics / where clauses).
    let mut j = at + 2;
    while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
        j += 1;
    }
    if toks.get(j).is_none_or(|t| t.text != "{") {
        return None;
    }
    let open = j;
    let close = Some(cfg::matching(toks, open, toks.len())).filter(|&c| c < toks.len())?;
    let mut variants = Vec::new();
    let mut d = 0i32;
    let mut expect_variant = true;
    let mut k = open;
    while k <= close {
        let t = &toks[k];
        match t.text {
            "{" | "(" | "[" => d += 1,
            "}" | ")" | "]" => d -= 1,
            "," if d == 1 => expect_variant = true,
            "#" => {}
            _ if t.kind == TokKind::Ident && d == 1 && expect_variant => {
                variants.push(t.text);
                expect_variant = false;
            }
            _ => {}
        }
        k += 1;
    }
    Some((
        EnumDef {
            name: name_tok.text,
            variants,
            krate,
        },
        close + 1,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn index_one(src: &str) -> SymbolIndex<'_> {
        let lx = lex(src);
        build(&[("crates/core/src/x.rs", &lx)])
    }

    #[test]
    fn fns_methods_and_owners_are_indexed() {
        let ix = index_one(
            "pub fn free(a: u32) -> Result<(), RecoveryError> { Ok(()) }\n\
             struct S;\n\
             impl S {\n    pub fn new() -> S { S }\n    fn go(&mut self, n: u32) {}\n}\n\
             trait T {\n    fn hook(&self) { }\n    fn decl(&self);\n}\n",
        );
        let names: Vec<_> = ix.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, ["free", "S::new", "S::go", "T::hook", "T::decl"]);
        assert!(!ix.fns[1].is_method);
        assert!(ix.fns[2].is_method);
        assert!(ix.fns[4].body.is_none());
    }

    #[test]
    fn impl_trait_for_type_owns_by_type() {
        let ix = index_one("impl Drop for Gate { fn drop(&mut self) {} }\n");
        assert_eq!(ix.fns[0].qualified(), "Gate::drop");
    }

    #[test]
    fn enums_consts_and_modules_are_indexed() {
        let ix = index_one(
            "pub mod tags {\n    pub const BOOKMARK: u64 = 1;\n}\n\
             const TOP: u32 = 0;\n\
             pub enum Phase { Idle, Draining(u32), Done { at: u64 } }\n",
        );
        assert_eq!(ix.consts[0].name, "BOOKMARK");
        assert_eq!(ix.consts[0].module, "tags");
        assert_eq!(ix.consts[1].module, "");
        assert_eq!(ix.enums[0].name, "Phase");
        assert_eq!(ix.enums[0].variants, ["Idle", "Draining", "Done"]);
    }

    #[test]
    fn test_spans_are_excluded_from_the_index() {
        let ix = index_one("fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n");
        assert_eq!(ix.fns.len(), 1);
        assert_eq!(ix.fns[0].name, "live");
    }
}
