//! Structured control-flow trees over the token stream.
//!
//! The flow-sensitive passes (P10 phase-order checking, D10 determinism
//! taint) need more than a flat token range: they must know which
//! statements are alternatives (`if`/`else`, `match` arms) and which
//! repeat (`for`/`while`/`loop`). This module builds a *structured* CFG —
//! a tree of [`Cfg`] nodes over token ranges — good enough for a worklist
//! walk without parsing full Rust.
//!
//! Approximations, all deliberate and all conservative for our rules:
//!
//! * Control flow nested inside an *expression* (a closure body passed to
//!   an adaptor, a `match` inside a call argument) is linearized into the
//!   enclosing [`Cfg::Stmt`] range — every token is still visited, just
//!   without branch sensitivity.
//! * A struct literal's braces parse as a block; its field expressions
//!   are then visited as straight-line code, which is what they are.
//! * `break`/`continue`/`?`/early `return` do not cut edges; a loop body
//!   is treated as executing zero or more complete iterations.

use crate::lexer::{Tok, TokKind};

/// One node of the structured control-flow tree. Token ranges are
/// half-open `[lo, hi)` indices into the lexed token stream.
#[derive(Debug, Clone)]
pub enum Cfg {
    /// Straight-line tokens (may span several statements).
    Stmt(usize, usize),
    /// Children execute in order.
    Seq(Vec<Cfg>),
    /// Exactly one child executes (if/else chains, match arms). An
    /// `if` without `else` carries an empty `Seq` alternative.
    Branch(Vec<Cfg>),
    /// The child executes zero or more times.
    Loop(Box<Cfg>),
}

/// Build the structured CFG for the token range `[lo, hi)` (typically a
/// function body, braces excluded).
pub fn build(toks: &[Tok], lo: usize, hi: usize) -> Cfg {
    Cfg::Seq(parse_seq(toks, lo, hi))
}

fn is_ident(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
}

/// Index of the bracket matching the opener at `open`, or `hi` if
/// unclosed (truncated input); `open` itself when no opener sits there.
/// Only the opener's own bracket kind is counted.
pub fn matching(toks: &[Tok], open: usize, hi: usize) -> usize {
    let (o, c) = match toks.get(open).map(|t| t.text) {
        Some("{") => ("{", "}"),
        Some("(") => ("(", ")"),
        Some("[") => ("[", "]"),
        _ => return open,
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < hi {
        let t = toks[i].text;
        if t == o {
            depth += 1;
        } else if t == c {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    hi
}

/// Index of the first `stop` token at bracket depth 0 in `[from, hi)`,
/// or `hi` if none: a statement's `;`, a match arm's `,`.
pub(crate) fn scan_to(toks: &[Tok], from: usize, hi: usize, stop: &str) -> usize {
    let mut depth = 0i32;
    let mut i = from;
    while i < hi {
        match toks[i].text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            t if t == stop && depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    hi
}

/// One `match` arm as token ranges: the pattern (with any guard) before
/// the `=>`, and the body — a block's range excludes its braces.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arm {
    pub(crate) pat: (usize, usize),
    pub(crate) body: (usize, usize),
}

/// The arms of the `match` body whose braces sit at `open` and `close`.
pub(crate) fn match_arms(toks: &[Tok], open: usize, close: usize) -> Vec<Arm> {
    let mut arms = Vec::new();
    let mut i = open + 1;
    while i < close {
        // Skip the pattern (and guard) up to the `=>` at depth 0.
        let mut depth = 0i32;
        let mut arrow = None;
        let mut j = i;
        while j < close {
            match toks[j].text {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "=" if depth == 0 && toks.get(j + 1).is_some_and(|t| t.text == ">") => {
                    arrow = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(arrow) = arrow else { break };
        let body_start = arrow + 2;
        if body_start >= close {
            break;
        }
        let pat = (i, arrow);
        if toks[body_start].text == "{" {
            let bclose = matching(toks, body_start, close);
            arms.push(Arm {
                pat,
                body: (body_start + 1, bclose),
            });
            i = bclose + 1;
            if toks.get(i).is_some_and(|t| t.text == ",") {
                i += 1;
            }
        } else {
            // Expression arm: runs to the `,` at depth 0 (or the match end).
            let k = scan_to(toks, body_start, close, ",");
            arms.push(Arm {
                pat,
                body: (body_start, k),
            });
            i = (k + 1).min(close);
        }
    }
    arms
}

/// Scan forward from `from` for a `{` at bracket depth 0 (only `(`/`[`
/// depth counted — a depth-0 `{` *is* the block we are looking for).
fn block_open(toks: &[Tok], from: usize, hi: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = from;
    while i < hi {
        match toks[i].text {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

/// After `if let` / `while let`, skip the pattern: advance past the
/// top-level `=` (all bracket kinds counted, so struct patterns and
/// or-patterns do not confuse it).
fn skip_let_pattern(toks: &[Tok], from: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    let mut i = from;
    while i < hi {
        match toks[i].text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "=" if depth == 0 => {
                // `==` never terminates a pattern; `=` does.
                let twin = toks.get(i + 1).is_some_and(|t| t.text == "=");
                if !twin {
                    return i + 1;
                }
                i += 1;
            }
            _ => {}
        }
        i += 1;
    }
    hi
}

/// Parse `[lo, hi)` as a statement sequence.
fn parse_seq(toks: &[Tok], lo: usize, hi: usize) -> Vec<Cfg> {
    let mut out = Vec::new();
    let mut flat = lo; // start of the current straight-line run
    let mut i = lo;
    let mut depth = 0i32; // ( / [ nesting — keywords inside are expression-level
    while i < hi {
        let t = &toks[i];
        match t.text {
            "(" | "[" => {
                depth += 1;
                i += 1;
                continue;
            }
            ")" | "]" => {
                depth -= 1;
                i += 1;
                continue;
            }
            _ => {}
        }
        if depth > 0 || t.kind != TokKind::Ident && t.text != "{" {
            i += 1;
            continue;
        }
        match t.text {
            "if" => {
                flush(&mut out, flat, i);
                let (node, next) = parse_if(toks, i, hi);
                out.push(node);
                i = next;
                flat = i;
            }
            "match" => {
                flush(&mut out, flat, i);
                let (node, next) = parse_match(toks, i, hi);
                out.push(node);
                i = next;
                flat = i;
            }
            "loop" => {
                flush(&mut out, flat, i);
                let Some(open) = block_open(toks, i + 1, hi) else {
                    i += 1;
                    continue;
                };
                let (body, next) = block(toks, open, hi);
                out.push(Cfg::Loop(Box::new(Cfg::Seq(body))));
                i = next;
                flat = i;
            }
            "while" => {
                flush(&mut out, flat, i);
                let mut c = i + 1;
                if is_ident(toks, c, "let") {
                    c = skip_let_pattern(toks, c + 1, hi);
                }
                let Some(open) = block_open(toks, c, hi) else {
                    i += 1;
                    continue;
                };
                let (body, next) = block(toks, open, hi);
                let mut seq = vec![Cfg::Stmt(c, open)]; // the condition
                seq.extend(body);
                out.push(Cfg::Loop(Box::new(Cfg::Seq(seq))));
                i = next;
                flat = i;
            }
            "for" => {
                flush(&mut out, flat, i);
                // pattern `in` iterable `{` body `}`
                let c = scan_to(toks, i + 1, hi, "in");
                let Some(open) = block_open(toks, c, hi) else {
                    i += 1;
                    continue;
                };
                let (body, next) = block(toks, open, hi);
                out.push(Cfg::Stmt(c, open)); // the iterable expression
                out.push(Cfg::Loop(Box::new(Cfg::Seq(body))));
                i = next;
                flat = i;
            }
            "{" => {
                flush(&mut out, flat, i);
                let (body, next) = block(toks, i, hi);
                out.push(Cfg::Seq(body));
                i = next;
                flat = i;
            }
            _ => {
                i += 1;
            }
        }
    }
    flush(&mut out, flat, hi.min(toks.len()));
    out
}

/// The statements of the block opened at `open`, and the index just past
/// its closing brace.
fn block(toks: &[Tok], open: usize, hi: usize) -> (Vec<Cfg>, usize) {
    let close = matching(toks, open, hi);
    (parse_seq(toks, open + 1, close), close + 1)
}

fn flush(out: &mut Vec<Cfg>, lo: usize, hi: usize) {
    if lo < hi {
        out.push(Cfg::Stmt(lo, hi));
    }
}

/// Parse an `if` (possibly `if let`) chain starting at the `if` token.
/// Returns `Seq([cond, Branch([then, else])])` and the index after the
/// chain.
fn parse_if(toks: &[Tok], at: usize, hi: usize) -> (Cfg, usize) {
    let mut c = at + 1;
    if is_ident(toks, c, "let") {
        c = skip_let_pattern(toks, c + 1, hi);
    }
    let Some(open) = block_open(toks, c, hi) else {
        return (Cfg::Stmt(at, (at + 1).min(hi)), (at + 1).min(hi));
    };
    let cond = Cfg::Stmt(c, open);
    let (then, mut next) = block(toks, open, hi);
    let then = Cfg::Seq(then);
    let alt = if is_ident(toks, next, "else") {
        if is_ident(toks, next + 1, "if") {
            let (node, after) = parse_if(toks, next + 1, hi);
            next = after;
            node
        } else if let Some(eopen) = block_open(toks, next + 1, hi) {
            let (body, after) = block(toks, eopen, hi);
            next = after;
            Cfg::Seq(body)
        } else {
            Cfg::Seq(Vec::new())
        }
    } else {
        Cfg::Seq(Vec::new())
    };
    (Cfg::Seq(vec![cond, Cfg::Branch(vec![then, alt])]), next)
}

/// Parse a `match` starting at the `match` token. Returns
/// `Seq([scrutinee, Branch(arms)])` and the index after the match.
fn parse_match(toks: &[Tok], at: usize, hi: usize) -> (Cfg, usize) {
    let Some(open) = block_open(toks, at + 1, hi) else {
        return (Cfg::Stmt(at, (at + 1).min(hi)), (at + 1).min(hi));
    };
    let close = matching(toks, open, hi);
    let scrutinee = Cfg::Stmt(at + 1, open);
    let mut arms: Vec<Cfg> = match_arms(toks, open, close)
        .into_iter()
        .map(|a| Cfg::Seq(parse_seq(toks, a.body.0, a.body.1)))
        .collect();
    if arms.is_empty() {
        arms.push(Cfg::Seq(Vec::new()));
    }
    (Cfg::Seq(vec![scrutinee, Cfg::Branch(arms)]), close + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn shape(c: &Cfg) -> String {
        match c {
            Cfg::Stmt(..) => "S".to_string(),
            Cfg::Seq(v) => format!("[{}]", v.iter().map(shape).collect::<Vec<_>>().join(" ")),
            Cfg::Branch(v) => format!("B({})", v.iter().map(shape).collect::<Vec<_>>().join(" ")),
            Cfg::Loop(b) => format!("L{}", shape(b)),
        }
    }

    #[test]
    fn if_else_becomes_a_branch_with_the_condition_before_it() {
        let lx = lex("fn f() { let x = 1; if a { g(); } else { h(); } tail(); }");
        let cfg = build(&lx.toks, 0, lx.toks.len());
        let s = shape(&cfg);
        assert!(s.contains("B([S] [S])"), "shape: {s}");
    }

    #[test]
    fn match_arms_become_alternatives() {
        let lx = lex("fn f() { match x { Ok(v) => g(v), Err(_) => { h(); } } }");
        let cfg = build(&lx.toks, 0, lx.toks.len());
        let s = shape(&cfg);
        assert!(s.contains("B([S] [S])"), "shape: {s}");
    }

    #[test]
    fn loops_wrap_their_bodies() {
        let lx = lex("fn f() { for e in v { g(e); } while let Some(x) = it.next() { h(x); } }");
        let cfg = build(&lx.toks, 0, lx.toks.len());
        let s = shape(&cfg);
        assert_eq!(s.matches('L').count(), 2, "shape: {s}");
    }

    #[test]
    fn expression_level_keywords_stay_linear() {
        // The `match` lives inside call parens: no Branch at statement level.
        let lx = lex("fn f() { g(match x { A => 1, B => 2 }); }");
        let cfg = build(&lx.toks, 0, lx.toks.len());
        let s = shape(&cfg);
        assert!(!s.contains('B'), "shape: {s}");
    }

    #[test]
    fn else_if_chains_nest() {
        let lx = lex("fn f() { if a { g(); } else if b { h(); } else { k(); } }");
        let cfg = build(&lx.toks, 0, lx.toks.len());
        let s = shape(&cfg);
        // Outer branch's alternative is itself a cond+branch sequence.
        assert!(
            s.contains("B([S] [S B([S] [S])])") || s.contains("B("),
            "shape: {s}"
        );
    }
}
