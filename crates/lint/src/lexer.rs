//! A hand-rolled Rust surface lexer: enough of the language to strip
//! comments, strings and char literals, hand the rule engine a clean token
//! stream, and recover the `//` comments for suppression parsing.
//!
//! It is deliberately *not* a full Rust lexer — no keyword table, no
//! numeric suffix validation — because the rules only need identifiers,
//! punctuation and accurate line numbers. What it must get exactly right
//! is what *excludes* text from analysis: nested block comments, raw
//! strings with hash fences, byte strings, and the lifetime/char-literal
//! ambiguity.

/// What a token is, as far as the rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (crude: digit-led run).
    Num,
    /// A lifetime such as `'a` (kept distinct so `'a` never looks like an
    /// unterminated char literal).
    Lifetime,
    /// Any single punctuation character.
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Tok<'a> {
    /// 1-based source line.
    pub line: usize,
    /// Token text, a slice of the source (one char for punctuation).
    pub text: &'a str,
    /// Classification.
    pub kind: TokKind,
}

/// One `//` line comment.
#[derive(Debug, Clone)]
pub struct Comment<'a> {
    /// 1-based source line.
    pub line: usize,
    /// Comment text including the leading slashes, a slice of the source.
    pub text: &'a str,
    /// True when no code token precedes the comment on its line.
    pub own_line: bool,
}

/// The lexer's full output for one file. It borrows the source: tokens
/// and comments are slices of it, and both texts share one table of line
/// starts.
#[derive(Debug, Default)]
pub struct Lexed<'a> {
    /// Code tokens in source order.
    pub toks: Vec<Tok<'a>>,
    /// `//` comments in source order.
    pub comments: Vec<Comment<'a>>,
    /// The raw source (for human-facing snippets).
    pub(crate) src: &'a str,
    /// The source with comments, strings and char literals blanked to
    /// spaces, byte for byte the length of `src` so offsets carry over.
    /// Used by substring-style rules (D02).
    pub(crate) code: String,
    /// Byte offset of the start of each line, one entry per line of
    /// `src.lines()`.
    pub(crate) line_starts: Vec<usize>,
    /// Line spans of test-only items ([`test_spans`]), computed once here
    /// for every rule and pass that exempts test code.
    pub tests: Vec<(usize, usize)>,
}

impl Lexed<'_> {
    /// Number of source lines, as `str::lines` counts them.
    pub fn line_count(&self) -> usize {
        self.line_starts.len()
    }

    /// The 1-based line holding byte `offset`.
    pub(crate) fn line_of(&self, offset: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= offset)
    }

    /// The byte range of a 1-based line without its terminator, split as
    /// `str::lines` splits: at `\n`, with the `\r` of a `\r\n` stripped.
    fn line_range(&self, line: usize) -> Option<(usize, usize)> {
        let start = *self.line_starts.get(line.wrapping_sub(1))?;
        let end = self.line_starts.get(line).map_or(self.src.len(), |&s| s);
        let text = &self.src[start..end];
        let text = text
            .strip_suffix('\n')
            .map_or(text, |t| t.strip_suffix('\r').unwrap_or(t));
        Some((start, start + text.len()))
    }

    /// The blanked code text of a 1-based line ("" when out of range).
    pub fn code_line(&self, line: usize) -> &str {
        self.line_range(line).map_or("", |(a, b)| &self.code[a..b])
    }

    /// The raw trimmed text of a 1-based line ("" when out of range).
    pub fn snippet(&self, line: usize) -> &str {
        self.line_range(line)
            .map_or("", |(a, b)| self.src[a..b].trim())
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_cont(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Lex `src` into tokens, comments and blanked text.
pub fn lex(src: &str) -> Lexed<'_> {
    let b = src.as_bytes();
    let mut out = Lexed {
        src,
        // A line starts at 0 and after every `\n`, unless the source
        // ends there: `str::lines` adds no empty last line.
        line_starts: (0..b.len())
            .filter(|&k| k == 0 || b[k - 1] == b'\n')
            .collect(),
        ..Lexed::default()
    };
    // Blanked copy built in place: start from the raw bytes and overwrite
    // comment/string interiors with spaces as we pass them. Every blanked
    // run covers whole chars, so the copy stays valid UTF-8.
    let mut blank: Vec<u8> = b.to_vec();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut last_tok_line = 0usize;

    macro_rules! blank_at {
        ($idx:expr) => {
            if blank[$idx] != b'\n' {
                blank[$idx] = b' ';
            }
        };
    }
    macro_rules! push_tok {
        ($start:expr, $kind:expr) => {
            out.toks.push(Tok {
                line,
                text: &src[$start..i],
                kind: $kind,
            });
            last_tok_line = line;
        };
    }

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    blank_at!(i);
                    i += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: &src[start..i],
                    own_line: last_tok_line != line,
                });
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Nested block comments, as in Rust.
                let mut depth = 1usize;
                blank_at!(i);
                blank_at!(i + 1);
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        blank_at!(i);
                        blank_at!(i + 1);
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        blank_at!(i);
                        blank_at!(i + 1);
                        i += 2;
                    } else {
                        blank_at!(i);
                        i += 1;
                    }
                }
            }
            b'"' => {
                blank_at!(i);
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        blank_at!(i);
                        blank_at!(i + 1);
                        if b[i + 1] == b'\n' {
                            line += 1;
                        }
                        i += 2;
                    } else if b[i] == b'"' {
                        blank_at!(i);
                        i += 1;
                        break;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        blank_at!(i);
                        i += 1;
                    }
                }
            }
            b'\'' => {
                // Lifetime or char literal. `'a'` / `'é'` / `'\n'` are
                // chars; `'a` followed by a non-quote is a lifetime.
                let ch = src[i + 1..]
                    .chars()
                    .next()
                    .filter(|&ch| ch != '\'' && ch != '\n');
                let ch_end = i + 1 + ch.map_or(0, char::len_utf8);
                if i + 1 < b.len() && b[i + 1] == b'\\' {
                    // Escaped char literal: skip to the closing quote (an
                    // escape never spans a line).
                    blank_at!(i);
                    i += 1;
                    while i < b.len() && b[i] != b'\'' && b[i] != b'\n' {
                        blank_at!(i);
                        i += 1;
                    }
                    if i < b.len() && b[i] == b'\'' {
                        blank_at!(i);
                        i += 1;
                    }
                } else if ch.is_some() && b.get(ch_end) == Some(&b'\'') {
                    while i <= ch_end {
                        blank_at!(i);
                        i += 1;
                    }
                } else if i + 1 < b.len() && is_ident_start(b[i + 1]) {
                    let start = i;
                    i += 1;
                    while i < b.len() && is_ident_cont(b[i]) {
                        i += 1;
                    }
                    push_tok!(start, TokKind::Lifetime);
                } else {
                    // Stray quote; treat as punctuation.
                    i += 1;
                    push_tok!(i - 1, TokKind::Punct);
                }
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_cont(b[i]) {
                    i += 1;
                }
                let text = &src[start..i];
                // Raw/byte string prefixes: r"..", r#".."#, b"..", br#"..".
                let next = b.get(i).copied();
                let is_str_prefix =
                    matches!(text, "r" | "b" | "br") && matches!(next, Some(b'"') | Some(b'#'));
                if is_str_prefix && skip_raw_or_byte_string(b, &mut i, &mut line, &mut blank) {
                    // Blank the prefix too.
                    for slot in blank.iter_mut().skip(start).take(text.len()) {
                        if *slot != b'\n' {
                            *slot = b' ';
                        }
                    }
                    continue;
                }
                push_tok!(start, TokKind::Ident);
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && (is_ident_cont(b[i]) || b[i] == b'.') {
                    // Stop a `0..10` range from being eaten as one number.
                    if b[i] == b'.' && b.get(i + 1) == Some(&b'.') {
                        break;
                    }
                    i += 1;
                }
                push_tok!(start, TokKind::Num);
            }
            _ => {
                // One punctuation token per char, whatever its width.
                let start = i;
                i += src[i..].chars().next().map_or(1, char::len_utf8);
                push_tok!(start, TokKind::Punct);
            }
        }
    }

    out.code = String::from_utf8(blank).expect("blanking replaces whole chars");
    out.tests = test_spans(&out);
    out
}

/// At `*i` sits `"` or `#…"` right after an `r`/`b`/`br` prefix. Skip the
/// string body (blanking it) and return true; return false if this is not
/// actually a string start (e.g. `r#foo` raw identifier).
fn skip_raw_or_byte_string(b: &[u8], i: &mut usize, line: &mut usize, blank: &mut [u8]) -> bool {
    let mut j = *i;
    let mut hashes = 0usize;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= b.len() || b[j] != b'"' {
        return false; // raw identifier like r#match
    }
    j += 1;
    // Scan for `"` followed by `hashes` hashes.
    loop {
        if j >= b.len() {
            break;
        }
        if b[j] == b'\n' {
            *line += 1;
            j += 1;
            continue;
        }
        if hashes == 0 && b[j] == b'\\' && j + 1 < b.len() {
            // Plain (byte) string escapes; raw strings have none.
            if b[j + 1] == b'\n' {
                *line += 1;
            }
            j += 2;
            continue;
        }
        if b[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < b.len() && b[k] == b'#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                j = k;
                break;
            }
        }
        j += 1;
    }
    for k in *i..j.min(blank.len()) {
        if blank[k] != b'\n' {
            blank[k] = b' ';
        }
    }
    *i = j;
    true
}

/// Line spans (1-based, inclusive) covered by `#[cfg(test)]` items —
/// test modules and test-only functions are exempt from every rule: they
/// run outside the simulation and routinely use `temp_dir`, `unwrap` and
/// friends.
pub fn test_spans(lx: &Lexed) -> Vec<(usize, usize)> {
    let t = &lx.toks;
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 4 < t.len() {
        let is_cfg_test = t[i].text == "#"
            && t[i + 1].text == "["
            && t[i + 2].text == "cfg"
            && t[i + 3].text == "("
            && t[i + 4].text == "test";
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = t[i].line;
        // Find the attribute's closing `]`, then the item it decorates:
        // either a brace-delimited body or a `;`-terminated statement.
        let mut j = i + 5;
        let mut attr_depth = 1usize; // the `[` at i+1
        while j < t.len() && attr_depth > 0 {
            match t[j].text {
                "[" => attr_depth += 1,
                "]" => attr_depth -= 1,
                _ => {}
            }
            j += 1;
        }
        let mut end_line = start_line;
        let mut brace_depth = 0usize;
        let mut entered = false;
        while j < t.len() {
            match t[j].text {
                "{" => {
                    brace_depth += 1;
                    entered = true;
                }
                "}" => {
                    brace_depth = brace_depth.saturating_sub(1);
                    if entered && brace_depth == 0 {
                        end_line = t[j].line;
                        break;
                    }
                }
                ";" if !entered => {
                    end_line = t[j].line;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        if j >= t.len() {
            end_line = t.last().map(|tk| tk.line).unwrap_or(start_line);
        }
        spans.push((start_line, end_line));
        i = j.max(i + 1);
    }
    spans
}

/// Is `line` inside any of the given spans?
pub fn in_spans(spans: &[(usize, usize)], line: usize) -> bool {
    spans.iter().any(|&(a, b)| line >= a && line <= b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let lx = lex("let x = \"HashMap::iter\"; // HashMap\nlet y = 1;");
        assert!(!lx.code_line(1).contains("HashMap"));
        assert!(lx.code_line(1).contains("let x ="));
        assert_eq!(lx.comments.len(), 1);
        assert!(!lx.comments[0].own_line);
        assert!(lx.toks.iter().all(|t| t.text != "HashMap"));
    }

    #[test]
    fn raw_strings_and_nested_block_comments() {
        let src = "let s = r#\"std::env \"quoted\"\"#; /* outer /* std::thread */ */ let t = 2;";
        let lx = lex(src);
        assert!(!lx.code_line(1).contains("std::env"));
        assert!(!lx.code_line(1).contains("std::thread"));
        assert!(lx.code_line(1).contains("let t"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lx = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(lx
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        // The 'x' char literal is blanked, not tokenized.
        assert!(!lx.toks.iter().any(|t| t.text == "'x'"));
        assert!(lx.code_line(1).contains("fn f"));
    }

    #[test]
    fn non_ascii_char_literals_are_blanked_whole() {
        let src = "let c = 'é'; let d = '€';";
        let lx = lex(src);
        let texts: Vec<String> = lx.toks.iter().map(|t| t.text.to_string()).collect();
        assert_eq!(texts.join(" "), "let c = ; let d = ;");
        assert_eq!(lx.code_line(1).len(), src.len());
    }

    #[test]
    fn cfg_test_spans_cover_the_module() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let lx = lex(src);
        let spans = test_spans(&lx);
        assert_eq!(spans, vec![(2, 5)]);
        assert!(in_spans(&spans, 4));
        assert!(!in_spans(&spans, 6));
    }

    #[test]
    fn cfg_test_on_a_use_statement_is_one_line() {
        let src = "#[cfg(test)]\nuse std::env;\nfn live() { let v = vec![1]; }\n";
        let lx = lex(src);
        let spans = test_spans(&lx);
        assert_eq!(spans, vec![(1, 2)]);
        assert!(!in_spans(&spans, 3));
    }

    #[test]
    fn own_line_comments_are_flagged() {
        let lx = lex("// gcr-lint: allow(D02) reason\nlet x = 1; // trailing\n");
        assert!(lx.comments[0].own_line);
        assert!(!lx.comments[1].own_line);
    }
}
