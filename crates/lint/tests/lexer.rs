//! Hostile-input tests for the lexer: seeded random strings built from the
//! characters that steer its state machine (quotes, comment and string
//! openers, escapes, hash fences, line endings, multi-byte chars) must lex
//! without panicking, and the lexed view must agree with `str::lines`.

use gcr_lint::lexer::lex;

/// The pieces the generator strings together.
const ALPHABET: &[&str] = &[
    "'",
    "\"",
    "/",
    "*",
    "#",
    "\\",
    "r",
    "b",
    "\n",
    "\r\n",
    "\r",
    " ",
    "  ",
    "x",
    "ab_1",
    "9",
    "é",
    "€",
    "𝄞",
    "{",
    "}",
    "[",
    "(",
    ")",
    "#[cfg(test)]",
    "b\"",
    "r#\"",
    "\"#",
    "'\\",
    "\\\n",
    "//",
    "/*",
    "*/",
];

/// A 64-bit linear congruential generator (Knuth's MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

#[test]
fn hostile_input_lexes_consistently_with_str_lines() {
    let mut rng = Lcg(0x5eed_1e8e);
    for case in 0..3000 {
        let pieces = rng.below(48);
        let src: String = (0..pieces)
            .map(|_| ALPHABET[rng.below(ALPHABET.len())])
            .collect();
        let lx = lex(&src);
        let lines: Vec<&str> = src.lines().collect();
        let ctx = format!("case {case}: {src:?}");

        assert_eq!(lx.line_count(), lines.len(), "{ctx}");
        for (k, raw) in lines.iter().enumerate() {
            assert_eq!(lx.snippet(k + 1), raw.trim(), "line {} of {ctx}", k + 1);
            assert_eq!(
                lx.code_line(k + 1).len(),
                raw.len(),
                "line {} of {ctx}",
                k + 1
            );
        }
        assert_eq!(lx.code_line(0), "", "{ctx}");
        assert_eq!(lx.code_line(lines.len() + 1), "", "{ctx}");

        // Byte offset of a slice of `src`; a token or comment lies within
        // the byte range of its line (a comment may end in the `\r` of a
        // `\r\n`, which `str::lines` strips).
        let offset = |text: &str| text.as_ptr() as usize - src.as_ptr() as usize;
        let on_line = |text: &str, line: usize| {
            let Some(raw) = lines.get(line.wrapping_sub(1)) else {
                return false;
            };
            let at = offset(text);
            let end = at + text.trim_end_matches('\r').len();
            offset(raw) <= at && end <= offset(raw) + raw.len()
        };
        for t in &lx.toks {
            assert!(!t.text.is_empty(), "empty token in {ctx}");
            let at = offset(t.text);
            assert!(
                src.is_char_boundary(at) && src.is_char_boundary(at + t.text.len()),
                "{ctx}"
            );
            assert!(
                on_line(t.text, t.line),
                "token {:?} not on its line {} in {ctx}",
                t.text,
                t.line
            );
        }
        for c in &lx.comments {
            assert!(
                on_line(c.text, c.line),
                "comment {:?} not on its line {} in {ctx}",
                c.text,
                c.line
            );
        }
    }
}
