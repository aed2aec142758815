//! A minimal, dependency-free JSON value type with a strict parser and
//! compact/pretty writers.
//!
//! The simulator's artifacts (trace files, group definitions, CLI reports,
//! chaos schedules) are small, flat JSON documents; this crate gives them a
//! stable on-disk format without pulling an external serializer into the
//! build. Integers are kept exact (`u64`/`i64`) so byte counters and
//! nanosecond timestamps survive round trips bit-for-bit.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the common case for counters and times).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on write.
    Obj(Vec<(String, Json)>),
}

/// Parse or schema errors, with a byte offset when produced by the parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub msg: String,
    /// Byte offset into the input (parser errors only).
    pub at: Option<usize>,
}

impl JsonError {
    /// A schema/shape error not tied to an input position.
    pub fn msg(m: impl Into<String>) -> Self {
        JsonError {
            msg: m.into(),
            at: None,
        }
    }

    fn parse(m: impl Into<String>, at: usize) -> Self {
        JsonError {
            msg: m.into(),
            at: Some(at),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.at {
            Some(at) => write!(f, "{} (at byte {at})", self.msg),
            None => f.write_str(&self.msg),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Parse a complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    /// [`JsonError`] with the offending byte offset.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            b: input.as_bytes(),
            i: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(JsonError::parse("trailing data after document", p.i));
        }
        Ok(v)
    }

    /// Serialize compactly (no whitespace).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialize with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(x) => write_f64(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, items.len(), '[', ']', |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(pairs) => write_seq(out, indent, depth, pairs.len(), '{', '}', |out, i| {
                write_str(out, &pairs[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                pairs[i].1.write(out, indent, depth + 1);
            }),
        }
    }

    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Field lookup that errors with the missing key's name.
    ///
    /// # Errors
    /// [`JsonError`] when `self` is not an object or lacks `key`.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::msg(format!("missing field '{key}'")))
    }

    /// The value as a `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as a `usize` if it is a non-negative integer that fits.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|u| usize::try_from(u).ok())
    }

    /// The value as an `f64` if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(u) => Some(*u as f64),
            Json::Int(i) => Some(*i as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Typed field access: `u64`.
    ///
    /// # Errors
    /// [`JsonError`] on a missing or mistyped field.
    pub fn u64_field(&self, key: &str) -> Result<u64, JsonError> {
        self.field(key)?
            .as_u64()
            .ok_or_else(|| JsonError::msg(format!("field '{key}' is not a non-negative integer")))
    }

    /// Typed field access: `usize`.
    ///
    /// # Errors
    /// [`JsonError`] on a missing or mistyped field.
    pub fn usize_field(&self, key: &str) -> Result<usize, JsonError> {
        self.field(key)?
            .as_usize()
            .ok_or_else(|| JsonError::msg(format!("field '{key}' is not a valid size")))
    }

    /// Typed field access: `f64`.
    ///
    /// # Errors
    /// [`JsonError`] on a missing or mistyped field.
    pub fn f64_field(&self, key: &str) -> Result<f64, JsonError> {
        self.field(key)?
            .as_f64()
            .ok_or_else(|| JsonError::msg(format!("field '{key}' is not a number")))
    }

    /// Typed field access: string.
    ///
    /// # Errors
    /// [`JsonError`] on a missing or mistyped field.
    pub fn str_field(&self, key: &str) -> Result<&str, JsonError> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| JsonError::msg(format!("field '{key}' is not a string")))
    }

    /// Typed field access: array.
    ///
    /// # Errors
    /// [`JsonError`] on a missing or mistyped field.
    pub fn arr_field(&self, key: &str) -> Result<&[Json], JsonError> {
        self.field(key)?
            .as_arr()
            .ok_or_else(|| JsonError::msg(format!("field '{key}' is not an array")))
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<u64> for Json {
    fn from(u: u64) -> Json {
        Json::UInt(u)
    }
}
impl From<u32> for Json {
    fn from(u: u32) -> Json {
        Json::UInt(u as u64)
    }
}
impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::UInt(u as u64)
    }
}
impl From<i64> for Json {
    fn from(i: i64) -> Json {
        if i >= 0 {
            Json::UInt(i as u64)
        } else {
            Json::Int(i)
        }
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // `{}` is the shortest representation that round-trips exactly.
        let start = out.len();
        let _ = write!(out, "{x}");
        // Keep floats recognizably floats so integral values don't collapse
        // into the integer lexical space.
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out.push_str("null");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`Json::parse`] accepts (serde_json's
/// default). The parser recurses once per level, so without a bound a
/// hostile file of `[[[[…` overflows the stack and aborts the process.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(JsonError::parse(
                format!("expected '{}'", c as char),
                self.i,
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(JsonError::parse(format!("expected '{word}'"), self.i))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(JsonError::parse(
                format!("unexpected '{}'", c as char),
                self.i,
            )),
            None => Err(JsonError::parse("unexpected end of input", self.i)),
        }
    }

    /// Parse one array or object, one level deeper than the caller.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, JsonError>) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::parse(
                format!("nested deeper than {MAX_DEPTH} levels"),
                self.i,
            ));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::parse("expected ',' or ']'", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(JsonError::parse("expected ',' or '}'", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.i;
            // Fast path: run of plain bytes.
            while self.i < self.b.len() && self.b[self.i] != b'"' && self.b[self.i] != b'\\' {
                self.i += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.b[start..self.i])
                    .map_err(|_| JsonError::parse("invalid utf-8 in string", start))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError::parse("unterminated escape", self.i))?;
                    self.i += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(JsonError::parse("bad low surrogate", self.i));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c)
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(c.ok_or_else(|| JsonError::parse("bad codepoint", self.i))?);
                        }
                        _ => return Err(JsonError::parse("bad escape", self.i - 1)),
                    }
                }
                _ => return Err(JsonError::parse("unterminated string", self.i)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.i + 4 > self.b.len() {
            return Err(JsonError::parse("truncated \\u escape", self.i));
        }
        let s = std::str::from_utf8(&self.b[self.i..self.i + 4])
            .map_err(|_| JsonError::parse("bad \\u escape", self.i))?;
        let v =
            u32::from_str_radix(s, 16).map_err(|_| JsonError::parse("bad \\u escape", self.i))?;
        self.i += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.i += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.i += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i])
            .map_err(|_| JsonError::parse("bad number", start))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError::parse(format!("bad number '{text}'"), start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for src in ["null", "true", "false", "0", "42", "-7", "3.5", "\"hi\""] {
            let v = Json::parse(src).unwrap();
            assert_eq!(Json::parse(&v.dump()).unwrap(), v, "{src}");
        }
    }

    #[test]
    fn integers_are_exact() {
        let big = u64::MAX - 3;
        let v = Json::parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
        assert_eq!(v.dump(), big.to_string());
        let neg = Json::parse("-9007199254740993").unwrap();
        assert_eq!(neg, Json::Int(-9007199254740993));
    }

    #[test]
    fn floats_stay_floats() {
        let v = Json::Float(2.0);
        let s = v.dump();
        assert_eq!(s, "2.0");
        assert_eq!(Json::parse(&s).unwrap().as_f64(), Some(2.0));
        assert_eq!(Json::Float(12.5e6).dump(), "12500000.0");
    }

    #[test]
    fn nested_structures_roundtrip() {
        let src = r#"{"meta":{"n":4,"workload":"hpl"},"events":[{"ev":"send","t":5,"bytes":100},[1,2,3],null]}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.dump(), src);
        let pretty = v.pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn string_escapes() {
        let s = "a\"b\\c\nd\te\u{8}\u{1}é—🚀";
        let v = Json::Str(s.to_string());
        assert_eq!(Json::parse(&v.dump()).unwrap().as_str(), Some(s));
        // Unicode escapes parse too.
        assert_eq!(Json::parse(r#""é 🚀""#).unwrap().as_str(), Some("é 🚀"));
    }

    #[test]
    fn field_accessors() {
        let v = Json::parse(r#"{"n":8,"f":1.5,"s":"x","a":[1],"b":true}"#).unwrap();
        assert_eq!(v.u64_field("n").unwrap(), 8);
        assert_eq!(v.usize_field("n").unwrap(), 8);
        assert_eq!(v.f64_field("n").unwrap(), 8.0);
        assert_eq!(v.f64_field("f").unwrap(), 1.5);
        assert_eq!(v.str_field("s").unwrap(), "x");
        assert_eq!(v.arr_field("a").unwrap().len(), 1);
        assert_eq!(v.field("b").unwrap().as_bool(), Some(true));
        assert!(v.field("missing").is_err());
        assert!(v.u64_field("s").is_err());
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{\"a\":1}x",
            "[1 2]",
            "{\"a\" 1}",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_past_the_depth_bound_is_an_error_not_a_stack_overflow() {
        let e = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(e.to_string().contains("nested deeper than 128"), "{e}");
        // The bound itself still parses, arrays and objects alike.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok());
        assert!(Json::parse(&format!("[{deepest}]")).is_err());
        let objs = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objs).is_ok());
        assert!(Json::parse(&format!("[{objs}]")).is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" {\n\t\"a\" : [ 1 , 2 ] }\r\n").unwrap();
        assert_eq!(v.arr_field("a").unwrap().len(), 2);
    }

    #[test]
    fn builders() {
        let v = Json::obj([
            ("n", Json::from(4u64)),
            ("label", Json::from("gp")),
            (
                "list",
                Json::from(vec![Json::from(1u64), Json::from(-2i64)]),
            ),
        ]);
        assert_eq!(v.dump(), r#"{"n":4,"label":"gp","list":[1,-2]}"#);
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).dump(), "null");
        assert_eq!(Json::Float(f64::INFINITY).dump(), "null");
    }
}
