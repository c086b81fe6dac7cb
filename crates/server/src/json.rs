//! A minimal JSON parser for request bodies.
//!
//! The workspace is std-only (see the root README's offline note), so the
//! server parses its small request schema with this hand-rolled
//! recursive-descent parser instead of serde. It accepts the full JSON
//! grammar (RFC 8259) minus two deliberate simplifications: numbers are
//! parsed as `f64` (fine — every numeric field in the API is an f64 or a
//! small count) and `\uXXXX` escapes outside the BMP must come as
//! surrogate pairs (as real encoders emit them).
//!
//! # Linear time
//!
//! [`parse`] reads each input byte a bounded number of times, so a body
//! of `n` bytes costs O(n) whatever its shape; the server's 4 MiB body cap
//! then bounds a request's parse to milliseconds. Structure and numbers
//! are a single forward pass. Strings, the only unbounded values in the
//! request schema, are copied run by run: the scan stops only at a quote,
//! a backslash or a control byte, and the bytes before it are appended
//! with one `push_str`. All three stop bytes are ASCII, so every run ends
//! on a character boundary of the `&str` input and needs no UTF-8 check
//! of its own. Nesting is capped at 64 levels, so the recursion is
//! bounded too.

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (duplicate keys keep the last).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (last occurrence wins, per common practice).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Where and why parsing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// What was wrong.
    pub what: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(src: &str) -> Result<Value, ParseError> {
    let b = src.as_bytes();
    let mut p = Parser { src, b, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != b.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Nesting depth cap — a hostile body must not overflow the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    src: &'a str,
    b: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &'static str) -> ParseError {
        ParseError { at: self.pos, what }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8, what: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after key")?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, ParseError> {
        let end = self.pos + 4;
        if end > self.b.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let mut v = 0;
        for &c in &self.b[self.pos..end] {
            let digit = char::from(c)
                .to_digit(16)
                .ok_or(self.err("invalid \\u escape"))?;
            v = v << 4 | digit as u16;
        }
        self.pos = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote, backslash
            // or control byte whole. All three are ASCII, so the run ends
            // on a character boundary of `src`.
            let start = self.pos;
            let run = self.b[start..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(self.b.len() - start);
            self.pos += run;
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or(self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: the low half must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000
                                    + (((hi as u32) - 0xD800) << 10)
                                    + ((lo as u32) - 0xDC00);
                                char::from_u32(cp).ok_or(self.err("invalid code point"))?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi as u32).ok_or(self.err("invalid code point"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        std::str::from_utf8(&self.b[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|x| x.is_finite())
            .map(Value::Num)
            .ok_or(ParseError {
                at: start,
                what: "invalid number",
            })
    }
}

/// Escapes `raw` as a JSON string literal (with quotes) — the encoding
/// half, delegated to the escaping routine [`trace::json_string`] that
/// `engine`'s reports use too, so request bodies and responses can never
/// disagree about escaping.
pub fn escape(raw: &str) -> String {
    trace::json_string(raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_request_schema() {
        let v = parse(
            r#"{"rz": 0.37, "epsilon": 1e-2, "backend": "gridsynth",
                "transpile": false, "name": "r1", "items": [1, 2.5, -3]}"#,
        )
        .unwrap();
        assert_eq!(v.get("rz").unwrap().as_f64(), Some(0.37));
        assert_eq!(v.get("epsilon").unwrap().as_f64(), Some(0.01));
        assert_eq!(v.get("backend").unwrap().as_str(), Some("gridsynth"));
        assert_eq!(v.get("transpile").unwrap().as_bool(), Some(false));
        assert_eq!(
            v.get("items").unwrap().as_arr().unwrap(),
            &[Value::Num(1.0), Value::Num(2.5), Value::Num(-3.0)]
        );
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let raw = "line1\nline2\t\"quoted\" \\ slash é ∀";
        let v = parse(&escape(raw)).unwrap();
        assert_eq!(v.as_str(), Some(raw));
        // \u escapes, including a surrogate pair.
        assert_eq!(
            parse(r#""\u0041\u00e9\ud83d\ude00""#).unwrap().as_str(),
            Some("Aé😀")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        // The offset is part of the 400 a client sees, so each body is
        // pinned to where and why it is rejected.
        let long = format!("{{\"qasm\": \"{}\\x\"}}", "x".repeat(1000));
        for (bad, at, what) in [
            ("", 0, "expected a value"),
            ("{", 1, "expected '\"'"),
            ("}", 0, "expected a value"),
            ("{\"a\":}", 5, "expected a value"),
            ("[1,]", 3, "expected a value"),
            ("{\"a\" 1}", 5, "expected ':' after key"),
            ("\"unterminated", 13, "unterminated string"),
            ("{\"qasm\": \"∀😀", 17, "unterminated string"),
            ("nulll", 4, "trailing characters after document"),
            ("01x", 2, "trailing characters after document"),
            ("1 2", 2, "trailing characters after document"),
            ("{\"a\":1}extra", 7, "trailing characters after document"),
            ("-", 0, "invalid number"),
            ("\"ab\u{1}cd\"", 3, "raw control character in string"),
            (
                "{\"qasm\": \"é∀\nh q[0];\"}",
                15,
                "raw control character in string",
            ),
            ("{\"a\u{7}\": 1}", 3, "raw control character in string"),
            ("\"abc\\", 5, "unterminated escape"),
            ("\"\\q\"", 3, "unknown escape"),
            (long.as_str(), 1012, "unknown escape"),
            ("\"\\u12", 3, "truncated \\u escape"),
            ("\"\\u12g4\"", 3, "invalid \\u escape"),
            ("\"\\u+041\"", 3, "invalid \\u escape"),
            ("\"\\u-041\"", 3, "invalid \\u escape"),
            ("\"\\ud800\"", 7, "lone high surrogate"),
            ("\"\\ud800\\n\"", 8, "lone high surrogate"),
            ("\"\\ud800\\u0041\"", 13, "invalid low surrogate"),
            ("\"\\udc00\"", 7, "lone low surrogate"),
        ] {
            assert_eq!(parse(bad), Err(ParseError { at, what }), "{bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err(), "must not recurse unboundedly");
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn numbers_and_literals() {
        assert_eq!(parse("-12.5e2").unwrap().as_f64(), Some(-1250.0));
        assert_eq!(parse("true").unwrap().as_bool(), Some(true));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert!(parse("1e999").is_err(), "non-finite numbers rejected");
    }

    #[test]
    fn duplicate_keys_keep_last() {
        let v = parse(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // One 1 MiB string of ASCII runs, 2-, 3- and 4-byte characters and
        // escapes. A parser that rescans the rest of the body for every
        // character it copies needs tens of seconds here, even optimized.
        let unit = r#"h q[0]; é ∀ 😀 \n \" \u00e9 \ud83d\ude00 / "#;
        let raw_unit = "h q[0]; é ∀ 😀 \n \" é 😀 / ";
        let reps = (1 << 20) / unit.len() + 1;
        let body = format!("{{\"qasm\": \"{}\"}}", unit.repeat(reps));
        let t = std::time::Instant::now();
        let v = parse(&body).unwrap();
        let elapsed = t.elapsed();
        assert_eq!(
            v.get("qasm").and_then(Value::as_str),
            Some(raw_unit.repeat(reps).as_str())
        );
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "a {} byte string took {elapsed:?}",
            body.len()
        );
    }

    mod escape_roundtrip {
        use super::*;
        use proptest::prelude::*;

        /// Strings drawn by character class, weighted toward what escaping
        /// must get right: quotes, backslashes, control bytes and every
        /// UTF-8 width.
        fn arb_string() -> impl Strategy<Value = String> {
            prop::collection::vec((0u32..6, 0u32..0x11_0000), 0..64).prop_map(|chars| {
                chars
                    .into_iter()
                    .map(|(class, x)| {
                        let cp = match class {
                            0 => u32::from(b"\"\\/\n\r\t"[x as usize % 6]),
                            1 => x % 0x20,
                            2 => 0x20 + x % 0x60,
                            3 => 0x80 + x % 0x780,
                            4 => 0x800 + x % 0xF800,
                            _ => 0x1_0000 + x % 0x10_0000,
                        };
                        // Surrogate code points are not chars.
                        char::from_u32(cp).unwrap_or('\u{fffd}')
                    })
                    .collect()
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn parse_inverts_escape(s in arb_string()) {
                prop_assert_eq!(parse(&escape(&s)), Ok(Value::Str(s)));
            }
        }
    }
}
