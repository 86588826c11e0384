//! Vendored shim for the parts of `serde_json` this workspace uses:
//! `to_string`, `to_string_pretty`, `from_str`, and `Error`, over a
//! [`Writer`] and a [`Reader`] — the JSON text's `serde::Sink` and
//! `serde::Source`, so a walk writes and reads the text directly.
//!
//! A run of bytes is written as a lowercase hex string; reading gives
//! that string back as a string, which the `u8` sequence mapping reads
//! as bytes.

use std::borrow::Cow;
use std::fmt;
use std::io::Write as _;

use serde::{Atom, DeError, Deserialize, MAX_DEPTH, Serialize, Sink, Source};

/// JSON serialization/deserialization error.
#[derive(Clone, Debug)]
pub struct Error(String);

impl Error {
    fn msg(m: impl Into<String>) -> Error {
        Error(m.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Error {
        Error(e.to_string())
    }
}

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(render(value, false))
}

/// Serializes `value` as 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(render(value, true))
}

fn render<T: Serialize + ?Sized>(value: &T, pretty: bool) -> String {
    let mut out = Vec::new();
    let mut w = Writer::new(&mut out);
    w.pretty = pretty;
    value.serialize(&mut w);
    String::from_utf8(out).expect("the writer emits only utf-8")
}

/// Parses a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut r = Reader::new(s);
    let v = T::deserialize(&mut r)?;
    r.skip_ws();
    if r.i != r.b.len() {
        return Err(Error::msg(format!("trailing characters at offset {}", r.i)));
    }
    Ok(v)
}

/// The `Sink` that writes JSON text onto the end of a byte buffer. It
/// pushes ASCII, and a string's own bytes in order with only ASCII
/// bytes escaped, so what it appends is UTF-8.
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
    pretty: bool,
    /// Containers open, one inside the other.
    depth: usize,
    /// Nothing has been written into the innermost open container yet.
    first: bool,
    /// A key was just written: its value follows with no separator.
    after_key: bool,
}

impl<'a> Writer<'a> {
    /// A compact writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Writer<'a> {
        Writer {
            out,
            pretty: false,
            depth: 0,
            first: true,
            after_key: false,
        }
    }

    fn newline_indent(&mut self) {
        if self.pretty {
            self.out.push(b'\n');
            for _ in 0..self.depth {
                self.out.extend_from_slice(b"  ");
            }
        }
    }

    /// What goes before a value: nothing after a key or at the top,
    /// else the separator from the previous item.
    fn before_value(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.depth > 0 {
            self.separate();
        }
    }

    fn separate(&mut self) {
        if !self.first {
            self.out.push(b',');
        }
        self.first = false;
        self.newline_indent();
    }

    fn open(&mut self, c: u8) {
        self.before_value();
        self.out.push(c);
        self.depth += 1;
        self.first = true;
    }

    fn close(&mut self, c: u8) {
        self.depth -= 1;
        if !self.first {
            self.newline_indent();
        }
        self.out.push(c);
        self.first = false;
    }

    fn digits(&mut self, mut n: u64) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.out.extend_from_slice(&buf[i..]);
    }

    /// Every byte that needs an escape is ASCII, and no byte of a
    /// multi-byte UTF-8 sequence is, so the string is escaped byte by
    /// byte.
    fn string(&mut self, s: &str) {
        let out = &mut *self.out;
        out.push(b'"');
        for &b in s.as_bytes() {
            match b {
                b'"' => out.extend_from_slice(b"\\\""),
                b'\\' => out.extend_from_slice(b"\\\\"),
                b'\n' => out.extend_from_slice(b"\\n"),
                b'\r' => out.extend_from_slice(b"\\r"),
                b'\t' => out.extend_from_slice(b"\\t"),
                b if b < 0x20 => out.extend_from_slice(format!("\\u{b:04x}").as_bytes()),
                b => out.push(b),
            }
        }
        out.push(b'"');
    }
}

impl Sink for Writer<'_> {
    fn null(&mut self) {
        self.before_value();
        self.out.extend_from_slice(b"null");
    }
    fn bool(&mut self, b: bool) {
        self.before_value();
        self.out
            .extend_from_slice(if b { b"true" } else { b"false" });
    }
    fn uint(&mut self, n: u64) {
        self.before_value();
        self.digits(n);
    }
    fn int(&mut self, n: i64) {
        self.before_value();
        if n < 0 {
            self.out.push(b'-');
        }
        self.digits(n.unsigned_abs());
    }
    fn float(&mut self, f: f64) {
        self.before_value();
        if f.is_finite() {
            // Writing into a `Vec` cannot fail.
            write!(self.out, "{f}").expect("vec write");
        } else {
            self.out.extend_from_slice(b"null");
        }
    }
    fn str(&mut self, s: &str) {
        self.before_value();
        self.string(s);
    }
    fn bytes(&mut self, b: &[u8]) {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        self.before_value();
        let out = &mut *self.out;
        out.push(b'"');
        let start = out.len();
        out.resize(start + 2 * b.len(), 0);
        for (hex, &c) in out[start..].chunks_exact_mut(2).zip(b) {
            hex[0] = DIGITS[(c >> 4) as usize];
            hex[1] = DIGITS[(c & 0xf) as usize];
        }
        out.push(b'"');
    }
    fn begin_array(&mut self, _len: usize) {
        self.open(b'[');
    }
    fn end_array(&mut self) {
        self.close(b']');
    }
    fn begin_object(&mut self, _len: usize) {
        self.open(b'{');
    }
    fn key(&mut self, k: &str) {
        self.separate();
        self.string(k);
        self.out.push(b':');
        if self.pretty {
            self.out.push(b' ');
        }
        self.after_key = true;
    }
    fn end_object(&mut self) {
        self.close(b'}');
    }
}

/// The `Source` that reads JSON text. Strings without escapes are
/// borrowed from the text.
struct Reader<'a> {
    s: &'a str,
    /// `s.as_bytes()`.
    b: &'a [u8],
    i: usize,
    /// Containers open, one inside the other.
    depth: usize,
    /// Nothing has been read from the innermost open container yet.
    first: bool,
}

impl<'a> Reader<'a> {
    fn new(s: &'a str) -> Reader<'a> {
        Reader {
            s,
            b: s.as_bytes(),
            i: 0,
            depth: 0,
            first: false,
        }
    }

    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), Error> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at offset {}",
                c as char, self.i
            )))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), Error> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(Error::msg(format!("expected `{lit}` at offset {}", self.i)))
        }
    }

    fn open(&mut self) {
        self.i += 1;
        self.depth += 1;
        self.first = true;
    }

    fn close(&mut self) {
        self.i += 1;
        self.depth -= 1;
        self.first = false;
    }

    /// Steps into the innermost open container's next item: true, or
    /// false after its closing `end`. `what` names it for errors.
    fn next_in_open(&mut self, end: u8, what: &str) -> Result<bool, Error> {
        if self.depth == 0 {
            return Err(Error::msg(format!("no {what} is open")));
        }
        self.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        match self.peek() {
            Some(c) if c == end => {
                self.close();
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.i += 1;
                Ok(true)
            }
            _ => Err(Error::msg(format!("bad {what} at offset {}", self.i))),
        }
    }

    fn parse_number(&mut self) -> Result<Atom<'a>, Error> {
        let start = self.i;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        let text = &self.s[start..self.i];
        let bad = |e: &dyn fmt::Display| Error::msg(format!("bad number `{text}`: {e}"));
        if text.contains(['.', 'e', 'E']) {
            text.parse::<f64>().map(Atom::Float).map_err(|e| bad(&e))
        } else if text.starts_with('-') {
            text.parse::<i64>().map(Atom::Int).map_err(|e| bad(&e))
        } else {
            text.parse::<u64>().map(Atom::UInt).map_err(|e| bad(&e))
        }
    }

    /// Reads 4 hex digits starting at byte offset `at`.
    fn parse_hex4(&self, at: usize) -> Result<u32, Error> {
        let hex = self
            .b
            .get(at..at + 4)
            .ok_or_else(|| Error::msg("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| Error::msg("bad \\u escape"))?;
        u32::from_str_radix(hex, 16).map_err(|_| Error::msg("bad \\u escape"))
    }

    fn parse_string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.eat(b'"')?;
        // The run up to the next quote or escape. Both are ASCII, so it
        // ends on a char boundary of the (already valid) input.
        let b = self.b;
        let run_end = |from: usize| {
            let rest = &b[from..];
            from + rest
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .unwrap_or(rest.len())
        };
        let end = run_end(self.i);
        if self.b.get(end) == Some(&b'"') {
            let s = &self.s[self.i..end];
            self.i = end + 1;
            return Ok(Cow::Borrowed(s));
        }
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::msg("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            // `self.i` is at the `u`; leaves it on the
                            // last hex digit for the shared `+= 1` below.
                            let code = self.parse_hex4(self.i + 1)?;
                            self.i += 4;
                            let scalar = if (0xD800..=0xDBFF).contains(&code) {
                                // UTF-16 surrogate pair: a conforming
                                // producer escapes non-BMP chars as
                                // \uHHHH\uLLLL.
                                if self.b.get(self.i + 1..self.i + 3) != Some(&b"\\u"[..]) {
                                    return Err(Error::msg("unpaired high surrogate"));
                                }
                                let low = self.parse_hex4(self.i + 3)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(Error::msg("invalid low surrogate"));
                                }
                                self.i += 6;
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(scalar)
                                    .ok_or_else(|| Error::msg("bad \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(Error::msg(format!("bad escape {other:?}")));
                        }
                    }
                    self.i += 1;
                }
                Some(_) => {
                    let end = run_end(self.i);
                    out.push_str(&self.s[self.i..end]);
                    self.i = end;
                }
            }
        }
    }
}

impl<'a> Source<'a> for Reader<'a> {
    type Error = Error;

    fn atom(&mut self) -> Result<Atom<'a>, Error> {
        // Every value counts the containers around it, scalars too.
        if self.depth == MAX_DEPTH {
            return Err(Error::msg(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.i
            )));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_lit("null").map(|()| Atom::Null),
            Some(b't') => self.eat_lit("true").map(|()| Atom::Bool(true)),
            Some(b'f') => self.eat_lit("false").map(|()| Atom::Bool(false)),
            Some(b'"') => self.parse_string().map(Atom::Str),
            Some(b'[') => {
                self.open();
                Ok(Atom::Array)
            }
            Some(b'{') => {
                self.open();
                Ok(Atom::Object)
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error::msg(format!(
                "unexpected {other:?} at offset {}",
                self.i
            ))),
        }
    }

    fn item(&mut self) -> Result<bool, Error> {
        self.next_in_open(b']', "array")
    }

    fn key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.next_in_open(b'}', "object")? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.parse_string()?;
        self.skip_ws();
        self.eat(b':')?;
        Ok(Some(key))
    }

    fn null(&mut self) -> Result<bool, Error> {
        self.skip_ws();
        if self.peek() != Some(b'n') {
            return Ok(false);
        }
        self.atom().map(|_| true)
    }
}

#[cfg(test)]
mod tests {
    use serde::Value;

    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<i64>("-7").unwrap(), -7);
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
        assert_eq!(from_str::<Vec<u16>>("[1, 2, 3]").unwrap(), vec![1, 2, 3]);
        assert_eq!(from_str::<Vec<u8>>("\"01ff\"").unwrap(), vec![1, 0xff]);
        assert_eq!(to_string(&vec![1u8, 0xff]).unwrap(), "\"01ff\"");
        assert_eq!(from_str::<Option<u8>>("null").unwrap(), None);
    }

    #[test]
    fn numbers_and_bytes_render_as_std_formats_them() {
        for n in [0u64, 9, 10, 99, 100, 4096, u64::MAX] {
            assert_eq!(to_string(&n).unwrap(), n.to_string());
        }
        for n in [0i64, -1, 7, -10, i64::MIN, i64::MAX] {
            assert_eq!(to_string(&n).unwrap(), n.to_string());
        }
        let all: Vec<u8> = (0..=255).collect();
        let hex: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(to_string(&all).unwrap(), format!("\"{hex}\""));
        assert_eq!(from_str::<Vec<u8>>(&format!("\"{hex}\"")).unwrap(), all);
        let err = from_str::<Vec<u8>>("\"00ff0x\"").unwrap_err();
        assert!(err.to_string().contains("bad hex digit"), "{err}");
    }

    #[test]
    fn a_walk_renders_as_its_tree_does() {
        let v = Value::Object(vec![
            ("k".into(), Value::Str("Put".into())),
            ("data".into(), Value::Bytes(vec![0, 0xff])),
            (
                "ids".into(),
                Value::Array(vec![Value::UInt(3), Value::Null, Value::Int(-4)]),
            ),
            ("none".into(), Value::Array(Vec::new())),
            (
                "nested".into(),
                Value::Object(vec![("e".into(), Value::Object(Vec::new()))]),
            ),
        ]);
        assert_eq!(
            render(&v, false),
            r#"{"k":"Put","data":"00ff","ids":[3,null,-4],"none":[],"nested":{"e":{}}}"#
        );
        assert_eq!(
            render(&v, true),
            "{\n  \"k\": \"Put\",\n  \"data\": \"00ff\",\n  \"ids\": [\n    3,\n    null,\n    \
             -4\n  ],\n  \"none\": [],\n  \"nested\": {\n    \"e\": {}\n  }\n}"
        );
        let typed = (
            vec![(7u64, Some("x".to_string())), (8, None)],
            Ok::<Vec<u8>, i32>(vec![1, 2]),
        );
        for pretty in [false, true] {
            assert_eq!(render(&typed, pretty), render(&typed.to_value(), pretty));
            // Parsed back, the bytes are a hex string, which renders
            // as they did.
            let text = render(&v, pretty);
            assert_eq!(render(&from_str::<Value>(&text).unwrap(), pretty), text);
        }
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = vec![1u64, u64::MAX];
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(from_str::<Vec<u64>>(&s).unwrap(), v);
    }

    #[test]
    fn surrogate_pair_escapes_parse() {
        // Conforming producers (including real serde_json with
        // ASCII-escaping) emit non-BMP chars as UTF-16 pairs.
        assert_eq!(from_str::<String>("\"\\ud83d\\ude00\"").unwrap(), "😀");
        assert!(from_str::<String>("\"\\ud83d\"").is_err()); // unpaired high
        assert!(from_str::<String>("\"\\ud83d\\u0041\"").is_err()); // bad low
        assert!(from_str::<String>("\"\\udc00\"").is_err()); // lone low
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        assert!(from_str::<Value>(&nested(MAX_DEPTH + 1)).is_err());
        assert!(from_str::<Value>(&"[".repeat(1 << 20)).is_err());
        assert!(from_str::<Value>(&"{\"a\":".repeat(1 << 16)).is_err());
        // Siblings do not accumulate depth.
        let wide = format!("[{}[]]", "[[]],".repeat(1000));
        assert!(from_str::<Value>(&wide).is_ok());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Minutes, when every character re-validated the rest of the
        // input as UTF-8.
        let body = "héllo wörld ".repeat(350_000);
        let json = to_string(&body).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), body);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "quote\" backslash\\ newline\n tab\t ctrl\u{1} unicode\u{263a}".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
    }
}
