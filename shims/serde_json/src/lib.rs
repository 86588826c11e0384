//! Vendored shim for the parts of `serde_json` this workspace uses:
//! `to_string`, `to_string_pretty`, `from_str`, and `Error`.
//!
//! A [`Value::Bytes`] is written as a lowercase hex string; parsing
//! gives that string back as a `Value::Str`, which the `u8` sequence
//! mapping reads as bytes.

use std::fmt;

use serde::{Deserialize, MAX_DEPTH, Serialize, Value};

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

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Error {
        Error(e.to_string())
    }
}

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, 0, false);
    Ok(out)
}

/// Serializes `value` as 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, 0, true);
    Ok(out)
}

/// Parses a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        s,
        b: s.as_bytes(),
        i: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(Error::msg(format!("trailing characters at offset {}", p.i)));
    }
    Ok(T::from_parsed(v)?)
}

fn write_value(v: &Value, out: &mut String, depth: usize, pretty: bool) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                out.push_str(&f.to_string());
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Bytes(b) => {
            const DIGITS: &[u8; 16] = b"0123456789abcdef";
            out.reserve(b.len() * 2 + 2);
            out.push('"');
            for &c in b {
                out.push(DIGITS[(c >> 4) as usize] as char);
                out.push(DIGITS[(c & 0xf) as usize] as char);
            }
            out.push('"');
        }
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, depth + 1, pretty);
                write_value(item, out, depth + 1, pretty);
            }
            newline_indent(out, depth, pretty);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, depth + 1, pretty);
                write_string(k, out);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                write_value(val, out, depth + 1, pretty);
            }
            newline_indent(out, depth, pretty);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, depth: usize, pretty: bool) {
    if pretty {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    s: &'a str,
    /// `s.as_bytes()`.
    b: &'a [u8],
    i: usize,
    /// Values currently being parsed, one inside the other.
    depth: usize,
}

impl<'a> Parser<'a> {
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

    fn parse_value(&mut self) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::msg(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.i
            )));
        }
        self.depth += 1;
        let v = self.parse_unbounded();
        self.depth -= 1;
        v
    }

    /// One value; recursion comes back through [`Self::parse_value`].
    fn parse_unbounded(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                self.eat_lit("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.eat_lit("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.eat_lit("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(Error::msg(format!("bad array at offset {}", self.i))),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    let val = self.parse_value()?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return Err(Error::msg(format!("bad object at offset {}", self.i))),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error::msg(format!(
                "unexpected {other:?} at offset {}",
                self.i
            ))),
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.i;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
        if text.contains(['.', 'e', 'E']) {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| Error::msg(format!("bad number `{text}`: {e}")))
        } else if let Some(rest) = text.strip_prefix('-') {
            let _ = rest;
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|e| Error::msg(format!("bad number `{text}`: {e}")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|e| Error::msg(format!("bad number `{text}`: {e}")))
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

    fn parse_string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::msg("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
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
                    // Copy the run up to the next quote or escape. Both
                    // are ASCII, so the run ends on a char boundary of
                    // the (already valid) input.
                    let rest = &self.b[self.i..];
                    let run = rest
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.s[self.i..self.i + run]);
                    self.i += run;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
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
