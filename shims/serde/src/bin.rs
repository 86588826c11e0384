//! The binary rendering: the data model `serde_json` writes as text
//! (see [`crate::Value`]), written as tagged, length-prefixed bytes.
//!
//! Every value is one tag byte and a body:
//!
//! | tag | value | body |
//! |---|---|---|
//! | 0 | `Null` | — |
//! | 1, 2 | `Bool(false)`, `Bool(true)` | — |
//! | 3 | `UInt` | varint |
//! | 4 | `Int` | zigzag varint |
//! | 5 | `Float` | the IEEE bits, 8 bytes little-endian |
//! | 6 | `Str` | varint length, UTF-8 |
//! | 7 | `Bytes` | varint length, the bytes |
//! | 8 | `Array` | varint count, the items |
//! | 9 | `Object` | varint count, then per field a varint key length, the key's UTF-8 and the value |
//!
//! A varint is LEB128: seven bits a byte, low group first, the high
//! bit set on every byte but the last.
//!
//! The rendering is canonical: a value has exactly one encoding (the
//! decoder refuses an over-long varint), so the bytes — and their
//! count, which the shard link charges virtual time for — are a
//! function of the value. The decoder treats its input as hostile: it
//! never panics, follows containers at most [`MAX_DEPTH`] deep, and
//! refuses a length or count larger than the rest of the input before
//! allocating anything for it.

use std::borrow::Cow;
use std::fmt;

use crate::{Atom, DeError, Deserialize, MAX_DEPTH, Serialize, Sink, Source};

const NULL: u8 = 0;
const FALSE: u8 = 1;
const TRUE: u8 = 2;
const UINT: u8 = 3;
const INT: u8 = 4;
const FLOAT: u8 = 5;
const STR: u8 = 6;
const BYTES: u8 = 7;
const ARRAY: u8 = 8;
const OBJECT: u8 = 9;

/// Why [`from_slice`] refused its input. Offsets are into that input.
#[derive(Clone, Debug)]
pub enum Error {
    /// The input ends inside a value.
    Truncated,
    /// The byte at `at` is not a value tag.
    BadTag { at: usize, tag: u8 },
    /// The varint at `at` is over-long or overflows 64 bits.
    BadVarint { at: usize },
    /// The length or count at `at` claims more than the rest of the
    /// input holds.
    Overrun { at: usize, declared: u64 },
    /// The container at `at` nests deeper than [`MAX_DEPTH`].
    TooDeep { at: usize },
    /// The string at `at` is not UTF-8.
    BadUtf8 { at: usize },
    /// Bytes follow the value, from `at` on.
    Trailing { at: usize },
    /// A well-formed tree that is not the shape the target type maps.
    Shape(DeError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Truncated => write!(f, "input ends inside a value"),
            Error::BadTag { at, tag } => write!(f, "bad tag {tag:#04x} at offset {at}"),
            Error::BadVarint { at } => write!(f, "bad varint at offset {at}"),
            Error::Overrun { at, declared } => write!(
                f,
                "length {declared} at offset {at} exceeds the rest of the input"
            ),
            Error::TooDeep { at } => write!(f, "nesting deeper than {MAX_DEPTH} at offset {at}"),
            Error::BadUtf8 { at } => write!(f, "string at offset {at} is not utf-8"),
            Error::Trailing { at } => write!(f, "trailing bytes at offset {at}"),
            Error::Shape(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {}

/// Renders `value` in the binary form.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut w = Writer { out: Vec::new() };
    value.serialize(&mut w);
    w.out
}

/// Parses a value from the binary form; the whole input must be one
/// value.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let mut r = Reader {
        b: bytes,
        i: 0,
        open: Vec::new(),
    };
    let v = T::deserialize(&mut r)?;
    if r.i != bytes.len() {
        return Err(Error::Trailing { at: r.i });
    }
    Ok(v)
}

impl From<DeError> for Error {
    fn from(e: DeError) -> Error {
        Error::Shape(e)
    }
}

/// The [`Sink`] that writes the binary form.
struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn varint(&mut self, mut n: u64) {
        while n >= 0x80 {
            self.out.push(n as u8 | 0x80);
            n >>= 7;
        }
        self.out.push(n as u8);
    }

    fn run(&mut self, run: &[u8]) {
        self.varint(run.len() as u64);
        self.out.extend_from_slice(run);
    }
}

impl Sink for Writer {
    fn null(&mut self) {
        self.out.push(NULL);
    }
    fn bool(&mut self, b: bool) {
        self.out.push(if b { TRUE } else { FALSE });
    }
    fn uint(&mut self, n: u64) {
        self.out.push(UINT);
        self.varint(n);
    }
    fn int(&mut self, n: i64) {
        self.out.push(INT);
        self.varint(((n << 1) ^ (n >> 63)) as u64);
    }
    fn float(&mut self, f: f64) {
        self.out.push(FLOAT);
        self.out.extend_from_slice(&f.to_bits().to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.out.push(STR);
        self.run(s.as_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.out.push(BYTES);
        self.run(b);
    }
    fn begin_array(&mut self, len: usize) {
        self.out.push(ARRAY);
        self.varint(len as u64);
    }
    fn end_array(&mut self) {}
    fn begin_object(&mut self, len: usize) {
        self.out.push(OBJECT);
        self.varint(len as u64);
    }
    fn key(&mut self, k: &str) {
        self.run(k.as_bytes());
    }
    fn end_object(&mut self) {}
}

/// The [`Source`] that reads the binary form.
struct Reader<'a> {
    b: &'a [u8],
    i: usize,
    /// The items (or fields) each open container has left, innermost
    /// last.
    open: Vec<usize>,
}

impl<'a> Reader<'a> {
    fn byte(&mut self) -> Result<u8, Error> {
        let c = *self.b.get(self.i).ok_or(Error::Truncated)?;
        self.i += 1;
        Ok(c)
    }

    fn varint(&mut self) -> Result<u64, Error> {
        let at = self.i;
        let mut n = 0u64;
        for shift in (0..64).step_by(7) {
            let c = self.byte()?;
            // The tenth byte holds bit 63 alone.
            if shift == 63 && c > 1 {
                return Err(Error::BadVarint { at });
            }
            n |= u64::from(c & 0x7f) << shift;
            if c & 0x80 == 0 {
                // A zero last group after the first is a longer
                // spelling of a shorter varint.
                if c == 0 && shift > 0 {
                    return Err(Error::BadVarint { at });
                }
                return Ok(n);
            }
        }
        Err(Error::BadVarint { at })
    }

    /// A length or count: never more than the bytes left, since every
    /// byte of a run, and every item of a container, takes at least
    /// one.
    fn len(&mut self) -> Result<usize, Error> {
        let at = self.i;
        let declared = self.varint()?;
        let left = self.b.len() - self.i;
        match usize::try_from(declared) {
            Ok(n) if n <= left => Ok(n),
            _ => Err(Error::Overrun { at, declared }),
        }
    }

    fn run(&mut self) -> Result<&'a [u8], Error> {
        let n = self.len()?;
        let run = &self.b[self.i..self.i + n];
        self.i += n;
        Ok(run)
    }

    fn string(&mut self) -> Result<&'a str, Error> {
        let at = self.i;
        let run = self.run()?;
        std::str::from_utf8(run).map_err(|_| Error::BadUtf8 { at })
    }

    fn float(&mut self) -> Result<f64, Error> {
        let bits: [u8; 8] = self
            .b
            .get(self.i..self.i + 8)
            .and_then(|s| s.try_into().ok())
            .ok_or(Error::Truncated)?;
        self.i += 8;
        Ok(f64::from_bits(u64::from_le_bytes(bits)))
    }

    /// Counts one more open container, refusing the one past
    /// [`MAX_DEPTH`] (whose tag is at `at`).
    fn nest(depth: usize, at: usize) -> Result<usize, Error> {
        if depth == MAX_DEPTH {
            return Err(Error::TooDeep { at });
        }
        Ok(depth + 1)
    }

    /// Steps past one value `depth` containers deep, checking it as
    /// [`Source::atom`] would and building nothing.
    fn skip_value(&mut self, depth: usize) -> Result<(), Error> {
        let at = self.i;
        match self.byte()? {
            NULL | FALSE | TRUE => {}
            UINT | INT => {
                self.varint()?;
            }
            FLOAT => {
                self.float()?;
            }
            STR => {
                self.string()?;
            }
            BYTES => {
                self.run()?;
            }
            tag @ (ARRAY | OBJECT) => {
                let depth = Self::nest(depth, at)?;
                for _ in 0..self.len()? {
                    if tag == OBJECT {
                        self.string()?;
                    }
                    self.skip_value(depth)?;
                }
            }
            tag => return Err(Error::BadTag { at, tag }),
        }
        Ok(())
    }

    /// Takes one item from the innermost open container; `false` (and
    /// the container closed) when it has none left.
    fn next_in_open(&mut self) -> Result<bool, Error> {
        let Some(left) = self.open.last_mut() else {
            return Err(DeError::msg("no container is open").into());
        };
        if *left == 0 {
            self.open.pop();
            return Ok(false);
        }
        *left -= 1;
        Ok(true)
    }
}

impl<'a> Source<'a> for Reader<'a> {
    type Error = Error;

    fn atom(&mut self) -> Result<Atom<'a>, Error> {
        let at = self.i;
        Ok(match self.byte()? {
            NULL => Atom::Null,
            FALSE => Atom::Bool(false),
            TRUE => Atom::Bool(true),
            UINT => Atom::UInt(self.varint()?),
            INT => {
                let z = self.varint()?;
                Atom::Int((z >> 1) as i64 ^ -((z & 1) as i64))
            }
            FLOAT => Atom::Float(self.float()?),
            STR => Atom::Str(Cow::Borrowed(self.string()?)),
            BYTES => Atom::Bytes(Cow::Borrowed(self.run()?)),
            tag @ (ARRAY | OBJECT) => {
                Self::nest(self.open.len(), at)?;
                let n = self.len()?;
                self.open.push(n);
                if tag == ARRAY {
                    Atom::Array
                } else {
                    Atom::Object
                }
            }
            tag => return Err(Error::BadTag { at, tag }),
        })
    }

    fn item(&mut self) -> Result<bool, Error> {
        self.next_in_open()
    }

    fn key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.next_in_open()? {
            return Ok(None);
        }
        Ok(Some(Cow::Borrowed(self.string()?)))
    }

    fn null(&mut self) -> Result<bool, Error> {
        let is_null = self.b.get(self.i) == Some(&NULL);
        self.i += usize::from(is_null);
        Ok(is_null)
    }

    fn skip(&mut self) -> Result<(), Error> {
        self.skip_value(self.open.len())
    }

    fn size_hint(&self) -> Option<usize> {
        self.open.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn every_shape() -> Value {
        Value::Object(vec![
            ("null".into(), Value::Null),
            (
                "bools".into(),
                Value::Array(vec![Value::Bool(false), Value::Bool(true)]),
            ),
            (
                "uints".into(),
                Value::Array(vec![
                    Value::UInt(0),
                    Value::UInt(127),
                    Value::UInt(128),
                    Value::UInt(u64::MAX),
                ]),
            ),
            (
                "ints".into(),
                Value::Array(vec![
                    Value::Int(0),
                    Value::Int(-1),
                    Value::Int(i64::MIN),
                    Value::Int(i64::MAX),
                ]),
            ),
            (
                "floats".into(),
                Value::Array(vec![Value::Float(-0.5), Value::Float(f64::INFINITY)]),
            ),
            ("str".into(), Value::Str("héllo".into())),
            ("bytes".into(), Value::Bytes(vec![0, 0xff, 0x80])),
            ("empty".into(), Value::Object(Vec::new())),
        ])
    }

    #[test]
    fn every_shape_roundtrips_canonically() {
        let v = every_shape();
        let bytes = to_vec(&v);
        let back: Value = from_slice(&bytes).unwrap();
        assert_eq!(back, v);
        assert_eq!(to_vec(&back), bytes);
    }

    #[test]
    fn encoding_is_pinned() {
        // A field name, a varint that needs two bytes, and raw bytes.
        let v = Value::Object(vec![
            ("n".into(), Value::UInt(300)),
            ("b".into(), Value::Bytes(vec![0xde, 0xad])),
        ]);
        assert_eq!(
            to_vec(&v),
            [
                OBJECT, 2, 1, b'n', UINT, 0xac, 0x02, 1, b'b', BYTES, 2, 0xde, 0xad
            ]
        );
    }

    #[test]
    fn over_long_and_overflowing_varints_are_refused() {
        // 0 spelled in two bytes; then u64::MAX plus one more bit.
        assert!(matches!(
            from_slice::<Value>(&[UINT, 0x80, 0x00]),
            Err(Error::BadVarint { at: 1 })
        ));
        let mut big = vec![UINT];
        big.extend([0xff; 9]);
        big.push(0x02);
        assert!(matches!(
            from_slice::<Value>(&big),
            Err(Error::BadVarint { .. })
        ));
        big[10] = 0x01;
        assert_eq!(from_slice::<Value>(&big).unwrap(), Value::UInt(u64::MAX));
    }

    #[test]
    fn lengths_are_bounded_by_the_input() {
        // A count of 2^32 items, and a 2^32-byte string, in 7 bytes.
        for tag in [ARRAY, OBJECT, STR, BYTES] {
            let bomb = [tag, 0x80, 0x80, 0x80, 0x80, 0x10, NULL];
            assert!(
                matches!(
                    from_slice::<Value>(&bomb),
                    Err(Error::Overrun {
                        at: 1,
                        declared: 0x1_0000_0000
                    })
                ),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nested = |n: usize| [[ARRAY, 1].repeat(n - 1), vec![ARRAY, 0]].concat();
        assert!(from_slice::<Value>(&nested(MAX_DEPTH)).is_ok());
        assert!(matches!(
            from_slice::<Value>(&nested(MAX_DEPTH + 1)),
            Err(Error::TooDeep { .. })
        ));
        assert!(from_slice::<Value>(&[ARRAY, 1].repeat(1 << 20)).is_err());
    }

    /// A value read only to be skipped (a whole payload checked for
    /// parsing, or an unknown key's: `derive.rs`) is held to the same
    /// depth bound.
    #[test]
    fn skipped_values_are_depth_checked() {
        let nested = |n: usize| [[ARRAY, 1].repeat(n - 1), vec![ARRAY, 0]].concat();
        assert!(from_slice::<crate::IgnoredAny>(&nested(MAX_DEPTH)).is_ok());
        assert!(matches!(
            from_slice::<crate::IgnoredAny>(&nested(MAX_DEPTH + 1)),
            Err(Error::TooDeep { .. })
        ));
    }

    #[test]
    fn malformed_input_is_a_typed_error() {
        assert!(matches!(from_slice::<Value>(&[]), Err(Error::Truncated)));
        assert!(matches!(
            from_slice::<Value>(&[10]),
            Err(Error::BadTag { at: 0, tag: 10 })
        ));
        assert!(matches!(
            from_slice::<Value>(&[STR, 1, 0xff]),
            Err(Error::BadUtf8 { at: 1 })
        ));
        assert!(matches!(
            from_slice::<Value>(&[NULL, NULL]),
            Err(Error::Trailing { at: 1 })
        ));
        assert!(matches!(
            from_slice::<Value>(&[FLOAT, 0, 0]),
            Err(Error::Truncated)
        ));
        assert!(matches!(from_slice::<u8>(&[STR, 0]), Err(Error::Shape(_))));
    }
}
