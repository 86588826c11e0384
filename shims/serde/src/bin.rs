//! The binary rendering of a [`Value`]: the tree `serde_json` writes
//! as text, written as tagged, length-prefixed bytes.
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

use std::fmt;

use crate::{DeError, Deserialize, MAX_DEPTH, Serialize, Value};

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
    let mut out = Vec::new();
    write_value(&value.to_value(), &mut out);
    out
}

/// Parses a value from the binary form; the whole input must be one
/// value.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let mut r = Reader {
        b: bytes,
        i: 0,
        depth: 0,
    };
    let v = r.value()?;
    if r.i != bytes.len() {
        return Err(Error::Trailing { at: r.i });
    }
    T::from_parsed(v).map_err(Error::Shape)
}

fn write_varint(mut n: u64, out: &mut Vec<u8>) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

fn write_run(run: &[u8], out: &mut Vec<u8>) {
    write_varint(run.len() as u64, out);
    out.extend_from_slice(run);
}

fn write_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(NULL),
        Value::Bool(b) => out.push(if *b { TRUE } else { FALSE }),
        Value::UInt(n) => {
            out.push(UINT);
            write_varint(*n, out);
        }
        Value::Int(n) => {
            out.push(INT);
            write_varint(((n << 1) ^ (n >> 63)) as u64, out);
        }
        Value::Float(f) => {
            out.push(FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(STR);
            write_run(s.as_bytes(), out);
        }
        Value::Bytes(b) => {
            out.push(BYTES);
            write_run(b, out);
        }
        Value::Array(items) => {
            out.push(ARRAY);
            write_varint(items.len() as u64, out);
            for item in items {
                write_value(item, out);
            }
        }
        Value::Object(fields) => {
            out.push(OBJECT);
            write_varint(fields.len() as u64, out);
            for (k, val) in fields {
                write_run(k.as_bytes(), out);
                write_value(val, out);
            }
        }
    }
}

struct Reader<'a> {
    b: &'a [u8],
    i: usize,
    /// Containers currently being read, one inside the other.
    depth: usize,
}

impl Reader<'_> {
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

    fn run(&mut self) -> Result<&[u8], Error> {
        let n = self.len()?;
        let run = &self.b[self.i..self.i + n];
        self.i += n;
        Ok(run)
    }

    fn string(&mut self) -> Result<String, Error> {
        let at = self.i;
        let run = self.run()?;
        std::str::from_utf8(run)
            .map(str::to_owned)
            .map_err(|_| Error::BadUtf8 { at })
    }

    fn value(&mut self) -> Result<Value, Error> {
        let at = self.i;
        let tag = self.byte()?;
        Ok(match tag {
            NULL => Value::Null,
            FALSE => Value::Bool(false),
            TRUE => Value::Bool(true),
            UINT => Value::UInt(self.varint()?),
            INT => {
                let z = self.varint()?;
                Value::Int((z >> 1) as i64 ^ -((z & 1) as i64))
            }
            FLOAT => {
                let bits: [u8; 8] = self
                    .b
                    .get(self.i..self.i + 8)
                    .and_then(|s| s.try_into().ok())
                    .ok_or(Error::Truncated)?;
                self.i += 8;
                Value::Float(f64::from_bits(u64::from_le_bytes(bits)))
            }
            STR => Value::Str(self.string()?),
            BYTES => Value::Bytes(self.run()?.to_vec()),
            ARRAY | OBJECT => {
                if self.depth == MAX_DEPTH {
                    return Err(Error::TooDeep { at });
                }
                self.depth += 1;
                let v = self.container(tag == OBJECT);
                self.depth -= 1;
                v?
            }
            _ => return Err(Error::BadTag { at, tag }),
        })
    }

    /// An array's or object's body; recursion comes back through
    /// [`Self::value`].
    fn container(&mut self, object: bool) -> Result<Value, Error> {
        let n = self.len()?;
        if object {
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let key = self.string()?;
                fields.push((key, self.value()?));
            }
            Ok(Value::Object(fields))
        } else {
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(self.value()?);
            }
            Ok(Value::Array(items))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
