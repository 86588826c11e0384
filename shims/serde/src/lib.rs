//! Vendored shim for the parts of `serde` this workspace uses.
//!
//! Models serialization as conversion to/from a JSON-ish [`Value`]
//! tree. The derive macros (re-exported from the `serde_derive` shim)
//! support named-field structs, newtype structs and enums (all-unit
//! enums as a string, any other enum as an object tagged on `"k"`),
//! plus `#[serde(skip)]` and `#[serde(rename = "…")]`. A [`Value`]
//! has two renderings: `serde_json` (also vendored) writes it as real
//! JSON text, and [`bin`] as tagged, length-prefixed bytes.
//!
//! Byte payloads have one representation in the tree: any sequence of
//! `u8` (`Vec<u8>`, `[u8; N]`) is a [`Value::Bytes`], never an array
//! of numbers. It is hex in JSON, raw in binary: `serde_json` writes
//! it as a lowercase hex string, and a hex string in parsed JSON reads
//! back as bytes.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Mutex;

pub use serde_derive::{Deserialize, Serialize};

pub mod bin;

/// Deepest container nesting either rendering's parser follows.
/// Persisted values nest about ten deep; hostile input must get an
/// error, not a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A JSON-ish data model.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Float(f64),
    Str(String),
    /// A run of bytes (see the crate docs).
    Bytes(Vec<u8>),
    Array(Vec<Value>),
    /// Insertion-ordered object fields.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Deserialization error.
#[derive(Clone, Debug)]
pub struct DeError(String);

impl DeError {
    pub fn msg(m: impl Into<String>) -> DeError {
        DeError(m.into())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Conversion into the data model.
pub trait Serialize {
    fn to_value(&self) -> Value;

    /// How a sequence of `Self` converts: an array, unless the element
    /// type says otherwise (`u8` does — see the crate docs).
    #[doc(hidden)]
    fn seq_to_value(items: &[Self]) -> Value
    where
        Self: Sized,
    {
        Value::Array(items.iter().map(Serialize::to_value).collect())
    }
}

// A `Value` serializes as itself, so pre-built trees (e.g. rewritten
// event encodings) can be rendered by `serde_json` directly.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

// ... and deserializes as itself, so callers can parse a rendering into
// a raw tree and walk it by hand (e.g. checkpoint payloads) — the parsed
// tree itself, not a copy of it.
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }

    fn from_parsed(v: Value) -> Result<Self, DeError> {
        Ok(v)
    }
}

/// Conversion from the data model.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, DeError>;

    /// Conversion from a tree a parser just built and hands over.
    #[doc(hidden)]
    fn from_parsed(v: Value) -> Result<Self, DeError> {
        Self::from_value(&v)
    }

    /// The inverse of [`Serialize::seq_to_value`].
    #[doc(hidden)]
    fn seq_from_value(v: &Value) -> Result<Vec<Self>, DeError> {
        match v {
            Value::Array(items) => items.iter().map(Self::from_value).collect(),
            _ => Err(DeError::msg("expected array")),
        }
    }
}

/// Looks up and deserializes a struct field (used by derived impls).
pub fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
    match v.get(name) {
        Some(f) => T::from_value(f),
        None => Err(DeError::msg(format!("missing field `{name}`"))),
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$( impl_unsigned!($t, {}, {}); )*};
    // `$ser_seq` / `$de_seq`: overrides of the sequence methods.
    ($t:ty, { $($ser_seq:item)? }, { $($de_seq:item)? }) => {
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
            $($ser_seq)?
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = match *v {
                    Value::UInt(n) => n,
                    Value::Int(n) if n >= 0 => n as u64,
                    _ => return Err(DeError::msg(concat!("expected ", stringify!($t)))),
                };
                <$t>::try_from(n)
                    .map_err(|_| DeError::msg(concat!("out of range for ", stringify!($t))))
            }
            $($de_seq)?
        }
    };
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = match *v {
                    Value::Int(n) => n,
                    Value::UInt(n) => i64::try_from(n)
                        .map_err(|_| DeError::msg(concat!("out of range for ", stringify!($t))))?,
                    _ => return Err(DeError::msg(concat!("expected ", stringify!($t)))),
                };
                <$t>::try_from(n)
                    .map_err(|_| DeError::msg(concat!("out of range for ", stringify!($t))))
            }
        }
    )*};
}

impl_unsigned!(u16, u32, u64, usize);
// A run of bytes is one `Value::Bytes`; JSON text carries it as a
// lowercase hex string (see the crate docs).
impl_unsigned!(
    u8,
    {
        fn seq_to_value(bytes: &[u8]) -> Value {
            Value::Bytes(bytes.to_vec())
        }
    },
    {
        fn seq_from_value(v: &Value) -> Result<Vec<u8>, DeError> {
            let s = match v {
                Value::Bytes(b) => return Ok(b.clone()),
                Value::Str(s) => s,
                _ => return Err(DeError::msg("expected bytes or a hex string")),
            };
            if s.len() % 2 != 0 {
                return Err(DeError::msg("odd-length hex string"));
            }
            let digit = |c: u8| match c {
                b'0'..=b'9' => Ok(c - b'0'),
                b'a'..=b'f' => Ok(c - b'a' + 10),
                _ => Err(DeError::msg("bad hex digit")),
            };
            s.as_bytes()
                .chunks_exact(2)
                .map(|p| Ok(digit(p[0])? << 4 | digit(p[1])?))
                .collect()
        }
    }
);
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::msg("expected bool")),
        }
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match *v {
            Value::Float(f) => Ok(f),
            Value::UInt(n) => Ok(n as f64),
            Value::Int(n) => Ok(n as f64),
            _ => Err(DeError::msg("expected number")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::msg("expected string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

/// Longest string [`Deserialize`] will intern as a `&'static str`.
const MAX_STATIC_STR: usize = 256;

// A `&'static str` field (a trap's fault message) deserializes by
// interning: each distinct string is leaked once per process, however
// often it is decoded, and an over-long one is refused so hostile
// input cannot pin large allocations.
impl Deserialize for &'static str {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
        let Value::Str(s) = v else {
            return Err(DeError::msg("expected string"));
        };
        if s.len() > MAX_STATIC_STR {
            return Err(DeError::msg("static string over 256 bytes"));
        }
        // The set is only ever inserted into, so a poisoned lock still
        // guards a valid set.
        let mut set = INTERNED.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&known) = set.get(s.as_str()) {
            return Ok(known);
        }
        let leaked: &'static str = Box::leak(s.clone().into_boxed_str());
        set.insert(leaked);
        Ok(leaked)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        T::seq_to_value(self)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::seq_from_value(v)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        T::seq_to_value(self)
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::seq_from_value(v)?
            .try_into()
            .map_err(|_| DeError::msg(format!("expected exactly {N} elements")))
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) if items.len() == 2 => {
                Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
            }
            _ => Err(DeError::msg("expected a 2-element array")),
        }
    }
}

// A map is its `[key, value]` pairs in key order (keys need not be
// strings, so it cannot be a JSON object).
impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Vec::<(K, V)>::from_value(v)?.into_iter().collect())
    }
}

impl<T: Serialize, E: Serialize> Serialize for Result<T, E> {
    fn to_value(&self) -> Value {
        let (key, v) = match self {
            Ok(t) => ("ok", t.to_value()),
            Err(e) => ("err", e.to_value()),
        };
        Value::Object(vec![(key.to_string(), v)])
    }
}

impl<T: Deserialize, E: Deserialize> Deserialize for Result<T, E> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(fields) if fields.len() == 1 => match fields[0].0.as_str() {
                "ok" => T::from_value(&fields[0].1).map(Ok),
                "err" => E::from_value(&fields[0].1).map(Err),
                _ => Err(DeError::msg("expected `ok` or `err`")),
            },
            _ => Err(DeError::msg("expected a one-field `ok`/`err` object")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}
