//! Vendored shim for the parts of `serde` this workspace uses.
//!
//! Serialization is one walk per type, in the visitor shape of real
//! serde: [`Serialize::serialize`] drives a [`Sink`], and
//! [`Deserialize::deserialize`] pulls from a [`Source`]. There are
//! three of each: `serde_json` (also vendored) writes and reads JSON
//! text, [`bin`] tagged, length-prefixed bytes, and a [`Value`] tree
//! is the third, for readers that walk a rendering by hand
//! ([`Serialize::to_value`], [`Deserialize::from_value`], [`field`]).
//! The derive macros (re-exported from the `serde_derive` shim)
//! support named-field structs, newtype structs and enums (all-unit
//! enums as a string, any other enum as an object tagged on `"k"`),
//! plus `#[serde(skip)]` and `#[serde(rename = "…")]`.
//!
//! Byte payloads have one representation: any sequence of `u8`
//! (`Vec<u8>`, `[u8; N]`) is a run of bytes ([`Sink::bytes`],
//! [`Value::Bytes`]), never an array of numbers. It is hex in JSON, raw
//! in binary: `serde_json` writes it as a lowercase hex string, and a
//! hex string in JSON reads back as bytes.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Mutex;

pub use serde_derive::{Deserialize, Serialize};

pub mod bin;

/// Deepest container nesting either rendering's reader follows.
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
    /// Object field lookup: the first field named `key`.
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

/// Where a walk writes: one call per scalar, and a container as its
/// `begin`, its items (an object's each behind its [`Sink::key`]) and
/// its `end`. The count a `begin` declares is exact.
pub trait Sink {
    fn null(&mut self);
    fn bool(&mut self, b: bool);
    fn uint(&mut self, n: u64);
    fn int(&mut self, n: i64);
    fn float(&mut self, f: f64);
    fn str(&mut self, s: &str);
    /// A run of bytes (see the crate docs).
    fn bytes(&mut self, b: &[u8]);
    fn begin_array(&mut self, len: usize);
    fn end_array(&mut self);
    fn begin_object(&mut self, len: usize);
    fn key(&mut self, k: &str);
    fn end_object(&mut self);
}

/// One step of a [`Source`]: a scalar, or a container it just opened.
#[derive(Debug)]
pub enum Atom<'de> {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Float(f64),
    Str(Cow<'de, str>),
    /// A run of bytes; JSON has none (its bytes arrive as hex strings).
    Bytes(Cow<'de, [u8]>),
    /// An array is open: read its items with [`Source::item`].
    Array,
    /// An object is open: read its fields with [`Source::key`].
    Object,
}

/// How a tagged enum's object begins (see [`Source::tag`]).
pub enum Tagged<'de> {
    /// Its `"k"`, with the rest of the object open behind it.
    Tag(Cow<'de, str>),
    /// The whole object, read into a tree because `"k"` did not come
    /// first.
    Buffered(Value),
}

/// Where a walk reads from. Each reader bounds nesting at
/// [`MAX_DEPTH`] and returns its own typed error; a shape error from a
/// walk converts into it.
pub trait Source<'de> {
    type Error: From<DeError>;

    /// The next value: a scalar, or a container opened.
    fn atom(&mut self) -> Result<Atom<'de>, Self::Error>;

    /// In the array the last [`Source::atom`] opened: true when an item
    /// follows (read it next), false once the array has closed.
    fn item(&mut self) -> Result<bool, Self::Error>;

    /// In an open object: the next field's key (read its value next),
    /// or `None` once the object has closed.
    fn key(&mut self) -> Result<Option<Cow<'de, str>>, Self::Error>;

    /// Reads a `null` if one is next and says whether it did.
    fn null(&mut self) -> Result<bool, Self::Error>;

    /// Reads one value, checked as a decode would check it, without
    /// building it.
    fn skip(&mut self) -> Result<(), Self::Error>
    where
        Self: Sized,
    {
        skip_atoms(self)
    }

    /// Items the array just opened declares, when the rendering says.
    fn size_hint(&self) -> Option<usize> {
        None
    }

    /// Opens a tagged enum's object. A streamed rendering writes `"k"`
    /// first; an object that starts otherwise is read whole and handed
    /// back as a tree.
    fn tag(&mut self) -> Result<Tagged<'de>, Self::Error>
    where
        Self: Sized,
    {
        if !matches!(self.atom()?, Atom::Object) {
            return Err(DeError::msg("expected an object tagged on `k`").into());
        }
        match self.key()? {
            Some(k) if k == "k" => match self.atom()? {
                Atom::Str(tag) => Ok(Tagged::Tag(tag)),
                _ => Err(DeError::msg("expected a variant tag").into()),
            },
            first => {
                let mut fields = Vec::new();
                let mut key = first;
                while let Some(k) = key {
                    fields.push((k.into_owned(), Value::deserialize(self)?));
                    key = self.key()?;
                }
                Ok(Tagged::Buffered(Value::Object(fields)))
            }
        }
    }
}

/// [`Source::skip`] through atoms: every scalar is read and checked,
/// every container opened (and so depth-checked) and drained.
fn skip_atoms<'de, S: Source<'de>>(src: &mut S) -> Result<(), S::Error> {
    match src.atom()? {
        Atom::Array => {
            while src.item()? {
                skip_atoms(src)?;
            }
        }
        Atom::Object => {
            while src.key()?.is_some() {
                skip_atoms(src)?;
            }
        }
        _ => {}
    }
    Ok(())
}

/// A value's walk into a [`Sink`].
pub trait Serialize {
    fn serialize<S: Sink>(&self, sink: &mut S);

    /// The value as a tree, for readers that walk it by hand.
    fn to_value(&self) -> Value {
        let mut b = ValueBuilder::default();
        self.serialize(&mut b);
        b.finish()
    }

    /// How a sequence of `Self` is written: an array, unless the
    /// element type says otherwise (`u8` does — see the crate docs).
    #[doc(hidden)]
    fn serialize_seq<S: Sink>(items: &[Self], sink: &mut S)
    where
        Self: Sized,
    {
        sink.begin_array(items.len());
        for item in items {
            item.serialize(sink);
        }
        sink.end_array();
    }
}

/// A value's walk out of a [`Source`].
pub trait Deserialize: Sized {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, S::Error>;

    /// The value a tree holds.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Self::deserialize(&mut ValueReader::new(v))
    }

    /// The inverse of [`Serialize::serialize_seq`].
    #[doc(hidden)]
    fn deserialize_seq<'de, S: Source<'de>>(src: &mut S) -> Result<Vec<Self>, S::Error> {
        if !matches!(src.atom()?, Atom::Array) {
            return Err(DeError::msg("expected array").into());
        }
        let mut items = Vec::with_capacity(cautious::<Self>(src.size_hint()));
        while src.item()? {
            items.push(Self::deserialize(src)?);
        }
        Ok(items)
    }
}

/// A capacity to reserve for `hint` items of `T`: a declared count is
/// bounded by the input behind it, and reserving for it is capped at
/// 1 MiB, so a short input never sizes a large buffer.
fn cautious<T>(hint: Option<usize>) -> usize {
    let cap = (1 << 20) / std::mem::size_of::<T>().max(1);
    hint.unwrap_or(0).min(cap)
}

/// Looks up and deserializes the first field named `name` of an
/// object tree.
pub fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
    match v.get(name) {
        Some(f) => T::from_value(f),
        None => Err(missing(name)),
    }
}

/// The error for a struct field the input does not hold.
pub fn missing(name: &str) -> DeError {
    DeError::msg(format!("missing field `{name}`"))
}

/// Opens the object a named-field struct reads its fields from.
pub fn open_object<'de, S: Source<'de>>(src: &mut S) -> Result<(), S::Error> {
    match src.atom()? {
        Atom::Object => Ok(()),
        _ => Err(DeError::msg("expected object").into()),
    }
}

/// A value that reads any one value and keeps nothing of it: the input
/// is checked as a decode would check it, and nothing is built.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IgnoredAny;

impl Deserialize for IgnoredAny {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, S::Error> {
        src.skip().map(|()| IgnoredAny)
    }
}

// A `Value` writes itself, so pre-built or parsed trees render in
// place ...
impl Serialize for Value {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        match self {
            Value::Null => sink.null(),
            Value::Bool(b) => sink.bool(*b),
            Value::UInt(n) => sink.uint(*n),
            Value::Int(n) => sink.int(*n),
            Value::Float(f) => sink.float(*f),
            Value::Str(s) => sink.str(s),
            Value::Bytes(b) => sink.bytes(b),
            Value::Array(items) => {
                sink.begin_array(items.len());
                for item in items {
                    item.serialize(sink);
                }
                sink.end_array();
            }
            Value::Object(fields) => {
                sink.begin_object(fields.len());
                for (k, v) in fields {
                    sink.key(k);
                    v.serialize(sink);
                }
                sink.end_object();
            }
        }
    }
}

// ... and reads any one value, so callers can parse a rendering into a
// raw tree and walk it by hand (e.g. ledgers).
impl Deserialize for Value {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, S::Error> {
        Ok(match src.atom()? {
            Atom::Null => Value::Null,
            Atom::Bool(b) => Value::Bool(b),
            Atom::UInt(n) => Value::UInt(n),
            Atom::Int(n) => Value::Int(n),
            Atom::Float(f) => Value::Float(f),
            Atom::Str(s) => Value::Str(s.into_owned()),
            Atom::Bytes(b) => Value::Bytes(b.into_owned()),
            Atom::Array => {
                let mut items = Vec::with_capacity(cautious::<Value>(src.size_hint()));
                while src.item()? {
                    items.push(Value::deserialize(src)?);
                }
                Value::Array(items)
            }
            Atom::Object => {
                let mut fields = Vec::new();
                while let Some(k) = src.key()? {
                    fields.push((k.into_owned(), Value::deserialize(src)?));
                }
                Value::Object(fields)
            }
        })
    }

    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

/// The [`Sink`] that builds a [`Value`].
#[derive(Default)]
pub struct ValueBuilder {
    /// Open containers, each with the key it goes under in its parent.
    open: Vec<(Value, Option<String>)>,
    /// The key the next value goes under.
    key: Option<String>,
    done: Option<Value>,
}

impl ValueBuilder {
    /// The tree written.
    ///
    /// # Panics
    ///
    /// Panics if no complete value was written.
    pub fn finish(self) -> Value {
        assert!(self.open.is_empty(), "a container is still open");
        self.done.expect("no value was written")
    }

    fn put(&mut self, v: Value) {
        match self.open.last_mut() {
            None => self.done = Some(v),
            Some((Value::Array(items), _)) => items.push(v),
            Some((Value::Object(fields), _)) => {
                fields.push((self.key.take().expect("a key before each field"), v));
            }
            Some(_) => unreachable!("only containers are open"),
        }
    }

    fn close(&mut self) {
        let (v, key) = self.open.pop().expect("a container to close");
        self.key = key;
        self.put(v);
    }
}

impl Sink for ValueBuilder {
    fn null(&mut self) {
        self.put(Value::Null);
    }
    fn bool(&mut self, b: bool) {
        self.put(Value::Bool(b));
    }
    fn uint(&mut self, n: u64) {
        self.put(Value::UInt(n));
    }
    fn int(&mut self, n: i64) {
        self.put(Value::Int(n));
    }
    fn float(&mut self, f: f64) {
        self.put(Value::Float(f));
    }
    fn str(&mut self, s: &str) {
        self.put(Value::Str(s.to_owned()));
    }
    fn bytes(&mut self, b: &[u8]) {
        self.put(Value::Bytes(b.to_vec()));
    }
    fn begin_array(&mut self, len: usize) {
        let key = self.key.take();
        self.open.push((Value::Array(Vec::with_capacity(len)), key));
    }
    fn end_array(&mut self) {
        self.close();
    }
    fn begin_object(&mut self, len: usize) {
        let key = self.key.take();
        self.open
            .push((Value::Object(Vec::with_capacity(len)), key));
    }
    fn key(&mut self, k: &str) {
        self.key = Some(k.to_owned());
    }
    fn end_object(&mut self) {
        self.close();
    }
}

/// The [`Source`] that reads a [`Value`] tree, borrowing its strings
/// and bytes. A tree is already well-formed: skipping a value is a
/// step, and a tagged object's `"k"` may sit anywhere in it.
pub struct ValueReader<'de> {
    /// The value the next read takes.
    next: Option<&'de Value>,
    open: Vec<Open<'de>>,
}

enum Open<'de> {
    Array(std::slice::Iter<'de, Value>),
    Object(std::slice::Iter<'de, (String, Value)>),
}

impl<'de> ValueReader<'de> {
    pub fn new(v: &'de Value) -> ValueReader<'de> {
        ValueReader {
            next: Some(v),
            open: Vec::new(),
        }
    }

    fn take(&mut self) -> Result<&'de Value, DeError> {
        self.next
            .take()
            .ok_or_else(|| DeError::msg("no value here"))
    }
}

impl<'de> Source<'de> for ValueReader<'de> {
    type Error = DeError;

    fn atom(&mut self) -> Result<Atom<'de>, DeError> {
        Ok(match self.take()? {
            Value::Null => Atom::Null,
            Value::Bool(b) => Atom::Bool(*b),
            Value::UInt(n) => Atom::UInt(*n),
            Value::Int(n) => Atom::Int(*n),
            Value::Float(f) => Atom::Float(*f),
            Value::Str(s) => Atom::Str(Cow::Borrowed(s)),
            Value::Bytes(b) => Atom::Bytes(Cow::Borrowed(b)),
            Value::Array(items) => {
                self.open.push(Open::Array(items.iter()));
                Atom::Array
            }
            Value::Object(fields) => {
                self.open.push(Open::Object(fields.iter()));
                Atom::Object
            }
        })
    }

    fn item(&mut self) -> Result<bool, DeError> {
        let Some(Open::Array(items)) = self.open.last_mut() else {
            return Err(DeError::msg("no array is open"));
        };
        match items.next() {
            Some(v) => {
                self.next = Some(v);
                Ok(true)
            }
            None => {
                self.open.pop();
                Ok(false)
            }
        }
    }

    fn key(&mut self) -> Result<Option<Cow<'de, str>>, DeError> {
        let Some(Open::Object(fields)) = self.open.last_mut() else {
            return Err(DeError::msg("no object is open"));
        };
        match fields.next() {
            Some((k, v)) => {
                self.next = Some(v);
                Ok(Some(Cow::Borrowed(k)))
            }
            None => {
                self.open.pop();
                Ok(None)
            }
        }
    }

    fn null(&mut self) -> Result<bool, DeError> {
        let is_null = matches!(self.next, Some(Value::Null));
        if is_null {
            self.next = None;
        }
        Ok(is_null)
    }

    fn skip(&mut self) -> Result<(), DeError> {
        self.take().map(drop)
    }

    fn size_hint(&self) -> Option<usize> {
        match self.open.last() {
            Some(Open::Array(items)) => Some(items.len()),
            _ => None,
        }
    }

    /// The first `"k"` anywhere in the object; the walk then reads
    /// every field, `"k"` included, as it would any other.
    fn tag(&mut self) -> Result<Tagged<'de>, DeError> {
        let Value::Object(fields) = self.take()? else {
            return Err(DeError::msg("expected an object tagged on `k`"));
        };
        let Some((_, Value::Str(tag))) = fields.iter().find(|(k, _)| k == "k") else {
            return Err(DeError::msg("expected a variant tag"));
        };
        self.open.push(Open::Object(fields.iter()));
        Ok(Tagged::Tag(Cow::Borrowed(tag)))
    }
}

/// The error for a scalar of the wrong kind.
fn expected<'de, S: Source<'de>, T>(what: &str) -> Result<T, S::Error> {
    Err(DeError::msg(format!("expected {what}")).into())
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$( impl_unsigned!($t, {}, {}); )*};
    // `$ser_seq` / `$de_seq`: overrides of the sequence methods.
    ($t:ty, { $($ser_seq:item)? }, { $($de_seq:item)? }) => {
        impl Serialize for $t {
            fn serialize<S: Sink>(&self, sink: &mut S) {
                sink.uint(*self as u64);
            }
            $($ser_seq)?
        }
        impl Deserialize for $t {
            fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, S::Error> {
                let n = match src.atom()? {
                    Atom::UInt(n) => n,
                    Atom::Int(n) if n >= 0 => n as u64,
                    _ => return expected::<S, _>(stringify!($t)),
                };
                <$t>::try_from(n).map_err(|_| {
                    DeError::msg(concat!("out of range for ", stringify!($t))).into()
                })
            }
            $($de_seq)?
        }
    };
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Sink>(&self, sink: &mut S) {
                sink.int(*self as i64);
            }
        }
        impl Deserialize for $t {
            fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, S::Error> {
                let range = || DeError::msg(concat!("out of range for ", stringify!($t)));
                let n = match src.atom()? {
                    Atom::Int(n) => n,
                    Atom::UInt(n) => i64::try_from(n).map_err(|_| range())?,
                    _ => return expected::<S, _>(stringify!($t)),
                };
                <$t>::try_from(n).map_err(|_| range().into())
            }
        }
    )*};
}

impl_unsigned!(u16, u32, u64, usize);

/// The value of each lowercase hex digit; `0xff` for every other byte.
const HEX_VALUES: [u8; 256] = {
    let mut t = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        t[b"0123456789abcdef"[i] as usize] = i as u8;
        i += 1;
    }
    t
};

/// The bytes a lowercase hex string spells.
fn unhex(s: &str) -> Result<Vec<u8>, DeError> {
    if !s.len().is_multiple_of(2) {
        return Err(DeError::msg("odd-length hex string"));
    }
    // Any bad digit sets a high bit of `bad`; one check at the end.
    let mut bad = 0u8;
    let bytes = s
        .as_bytes()
        .chunks_exact(2)
        .map(|p| {
            let (hi, lo) = (HEX_VALUES[p[0] as usize], HEX_VALUES[p[1] as usize]);
            bad |= hi | lo;
            hi << 4 | lo
        })
        .collect();
    if bad & 0xf0 != 0 {
        return Err(DeError::msg("bad hex digit"));
    }
    Ok(bytes)
}

// A run of bytes is one `Sink::bytes`; JSON text carries it as a
// lowercase hex string (see the crate docs).
impl_unsigned!(
    u8,
    {
        fn serialize_seq<S: Sink>(bytes: &[u8], sink: &mut S) {
            sink.bytes(bytes);
        }
    },
    {
        fn deserialize_seq<'de, S: Source<'de>>(src: &mut S) -> Result<Vec<u8>, S::Error> {
            match src.atom()? {
                Atom::Bytes(b) => Ok(b.into_owned()),
                Atom::Str(s) => Ok(unhex(&s)?),
                _ => expected::<S, _>("bytes or a hex string"),
            }
        }
    }
);
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, S::Error> {
        match src.atom()? {
            Atom::Bool(b) => Ok(b),
            _ => expected::<S, _>("bool"),
        }
    }
}

impl Serialize for f64 {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.float(*self);
    }
}

impl Deserialize for f64 {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, S::Error> {
        match src.atom()? {
            Atom::Float(f) => Ok(f),
            Atom::UInt(n) => Ok(n as f64),
            Atom::Int(n) => Ok(n as f64),
            _ => expected::<S, _>("number"),
        }
    }
}

impl Serialize for String {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.str(self);
    }
}

impl Deserialize for String {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, S::Error> {
        match src.atom()? {
            Atom::Str(s) => Ok(s.into_owned()),
            _ => expected::<S, _>("string"),
        }
    }
}

impl Serialize for str {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.str(self);
    }
}

/// Longest string [`Deserialize`] will intern as a `&'static str`.
const MAX_STATIC_STR: usize = 256;

// A `&'static str` field (a trap's fault message) deserializes by
// interning: each distinct string is leaked once per process, however
// often it is decoded, and an over-long one is refused so hostile
// input cannot pin large allocations.
impl Deserialize for &'static str {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, S::Error> {
        static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
        let Atom::Str(s) = src.atom()? else {
            return expected::<S, _>("string");
        };
        if s.len() > MAX_STATIC_STR {
            return Err(DeError::msg("static string over 256 bytes").into());
        }
        // The set is only ever inserted into, so a poisoned lock still
        // guards a valid set.
        let mut set = INTERNED.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&known) = set.get(&*s) {
            return Ok(known);
        }
        let leaked: &'static str = Box::leak(s.into_owned().into_boxed_str());
        set.insert(leaked);
        Ok(leaked)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        T::serialize_seq(self, sink);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, S::Error> {
        T::deserialize_seq(src)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        T::serialize_seq(self, sink);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, S::Error> {
        T::deserialize_seq(src)?
            .try_into()
            .map_err(|_| DeError::msg(format!("expected exactly {N} elements")).into())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.begin_array(2);
        self.0.serialize(sink);
        self.1.serialize(sink);
        sink.end_array();
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, S::Error> {
        let pair = || DeError::msg("expected a 2-element array");
        if !matches!(src.atom()?, Atom::Array) || !src.item()? {
            return Err(pair().into());
        }
        let a = A::deserialize(src)?;
        if !src.item()? {
            return Err(pair().into());
        }
        let b = B::deserialize(src)?;
        if src.item()? {
            return Err(pair().into());
        }
        Ok((a, b))
    }
}

// A map is its `[key, value]` pairs in key order (keys need not be
// strings, so it cannot be a JSON object).
impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.begin_array(self.len());
        for (k, v) in self {
            sink.begin_array(2);
            k.serialize(sink);
            v.serialize(sink);
            sink.end_array();
        }
        sink.end_array();
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, S::Error> {
        Ok(Vec::<(K, V)>::deserialize(src)?.into_iter().collect())
    }
}

impl<T: Serialize, E: Serialize> Serialize for Result<T, E> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.begin_object(1);
        match self {
            Ok(t) => {
                sink.key("ok");
                t.serialize(sink);
            }
            Err(e) => {
                sink.key("err");
                e.serialize(sink);
            }
        }
        sink.end_object();
    }
}

impl<T: Deserialize, E: Deserialize> Deserialize for Result<T, E> {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, S::Error> {
        let one = || DeError::msg("expected a one-field `ok`/`err` object");
        if !matches!(src.atom()?, Atom::Object) {
            return Err(one().into());
        }
        let r = match src.key()?.as_deref() {
            Some("ok") => Ok(T::deserialize(src)?),
            Some("err") => Err(E::deserialize(src)?),
            Some(_) => return Err(DeError::msg("expected `ok` or `err`").into()),
            None => return Err(one().into()),
        };
        match src.key()? {
            None => Ok(r),
            Some(_) => Err(one().into()),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        match self {
            Some(t) => t.serialize(sink),
            None => sink.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, S::Error> {
        if src.null()? {
            Ok(None)
        } else {
            T::deserialize(src).map(Some)
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        (**self).serialize(sink);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, S::Error> {
        T::deserialize(src).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        (**self).serialize(sink);
    }
}
