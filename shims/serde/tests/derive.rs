//! The derive shapes the workspace relies on, checked through `Value`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize, Value};

fn obj(fields: &[(&str, Value)]) -> Value {
    Value::Object(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

fn roundtrip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(t: &T) -> Value {
    let v = t.to_value();
    assert_eq!(&T::from_value(&v).unwrap(), t);
    v
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    /// A documented struct variant.
    Rect {
        w: u32,
        #[serde(rename = "height")]
        h: u32,
    },
    Pair(u8, Option<String>),
    #[serde(rename = "dot")]
    Point,
    Bytes(#[serde(rename = "data")] Vec<u8>),
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Wrapper(pub Shape);

#[derive(Debug, PartialEq, Default, Serialize, Deserialize)]
enum Mode {
    #[default]
    Fast,
    #[serde(rename = "slow_path")]
    Slow,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Record {
    mode: Mode,
    #[serde(skip)]
    cache: u64,
    exit: Result<i32, Mode>,
    regs: [u64; 3],
    span: (u64, bool),
    names: BTreeMap<u32, String>,
    msg: &'static str,
}

#[test]
fn struct_tuple_and_unit_variants_share_one_enum() {
    assert_eq!(
        roundtrip(&Shape::Rect { w: 2, h: 3 }),
        obj(&[
            ("k", s("Rect")),
            ("w", Value::UInt(2)),
            ("height", Value::UInt(3))
        ])
    );
    assert_eq!(
        roundtrip(&Shape::Pair(7, None)),
        obj(&[("k", s("Pair")), ("0", Value::UInt(7)), ("1", Value::Null)])
    );
    assert_eq!(roundtrip(&Shape::Point), obj(&[("k", s("dot"))]));
    assert_eq!(
        roundtrip(&Shape::Bytes(vec![0xde, 0xad, 0x00])),
        obj(&[
            ("k", s("Bytes")),
            ("data", Value::Bytes(vec![0xde, 0xad, 0x00]))
        ])
    );
}

#[test]
fn newtype_is_transparent() {
    assert_eq!(roundtrip(&Wrapper(Shape::Point)), Shape::Point.to_value());
}

#[test]
fn unit_enum_is_a_string_and_honours_rename() {
    assert_eq!(roundtrip(&Mode::Fast), s("Fast"));
    assert_eq!(roundtrip(&Mode::Slow), s("slow_path"));
    assert!(Mode::from_value(&s("Slow")).is_err());
}

#[test]
fn unknown_or_missing_tag_is_an_error() {
    assert!(Shape::from_value(&obj(&[("k", s("Circle"))])).is_err());
    assert!(Shape::from_value(&obj(&[("w", Value::UInt(1))])).is_err());
    assert!(Shape::from_value(&s("dot")).is_err());
    // A known tag with a field missing.
    assert!(Shape::from_value(&obj(&[("k", s("Rect")), ("w", Value::UInt(1))])).is_err());
}

#[test]
fn blanket_impls_roundtrip() {
    let rec = Record {
        mode: Mode::Slow,
        cache: 0,
        exit: Err(Mode::Fast),
        regs: [1, 2, u64::MAX],
        span: (9, true),
        names: BTreeMap::from([(2, "b".to_string()), (1, "a".to_string())]),
        msg: "undefined syscall",
    };
    let v = roundtrip(&rec);
    assert_eq!(v.get("cache"), None, "skipped fields are not written");
    assert_eq!(v.get("exit"), Some(&obj(&[("err", s("Fast"))])));
    assert_eq!(
        v.get("names"),
        Some(&Value::Array(vec![
            Value::Array(vec![Value::UInt(1), s("a")]),
            Value::Array(vec![Value::UInt(2), s("b")]),
        ]))
    );
    assert!(<[u64; 3]>::from_value(&vec![1u64, 2].to_value()).is_err());
    assert!(<(u64, bool)>::from_value(&Value::Array(vec![Value::UInt(1)])).is_err());
    assert!(<Result<i32, Mode>>::from_value(&obj(&[("oops", Value::Null)])).is_err());
}

#[test]
fn bytes_are_bytes_or_lowercase_hex_only() {
    assert_eq!(vec![0u8, 0xff].to_value(), Value::Bytes(vec![0, 0xff]));
    assert_eq!([0xabu8; 2].to_value(), Value::Bytes(vec![0xab; 2]));
    // Parsed JSON carries bytes as hex.
    assert_eq!(Vec::<u8>::from_value(&s("00ff")).unwrap(), vec![0, 0xff]);
    assert_eq!(<[u8; 2]>::from_value(&s("abab")).unwrap(), [0xab; 2]);
    for bad in ["0", "0g", "0F", "é"] {
        assert!(Vec::<u8>::from_value(&s(bad)).is_err(), "{bad:?}");
    }
    assert!(Vec::<u8>::from_value(&Value::Array(vec![Value::UInt(1)])).is_err());
    // Other element types stay arrays.
    assert_eq!(vec![1u16].to_value(), Value::Array(vec![Value::UInt(1)]));
}

#[test]
fn static_strings_are_interned_once_and_bounded() {
    let a = <&'static str>::from_value(&s("some fault")).unwrap();
    let b = <&'static str>::from_value(&s("some fault")).unwrap();
    assert!(std::ptr::eq(a, b), "a repeated message is not leaked again");
    assert!(<&'static str>::from_value(&s(&"x".repeat(256))).is_ok());
    assert!(<&'static str>::from_value(&s(&"x".repeat(257))).is_err());
}
