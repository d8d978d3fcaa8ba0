//! Offline stand-in for `serde`.
//!
//! The build environment vendors no external crates, so this crate provides
//! the slice of serde the workspace uses: `Serialize`/`Deserialize` traits
//! over a self-describing [`Value`] tree, derive macros (re-exported from
//! the in-tree `serde_derive`), and impls for the std types that appear in
//! workspace structs. `serde_json` and `toml` front-ends layer text formats
//! on top of the same [`Value`].
//!
//! Semantics follow real serde where the workspace can observe them:
//! newtype structs serialize transparently, enums are externally tagged,
//! missing `Option` fields deserialize to `None`.

#![forbid(unsafe_code)]

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing data tree: the interchange point between typed values
/// and text formats.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absence of a value (`null` in JSON; omitted in TOML).
    Null,
    /// A boolean.
    Bool(bool),
    /// Any integer (i128 covers the full u64 and i64 ranges).
    Int(i128),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// A sequence.
    Seq(Vec<Value>),
    /// A map with insertion order preserved (field order of structs).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Map accessor.
    pub fn as_map(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Sequence accessor.
    pub fn as_seq(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Looks up a key in a map value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map().and_then(|m| m.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// Short description of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }
}

/// (De)serialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// Creates an error from a message.
    pub fn new(msg: &str) -> Self {
        Error(msg.to_string())
    }

    /// "expected X, got <kind>" error.
    pub fn expected(what: &str, got: &Value) -> Self {
        Error(format!("expected {what}, got {}", got.kind()))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Converts a typed value into a [`Value`] tree.
pub trait Serialize {
    /// Self → tree.
    fn to_value(&self) -> Value;
}

/// Rebuilds a typed value from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Tree → Self.
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// Fallback when a struct field is absent. `None` means "required";
    /// `Option<T>` overrides this to tolerate missing fields.
    fn from_missing() -> Option<Self> {
        None
    }
}

/// Derive-macro helper: required-unless-optional field lookup.
pub fn __field<T: Deserialize>(map: &[(String, Value)], name: &str) -> Result<T, Error> {
    __field_or(map, name, T::from_missing())
}

/// Derive-macro helper: the named field, or `missing` when the key is
/// absent (`None`: the field is required).
pub fn __field_or<T: Deserialize>(
    map: &[(String, Value)],
    name: &str,
    missing: Option<T>,
) -> Result<T, Error> {
    match map.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_value(v).map_err(|e| Error(format!("field `{name}`: {e}"))),
        None => missing.ok_or_else(|| Error(format!("missing field `{name}`"))),
    }
}

// `Value` round-trips through itself, so generic front-ends
// (`serde_json::from_str::<Value>`) can parse arbitrary documents for
// schema-agnostic processing (e.g. the JSONL compare tool).
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| Error(format!("integer {i} out of range"))),
                    _ => Err(Error::expected("integer", v)),
                }
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Float(x) => Ok(*x as $t),
                    Value::Int(i) => Ok(*i as $t),
                    _ => Err(Error::expected("number", v)),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::expected("bool", v)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::expected("string", v)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for &'static str {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            // Deserializing into `&'static str` fields (tone-plan names)
            // leaks the string; fine for the rare, small uses here.
            Value::Str(s) => Ok(Box::leak(s.clone().into_boxed_str())),
            _ => Err(Error::expected("string", v)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(s) => s.iter().map(T::from_value).collect(),
            _ => Err(Error::expected("sequence", v)),
        }
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for std::collections::VecDeque<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(s) => s.iter().map(T::from_value).collect(),
            _ => Err(Error::expected("sequence", v)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn from_missing() -> Option<Self> {
        Some(None)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::from_value(v)?;
        let n = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| Error(format!("expected array of length {N}, got {n}")))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident : $idx:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let s = v.as_seq().ok_or_else(|| Error::expected("sequence", v))?;
                let expect = [$($idx),+].len();
                if s.len() != expect {
                    return Err(Error(format!("expected tuple of {expect}, got {}", s.len())));
                }
                Ok(($($t::from_value(&s[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}
