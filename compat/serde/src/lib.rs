//! Offline stand-in for the `serde` crate.
//!
//! Real serde abstracts over data formats with a visitor architecture; this
//! stand-in materialises an owned [`Value`] tree instead, which is all the
//! workspace needs (its only format is JSON, provided by the sibling
//! `serde_json` stand-in). The derive macros re-exported here generate
//! impls of the two traits below and follow upstream serde's data model:
//! named structs become objects, newtype structs are transparent, and enums
//! are externally tagged.

#![deny(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

/// A dynamically-typed serialization tree (the JSON data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Ordered sequence.
    Array(Vec<Value>),
    /// Ordered key → value map (insertion order preserved).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(xs) => Some(xs),
            _ => None,
        }
    }

    /// Numeric view of any number variant.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(n) => Some(n as f64),
            Value::I64(n) => Some(n as f64),
            Value::F64(n) => Some(n),
            _ => None,
        }
    }

    /// Unsigned view of an integer variant.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(n) => Some(n),
            Value::I64(n) if n >= 0 => Some(n as u64),
            Value::F64(n) if n >= 0.0 && n.fract() == 0.0 => Some(n as u64),
            _ => None,
        }
    }

    /// Signed view of an integer variant.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::U64(n) => i64::try_from(n).ok(),
            Value::I64(n) => Some(n),
            Value::F64(n) if n.fract() == 0.0 => Some(n as i64),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool view.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }
}

/// Deserialization failure: what was expected, and where.
#[derive(Debug, Clone)]
pub struct DeError(String);

impl DeError {
    /// Creates an error with the given message.
    pub fn msg(message: impl Into<String>) -> Self {
        DeError(message.into())
    }

    /// Creates an "expected X while decoding Y" error.
    pub fn expected(what: &str, context: &str) -> Self {
        DeError(format!("expected {what} while decoding {context}"))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Looks up a required field of an object (derive-macro helper).
///
/// # Errors
///
/// Returns [`DeError`] when the field is absent.
pub fn get_field<'a>(obj: &'a [(String, Value)], name: &str) -> Result<&'a Value, DeError> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| DeError(format!("missing field `{name}`")))
}

/// Looks up an optional field of an object (derive-macro helper for
/// `#[serde(default)]`): `None` means the field is absent and the derive
/// substitutes `Default::default()`.
pub fn get_field_opt<'a>(obj: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Types that can render themselves into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn serialize_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a [`Value`].
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] when the value does not match the expected shape.
    fn deserialize_value(v: &Value) -> Result<Self, DeError>;
}

/// A tree is its own serialization, as `serde_json::Value` is upstream.
impl Serialize for Value {
    fn serialize_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl Serialize for bool {
    fn serialize_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        v.as_bool().ok_or_else(|| DeError::expected("bool", "bool"))
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<Self, DeError> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| DeError::expected("unsigned integer", stringify!($t)))?;
                <$t>::try_from(n).map_err(|_| DeError::expected("in-range integer", stringify!($t)))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 {
                    Value::U64(n as u64)
                } else {
                    Value::I64(n)
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<Self, DeError> {
                let n = v
                    .as_i64()
                    .ok_or_else(|| DeError::expected("integer", stringify!($t)))?;
                <$t>::try_from(n).map_err(|_| DeError::expected("in-range integer", stringify!($t)))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::F64(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<Self, DeError> {
                v.as_f64()
                    .map(|n| n as $t)
                    .ok_or_else(|| DeError::expected("number", stringify!($t)))
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for String {
    fn serialize_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn serialize_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Deserialize for String {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| DeError::expected("string", "String"))
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::expected("array", "Vec"))?
            .iter()
            .map(T::deserialize_value)
            .collect()
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.serialize_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize_value(v: &Value) -> Result<Self, DeError> {
                let xs = v.as_array().ok_or_else(|| DeError::expected("array", "tuple"))?;
                let mut it = xs.iter();
                let tuple = ($(
                    $name::deserialize_value(
                        it.next().ok_or_else(|| DeError::expected("tuple element", "tuple"))?,
                    )?,
                )+);
                if it.next().is_some() {
                    return Err(DeError::msg("too many tuple elements"));
                }
                Ok(tuple)
            }
        }
    )*};
}

impl_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_value(&self) -> Value {
        match self {
            Some(x) => x.serialize_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize_value(other).map(Some),
        }
    }
}
