//! Offline stub of `serde`.
//!
//! The real crates-io `serde` is unavailable in the offline build
//! environment, so this stand-in models just enough for the workspace:
//! a value-level JSON data model (re-exported by the stub `serde_json`)
//! and `Serialize` / `Deserialize` traits implemented for `Value` and the
//! scalar and container types. There are no derives.

use std::fmt;

/// Order-preserving string-keyed map, the stub's object representation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        Map { entries: Vec::new() }
    }

    /// Inserts a key, replacing (in place) any previous value for it.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Looks up a key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Removes a key, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// Whether the key is present.
    #[must_use]
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Iterates values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| v)
    }
}

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a String, &'a Value);
    type IntoIter = std::vec::IntoIter<(&'a String, &'a Value)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v)).collect::<Vec<_>>().into_iter()
    }
}

impl IntoIterator for Map {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut map = Map::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

/// JSON value tree — the single data model everything in the stub routes
/// through.
#[derive(Debug, Clone)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer.
    UInt(u64),
    /// Signed (negative) integer.
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object (insertion-ordered).
    Object(Map),
}

impl Value {
    /// The value as a u64, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(n) => Some(n),
            Value::Int(n) if n >= 0 => Some(n as u64),
            _ => None,
        }
    }

    /// The value as an i64, if it is an integer in range.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(n) => Some(n),
            Value::UInt(n) => i64::try_from(n).ok(),
            _ => None,
        }
    }

    /// The value as an f64, if numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::UInt(n) => Some(n as f64),
            Value::Int(n) => Some(n as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a bool, if boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a str, if a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if one.
    #[must_use]
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object, if one.
    #[must_use]
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Object-key or array-index lookup.
    #[must_use]
    pub fn get<I: ValueIndex>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }
}

/// Index argument for [`Value::get`]: a string key or array position.
pub trait ValueIndex {
    /// Resolves the index against a value.
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value>;
}

impl ValueIndex for str {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_object()?.get(self)
    }
}

impl ValueIndex for &str {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_object()?.get(self)
    }
}

impl ValueIndex for String {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_object()?.get(self.as_str())
    }
}

impl ValueIndex for usize {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_array()?.get(*self)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::String(a), Value::String(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => a == b,
            (Value::Object(a), Value::Object(b)) => a == b,
            // Numeric variants compare by value across representations.
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            },
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn fmt_float(f: f64, out: &mut String) {
    if f.is_finite() {
        if f.fract() == 0.0 && f.abs() < 1e15 {
            out.push_str(&format!("{f:.1}"));
        } else {
            out.push_str(&format!("{f}"));
        }
    } else {
        // JSON cannot represent non-finite numbers; match serde_json's
        // Value rendering of such floats as null.
        out.push_str("null");
    }
}

impl Value {
    fn render(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => out.push_str(&n.to_string()),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Float(f) => fmt_float(*f, out),
            Value::String(s) => escape_into(s, out),
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
                    if let Some(level) = indent {
                        out.push('\n');
                        out.push_str(&"  ".repeat(level + 1));
                        item.render(out, Some(level + 1));
                    } else {
                        item.render(out, None);
                    }
                }
                if let Some(level) = indent {
                    out.push('\n');
                    out.push_str(&"  ".repeat(level));
                }
                out.push(']');
            }
            Value::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(level) = indent {
                        out.push('\n');
                        out.push_str(&"  ".repeat(level + 1));
                        escape_into(k, out);
                        out.push_str(": ");
                        v.render(out, Some(level + 1));
                    } else {
                        escape_into(k, out);
                        out.push(':');
                        v.render(out, None);
                    }
                }
                if let Some(level) = indent {
                    out.push('\n');
                    out.push_str(&"  ".repeat(level));
                }
                out.push('}');
            }
        }
    }

    /// Compact JSON text.
    #[must_use]
    pub fn to_json_compact(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None);
        out
    }

    /// Pretty-printed JSON text (two-space indent).
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        out
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json_compact())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}
impl From<&String> for Value {
    fn from(s: &String) -> Self {
        Value::String(s.clone())
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<f32> for Value {
    fn from(f: f32) -> Self {
        Value::Float(f64::from(f))
    }
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Self { Value::UInt(n as u64) }
        }
    )*};
}
from_unsigned!(u8, u16, u32, u64, usize);

macro_rules! from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Self {
                if n >= 0 { Value::UInt(n as u64) } else { Value::Int(n as i64) }
            }
        }
    )*};
}
from_signed!(i8, i16, i32, i64, isize);

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>, const N: usize> From<[T; N]> for Value {
    fn from(items: [T; N]) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(items: &[T]) -> Self {
        Value::Array(items.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(opt: Option<T>) -> Self {
        opt.map_or(Value::Null, Into::into)
    }
}

impl From<Map> for Value {
    fn from(map: Map) -> Self {
        Value::Object(map)
    }
}

/// Serialization to the stub's [`Value`] data model.
pub trait Serialize {
    /// Converts self to the stub data model.
    fn to_stub_value(&self) -> Value;
}

/// Deserialization from the stub's [`Value`] data model.
pub trait Deserialize: Sized {
    /// Reconstructs self from the stub data model.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not match.
    fn from_stub_value(v: &Value) -> Result<Self, String>;
}

impl Serialize for Value {
    fn to_stub_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_stub_value(v: &Value) -> Result<Self, String> {
        Ok(v.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_stub_value(&self) -> Value {
        (**self).to_stub_value()
    }
}

macro_rules! serialize_via_from {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_stub_value(&self) -> Value { Value::from(self.clone()) }
        }
    )*};
}
serialize_via_from!(bool, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, String);

impl Serialize for str {
    fn to_stub_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_stub_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_stub_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_stub_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_stub_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_stub_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, Serialize::to_stub_value)
    }
}

macro_rules! deserialize_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_stub_value(v: &Value) -> Result<Self, String> {
                v.as_i64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| format!("expected integer, got {v}"))
            }
        }
    )*};
}
deserialize_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Deserialize for bool {
    fn from_stub_value(v: &Value) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| format!("expected bool, got {v}"))
    }
}

impl Deserialize for f64 {
    fn from_stub_value(v: &Value) -> Result<Self, String> {
        v.as_f64().ok_or_else(|| format!("expected number, got {v}"))
    }
}

impl Deserialize for String {
    fn from_stub_value(v: &Value) -> Result<Self, String> {
        v.as_str().map(str::to_string).ok_or_else(|| format!("expected string, got {v}"))
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_stub_value(v: &Value) -> Result<Self, String> {
        v.as_array()
            .ok_or_else(|| format!("expected array, got {v}"))?
            .iter()
            .map(T::from_stub_value)
            .collect()
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_stub_value(v: &Value) -> Result<Self, String> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_stub_value(v).map(Some)
        }
    }
}
