//! Offline stub of `serde_json`.
//!
//! Re-exports the stub `serde` value model and implements text
//! serialization, a recursive-descent JSON parser, and a `json!` macro.

use std::fmt;

pub use serde::{Map, Value};

/// Error produced by this stub's parsing or serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

/// Result alias matching the real crate's signature shape.
pub type Result<T> = std::result::Result<T, Error>;

/// Deepest array/object nesting the parser accepts, as in crates-io
/// `serde_json`: deeper input is an error, not a stack overflow.
const MAX_DEPTH: usize = 128;

/// Serializes any [`serde::Serialize`] value to compact JSON text.
///
/// # Errors
///
/// Never fails in the stub; the `Result` mirrors the real API.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(value.to_stub_value().to_json_compact())
}

/// Serializes any [`serde::Serialize`] value to pretty-printed JSON text.
///
/// # Errors
///
/// Never fails in the stub; the `Result` mirrors the real API.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(value.to_stub_value().to_json_pretty())
}

/// Parses JSON text into any [`serde::Deserialize`] type.
///
/// # Errors
///
/// Fails on malformed JSON or on a value the target type cannot hold.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    let value = Parser { bytes: s.as_bytes(), pos: 0, depth: 0 }.parse_document()?;
    T::from_stub_value(&value).map_err(Error::new)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn parse_document(mut self) -> Result<Value> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(Error::new(format!("trailing characters at byte {}", self.pos)));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| Error::new("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        let got = self.peek()?;
        if got == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected '{}' at byte {}, got '{}'",
                b as char, self.pos, got as char
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(Error::new(format!("recursion limit exceeded at byte {}", self.pos)));
                }
                self.depth += 1;
                let value = if open == b'{' { self.parse_object() } else { self.parse_array() };
                self.depth -= 1;
                value
            }
            b'"' => Ok(Value::String(self.parse_string()?)),
            b't' | b'f' | b'n' => {
                if self.eat_keyword("true") {
                    Ok(Value::Bool(true))
                } else if self.eat_keyword("false") {
                    Ok(Value::Bool(false))
                } else if self.eat_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::new(format!("invalid literal at byte {}", self.pos)))
                }
            }
            _ => self.parse_number(),
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut map = Map::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                c => {
                    return Err(Error::new(format!(
                        "expected ',' or '}}' at byte {}, got '{}'",
                        self.pos, c as char
                    )))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                c => {
                    return Err(Error::new(format!(
                        "expected ',' or ']' at byte {}, got '{}'",
                        self.pos, c as char
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::new("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("non-ascii \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u code point"))?,
                            );
                        }
                        c => {
                            return Err(Error::new(format!("unknown escape '\\{}'", c as char)))
                        }
                    }
                }
                _ => {
                    // Collect the longest run of plain bytes as UTF-8.
                    let start = self.pos - 1;
                    while let Some(&nb) = self.bytes.get(self.pos) {
                        if nb == b'"' || nb == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| Error::new("invalid utf-8 in string"))?,
                    );
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if text.is_empty() {
            return Err(Error::new(format!("expected a value at byte {start}")));
        }
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("invalid number '{text}'")))
    }
}

/// Builds a [`Value`] from JSON-like syntax. Object and array literals
/// nest; values are arbitrary expressions converted via `Value::from`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::Value::from($elem) ),* ])
    };
    ({ $($key:tt : $val:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $( map.insert($key.to_string(), $crate::Value::from($val)); )*
        $crate::Value::Object(map)
    }};
    ($other:expr) => { $crate::Value::from($other) };
}
