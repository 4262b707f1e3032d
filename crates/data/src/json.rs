//! A self-contained JSON subset parser.
//!
//! Supports objects, arrays, strings (with `\" \\ \n \t \/ \uXXXX` escapes)
//! and integers — exactly the paper's data-source grammar. Floats, `true`,
//! `false` and `null` are rejected: they are not part of the paper's input
//! language, and rejecting them keeps [`Value`] round-trips exact.

use std::error::Error;
use std::fmt;

use crate::value::Value;

/// Error produced when JSON parsing fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    position: usize,
}

impl JsonError {
    fn new(message: impl Into<String>, position: usize) -> JsonError {
        JsonError {
            message: message.into(),
            position,
        }
    }

    /// Byte offset in the input where parsing failed.
    pub fn position(&self) -> usize {
        self.position
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid json at byte {}: {}",
            self.position, self.message
        )
    }
}

impl Error for JsonError {}

/// The deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, so without a bound one hostile input (a
/// megabyte of `[`) overflows the stack and aborts the process; past the
/// cap parsing fails with a [`JsonError`] instead. A session record with
/// an engine digest nests 5 levels deep, so 128 leaves ample headroom.
pub const MAX_JSON_DEPTH: usize = 128;

/// Parses JSON text into a [`Value`].
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input, on JSON constructs outside
/// the paper's data-source grammar (floats, booleans, `null`), and on
/// nesting deeper than [`MAX_JSON_DEPTH`].
///
/// # Example
///
/// ```
/// # use webrobot_data::{parse_json, Value};
/// # fn main() -> Result<(), webrobot_data::JsonError> {
/// let v = parse_json(r#"{"n": 3, "xs": ["a", "b"]}"#)?;
/// assert_eq!(v.field("n").unwrap().as_int(), Some(3));
/// # Ok(())
/// # }
/// ```
pub fn parse_json(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(JsonError::new("trailing content", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        let t = self.rest().trim_start();
        self.pos = self.input.len() - t.len();
    }

    fn expect(&mut self, c: char) -> Result<(), JsonError> {
        if self.rest().starts_with(c) {
            self.pos += c.len_utf8();
            Ok(())
        } else {
            Err(JsonError::new(format!("expected '{c}'"), self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        match self.rest().chars().next() {
            Some('{') => self.nested(Self::parse_object),
            Some('[') => self.nested(Self::parse_array),
            Some('"') => Ok(Value::Str(self.parse_string()?)),
            Some(c) if c == '-' || c.is_ascii_digit() => self.parse_int(),
            Some(c) => Err(JsonError::new(
                format!("unexpected character '{c}' (floats/booleans/null are unsupported)"),
                self.pos,
            )),
            None => Err(JsonError::new("unexpected end of input", self.pos)),
        }
    }

    /// Runs `parse` one nesting level deeper, refusing to go past
    /// [`MAX_JSON_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(JsonError::new(
                format!("nesting deeper than {MAX_JSON_DEPTH} levels"),
                self.pos,
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_object(&mut self) -> Result<Value, JsonError> {
        self.expect('{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.rest().starts_with('}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            if self.rest().starts_with(',') {
                self.pos += 1;
            } else {
                self.expect('}')?;
                return Ok(Value::Object(pairs));
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.rest().starts_with(']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            if self.rest().starts_with(',') {
                self.pos += 1;
            } else {
                self.expect(']')?;
                return Ok(Value::Array(items));
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect('"')?;
        let mut out = String::new();
        let mut chars = self.rest().char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((j, 'u')) => {
                        let hex_start = self.pos + j + 1;
                        let hex = self
                            .input
                            .get(hex_start..hex_start + 4)
                            .ok_or_else(|| JsonError::new("truncated \\u escape", hex_start))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError::new("invalid \\u escape", hex_start))?;
                        let ch = char::from_u32(code)
                            .ok_or_else(|| JsonError::new("invalid code point", hex_start))?;
                        out.push(ch);
                        for _ in 0..4 {
                            chars.next();
                        }
                    }
                    _ => return Err(JsonError::new("invalid escape", self.pos + i)),
                },
                c => out.push(c),
            }
        }
        Err(JsonError::new("unterminated string", self.pos))
    }

    fn parse_int(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        let bytes = self.input.as_bytes();
        if bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .input
            .as_bytes()
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit())
        {
            self.pos += 1;
        }
        if self
            .input
            .as_bytes()
            .get(self.pos)
            .is_some_and(|&b| b == b'.' || b == b'e' || b == b'E')
        {
            return Err(JsonError::new("floats are unsupported", self.pos));
        }
        self.input[start..self.pos]
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| JsonError::new("invalid integer", start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structures() {
        let v = parse_json(r#"{"a": [1, "two", {"b": 3}], "c": {}}"#).unwrap();
        let a = v.field("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_int(), Some(1));
        assert_eq!(a[1].as_str(), Some("two"));
        assert_eq!(a[2].field("b").unwrap().as_int(), Some(3));
        assert_eq!(v.field("c"), Some(&Value::Object(vec![])));
    }

    #[test]
    fn parses_escapes() {
        let v = parse_json(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn parses_negative_integers() {
        assert_eq!(parse_json("-42").unwrap().as_int(), Some(-42));
    }

    #[test]
    fn rejects_unsupported_constructs() {
        assert!(parse_json("1.5").is_err());
        assert!(parse_json("true").is_err());
        assert!(parse_json("null").is_err());
        assert!(parse_json("{\"a\": 1,}").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("\"abc").is_err());
        assert!(parse_json("{} extra").is_err());
    }

    #[test]
    fn round_trips_through_to_json() {
        let inputs = [
            r#"{"zips":["48105","10001"],"n":7}"#,
            r#"[]"#,
            r#"{"nested":{"deep":[{"k":"v"}]}}"#,
            r#""plain string""#,
            r#"-3"#,
        ];
        for input in inputs {
            let v = parse_json(input).unwrap();
            assert_eq!(v.to_json(), *input);
            assert_eq!(parse_json(&v.to_json()).unwrap(), v);
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = parse_json(" { \"a\" :\n[ 1 ,\t2 ] } ").unwrap();
        assert_eq!(v.field("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn error_positions_point_into_input() {
        let err = parse_json("{\"a\": flse}").unwrap_err();
        assert_eq!(err.position(), 6);
    }

    /// `depth` levels of arrays and objects, alternating so both recursive
    /// paths are counted: `[{"k":[{"k":…0…}]}]`.
    fn nested_doc(depth: usize) -> String {
        let (mut open, mut close) = (String::new(), String::new());
        for level in 0..depth {
            if level % 2 == 0 {
                open.push('[');
                close.insert(0, ']');
            } else {
                open.push_str("{\"k\":");
                close.insert(0, '}');
            }
        }
        open + "0" + &close
    }

    #[test]
    fn nesting_at_the_cap_parses() {
        let v = parse_json(&nested_doc(MAX_JSON_DEPTH)).unwrap();
        assert_eq!(parse_json(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn nesting_past_the_cap_is_a_typed_error() {
        let err = parse_json(&nested_doc(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        // The error points at the first bracket past the cap.
        assert_eq!(&nested_doc(MAX_JSON_DEPTH + 1)[err.position()..][..1], "[");
        // A megabyte of `[` fails the same way instead of exhausting the
        // stack.
        let err = parse_json(&"[".repeat(1 << 20)).unwrap_err();
        assert_eq!(err.position(), MAX_JSON_DEPTH);
    }
}
