//! A minimal JSON front-end for the vendored serde shim: renders and
//! parses the shim's [`Content`] tree. Supports exactly the API this
//! workspace uses: [`to_string`], [`to_string_pretty`], [`from_str`].

#![forbid(unsafe_code)]

use serde::{Content, Deserialize, Serialize};
use std::fmt;

/// Errors from JSON parsing or value rebuilding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Convenience alias mirroring upstream.
pub type Result<T> = std::result::Result<T, Error>;

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_content(c: &Content, out: &mut String, indent: Option<usize>, level: usize) {
    let (nl, pad, pad_in) = match indent {
        Some(w) => ("\n", " ".repeat(w * level), " ".repeat(w * (level + 1))),
        None => ("", String::new(), String::new()),
    };
    match c {
        Content::Null => out.push_str("null"),
        Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Content::Num(n) => out.push_str(n),
        Content::Str(s) => escape(s, out),
        Content::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                write_content(item, out, indent, level + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push(']');
        }
        Content::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                escape(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_content(v, out, indent, level + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push('}');
        }
    }
}

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_content(&value.to_content(), &mut out, None, 0);
    Ok(out)
}

/// Serializes a value to 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_content(&value.to_content(), &mut out, Some(2), 0);
    Ok(out)
}

/// How deeply arrays and objects may nest, as in real `serde_json`. The
/// parser recurses once per level, so without a bound a document of a
/// million `[` would overflow the stack and abort the process.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            src: s,
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .ok_or_else(|| Error("bad \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u code point".into()))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape. Both are
                    // ASCII, so the run ends on a char boundary of `src`.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
                None => return Err(Error("unterminated string".into())),
            }
        }
    }

    fn parse_number(&mut self) -> Result<String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(Error(format!("expected number at byte {start}")));
        }
        Ok(self.src[start..self.pos].to_string())
    }

    fn parse_array(&mut self) -> Result<Content> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                other => {
                    return Err(Error(format!("bad array token {other:?}")));
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Content> {
        self.pos += 1;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Content::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                other => {
                    return Err(Error(format!("bad object token {other:?}")));
                }
            }
        }
    }

    /// Runs `container` (an array or object parser) one nesting level
    /// deeper, failing instead past [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Content>) -> Result<Content> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let parsed = container(self);
        self.depth -= 1;
        parsed
    }

    fn parse_value(&mut self) -> Result<Content> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Content::Null),
            Some(b't') if self.eat_literal("true") => Ok(Content::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Content::Bool(false)),
            Some(b'"') => Ok(Content::Str(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            _ => Ok(Content::Num(self.parse_number()?)),
        }
    }
}

/// Parses a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut p = Parser::new(s);
    let content = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing input at byte {}", p.pos)));
    }
    T::from_content(&content).map_err(|e| Error(e.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(to_string(&"a\"b".to_string()).unwrap(), "\"a\\\"b\"");
        assert_eq!(from_str::<String>("\"a\\\"b\"").unwrap(), "a\"b");
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u32, 2, 3];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1,2,3]");
        assert_eq!(from_str::<Vec<u32>>(&json).unwrap(), v);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        assert_eq!(from_str::<Vec<u32>>(&pretty).unwrap(), v);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<u64>("42 x").is_err());
    }

    #[test]
    fn nesting_is_bounded_at_the_depth_limit() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Parser::new(&nest(MAX_DEPTH)).parse_value().is_ok());
        assert!(Parser::new(&nest(MAX_DEPTH + 1)).parse_value().is_err());
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Parser::new(&objects).parse_value().is_err());
        // Far past the limit: an error, not a stack overflow.
        assert!(from_str::<u64>(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn multibyte_text_and_escapes_round_trip() {
        // 2-, 3- and 4-byte UTF-8 next to every escape the writer emits.
        let text = "é\"ü\\€\n\t中\r\u{1}😀\u{1f}ß/𝄞 end".to_string();
        let json = to_string(&text).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), text);
        let escaped = "\"\\u00e9\\u20AC\\/\\b\\f\"";
        assert_eq!(from_str::<String>(escaped).unwrap(), "é€/\u{8}\u{c}");
    }

    #[test]
    fn rename_all_lowercase_renames_variants_both_ways() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        #[serde(rename_all = "lowercase")]
        enum Kind {
            Unit,
            NewType(u8),
            Pair(u8, u8),
            Named { field_a: u8 },
        }
        let cases = [
            (Kind::Unit, r#""unit""#),
            (Kind::NewType(1), r#"{"newtype":1}"#),
            (Kind::Pair(1, 2), r#"{"pair":[1,2]}"#),
            (Kind::Named { field_a: 3 }, r#"{"named":{"field_a":3}}"#),
        ];
        for (value, json) in cases {
            assert_eq!(to_string(&value).unwrap(), json);
            assert_eq!(from_str::<Kind>(json).unwrap(), value);
        }
        assert!(from_str::<Kind>(r#"{"NewType":1}"#).is_err());
    }

    #[test]
    fn unicode_escapes_need_four_hex_digits() {
        assert!(from_str::<String>("\"\\u+041\"").is_err());
        assert!(from_str::<String>("\"\\u04 1\"").is_err());
        assert!(from_str::<String>("\"\\u04\"").is_err());
        assert!(from_str::<String>("\"\\u00e").is_err());
        assert_eq!(from_str::<String>("\"\\u0041\"").unwrap(), "A");
    }
}
