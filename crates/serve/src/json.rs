//! Minimal JSON value model: a recursive-descent parser for request
//! bodies and client-config files, plus a writer for response scaffolding.
//!
//! The workspace is vendored/offline, so this stands in for serde_json.
//! Scope is deliberately small — exactly RFC 8259 minus one liberty taken
//! on output: response *floats* are produced by
//! [`swact::wire`], which guarantees shortest-round-trip
//! formatting; this module only needs to parse what clients send and
//! re-emit small control structures (error bodies, config echoes).
//!
//! Object key order is preserved (`Vec<(String, Value)>`, not a map), so
//! parse → write round-trips byte-identically for non-escaped input —
//! see the round-trip tests.

use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, like JavaScript).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object in source key order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects (first match); `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly (no fractional part, no overflow).
    pub fn as_usize(&self) -> Option<usize> {
        let x = self.as_f64()?;
        if x.fract() == 0.0 && (0.0..=(u64::MAX as f64)).contains(&x) {
            Some(x as usize)
        } else {
            None
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(elems) => Some(elems),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    /// Compact (no-whitespace) JSON; floats via shortest-round-trip
    /// formatting, matching `swact::wire::number`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(x) => f.write_str(&swact::wire::number(*x)),
            Value::String(s) => write!(f, "\"{}\"", swact::wire::escape(s)),
            Value::Array(elems) => {
                f.write_str("[")?;
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str("]")
            }
            Value::Object(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "\"{}\":{v}", swact::wire::escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Why a document failed to parse, with a byte offset for context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (one value plus trailing whitespace).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(value)
}

/// Nesting depth limit: request bodies are flat (depth ≤ 4), so a deeply
/// nested document is hostile input, not a real client.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{text}`")))
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        // Only ASCII was consumed, so both ends are char boundaries.
        let text = &self.text[start..self.pos];
        let x: f64 = text
            .parse()
            .map_err(|_| self.err(format!("bad number `{text}`")))?;
        Ok(Value::Number(x))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are rejected rather than
                            // combined; no client of this API emits them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("surrogate \\u escape"))?;
                            out.push(c);
                        }
                        other => {
                            return Err(self.err(format!("bad escape `\\{}`", other as char)));
                        }
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("control byte in string")),
                Some(_) => {
                    // Copy the whole run of plain bytes at once, so a
                    // string decodes in linear time. The run ends at `"`,
                    // `\` or a control byte: all ASCII, hence always a
                    // char boundary of the `&str` input.
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
                    {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut elems = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(elems));
        }
        loop {
            self.skip_ws();
            elems.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(elems));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-1.5e3").unwrap(), Value::Number(-1500.0));
        assert_eq!(
            parse("\"a\\nb\\u0041\"").unwrap(),
            Value::String("a\nbA".into())
        );
    }

    #[test]
    fn structures_parse_and_lookup() {
        let v = parse(r#"{"circuit":"c17","p1":[0.1,0.2],"n":3}"#).unwrap();
        assert_eq!(v.get("circuit").and_then(Value::as_str), Some("c17"));
        assert_eq!(v.get("n").and_then(Value::as_usize), Some(3));
        let p1: Vec<f64> = v
            .get("p1")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap())
            .collect();
        assert_eq!(p1, vec![0.1, 0.2]);
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn compact_documents_round_trip_byte_identically() {
        for doc in [
            "null",
            "true",
            "[1.5,2.25,[]]",
            r#"{"a":1.5,"b":{"c":[true,null]},"d":"x"}"#,
            r#"{"z":1.0,"a":2.0}"#, // key order preserved, not sorted
        ] {
            let v = parse(doc).unwrap();
            assert_eq!(v.to_string(), doc);
            // And the writer's output re-parses to the same value.
            assert_eq!(parse(&v.to_string()).unwrap(), v);
        }
    }

    #[test]
    fn floats_survive_the_round_trip_bit_exactly() {
        let v = Value::Array(vec![
            Value::Number(1.0 / 3.0),
            Value::Number(f64::MIN_POSITIVE),
            Value::Number(0.1 + 0.2),
        ]);
        let reparsed = parse(&v.to_string()).unwrap();
        let (a, b) = (v.as_array().unwrap(), reparsed.as_array().unwrap());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.as_f64().unwrap().to_bits(), y.as_f64().unwrap().to_bits());
        }
    }

    #[test]
    fn malformed_documents_are_rejected_with_offsets() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "nan",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
        let err = parse("[1, oops]").unwrap_err();
        assert_eq!(err.offset, 4);
    }

    #[test]
    fn hostile_nesting_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"));
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn a_body_sized_string_decodes_in_linear_time() {
        // Plain runs, multi-byte scalars and escapes, filling a whole
        // `MAX_BODY_BYTES` document.
        let unit = "plain text, é 中 🦀 \\n \\u0041 ";
        let decoded_unit = "plain text, é 中 🦀 \n A ";
        let copies = (crate::http::MAX_BODY_BYTES - 2) / unit.len();
        let doc = format!("\"{}\"", unit.repeat(copies));
        assert!(doc.len() <= crate::http::MAX_BODY_BYTES);
        assert!(doc.len() + unit.len() > crate::http::MAX_BODY_BYTES);

        let started = std::time::Instant::now();
        let value = parse(&doc).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(value.as_str().unwrap().len(), decoded_unit.len() * copies);
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "{} byte string took {elapsed:?}",
            doc.len()
        );
    }

    use proptest::prelude::*;

    /// Characters that stress the string and structure paths: JSON
    /// syntax, escape letters, control bytes, and multi-byte scalars.
    fn text_char() -> impl Strategy<Value = char> {
        let pool: Vec<char> =
            "{}[]:,\"\\/ -+.0123456789eEtrufalsn bfu\u{0}\u{8}\t\n\r\u{1f}\u{7f}é中\u{2028}🦀"
                .chars()
                .collect();
        prop_oneof![
            proptest::sample::select(pool),
            (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
        ]
    }

    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec(text_char(), 0..24).prop_map(|cs| cs.into_iter().collect())
    }

    /// Value trees of depth ≤ 8 over every scalar kind; numbers are any
    /// finite `f64` bit pattern.
    fn value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<u64>().prop_map(|bits| {
                let x = f64::from_bits(bits);
                Value::Number(if x.is_finite() { x } else { f64::MAX })
            }),
            text().prop_map(Value::String),
        ];
        leaf.prop_recursive(8, 64, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
                proptest::collection::vec((text(), inner), 0..4).prop_map(Value::Object),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_text_parses_or_errors_without_panicking(s in text()) {
            let _ = parse(&s);
        }

        #[test]
        fn truncated_and_spliced_documents_never_panic(
            v in value(),
            cut in any::<usize>(),
            noise in text(),
        ) {
            let doc = v.to_string();
            let mut end = cut % (doc.len() + 1);
            while !doc.is_char_boundary(end) {
                end -= 1;
            }
            let _ = parse(&doc[..end]);
            let _ = parse(&format!("{}{noise}", &doc[..end]));
        }

        #[test]
        fn generated_values_round_trip(v in value()) {
            prop_assert_eq!(parse(&v.to_string()), Ok(v));
        }
    }
}
