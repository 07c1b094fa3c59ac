//! Hand-rolled JSON support: escaping for the exporters, and a small
//! recursive-descent parser used to *validate* what they emit.
//!
//! The workspace is offline (no serde), so every exporter writes JSON by
//! hand; this module closes the loop by parsing it back. The parser
//! covers the full JSON grammar minus some float edge cases (good enough
//! to reject anything `chrome://tracing` would reject), and
//! [`validate_chrome_trace`] layers the trace-event rules on top:
//! a `traceEvents` array whose `"B"`/`"E"` events form balanced,
//! name-matched stacks per thread track. [`scan_object`] runs the same
//! parser over a flat object without building its tree, for readers
//! (the shard wire's per-rep frames) that must not allocate.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Escape `s` into `out` as JSON string *content* (no surrounding
/// quotes). Runs that need no escape are written whole, so a writer that
/// never allocates (a byte counter, a buffered socket) escapes without
/// allocating. A write error from `out` stops nothing here: a writer that
/// can fail records its own error.
pub fn json_escape_into<W: Write + ?Sized>(s: &str, out: &mut W) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `b` is ASCII, so `i` and `i + 1` are char boundaries.
        let _ = out.write_str(&s[run..i]);
        let _ = if escape.is_empty() {
            write!(out, "\\u{b:04x}")
        } else {
            out.write_str(escape)
        };
        run = i + 1;
    }
    let _ = out.write_str(&s[run..]);
}

/// Escape `s` as a complete JSON string, quotes included.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    json_escape_into(s, &mut out);
    out.push('"');
    out
}

/// Encode an `f64` as its exact IEEE-754 bit pattern in fixed-width
/// lowercase hex. JSON numbers round-trip through decimal text, which is
/// lossy in general; anything that must restore a float *bit-for-bit*
/// (statistics snapshots, checkpoint files, the shard wire protocol)
/// ships this string instead.
pub fn f64_bits_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Decode a string produced by [`f64_bits_hex`] back into the exact
/// `f64`. Rejects anything that is not 16 hex digits.
pub fn f64_from_bits_hex(s: &str) -> Result<f64, String> {
    if s.len() != 16 {
        return Err(format!("bad f64 bits {s:?}: want 16 hex digits"));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad f64 bits {s:?}"))
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; keys sorted, later duplicates win.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The object's field, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. What this workspace
/// writes nests a handful of levels; the cap keeps a hostile document (a
/// shard frame, a checkpoint file) from overflowing the parser's stack.
const MAX_DEPTH: usize = 128;

/// A JSON string as it stands in a document: the text between its
/// quotes, escapes and all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawStr<'a> {
    text: &'a str,
    escaped: bool,
}

impl<'a> RawStr<'a> {
    /// The string's value, borrowed from the document unless it holds
    /// an escape. A `\u` escape of a lone surrogate becomes U+FFFD.
    pub fn value(self) -> Cow<'a, str> {
        if self.escaped {
            Cow::Owned(unescape(self.text))
        } else {
            Cow::Borrowed(self.text)
        }
    }
}

/// Decode string content that [`Parser::raw_string`] accepted.
fn unescape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        let escape = &rest[at + 1..];
        let Some(&kind) = escape.as_bytes().first() else {
            rest = escape;
            break;
        };
        let (c, len) = match kind {
            b'b' => ('\u{8}', 1),
            b'f' => ('\u{c}', 1),
            b'n' => ('\n', 1),
            b'r' => ('\r', 1),
            b't' => ('\t', 1),
            b'u' => {
                let code = escape
                    .get(1..5)
                    .and_then(|h| u32::from_str_radix(h, 16).ok());
                // Surrogates are accepted as replacement chars; the
                // exporters never emit them.
                (code.and_then(char::from_u32).unwrap_or('\u{fffd}'), 5)
            }
            // `"`, `\` and `/` stand for themselves.
            other => (char::from(other), 1),
        };
        out.push(c);
        rest = escape.get(len..).unwrap_or_default();
    }
    out.push_str(rest);
    out
}

/// One member value as [`scan_object`] hands it over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scalar<'a> {
    /// A string, still escaped.
    Str(RawStr<'a>),
    /// `true` or `false`.
    Bool(bool),
    /// A number, `null`, array or object: checked, then dropped.
    Other,
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

/// Parse a complete JSON document. Errors carry the byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let v = p.value()?;
    p.end()?;
    Ok(v)
}

/// Check one JSON document exactly as [`parse`] does, but build no tree
/// for its top level: when it is an object, hand each member to `member`
/// in document order, strings and booleans borrowed as they stand (a
/// later duplicate key comes later, so a caller that keeps the last one
/// sees what `parse` keeps). A document that is not an object has no
/// members. Nothing is allocated unless a string holds an escape: other
/// values, nested arrays and objects included, are checked and skipped.
pub fn scan_object<'a>(
    text: &'a str,
    mut member: impl FnMut(RawStr<'a>, Scalar<'a>),
) -> Result<(), String> {
    let mut p = Parser::new(text);
    p.skip_ws();
    if p.peek() == Some(b'{') {
        p.nested(|p| p.members(Parser::scalar, &mut member))?;
    } else {
        p.value()?;
    }
    p.end()
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// Only whitespace may follow the document.
    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.pos))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal<T>(&mut self, word: &str, v: T) -> Result<T, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.raw_string()?.value().into_owned())),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// One value as a [`Scalar`]: strings and booleans as they stand,
    /// anything else checked and skipped.
    fn scalar(&mut self) -> Result<Scalar<'a>, String> {
        match self.peek() {
            Some(b'"') => self.raw_string().map(Scalar::Str),
            Some(b't') => self.literal("true", Scalar::Bool(true)),
            Some(b'f') => self.literal("false", Scalar::Bool(false)),
            _ => self.skip().map(|()| Scalar::Other),
        }
    }

    /// Check one value as [`Parser::value`] would, nesting cap included,
    /// without building it.
    fn skip(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.nested(|p| p.members(Self::skip, |_, ()| {})),
            Some(b'[') => self.nested(|p| p.elements(Self::skip, |()| {})),
            Some(b'"') => self.raw_string().map(drop),
            _ => self.value().map(drop),
        }
    }

    /// Parse one array or object, one level deeper than the caller.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        let mut map = BTreeMap::new();
        self.members(Self::value, |key, val| {
            map.insert(key.value().into_owned(), val);
        })?;
        Ok(Value::Object(map))
    }

    /// The object whose `{` is next: each member's value read by `value`
    /// and handed to `each` with its key, in document order.
    fn members<V>(
        &mut self,
        value: fn(&mut Self) -> Result<V, String>,
        mut each: impl FnMut(RawStr<'a>, V),
    ) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.raw_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            each(key, value(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        let mut items = Vec::new();
        self.elements(Self::value, |v| items.push(v))?;
        Ok(Value::Array(items))
    }

    /// The array whose `[` is next: each element read by `value` and
    /// handed to `each`, in order.
    fn elements<V>(
        &mut self,
        value: fn(&mut Self) -> Result<V, String>,
        mut each: impl FnMut(V),
    ) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            each(value(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    /// Check one string and return it undecoded; [`RawStr::value`]
    /// decodes it.
    fn raw_string(&mut self) -> Result<RawStr<'a>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut escaped = false;
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_owned());
            };
            self.pos += 1;
            match b {
                // Both quotes are ASCII, so the slice is on char boundaries.
                b'"' => {
                    return Ok(RawStr {
                        text: &self.text[start..self.pos - 1],
                        escaped,
                    })
                }
                b'\\' => {
                    escaped = true;
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".to_owned());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
                        b'u' => {
                            let hex = self
                                .text
                                .as_bytes()
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                                return Err(format!("bad \\u escape {hex:?}"));
                            }
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                b if b < 0x20 => return Err(format!("raw control byte {b:#x} in string")),
                _ => {}
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        // Every byte of the number is ASCII, so the slice is too.
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

/// Validate a Chrome `trace_event` JSON document: it must parse, carry a
/// non-empty object with a `traceEvents` array, and every `"B"` duration
/// event must be closed by a name-matched `"E"` on the same `pid`/`tid`
/// track in stack (LIFO) order. Returns the number of trace events.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing traceEvents array")?;
    let mut stacks: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or(format!("event {i}: missing ph"))?;
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .ok_or(format!("event {i}: missing name"))?;
        let track = (
            format!("{:?}", e.get("pid")),
            format!("{:?}", e.get("tid")),
        );
        match ph {
            "B" => stacks.entry(track).or_default().push(name.to_owned()),
            "E" => {
                let top = stacks.entry(track).or_default().pop();
                match top {
                    Some(open) if open == name => {}
                    Some(open) => {
                        return Err(format!(
                            "event {i}: E {name:?} closes B {open:?} (mismatched nesting)"
                        ))
                    }
                    None => return Err(format!("event {i}: E {name:?} without open B")),
                }
            }
            // Metadata, counters, instants are fine as-is.
            _ => {}
        }
    }
    for ((pid, tid), stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!(
                "track pid={pid} tid={tid}: {} span(s) left open: {:?}",
                stack.len(),
                stack
            ));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_object_sees_what_parse_sees() {
        let doc = r#" {"a":"x\u0041\ud800","b":true,"a":"plain","n":[1,{"k":null}],"c":-2e3} "#;
        let mut members = Vec::new();
        scan_object(doc, |k, v| members.push((k.value().into_owned(), v))).unwrap();
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "b", "a", "n", "c"], "every member, in order");
        let Scalar::Str(first) = members[0].1 else {
            panic!("{:?}", members[0]);
        };
        assert_eq!(first.value(), "xA\u{fffd}");
        assert!(matches!(first.value(), Cow::Owned(_)), "escapes decode");
        assert!(matches!(members[2].1, Scalar::Str(s) if matches!(s.value(), Cow::Borrowed("plain"))));
        assert_eq!(members[1].1, Scalar::Bool(true));
        assert_eq!((members[3].1, members[4].1), (Scalar::Other, Scalar::Other));
        // The tree keeps the later duplicate, as a caller keeping the
        // last member does.
        assert_eq!(parse(doc).unwrap().get("a").and_then(Value::as_str), Some("plain"));
        // Not an object: checked, no members. Broken: refused as parse
        // refuses it, nesting cap included.
        let deep = format!("{{\"a\":{}{}}}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        for doc in ["[1, 2]", "\"s\"", "{\"a\":1,}", "{\"a\" 1}", "{\"a\":\"\\x\"}", &deep] {
            let mut seen = 0;
            let scanned = scan_object(doc, |_, _| seen += 1);
            assert_eq!(scanned.is_ok(), parse(doc).is_ok(), "{doc}");
            if doc.starts_with('[') || doc.starts_with('"') {
                assert_eq!((scanned, seen), (Ok(()), 0), "{doc}");
            }
        }
        assert!(scan_object(&deep, |_, _| {}).unwrap_err().contains("nesting"));
    }

    #[test]
    fn f64_bits_round_trip_exactly() {
        for x in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, 1e300, -3.7e-12, f64::NAN] {
            let hex = f64_bits_hex(x);
            assert_eq!(hex.len(), 16);
            let back = f64_from_bits_hex(&hex).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        assert!(f64_from_bits_hex("nonsense").is_err());
        assert!(f64_from_bits_hex("3ff").is_err());
        assert!(f64_from_bits_hex("zzzzzzzzzzzzzzzz").is_err());
    }

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5, "x\n", true, null], "b": {"c": 3e2}}"#).unwrap();
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_f64(), Some(300.0));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[2].as_str(), Some("x\n"));
        assert_eq!(arr[4], Value::Null);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("{\"a\": nul}").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let one_more = format!("[{ok}]");
        let err = parse(&one_more).unwrap_err();
        assert!(err.contains("nesting") && err.contains("byte 128"), "{err}");
        for bomb in ["[".repeat(1_000_000), "{\"a\":".repeat(1_000_000)] {
            assert!(parse(&bomb).unwrap_err().contains("nesting"));
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041""#), Ok(Value::String("A".into())));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004""#] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote\" slash\\ newline\n tab\t unicode\u{1} ok";
        let doc = format!("{{\"k\": {}}}", json_string(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn chrome_validator_accepts_balanced_and_rejects_unbalanced() {
        let good = r#"{"traceEvents": [
            {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "B", "ts": 1, "pid": 1, "tid": 1},
            {"name": "b", "ph": "E", "ts": 2, "pid": 1, "tid": 1},
            {"name": "a", "ph": "E", "ts": 3, "pid": 1, "tid": 1}
        ]}"#;
        assert_eq!(validate_chrome_trace(good), Ok(4));
        let dangling = r#"{"traceEvents": [
            {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 1}
        ]}"#;
        assert!(validate_chrome_trace(dangling).unwrap_err().contains("left open"));
        let crossed = r#"{"traceEvents": [
            {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "E", "ts": 1, "pid": 1, "tid": 1}
        ]}"#;
        assert!(validate_chrome_trace(crossed).unwrap_err().contains("mismatched"));
        let stray = r#"{"traceEvents": [
            {"name": "a", "ph": "E", "ts": 0, "pid": 1, "tid": 1}
        ]}"#;
        assert!(validate_chrome_trace(stray).unwrap_err().contains("without open"));
    }

    #[test]
    fn chrome_validator_tracks_are_independent() {
        let two_tracks = r#"{"traceEvents": [
            {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
            {"name": "w", "ph": "B", "ts": 0, "pid": 1, "tid": 2},
            {"name": "w", "ph": "E", "ts": 5, "pid": 1, "tid": 2},
            {"name": "a", "ph": "E", "ts": 9, "pid": 1, "tid": 1}
        ]}"#;
        assert_eq!(validate_chrome_trace(two_tracks), Ok(4));
    }
}
