//! Hand-rolled JSON support: escaping for the exporters, and a small
//! recursive-descent parser used to *validate* what they emit.
//!
//! The workspace is offline (no serde), so every exporter writes JSON by
//! hand; this module closes the loop by parsing it back. The parser
//! covers the full JSON grammar minus some float edge cases (good enough
//! to reject anything `chrome://tracing` would reject), and
//! [`validate_chrome_trace`] layers the trace-event rules on top:
//! a `traceEvents` array whose `"B"`/`"E"` events form balanced,
//! name-matched stacks per thread track.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape `s` into `out` as JSON string *content* (no surrounding
/// quotes).
pub fn json_escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Parse a complete JSON document. Errors carry the byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
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
            Some(b'"') => Ok(Value::String(self.string()?)),
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

    /// Parse one array or object, one level deeper than the caller.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
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
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
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
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
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

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_owned());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".to_owned());
                    };
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
                                .ok_or("truncated \\u escape")?;
                            // `from_str_radix` alone would accept a sign.
                            let code = u32::from_str_radix(hex, 16)
                                .ok()
                                .filter(|_| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                                .ok_or_else(|| format!("bad \\u escape {hex:?}"))?;
                            self.pos += 4;
                            // Surrogates are accepted as replacement chars;
                            // the exporters never emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                b if b < 0x20 => return Err(format!("raw control byte {b:#x} in string")),
                _ => {
                    // Re-sync to char boundaries for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string".to_owned())?;
                    out.push_str(s);
                    self.pos = end;
                }
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_owned())?;
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
