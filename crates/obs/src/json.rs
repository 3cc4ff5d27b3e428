//! Minimal hand-rolled JSON writer and reader.
//!
//! The sandbox has no crates.io access, so run reports are serialized with
//! this small helper instead of serde. The writer half emits reports; the
//! [`parse`] half reads them back for the trace-diff tooling and the
//! `bench_obs --check` regression gate.

/// Append `s` to `out` as a JSON string literal, escaping per RFC 8259.
pub fn push_str(out: &mut String, s: &str) {
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

/// Append the decimal digits of `value` to `out`, as `value.to_string()`
/// would, without allocating.
fn push_u64(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    // ASCII digits are valid UTF-8
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Incremental writer for one JSON object: handles comma placement and key
/// escaping, so call sites read as a flat list of `field` calls.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Open an object (`{`) on `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, first: true }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        push_str(self.out, key);
        self.out.push(':');
    }

    /// `"key": 123`
    pub fn field_u64(&mut self, key: &str, value: u64) {
        self.key(key);
        push_u64(self.out, value);
    }

    /// `"key": 1.25` (written with enough precision to round-trip).
    pub fn field_f64(&mut self, key: &str, value: f64) {
        self.key(key);
        if value.is_finite() {
            self.out.push_str(&format!("{value:?}"));
        } else {
            self.out.push_str("null");
        }
    }

    /// `"key": true`
    pub fn field_bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// `"key": "escaped value"`
    pub fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        push_str(self.out, value);
    }

    /// `"key": <value>` where `value` is already-serialized JSON.
    pub fn field_raw(&mut self, key: &str, value: &str) {
        self.key(key);
        self.out.push_str(value);
    }

    /// `"key": [1, 2, 3]`
    pub fn field_u64_array(&mut self, key: &str, values: impl IntoIterator<Item = u64>) {
        self.key(key);
        self.out.push('[');
        for (i, v) in values.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            push_u64(self.out, v);
        }
        self.out.push(']');
    }

    /// `"key": [{…}, {…}]`: one object per item, each written by `build`
    /// straight into this writer's output.
    pub fn field_objects<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut build: impl FnMut(&mut ObjectWriter, T),
    ) {
        self.key(key);
        self.out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            let mut w = ObjectWriter::new(self.out);
            build(&mut w, item);
            w.finish();
        }
        self.out.push(']');
    }

    /// Close the object (`}`).
    pub fn finish(self) {
        self.out.push('}');
    }
}

/// Serialize a whole object in one expression.
pub fn object(build: impl FnOnce(&mut ObjectWriter)) -> String {
    let mut out = String::new();
    let mut w = ObjectWriter::new(&mut out);
    build(&mut w);
    w.finish();
    out
}

/// Serialize a JSON array from already-serialized element strings.
pub fn array(elems: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, e) in elems.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&e);
    }
    out.push(']');
    out
}

/// A parsed JSON document.
///
/// Objects keep their key order (a `Vec` of pairs, not a map) so diff
/// tooling can report fields in the order the producer wrote them; numbers
/// are kept as `f64`, which is exact for the `u64` counters the workspace
/// emits up to 2^53 — far beyond any step count a bounded run produces.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key (`None` for missing keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The fields in source order, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Parse failure: byte offset into the input plus a short message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// What was expected or found.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut elems = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(elems));
        }
        loop {
            self.skip_ws();
            elems.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(elems));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .ok()
            .and_then(|s| u16::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(digits)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy the longest plain run in one slice to keep the common
            // case (no escapes) cheap.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let cp = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("unpaired high surrogate"));
                                    }
                                    0x10000 + ((hi as u32 - 0xd800) << 10) + (lo as u32 - 0xdc00)
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else if (0xdc00..0xe000).contains(&hi) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                hi as u32
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_are_written_as_to_string_writes_them() {
        use qa_base::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(7);
        let edges = [0, 9, 10, 99, 100, u64::MAX];
        // every digit count: random words shifted right by 0..64 bits
        let sample: Vec<u64> = (0..1000).map(|i| rng.next_u64() >> (i % 64)).collect();
        for v in edges.into_iter().chain(sample.iter().copied()) {
            let mut out = String::from("x");
            push_u64(&mut out, v);
            assert_eq!(out, format!("x{v}"));
            assert_eq!(object(|w| w.field_u64("k", v)), format!("{{\"k\":{v}}}"));
        }
        let want = format!(
            "{{\"ids\":[{}]}}",
            sample
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        );
        assert_eq!(
            object(|w| w.field_u64_array("ids", sample.iter().copied())),
            want
        );
        assert_eq!(object(|w| w.field_u64_array("ids", [])), r#"{"ids":[]}"#);
    }

    #[test]
    fn escapes_control_and_quote_chars() {
        let mut out = String::new();
        push_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn escapes_every_c0_control_char() {
        for cp in 0u32..0x20 {
            let c = char::from_u32(cp).unwrap();
            let mut out = String::new();
            push_str(&mut out, &c.to_string());
            assert!(
                !out[1..out.len() - 1].contains(c) || matches!(c, '\n' | '\r' | '\t'),
                "U+{cp:04X} must not appear raw"
            );
            // Whatever form was chosen, the writer's output must parse back
            // to the original character.
            assert_eq!(parse(&out).unwrap(), Value::Str(c.to_string()));
        }
    }

    #[test]
    fn delete_char_passes_through_unescaped() {
        // RFC 8259 only requires escaping below U+0020; U+007F may appear raw.
        let mut out = String::new();
        push_str(&mut out, "a\u{7f}b");
        assert_eq!(out, "\"a\u{7f}b\"");
        assert_eq!(parse(&out).unwrap(), Value::Str("a\u{7f}b".into()));
    }

    #[test]
    fn non_bmp_chars_pass_through_as_utf8() {
        // U+1D11E (𝄞) and an emoji stay raw UTF-8 — no surrogate escapes.
        let s = "clef \u{1d11e} ok \u{1f600}";
        let mut out = String::new();
        push_str(&mut out, s);
        assert_eq!(out, format!("\"{s}\""));
        assert_eq!(parse(&out).unwrap(), Value::Str(s.into()));
        // But the parser also accepts the surrogate-pair spelling.
        assert_eq!(
            parse("\"\\ud834\\udd1e\"").unwrap(),
            Value::Str("\u{1d11e}".into())
        );
    }

    #[test]
    fn parser_rejects_malformed_strings() {
        assert!(parse("\"\u{1}\"").is_err(), "raw control char");
        assert!(parse(r#""\ud834""#).is_err(), "unpaired high surrogate");
        assert!(parse(r#""\udd1e""#).is_err(), "unpaired low surrogate");
        assert!(parse(r#""\x""#).is_err(), "unknown escape");
        assert!(parse("\"abc").is_err(), "unterminated");
    }

    #[test]
    fn parses_scalars_and_structure() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-12.5e1").unwrap(), Value::Num(-125.0));
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Obj(vec![]));
        let v = parse(r#"{"a":[1,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        let arr = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
        assert!(parse("[1,2] x").is_err(), "trailing garbage");
        assert!(parse("[1,]").is_err(), "trailing comma");
    }

    #[test]
    fn writer_output_parses_back() {
        let written = object(|w| {
            w.field_u64("count", 42);
            w.field_f64("mean", 2.5);
            w.field_bool("truncated", false);
            w.field_str("name", "run \"x\"\n");
            w.field_u64_array("buckets", [0, 1, 2]);
        });
        let v = parse(&written).unwrap();
        assert_eq!(v.get("count").and_then(Value::as_u64), Some(42));
        assert_eq!(v.get("mean").and_then(Value::as_f64), Some(2.5));
        assert_eq!(v.get("truncated"), Some(&Value::Bool(false)));
        assert_eq!(v.get("name").and_then(Value::as_str), Some("run \"x\"\n"));
        assert_eq!(
            v.get("buckets").and_then(Value::as_arr).map(|a| a.len()),
            Some(3)
        );
        // Key order is preserved for diff-friendly reporting.
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["count", "mean", "truncated", "name", "buckets"]);
    }

    #[test]
    fn object_writer_places_commas() {
        let s = object(|w| {
            w.field_u64("a", 1);
            w.field_str("b", "x");
            w.field_bool("c", false);
            w.field_u64_array("d", [1, 2]);
        });
        assert_eq!(s, r#"{"a":1,"b":"x","c":false,"d":[1,2]}"#);
    }

    #[test]
    fn objects_written_in_place_match_an_array_of_objects() {
        let items = [(1, "x"), (22, "y\"")];
        let build = |w: &mut ObjectWriter, (n, s): (u64, &str)| {
            w.field_u64("n", n);
            w.field_str("s", s);
        };
        for len in 0..=items.len() {
            let in_place = object(|w| {
                w.field_objects("items", items[..len].iter().copied(), build);
                w.field_u64("after", 3);
            });
            let joined = array(items[..len].iter().map(|&item| object(|w| build(w, item))));
            let expected = object(|w| {
                w.field_raw("items", &joined);
                w.field_u64("after", 3);
            });
            assert_eq!(in_place, expected);
        }
        assert_eq!(
            object(|w| w.field_objects("items", items, build)),
            r#"{"items":[{"n":1,"s":"x"},{"n":22,"s":"y\""}]}"#
        );
    }

    #[test]
    fn floats_round_trip_and_nan_is_null() {
        let s = object(|w| {
            w.field_f64("x", 1.5);
            w.field_f64("y", f64::NAN);
        });
        assert_eq!(s, r#"{"x":1.5,"y":null}"#);
    }

    #[test]
    fn array_joins_elements() {
        assert_eq!(array(["1".to_string(), "{}".to_string()]), "[1,{}]");
        assert_eq!(array(std::iter::empty()), "[]");
    }
}
