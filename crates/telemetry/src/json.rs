//! The workspace's one JSON codec: a document model with a parser and
//! a compact writer.
//!
//! Every JSON document the workspace writes goes through [`Json`]:
//! JSONL telemetry lines, the `/eventz` ring, run ledgers, Chrome
//! traces, the serving plane's bodies and reports. Documents are also
//! read back — ledgers for the regression sentry, trace files for
//! validation, a network peer's answers for `ppm top` and `ppm tail` —
//! on a hand-rolled recursive-descent parser. Zero dependencies, like
//! everything else in the workspace.
//!
//! Objects preserve insertion order (serialization is deterministic for
//! a deterministically built document), and numbers distinguish
//! integers from floats so counters survive a round trip exactly.
//! Floats have one spelling, Rust's `{:?}` form: it always carries a
//! decimal point or an exponent, so a float reads back as a float.
//! Every emitted document therefore equals `Json::parse(doc)?.dump()`.
//!
//! Input can come from outside the process, so nesting is capped at
//! 128 levels: deeper input is a [`JsonError`], not a stack overflow.

use std::fmt;

/// The deepest array/object nesting [`Json::parse`] accepts. Every
/// document this workspace writes stays under ten levels.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fractional part or exponent that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; entries keep insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure with byte offset and description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters after document"));
        }
        Ok(value)
    }

    /// Serializes the value as compact JSON.
    pub fn dump(&self) -> String {
        let mut s = String::with_capacity(128);
        self.write(&mut s);
        s
    }

    /// Appends the compact serialization to `s`. Lets a caller stream
    /// a long array into one buffer, one element at a time, instead of
    /// building the whole document as a tree first.
    pub fn write(&self, s: &mut String) {
        match self {
            Json::Null => s.push_str("null"),
            Json::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                fmt::Write::write_fmt(s, format_args!("{i}")).ok();
            }
            Json::Float(f) => {
                if f.is_finite() {
                    // `{:?}` keeps a decimal point or exponent, so the
                    // value stays a float across a round trip.
                    fmt::Write::write_fmt(s, format_args!("{f:?}")).ok();
                } else {
                    s.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(v) => write_string(s, v),
            Json::Arr(items) => {
                s.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    v.write(s);
                }
                s.push(']');
            }
            Json::Obj(entries) => {
                s.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    write_string(s, k);
                    s.push(':');
                    v.write(s);
                }
                s.push('}');
            }
        }
    }

    /// An object from `(key, value)` entries, in order.
    pub fn obj<const N: usize>(entries: [(&str, Json); N]) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload (also accepts integral floats).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => Some(*f as i64),
            _ => None,
        }
    }

    /// The numeric payload as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object entries, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Some(entries),
            _ => None,
        }
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        // Counters beyond i64::MAX are unreachable in practice; keep
        // exactness where possible and fall back to float.
        i64::try_from(v)
            .map(Json::Int)
            .unwrap_or(Json::Float(v as f64))
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::from(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

/// Appends `text` as a quoted JSON string (RFC 8259): `"` and `\`
/// escaped, the common control characters as shorthands, any other
/// control character as `\u00XX`, everything else verbatim.
fn write_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32)).ok();
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn err(offset: usize, message: &str) -> JsonError {
    JsonError {
        offset,
        message: message.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value; `depth` counts the arrays/objects enclosing it.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(err(*pos, "nesting too deep")),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(_) => Err(err(*pos, "unexpected character")),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, "invalid literal"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "non-utf8 number"))?;
    if !is_float {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| err(start, "invalid number"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                        // Surrogate pairs are not needed for our own
                        // files; map lone surrogates to the replacement
                        // character rather than failing.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash at once,
                // validating only that run: both delimiters are ASCII, so
                // the run ends on a code-point boundary.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| *pos + n);
                let run = std::str::from_utf8(&bytes[*pos..end])
                    .map_err(|e| err(*pos + e.valid_up_to(), "invalid utf-8 in string"))?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']' in array")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '{'
    let mut entries = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(entries));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected string key"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected ':' after key"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        entries.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            _ => return Err(err(*pos, "expected ',' or '}' in object")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let text = r#"{"a":[1,2.5,-3],"b":{"c":"x\"y","d":null,"e":true},"f":[]}"#;
        let parsed = Json::parse(text).unwrap();
        assert_eq!(parsed.dump(), text);
    }

    #[test]
    fn integers_and_floats_stay_distinct() {
        let parsed = Json::parse("[7, 7.0, 1e3, -12]").unwrap();
        let items = parsed.as_arr().unwrap();
        assert_eq!(items[0], Json::Int(7));
        assert_eq!(items[1], Json::Float(7.0));
        assert_eq!(items[2], Json::Float(1000.0));
        assert_eq!(items[3], Json::Int(-12));
        assert_eq!(items[1].dump(), "7.0");
    }

    #[test]
    fn escapes_round_trip() {
        let original = Json::Str("line\nwith \"quotes\" and \\slash\t\u{8}\u{c}\u{1}".to_string());
        let dumped = original.dump();
        assert_eq!(dumped, r#""line\nwith \"quotes\" and \\slash\t\b\f\u0001""#);
        assert_eq!(Json::parse(&dumped).unwrap(), original);
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        for deep in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let e = Json::parse(&deep).unwrap_err();
            assert_eq!(e.message, "nesting too deep");
        }
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let over = format!("[{at_limit}]");
        assert_eq!(Json::parse(&over).unwrap_err().offset, MAX_DEPTH);
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objects).is_ok());
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let escaped = |text: &str| Json::from(text).dump();
        assert_eq!(escaped("stage.sampling"), "\"stage.sampling\"");
        assert_eq!(escaped(""), "\"\"");
        assert_eq!(escaped("C:\\path\"x\""), "\"C:\\\\path\\\"x\\\"\"");
        assert_eq!(escaped("a\rb"), "\"a\\rb\"");
        assert_eq!(escaped("a\u{1f}b"), "\"a\\u001fb\"");
        assert_eq!(escaped("αβ→é"), "\"αβ→é\"");
        let key = Json::obj([("k\"ey", Json::Null)]);
        assert_eq!(key.dump(), "{\"k\\\"ey\":null}");
    }

    #[test]
    fn floats_have_one_spelling_that_reads_back_as_a_float() {
        for (value, text) in [
            (4.0, "4.0"),
            (-12.5, "-12.5"),
            (0.1, "0.1"),
            (1e-6, "1e-6"),
            (1e16, "1e16"),
        ] {
            assert_eq!(Json::Float(value).dump(), text);
            assert_eq!(Json::parse(text).unwrap(), Json::Float(value));
        }
    }

    #[test]
    fn write_appends_to_an_existing_buffer() {
        let mut s = String::from("[");
        Json::from(7u64).write(&mut s);
        s.push(',');
        Json::from(true).write(&mut s);
        s.push(']');
        assert_eq!(s, "[7,true]");
    }

    #[test]
    fn unicode_escapes_parse() {
        let parsed = Json::parse(r#""\u00e9\u0041""#).unwrap();
        assert_eq!(parsed.as_str(), Some("éA"));
    }

    #[test]
    fn lookup_helpers_navigate_objects() {
        let doc = Json::parse(r#"{"outer":{"n":42,"s":"hi","f":2.5}}"#).unwrap();
        let outer = doc.get("outer").unwrap();
        assert_eq!(outer.get("n").unwrap().as_i64(), Some(42));
        assert_eq!(outer.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(outer.get("f").unwrap().as_f64(), Some(2.5));
        assert!(outer.get("missing").is_none());
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        for bad in [
            "{",
            "[1,",
            "\"unterminated",
            "{\"k\" 1}",
            "tru",
            "[1] garbage",
            "",
            "{'single': 1}",
        ] {
            let e = Json::parse(bad).unwrap_err();
            assert!(!e.to_string().is_empty(), "{bad:?} should fail");
        }
    }

    #[test]
    fn metric_jsonl_lines_parse() {
        // The exact shape ppm-telemetry emits.
        let line = r#"{"t":"metric","kind":"counter","name":"sim.batch_points","value":90}"#;
        let parsed = Json::parse(line).unwrap();
        assert_eq!(parsed.get("t").unwrap().as_str(), Some("metric"));
        assert_eq!(parsed.get("value").unwrap().as_i64(), Some(90));
    }

    #[test]
    fn megabyte_documents_with_multibyte_strings_parse_in_linear_time() {
        // 20k records of two- to four-byte code points mixed with
        // escapes: over 1 MB, which a parser that re-validates the rest
        // of the document per character cannot finish in test time.
        let records: Vec<Json> = (0..20_000)
            .map(|i| {
                Json::obj([
                    ("id", Json::from(i as u64)),
                    ("note", Json::Str(format!("é→𝄞 ü \"q\" {i} ✓ 中文\n"))),
                ])
            })
            .collect();
        let text = Json::Arr(records).dump();
        assert!(text.len() >= 1 << 20, "{} bytes", text.len());
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.dump(), text);
        assert_eq!(
            parsed.as_arr().unwrap()[7].get("note").unwrap().as_str(),
            Some("é→𝄞 ü \"q\" 7 ✓ 中文\n")
        );
    }

    #[test]
    fn invalid_utf8_in_a_string_is_an_error() {
        let mut pos = 0;
        let e = parse_string(b"\"ok \xff\"", &mut pos).unwrap_err();
        assert_eq!(e.to_string(), err(4, "invalid utf-8 in string").to_string());
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Float(v).dump(), "null");
        }
    }
}
