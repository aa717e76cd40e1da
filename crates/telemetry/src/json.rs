//! The workspace's one JSON writer and the flat-object parser behind
//! trace dumps.
//!
//! The zero-dependency discipline rules out serde. Every shape written
//! here is known at the call site: trace-ring lines (one flat object
//! per line, string/unsigned-integer/boolean values) and the serving
//! layer's responses (objects and arrays built from pre-rendered
//! parts). So a push-style builder with correct string escaping covers
//! everything without a value tree, and [`parse_flat_object`] reads any
//! trace line back.

use std::fmt::Write as _;

/// A value in a flat JSON object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// An unsigned integer.
    U64(u64),
    /// A string (unescaped).
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl JsonValue {
    /// The integer value, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Appends `s` to `out`, escaped for use inside a JSON string literal
/// (no quotes added): `"` and `\` are backslash-escaped, `\n`, `\r` and
/// `\t` use their short forms, and the remaining control characters
/// below U+0020 become `\u00XX`.
///
/// Runs of bytes that need no escaping are copied in one piece, so a
/// string without any (every key and most values) costs one `push_str`.
/// All escaped characters are ASCII, so scanning bytes never splits a
/// multi-byte character.
///
/// ```
/// let mut out = String::new();
/// zugchain_telemetry::escape_into(&mut out, "a\"b\n\u{1}");
/// assert_eq!(out, "a\\\"b\\n\\u0001");
/// ```
pub fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    let mut copied = 0;
    for (i, &byte) in bytes.iter().enumerate() {
        let short = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[copied..i]);
        copied = i + 1;
        if short.is_empty() {
            out.push_str("\\u00");
            out.push(HEX[usize::from(byte >> 4)] as char);
            out.push(HEX[usize::from(byte & 0xf)] as char);
        } else {
            out.push_str(short);
        }
    }
    out.push_str(&s[copied..]);
}

/// Builder for one JSON object (`{...}`).
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl JsonObject {
    /// Starts an empty object.
    #[inline]
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            first: true,
        }
    }

    #[inline]
    fn key(&mut self, name: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, name);
        self.buf.push_str("\":");
    }

    /// Adds an unsigned integer field.
    #[inline]
    #[must_use]
    pub fn field_u64(mut self, name: &str, value: u64) -> Self {
        self.key(name);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a boolean field.
    #[inline]
    #[must_use]
    pub fn field_bool(mut self, name: &str, value: bool) -> Self {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a string field (escaped).
    #[inline]
    #[must_use]
    pub fn field_str(mut self, name: &str, value: &str) -> Self {
        self.key(name);
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Adds `bytes` as a string of lowercase hex digits — the text a
    /// digest's `Display` prints, written without an intermediate string.
    #[inline]
    #[must_use]
    pub fn field_hex(mut self, name: &str, bytes: &[u8]) -> Self {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.key(name);
        self.buf.reserve(bytes.len() * 2 + 2);
        self.buf.push('"');
        for &byte in bytes {
            self.buf.push(HEX[usize::from(byte >> 4)] as char);
            self.buf.push(HEX[usize::from(byte & 0xf)] as char);
        }
        self.buf.push('"');
        self
    }

    /// Adds a pre-rendered JSON value (object, array, literal) verbatim.
    #[inline]
    #[must_use]
    pub fn field_raw(mut self, name: &str, value: &str) -> Self {
        self.key(name);
        self.buf.push_str(value);
        self
    }

    /// Adds `value` as a number, or `null` when absent.
    #[inline]
    #[must_use]
    pub fn field_opt_u64(self, name: &str, value: Option<u64>) -> Self {
        match value {
            Some(value) => self.field_u64(name, value),
            None => self.field_raw(name, "null"),
        }
    }

    /// Closes the object and returns the JSON text.
    #[inline]
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

/// Renders a JSON array from pre-rendered element texts.
pub fn array(elements: impl IntoIterator<Item = String>) -> String {
    let mut buf = String::from("[");
    for (i, element) in elements.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&element);
    }
    buf.push(']');
    buf
}

/// Renders a JSON array of (escaped) strings.
pub fn string_array<S: AsRef<str>>(elements: impl IntoIterator<Item = S>) -> String {
    array(elements.into_iter().map(|s| {
        let mut quoted = String::from('"');
        escape_into(&mut quoted, s.as_ref());
        quoted.push('"');
        quoted
    }))
}

/// Parses one flat JSON object (`{"k":v,...}`) into its key/value pairs,
/// preserving order. Rejects nesting, trailing garbage, and any syntax
/// outside the dialect the trace ring emits.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut chars = line.trim().char_indices().peekable();
    let text = line.trim();
    let mut fields = Vec::new();

    expect_char(text, &mut chars, '{')?;
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = parse_string(text, &mut chars)?;
            skip_ws(&mut chars);
            expect_char(text, &mut chars, ':')?;
            skip_ws(&mut chars);
            let value = parse_value(text, &mut chars)?;
            fields.push((key, value));
            skip_ws(&mut chars);
            match chars.next() {
                Some((_, ',')) => continue,
                Some((_, '}')) => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    skip_ws(&mut chars);
    if let Some((i, c)) = chars.next() {
        return Err(format!("trailing input at byte {i}: {c:?}"));
    }
    Ok(fields)
}

type Chars<'a> = std::iter::Peekable<std::str::CharIndices<'a>>;

fn skip_ws(chars: &mut Chars<'_>) {
    while matches!(chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn expect_char(text: &str, chars: &mut Chars<'_>, want: char) -> Result<(), String> {
    match chars.next() {
        Some((_, c)) if c == want => Ok(()),
        Some((i, c)) => Err(format!(
            "expected {want:?} at byte {i}, got {c:?} in {text:?}"
        )),
        None => Err(format!("expected {want:?}, got end of input in {text:?}")),
    }
}

fn parse_string(text: &str, chars: &mut Chars<'_>) -> Result<String, String> {
    expect_char(text, chars, '"')?;
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".into()),
            Some((_, '"')) => return Ok(out),
            Some((_, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let (_, c) = chars.next().ok_or("truncated \\u escape")?;
                        code = code * 16 + c.to_digit(16).ok_or("bad \\u escape digit")?;
                    }
                    out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                }
                other => return Err(format!("unsupported escape {other:?}")),
            },
            Some((_, c)) => out.push(c),
        }
    }
}

fn parse_value(text: &str, chars: &mut Chars<'_>) -> Result<JsonValue, String> {
    match chars.peek() {
        Some((_, '"')) => Ok(JsonValue::Str(parse_string(text, chars)?)),
        Some((_, 't')) => parse_keyword(chars, "true").map(|_| JsonValue::Bool(true)),
        Some((_, 'f')) => parse_keyword(chars, "false").map(|_| JsonValue::Bool(false)),
        Some((_, c)) if c.is_ascii_digit() => {
            let mut n: u64 = 0;
            let mut any = false;
            while let Some((_, c)) = chars.peek().copied() {
                let Some(d) = c.to_digit(10) else { break };
                chars.next();
                any = true;
                n = n
                    .checked_mul(10)
                    .and_then(|n| n.checked_add(d as u64))
                    .ok_or("integer overflow")?;
            }
            if !any {
                return Err("expected digits".into());
            }
            Ok(JsonValue::U64(n))
        }
        other => Err(format!("unsupported value start {other:?} in {text:?}")),
    }
}

fn parse_keyword(chars: &mut Chars<'_>, word: &str) -> Result<(), String> {
    for want in word.chars() {
        match chars.next() {
            Some((_, c)) if c == want => {}
            other => return Err(format!("expected keyword {word:?}, got {other:?}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_value_kind() {
        let line = JsonObject::new()
            .field_u64("n", u64::MAX)
            .field_str("s", "a\"b\\c\nd\u{1}")
            .field_bool("b", true)
            .finish();
        let fields = parse_flat_object(&line).unwrap();
        assert_eq!(fields[0], ("n".into(), JsonValue::U64(u64::MAX)));
        assert_eq!(
            fields[1],
            ("s".into(), JsonValue::Str("a\"b\\c\nd\u{1}".into()))
        );
        assert_eq!(fields[2], ("b".into(), JsonValue::Bool(true)));
    }

    #[test]
    fn escapes_quotes_and_control_bytes() {
        let text = JsonObject::new()
            .field_str("k\"", "a\"b\\c\n\u{1}")
            .finish();
        assert_eq!(text, "{\"k\\\"\":\"a\\\"b\\\\c\\n\\u0001\"}");
    }

    #[test]
    fn hex_fields_are_lowercase_digit_pairs() {
        let text = JsonObject::new()
            .field_hex("h", &[0x00, 0xab, 0x0f])
            .finish();
        assert_eq!(text, "{\"h\":\"00ab0f\"}");
    }

    #[test]
    fn builds_nested_objects() {
        let inner = JsonObject::new().field_u64("sn", 7).finish();
        let text = JsonObject::new()
            .field_str("train", "ICE-1")
            .field_raw("blocks", &array([inner]))
            .field_opt_u64("next_sn", None)
            .finish();
        assert_eq!(
            text,
            "{\"train\":\"ICE-1\",\"blocks\":[{\"sn\":7}],\"next_sn\":null}"
        );
    }

    #[test]
    fn string_arrays_escape_elements() {
        assert_eq!(string_array(["a", "b\"c"]), "[\"a\",\"b\\\"c\"]");
    }

    #[test]
    fn rejects_trailing_garbage_and_nesting() {
        assert!(parse_flat_object("{\"a\":1} x").is_err());
        assert!(parse_flat_object("{\"a\":{}}").is_err());
        assert!(parse_flat_object("{\"a\":[1]}").is_err());
    }

    #[test]
    fn parses_empty_object() {
        assert!(parse_flat_object("{}").unwrap().is_empty());
    }
}
