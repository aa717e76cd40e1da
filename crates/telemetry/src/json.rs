//! The minimal flat-JSON dialect the flight recorder emits: one object
//! per line, string/unsigned-integer/boolean values only, no nesting.
//! A hand-rolled writer/parser pair keeps the crate dependency-free
//! while letting tests round-trip every dumped line.

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

/// Writes one `"key":value` pair onto `out` (comma-prefixed when not
/// first).
pub(crate) fn push_field(out: &mut String, first: &mut bool, key: &str, value: &JsonValue) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push('"');
    escape_into(out, key);
    out.push_str("\":");
    match value {
        JsonValue::U64(v) => out.push_str(&v.to_string()),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Str(s) => {
            out.push('"');
            escape_into(out, s);
            out.push('"');
        }
    }
}

/// Parses one flat JSON object (`{"k":v,...}`) into its key/value pairs,
/// preserving order. Rejects nesting, trailing garbage, and any syntax
/// outside the dialect the recorder emits.
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
        let mut line = String::from("{");
        let mut first = true;
        push_field(&mut line, &mut first, "n", &JsonValue::U64(u64::MAX));
        push_field(
            &mut line,
            &mut first,
            "s",
            &JsonValue::Str("a\"b\\c\nd\u{1}".into()),
        );
        push_field(&mut line, &mut first, "b", &JsonValue::Bool(true));
        line.push('}');
        let fields = parse_flat_object(&line).unwrap();
        assert_eq!(fields[0], ("n".into(), JsonValue::U64(u64::MAX)));
        assert_eq!(
            fields[1],
            ("s".into(), JsonValue::Str("a\"b\\c\nd\u{1}".into()))
        );
        assert_eq!(fields[2], ("b".into(), JsonValue::Bool(true)));
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
