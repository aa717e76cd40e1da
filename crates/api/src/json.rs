//! A tiny JSON writer — just enough for the serving layer's responses.
//!
//! The zero-dependency discipline rules out serde; the API's response
//! shapes are flat and known at the call site, so a push-style builder
//! with correct string escaping covers everything without a value tree.

use std::fmt::Write as _;

use zugchain_telemetry::escape_into;

/// Builder for one JSON object (`{...}`).
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            first: true,
        }
    }

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
    #[must_use]
    pub fn field_u64(mut self, name: &str, value: u64) -> Self {
        self.key(name);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a string field (escaped).
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
    #[must_use]
    pub fn field_raw(mut self, name: &str, value: &str) -> Self {
        self.key(name);
        self.buf.push_str(value);
        self
    }

    /// Adds `value` as a number, or `null` when absent.
    #[must_use]
    pub fn field_opt_u64(mut self, name: &str, value: Option<u64>) -> Self {
        self.key(name);
        match value {
            Some(value) => {
                let _ = write!(self.buf, "{value}");
            }
            None => self.buf.push_str("null"),
        }
        self
    }

    /// Closes the object and returns the JSON text.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
