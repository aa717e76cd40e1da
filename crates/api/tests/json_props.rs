//! Property tests for the serving layer's JSON text: the shared escaper
//! (`zugchain_telemetry::escape_into`) must agree with a plain
//! char-by-char reference on arbitrary strings, control characters
//! included, and `JsonObject::field_hex` must print exactly what a
//! digest's `Display` prints.

use proptest::collection::vec;
use proptest::prelude::*;
use zugchain_api::json::JsonObject;
use zugchain_crypto::Digest;
use zugchain_telemetry::{escape_into, parse_flat_object, JsonValue};

/// The char-by-char escaper both JSON writers used to carry.
fn reference_escape(raw: &str) -> String {
    let mut out = String::new();
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Strings mixing every ASCII byte (controls, quotes, backslashes, DEL)
/// with multi-byte characters.
fn json_text() -> impl Strategy<Value = String> {
    vec((0u8..=2, 0u8..=0x7f, any::<char>()), 0..48).prop_map(|parts| {
        parts
            .into_iter()
            .map(|(pick, ascii, c)| if pick == 0 { c } else { char::from(ascii) })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn escaper_matches_the_char_by_char_reference(prefix in json_text(), raw in json_text()) {
        let mut out = prefix.clone();
        escape_into(&mut out, &raw);
        prop_assert_eq!(out, format!("{prefix}{}", reference_escape(&raw)));
    }

    #[test]
    fn string_fields_round_trip_through_the_parser(key in json_text(), value in json_text()) {
        let text = JsonObject::new().field_str(&key, &value).finish();
        prop_assert_eq!(
            parse_flat_object(&text).unwrap(),
            vec![(key, JsonValue::Str(value))]
        );
    }

    #[test]
    fn hex_fields_print_like_digest_display(bytes in vec(any::<u8>(), 32..33)) {
        let digest = Digest::from_bytes(bytes.try_into().unwrap());
        prop_assert_eq!(
            JsonObject::new().field_hex("hash", digest.as_bytes()).finish(),
            format!("{{\"hash\":\"{digest}\"}}")
        );
    }
}
