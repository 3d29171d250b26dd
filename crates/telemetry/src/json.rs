//! Minimal JSON string escaping for the hand-rolled exporters.
//!
//! The exporters emit only objects whose shape is fixed at compile time,
//! so a full JSON serializer is unnecessary; the sole dynamic risk is
//! string content, handled here per RFC 8259 §7.

use std::fmt::Write;

/// Append `s` to `out`, escaped for inclusion inside a JSON string
/// literal (no quotes added).
pub fn escape_json_into(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        return;
    }
    for ch in s.chars() {
        match ch {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn escape_json(s: &str) -> String {
        let mut out = String::new();
        escape_json_into(&mut out, s);
        out
    }

    #[test]
    fn escapes_specials() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
