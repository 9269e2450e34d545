//! Entity escaping and unescaping for text and attribute values.

use std::borrow::Cow;

use crate::error::{Error, Result, TextPos};

/// Escapes `<`, `>` and `&` for use in element text content.
///
/// Returns a borrowed slice when no escaping is needed (the common case for
/// generated documents), avoiding an allocation per text node.
pub fn escape_text(text: &str) -> Cow<'_, str> {
    escape_with(text, |b| matches!(b, b'<' | b'>' | b'&'))
}

/// Escapes `<`, `>`, `&`, `"` and `'` for use in attribute values.
pub fn escape_attribute(text: &str) -> Cow<'_, str> {
    escape_with(text, |b| matches!(b, b'<' | b'>' | b'&' | b'"' | b'\''))
}

fn escape_with(text: &str, needs: impl Fn(u8) -> bool) -> Cow<'_, str> {
    let bytes = text.as_bytes();
    let Some(first) = bytes.iter().position(|&b| needs(b)) else {
        return Cow::Borrowed(text);
    };
    let mut out = String::with_capacity(text.len() + 8);
    out.push_str(&text[..first]);
    for &b in &bytes[first..] {
        match b {
            b'<' => out.push_str("&lt;"),
            b'>' => out.push_str("&gt;"),
            b'&' => out.push_str("&amp;"),
            b'"' if needs(b'"') => out.push_str("&quot;"),
            b'\'' if needs(b'\'') => out.push_str("&apos;"),
            _ => out.push(b as char),
        }
    }
    // Re-append multi-byte UTF-8 correctly: the loop above pushed raw bytes
    // as chars, which is wrong for non-ASCII. Redo properly when non-ASCII
    // content is present.
    if text.is_ascii() {
        Cow::Owned(out)
    } else {
        let mut out = String::with_capacity(text.len() + 8);
        for c in text.chars() {
            match c {
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '&' => out.push_str("&amp;"),
                '"' if needs(b'"') => out.push_str("&quot;"),
                '\'' if needs(b'\'') => out.push_str("&apos;"),
                _ => out.push(c),
            }
        }
        Cow::Owned(out)
    }
}

/// Expands the five predefined entities and numeric character references.
///
/// `input` is the raw slice between markup; `base` is its byte offset inside
/// the whole document and `doc` the whole document text (both used only for
/// error positions). Returns a borrowed slice when the input contains no
/// references.
pub fn unescape<'a>(input: &'a str, doc: &str, base: usize) -> Result<Cow<'a, str>> {
    if !input.contains('&') {
        return Ok(Cow::Borrowed(input));
    }
    let mut out = String::with_capacity(input.len());
    unescape_into(input, &mut out, doc, base)?;
    Ok(Cow::Owned(out))
}

/// [`unescape`] appending to `out`, so a caller that expands many runs
/// reuses one buffer.
pub(crate) fn unescape_into(input: &str, out: &mut String, doc: &str, base: usize) -> Result<()> {
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'&' {
            // Copy the longest reference-free run in one go.
            let start = i;
            while i < bytes.len() && bytes[i] != b'&' {
                i += 1;
            }
            out.push_str(&input[start..i]);
            continue;
        }
        let semi = input[i..]
            .find(';')
            .ok_or_else(|| Error::InvalidReference(TextPos::from_offset(doc, base + i)))?;
        let entity = &input[i + 1..i + semi];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ => {
                let err = || Error::InvalidReference(TextPos::from_offset(doc, base + i));
                let code = if let Some(hex) = entity.strip_prefix("#x") {
                    u32::from_str_radix(hex, 16).map_err(|_| err())?
                } else if let Some(dec) = entity.strip_prefix('#') {
                    dec.parse::<u32>().map_err(|_| err())?
                } else {
                    return Err(err());
                };
                out.push(char::from_u32(code).ok_or_else(err)?);
            }
        }
        i += semi + 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_text_passthrough_borrows() {
        assert!(matches!(escape_text("plain text"), Cow::Borrowed(_)));
    }

    #[test]
    fn escape_text_basic() {
        assert_eq!(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
    }

    #[test]
    fn escape_text_leaves_quotes() {
        assert_eq!(escape_text(r#"say "hi"'s"#), r#"say "hi"'s"#);
    }

    #[test]
    fn escape_attribute_quotes() {
        assert_eq!(escape_attribute(r#"a"b'c"#), "a&quot;b&apos;c");
    }

    #[test]
    fn escape_non_ascii() {
        assert_eq!(escape_text("töst<"), "töst&lt;");
        assert_eq!(escape_attribute("ö\"ö"), "ö&quot;ö");
    }

    #[test]
    fn unescape_borrows_when_clean() {
        assert!(matches!(
            unescape("hello", "hello", 0).unwrap(),
            Cow::Borrowed(_)
        ));
    }

    #[test]
    fn unescape_predefined() {
        assert_eq!(
            unescape("&lt;&gt;&amp;&quot;&apos;", "", 0).unwrap(),
            "<>&\"'"
        );
    }

    #[test]
    fn unescape_numeric() {
        assert_eq!(unescape("&#65;&#x42;", "", 0).unwrap(), "AB");
        assert_eq!(unescape("&#x1F600;", "", 0).unwrap(), "\u{1F600}");
    }

    #[test]
    fn unescape_rejects_unknown() {
        assert!(unescape("&nope;", "&nope;", 0).is_err());
        assert!(unescape("&#xZZ;", "&#xZZ;", 0).is_err());
        assert!(unescape("& unterminated", "& unterminated", 0).is_err());
        assert!(unescape("&#x110000;", "&#x110000;", 0).is_err());
    }

    #[test]
    fn roundtrip_escape_unescape() {
        let original = r#"x < y && z > "w" 'v'"#;
        let escaped = escape_attribute(original);
        assert_eq!(unescape(&escaped, &escaped, 0).unwrap(), original);
    }
}
