//! The push tokenizer: the crate's one scanner of XML text.
//!
//! [`tokenize`] walks the input once and hands each construct to a
//! [`Sink`] as it completes: names and verbatim bodies as slices of the
//! input, a start tag's attributes through one buffer reused for every
//! tag, and character data expanded only where the scan saw a `&`. Nothing
//! is allocated per construct. Every well-formedness check is made here
//! (tag balance, attribute uniqueness, a single root, references, `]]>`
//! in text), in document order, so a sink can trust what it is handed and
//! the first error in the text is the one reported. [`PullParser`] is the
//! one-event sink over the same core.
//!
//! [`PullParser`]: crate::PullParser

use std::borrow::Cow;
use std::ops::Range;

use crate::error::{Error, Result, TextPos};
use crate::escape::unescape_into;

/// Receives the constructs of a document in document order.
///
/// Each method is called once a construct is complete and checked. An
/// error a method returns ends tokenizing and is returned as it is, except
/// that an encoder's [`Error::TooDeep`] or [`Error::TooLarge`] raised
/// without a position is placed at the construct that caused it.
pub trait Sink<'a> {
    /// `<name …>`, or `<name …/>` when `self_closing` (no
    /// [`Sink::end_tag`] follows). The attributes are unique and their
    /// values expanded.
    fn start_tag(
        &mut self,
        name: &'a str,
        attributes: &Attributes<'a>,
        self_closing: bool,
    ) -> Result<()>;

    /// `</name>`, matching the innermost open start tag.
    fn end_tag(&mut self, name: &'a str) -> Result<()>;

    /// Character data between tags, references expanded. Whitespace-only
    /// runs inside the root are reported too; outside it they are skipped.
    fn text(&mut self, text: Chars<'a, '_>) -> Result<()>;

    /// `<![CDATA[ … ]]>` content, verbatim (possibly empty).
    fn cdata(&mut self, text: &'a str) -> Result<()>;

    /// `<!-- … -->` content, verbatim.
    fn comment(&mut self, body: &'a str) -> Result<()>;

    /// `<?target data?>`, `data` trimmed of leading space. The XML
    /// declaration is not reported.
    fn pi(&mut self, target: &'a str, data: &'a str) -> Result<()>;
}

/// Character data or an attribute value as the tokenizer hands it over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chars<'a, 'b> {
    /// A slice of the input: the run held no reference.
    Input(&'a str),
    /// The run with its references expanded, in a buffer the tokenizer
    /// reuses for the next run.
    Expanded(&'b str),
}

impl<'a> Chars<'a, '_> {
    /// The characters.
    pub fn as_str(&self) -> &str {
        match *self {
            Chars::Input(s) => s,
            Chars::Expanded(s) => s,
        }
    }

    /// The characters, owned only when they are not a slice of the input.
    pub fn into_cow(self) -> Cow<'a, str> {
        match self {
            Chars::Input(s) => Cow::Borrowed(s),
            Chars::Expanded(s) => Cow::Owned(s.to_owned()),
        }
    }
}

/// The attributes of one start tag, in document order: a buffer the
/// tokenizer clears and refills for every start tag.
#[derive(Debug, Default)]
pub struct Attributes<'a> {
    list: Vec<(&'a str, Value<'a>)>,
    /// The expansions of the values that held references, back to back.
    expanded: String,
}

#[derive(Debug)]
enum Value<'a> {
    Input(&'a str),
    Expanded(Range<usize>),
}

impl<'a> Attributes<'a> {
    /// `(name, value)` pairs in document order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&'a str, Chars<'a, '_>)> + '_ {
        self.list.iter().map(|(name, value)| {
            let value = match value {
                Value::Input(s) => Chars::Input(s),
                Value::Expanded(r) => Chars::Expanded(&self.expanded[r.clone()]),
            };
            (*name, value)
        })
    }
}

/// Tokenizes `input` into `sink`, start to end, and makes the end checks
/// (every element closed, one root element).
pub fn tokenize<'a, S: Sink<'a>>(input: &'a str, sink: &mut S) -> Result<()> {
    let mut core = Tokenizer::new(input);
    while core.step(sink)? {}
    core.finish()
}

/// The scanner's state between constructs.
pub(crate) struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
    /// Byte ranges of the names of the currently open elements.
    open: Vec<Range<usize>>,
    seen_root: bool,
    seen_doctype: bool,
    attributes: Attributes<'a>,
    /// The expansion of the last text run that held a reference.
    text: String,
}

impl<'a> Tokenizer<'a> {
    pub(crate) fn new(input: &'a str) -> Tokenizer<'a> {
        Tokenizer {
            input,
            pos: 0,
            open: Vec::new(),
            seen_root: false,
            seen_doctype: false,
            attributes: Attributes::default(),
            text: String::new(),
        }
    }

    pub(crate) fn offset(&self) -> usize {
        self.pos
    }

    pub(crate) fn depth(&self) -> usize {
        self.open.len()
    }

    /// Reads the next construct and hands it to `sink`, unless it is one
    /// that is skipped (the XML declaration, a `DOCTYPE`, whitespace
    /// outside the root). `false` once the input is exhausted.
    #[inline]
    pub(crate) fn step<S: Sink<'a>>(&mut self, sink: &mut S) -> Result<bool> {
        let b = self.input.as_bytes();
        let Some(&first) = b.get(self.pos) else {
            return Ok(false);
        };
        if first != b'<' {
            self.text(sink)?;
            return Ok(true);
        }
        match b.get(self.pos + 1) {
            Some(b'/') => self.end_tag(sink)?,
            Some(b'?') => self.pi(sink)?,
            Some(b'!') => {
                if self.starts_with("<!--") {
                    self.comment(sink)?;
                } else if self.starts_with("<![CDATA[") {
                    self.cdata(sink)?;
                } else if self.starts_with("<!DOCTYPE") {
                    if self.seen_root || self.seen_doctype {
                        return Err(Error::UnexpectedToken {
                            expected: "DOCTYPE only once, before the root element",
                            pos: self.err_pos(self.pos),
                        });
                    }
                    self.seen_doctype = true;
                    self.skip_doctype()?;
                } else {
                    return Err(Error::UnexpectedToken {
                        expected: "comment, CDATA, or DOCTYPE",
                        pos: self.err_pos(self.pos),
                    });
                }
            }
            _ => self.start_tag(sink)?,
        }
        Ok(true)
    }

    /// The end checks, once [`Tokenizer::step`] said the input is
    /// exhausted.
    pub(crate) fn finish(&self) -> Result<()> {
        if !self.open.is_empty() {
            return Err(Error::UnclosedElements(self.err_pos(self.pos)));
        }
        if !self.seen_root {
            return Err(Error::NoRootElement);
        }
        Ok(())
    }

    fn err_pos(&self, offset: usize) -> TextPos {
        TextPos::from_offset(self.input, offset)
    }

    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes()[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_whitespace(&mut self) {
        let b = self.bytes();
        while self.pos < b.len() && b[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, s: &'static str) -> Result<()> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            Err(Error::UnexpectedToken {
                expected: s,
                pos: self.err_pos(self.pos),
            })
        }
    }

    /// Reads an XML name starting at the current position.
    #[inline]
    fn read_name(&mut self) -> Result<&'a str> {
        let start = self.pos;
        let b = self.bytes();
        let mut end = start;
        // Names are ASCII but for a vanishing few: only a non-ASCII byte
        // is decoded as a character.
        while let Some(&c) = b.get(end) {
            let allowed = if c.is_ascii() {
                let class = NAME_CLASS[c as usize];
                if end == start {
                    class == NAME_START
                } else {
                    class != 0
                }
            } else {
                let c = self.input[end..].chars().next().unwrap_or('\0');
                if end == start {
                    is_name_start(c)
                } else {
                    is_name_char(c)
                }
            };
            if !allowed {
                break;
            }
            end += utf8_width(c);
        }
        if end == start {
            return Err(Error::InvalidName(self.err_pos(start)));
        }
        self.pos = end;
        Ok(&self.input[start..end])
    }

    /// Hands a sink's refusal of the construct at `at` on, placed there.
    fn placed(&self, sunk: Result<()>, at: usize) -> Result<()> {
        sunk.map_err(|e| e.at(self.err_pos(at)))
    }

    fn text<S: Sink<'a>>(&mut self, sink: &mut S) -> Result<()> {
        let start = self.pos;
        let b = self.bytes();
        let mut i = start;
        let mut references = false;
        loop {
            i = find3(b, i, b'<', b'&', b']');
            match b.get(i) {
                None | Some(b'<') => break,
                Some(b'&') => references = true,
                _ => {
                    if b[i..].starts_with(b"]]>") {
                        return Err(Error::CdataCloseInText(self.err_pos(i)));
                    }
                }
            }
            i += 1;
        }
        self.pos = i;
        let raw = &self.input[start..i];
        if self.open.is_empty() {
            // Outside the root only whitespace is allowed.
            if raw.bytes().all(|c| c.is_ascii_whitespace()) {
                return Ok(());
            }
            return Err(Error::ExtraRootContent(self.err_pos(start)));
        }
        let sunk = if references {
            self.text.clear();
            unescape_into(raw, &mut self.text, self.input, start)?;
            sink.text(Chars::Expanded(&self.text))
        } else {
            sink.text(Chars::Input(raw))
        };
        self.placed(sunk, start)
    }

    fn start_tag<S: Sink<'a>>(&mut self, sink: &mut S) -> Result<()> {
        let tag_start = self.pos;
        self.pos += 1; // '<'
        let name = self.read_name()?;
        self.attributes.list.clear();
        self.attributes.expanded.clear();
        let self_closing = loop {
            let before = self.pos;
            self.skip_whitespace();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    break false;
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(">")?;
                    break true;
                }
                Some(_) => {
                    if self.pos == before {
                        return Err(Error::UnexpectedToken {
                            expected: "whitespace before attribute",
                            pos: self.err_pos(self.pos),
                        });
                    }
                    self.attribute(before)?;
                }
                None => return Err(Error::UnexpectedEof(self.err_pos(self.pos))),
            }
        };
        if self.open.is_empty() {
            if self.seen_root {
                return Err(Error::ExtraRootContent(self.err_pos(tag_start)));
            }
            self.seen_root = true;
        }
        if !self_closing {
            self.open.push(tag_start + 1..tag_start + 1 + name.len());
        }
        let sunk = sink.start_tag(name, &self.attributes, self_closing);
        self.placed(sunk, tag_start)
    }

    /// Reads one `name="value"` into the attribute buffer; `before` is
    /// where the whitespace in front of it began.
    fn attribute(&mut self, before: usize) -> Result<()> {
        let name = self.read_name()?;
        self.skip_whitespace();
        self.expect("=")?;
        self.skip_whitespace();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => {
                return Err(Error::UnexpectedToken {
                    expected: "quoted attribute value",
                    pos: self.err_pos(self.pos),
                })
            }
        };
        self.pos += 1;
        let val_start = self.pos;
        let b = self.bytes();
        let mut i = val_start;
        let mut references = false;
        loop {
            i = find3(b, i, quote, b'&', b'<');
            match b.get(i) {
                None => return Err(Error::UnexpectedEof(self.err_pos(i))),
                Some(b'<') => {
                    return Err(Error::UnexpectedToken {
                        expected: "attribute value without '<'",
                        pos: self.err_pos(i),
                    })
                }
                Some(&c) if c == quote => break,
                _ => references = true,
            }
            i += 1;
        }
        let raw = &self.input[val_start..i];
        self.pos = i + 1;
        let attributes = &mut self.attributes;
        let value = if references {
            let from = attributes.expanded.len();
            unescape_into(raw, &mut attributes.expanded, self.input, val_start)?;
            Value::Expanded(from..attributes.expanded.len())
        } else {
            Value::Input(raw)
        };
        if attributes.list.iter().any(|&(n, _)| n == name) {
            return Err(Error::DuplicateAttribute {
                name: name.to_string(),
                pos: self.err_pos(before),
            });
        }
        attributes.list.push((name, value));
        Ok(())
    }

    fn end_tag<S: Sink<'a>>(&mut self, sink: &mut S) -> Result<()> {
        let tag_start = self.pos;
        self.pos += 2; // "</"
                       // The common case, `</name>` closing the innermost element, is one
                       // compare: the open name was checked as a name when it was read.
        if let Some(open) = self.open.last() {
            let (b, at) = (self.bytes(), self.pos);
            let len = open.len();
            let same = match (b.get(open.start..open.start + 8), b.get(at..at + 8)) {
                // Both names as words, the bytes past the shorter masked off.
                (Some(o), Some(c)) if len <= 8 => {
                    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("eight bytes"));
                    (word(o) ^ word(c)) & (u64::MAX >> (64 - 8 * len)) == 0
                }
                _ => b[at..].starts_with(&b[open.clone()]),
            };
            if same && b.get(at + len) == Some(&b'>') {
                let name = &self.input[at..at + len];
                self.pos = at + len + 1;
                self.open.pop();
                let sunk = sink.end_tag(name);
                return self.placed(sunk, tag_start);
            }
        }
        let name = self.read_name()?;
        self.skip_whitespace();
        self.expect(">")?;
        match self.open.pop().map(|open| &self.input[open]) {
            Some(open) if open != name => {
                return Err(Error::MismatchedTag {
                    expected: open.to_string(),
                    found: name.to_string(),
                    pos: self.err_pos(tag_start),
                })
            }
            Some(_) => {}
            None => return Err(Error::UnexpectedClosingTag(self.err_pos(tag_start))),
        }
        let sunk = sink.end_tag(name);
        self.placed(sunk, tag_start)
    }

    fn comment<S: Sink<'a>>(&mut self, sink: &mut S) -> Result<()> {
        let start = self.pos;
        self.pos += 4; // "<!--"
        let body_start = self.pos;
        let Some(rel) = self.input[self.pos..].find("--") else {
            return Err(Error::UnexpectedEof(self.err_pos(start)));
        };
        let dashes = self.pos + rel;
        if !self.input[dashes..].starts_with("-->") {
            return Err(Error::MalformedComment(self.err_pos(dashes)));
        }
        self.pos = dashes + 3;
        let sunk = sink.comment(&self.input[body_start..dashes]);
        self.placed(sunk, start)
    }

    fn cdata<S: Sink<'a>>(&mut self, sink: &mut S) -> Result<()> {
        let start = self.pos;
        self.pos += 9; // "<![CDATA["
        let body_start = self.pos;
        let Some(rel) = self.input[self.pos..].find("]]>") else {
            return Err(Error::UnexpectedEof(self.err_pos(start)));
        };
        let end = self.pos + rel;
        self.pos = end + 3;
        if self.open.is_empty() {
            return Err(Error::ExtraRootContent(self.err_pos(start)));
        }
        let sunk = sink.cdata(&self.input[body_start..end]);
        self.placed(sunk, start)
    }

    /// `<?…?>`; the XML declaration is checked and skipped.
    fn pi<S: Sink<'a>>(&mut self, sink: &mut S) -> Result<()> {
        let start = self.pos;
        self.pos += 2; // "<?"
        let target = self.read_name()?;
        let data_start = self.pos;
        let Some(rel) = self.input[self.pos..].find("?>") else {
            return Err(Error::UnexpectedEof(self.err_pos(start)));
        };
        let end = self.pos + rel;
        self.pos = end + 2;
        let data = self.input[data_start..end].trim_start();
        if target.eq_ignore_ascii_case("xml") {
            if start != 0 {
                return Err(Error::UnexpectedToken {
                    expected: "XML declaration only at document start",
                    pos: self.err_pos(start),
                });
            }
            return Ok(());
        }
        let sunk = sink.pi(target, data);
        self.placed(sunk, start)
    }

    /// Skips `<!DOCTYPE ...>` including a bracketed internal subset.
    fn skip_doctype(&mut self) -> Result<()> {
        let start = self.pos;
        self.pos += 9; // "<!DOCTYPE"
        let b = self.bytes();
        let mut depth = 0i32;
        let mut in_subset = false;
        while self.pos < b.len() {
            match b[self.pos] {
                b'[' => {
                    in_subset = true;
                    depth += 1;
                }
                b']' => depth -= 1,
                b'>' if !in_subset || depth == 0 => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {}
            }
            self.pos += 1;
        }
        Err(Error::UnexpectedEof(self.err_pos(start)))
    }
}

/// The index of the first of `x`, `y` or `z` in `b` at or after `from`,
/// or `b.len()`. Eight bytes at a time: a word has the byte `c` where
/// `w ^ c·0x01…01` has a zero byte, and the lowest set bit of the
/// zero-byte test is exact (its false positives only sit above a true
/// zero).
#[inline]
fn find3(b: &[u8], from: usize, x: u8, y: u8, z: u8) -> usize {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let zero = |v: u64| v.wrapping_sub(LO) & !v & HI;
    let (x8, y8, z8) = (LO * x as u64, LO * y as u64, LO * z as u64);
    let mut i = from;
    while let Some(word) = b.get(i..i + 8) {
        let w = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        let hits = zero(w ^ x8) | zero(w ^ y8) | zero(w ^ z8);
        if hits != 0 {
            return i + (hits.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < b.len() && b[i] != x && b[i] != y && b[i] != z {
        i += 1;
    }
    i
}

/// The byte length of the UTF-8 character that starts with `lead`.
#[inline]
fn utf8_width(lead: u8) -> usize {
    match lead {
        0..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

const NAME_START: u8 = 2;
const NAME_CHAR: u8 = 1;

/// Per ASCII byte: [`NAME_START`] if it may start a name, [`NAME_CHAR`] if
/// it may only continue one, 0 otherwise ([`is_name_start`] and
/// [`is_name_char`] for the first 128 characters).
const NAME_CLASS: [u8; 128] = {
    let mut class = [0u8; 128];
    let mut c = 0;
    while c < 128 {
        let b = c as u8;
        class[c] = if b.is_ascii_alphabetic() || b == b'_' || b == b':' {
            NAME_START
        } else if b.is_ascii_digit() || b == b'-' || b == b'.' {
            NAME_CHAR
        } else {
            0
        };
        c += 1;
    }
    class
};

/// `true` if `c` may start an XML name (simplified XML 1.0 classes).
pub(crate) fn is_name_start(c: char) -> bool {
    c.is_ascii_alphabetic()
        || c == '_'
        || c == ':'
        || ('\u{C0}'..='\u{2FF}').contains(&c)
        || ('\u{370}'..='\u{1FFF}').contains(&c)
        || ('\u{2C00}'..='\u{D7FF}').contains(&c)
        || c > '\u{F8FF}'
}

/// `true` if `c` may continue an XML name.
pub(crate) fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit() || c == '-' || c == '.' || c == '\u{B7}'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find3_finds_the_first_of_three_bytes_at_every_offset() {
        for len in 0..40 {
            for at in 0..=len {
                let mut b = vec![b'x'; len];
                if at < len {
                    b[at] = b'&';
                }
                for from in 0..=at.min(len) {
                    assert_eq!(find3(&b, from, b'<', b'&', b']'), at, "len {len}");
                }
            }
        }
        // A byte just above a match (the zero test's false-positive spot).
        assert_eq!(find3(b"ab]<cdefghij", 0, b'<', b'&', b']'), 2);
        assert_eq!(find3("é<".as_bytes(), 0, b'<', b'&', b']'), 2);
    }

    #[test]
    fn the_name_table_agrees_with_the_name_classes() {
        for b in 0..128u8 {
            let c = b as char;
            assert_eq!(NAME_CLASS[b as usize] == NAME_START, is_name_start(c));
            assert_eq!(NAME_CLASS[b as usize] != 0, is_name_char(c));
        }
    }

    #[derive(Default)]
    struct Trace(Vec<String>);

    impl<'a> Sink<'a> for Trace {
        fn start_tag(&mut self, name: &'a str, a: &Attributes<'a>, closed: bool) -> Result<()> {
            let attrs: Vec<_> = a
                .iter()
                .map(|(n, v)| format!("{n}={}", v.as_str()))
                .collect();
            self.0.push(format!("<{name} {attrs:?} {closed}"));
            Ok(())
        }
        fn end_tag(&mut self, name: &'a str) -> Result<()> {
            self.0.push(format!("</{name}"));
            Ok(())
        }
        fn text(&mut self, text: Chars<'a, '_>) -> Result<()> {
            self.0.push(format!("{text:?}"));
            Ok(())
        }
        fn cdata(&mut self, text: &'a str) -> Result<()> {
            self.0.push(format!("cdata {text}"));
            Ok(())
        }
        fn comment(&mut self, body: &'a str) -> Result<()> {
            self.0.push(format!("comment {body}"));
            Ok(())
        }
        fn pi(&mut self, target: &'a str, data: &'a str) -> Result<()> {
            self.0.push(format!("pi {target} {data}"));
            Ok(())
        }
    }

    #[test]
    fn a_reference_free_run_is_a_slice_of_the_input_and_buffers_are_reused() {
        let mut t = Trace::default();
        tokenize("<a x='1&amp;' y='2'>t&lt;<b z='&#65;'/>u</a>", &mut t).unwrap();
        assert_eq!(
            t.0,
            [
                r#"<a ["x=1&", "y=2"] false"#,
                r#"Expanded("t<")"#,
                r#"<b ["z=A"] true"#,
                r#"Input("u")"#,
                "</a",
            ]
        );
    }

    #[test]
    fn a_sink_refusal_is_placed_at_its_construct() {
        struct Refuse;
        impl<'a> Sink<'a> for Refuse {
            fn start_tag(&mut self, name: &'a str, _: &Attributes<'a>, _: bool) -> Result<()> {
                if name == "deep" {
                    return Err(Error::TooDeep {
                        limit: 1,
                        pos: None,
                    });
                }
                Ok(())
            }
            fn end_tag(&mut self, _: &'a str) -> Result<()> {
                Ok(())
            }
            fn text(&mut self, _: Chars<'a, '_>) -> Result<()> {
                Ok(())
            }
            fn cdata(&mut self, _: &'a str) -> Result<()> {
                Ok(())
            }
            fn comment(&mut self, _: &'a str) -> Result<()> {
                Ok(())
            }
            fn pi(&mut self, _: &'a str, _: &'a str) -> Result<()> {
                Ok(())
            }
        }
        assert_eq!(
            tokenize("<a>\n  <deep/></a>", &mut Refuse),
            Err(Error::TooDeep {
                limit: 1,
                pos: Some(TextPos { line: 2, col: 3 })
            })
        );
    }
}
