//! Streaming pull parser for the supported XML subset.
//!
//! The parser borrows from the input string and produces [`Event`]s one at a
//! time. It performs well-formedness checking (tag balance, attribute
//! uniqueness, single root) so downstream consumers — in particular the
//! XPath-accelerator loader — can trust the event stream blindly.

use std::borrow::Cow;

use crate::error::{Error, Result, TextPos};
use crate::escape::unescape;

/// A single attribute of a start tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute<'a> {
    /// Attribute name, exactly as written (prefixes included).
    pub name: &'a str,
    /// Attribute value with entity references expanded.
    pub value: Cow<'a, str>,
}

/// A parse event produced by [`PullParser::next_event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// `<name attr="v">` or `<name/>` (see `self_closing`).
    StartTag {
        /// The element name.
        name: &'a str,
        /// Attributes in document order.
        attributes: Vec<Attribute<'a>>,
        /// `true` for `<name/>`; no matching [`Event::EndTag`] follows.
        self_closing: bool,
    },
    /// `</name>`.
    EndTag {
        /// The element name.
        name: &'a str,
    },
    /// Character data between tags, entities expanded. Whitespace-only runs
    /// between markup are reported too; callers that follow the paper's model
    /// (text nodes are leaves) may filter them.
    Text(Cow<'a, str>),
    /// `<![CDATA[ ... ]]>` content, verbatim.
    CData(&'a str),
    /// `<!-- ... -->` content, verbatim.
    Comment(&'a str),
    /// `<?target data?>`.
    ProcessingInstruction {
        /// The PI target.
        target: &'a str,
        /// Everything between the target and `?>`, trimmed of leading space.
        data: &'a str,
    },
    /// End of the document. Returned exactly once; the parser is exhausted.
    Eof,
}

/// A streaming XML pull parser over a `&str` input.
///
/// ```
/// use staircase_xml::{Event, PullParser};
///
/// let mut p = PullParser::new("<r><a/>text</r>");
/// assert!(matches!(p.next_event().unwrap(), Event::StartTag { name: "r", .. }));
/// assert!(matches!(p.next_event().unwrap(), Event::StartTag { name: "a", self_closing: true, .. }));
/// assert!(matches!(p.next_event().unwrap(), Event::Text(t) if t == "text"));
/// assert!(matches!(p.next_event().unwrap(), Event::EndTag { name: "r" }));
/// assert!(matches!(p.next_event().unwrap(), Event::Eof));
/// ```
pub struct PullParser<'a> {
    input: &'a str,
    pos: usize,
    /// Byte ranges of the names of currently open elements.
    stack: Vec<(usize, usize)>,
    seen_root: bool,
    done: bool,
}

impl<'a> PullParser<'a> {
    /// Creates a parser over `input`. An XML declaration and a `DOCTYPE`
    /// are consumed silently if present.
    pub fn new(input: &'a str) -> PullParser<'a> {
        PullParser {
            input,
            pos: 0,
            stack: Vec::new(),
            seen_root: false,
            done: false,
        }
    }

    /// Current byte offset into the input (useful for error reporting).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Depth of currently open elements.
    pub fn depth(&self) -> usize {
        self.stack.len()
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

    /// `raw` (at offset `start`) with its references expanded; `references`
    /// is whether the scan that delimited it saw a `&` at all.
    fn expand(&self, raw: &'a str, start: usize, references: bool) -> Result<Cow<'a, str>> {
        if references {
            unescape(raw, self.input, start)
        } else {
            Ok(Cow::Borrowed(raw))
        }
    }

    /// Reads an XML name starting at the current position.
    fn read_name(&mut self) -> Result<&'a str> {
        let start = self.pos;
        let b = self.bytes();
        let mut end = start;
        loop {
            // Names are ASCII but for a vanishing few: only a non-ASCII
            // byte is decoded as a character.
            let c = match b.get(end) {
                Some(&c) if c.is_ascii() => c as char,
                Some(_) => self.input[end..].chars().next().unwrap_or('\0'),
                None => break,
            };
            let allowed = if end == start {
                is_name_start(c)
            } else {
                is_name_char(c)
            };
            if !allowed {
                break;
            }
            end += c.len_utf8();
        }
        if end == start {
            return Err(Error::InvalidName(self.err_pos(start)));
        }
        self.pos = end;
        Ok(&self.input[start..end])
    }

    /// Returns the next event, or an error on malformed input. After
    /// [`Event::Eof`] every subsequent call returns `Eof` again.
    pub fn next_event(&mut self) -> Result<Event<'a>> {
        loop {
            if self.pos >= self.input.len() {
                if !self.stack.is_empty() {
                    return Err(Error::UnclosedElements(self.err_pos(self.pos)));
                }
                if !self.seen_root && !self.done {
                    return Err(Error::NoRootElement);
                }
                self.done = true;
                return Ok(Event::Eof);
            }
            if self.peek() == Some(b'<') {
                let next = self.bytes().get(self.pos + 1).copied();
                match next {
                    Some(b'?') => {
                        let ev = self.parse_pi()?;
                        // The XML declaration is swallowed; real PIs surface.
                        if let Some(ev) = ev {
                            return Ok(ev);
                        }
                    }
                    Some(b'!') => {
                        if self.starts_with("<!--") {
                            return self.parse_comment();
                        } else if self.starts_with("<![CDATA[") {
                            return self.parse_cdata();
                        } else if self.starts_with("<!DOCTYPE") {
                            self.skip_doctype()?;
                        } else {
                            return Err(Error::UnexpectedToken {
                                expected: "comment, CDATA, or DOCTYPE",
                                pos: self.err_pos(self.pos),
                            });
                        }
                    }
                    Some(b'/') => return self.parse_end_tag(),
                    _ => return self.parse_start_tag(),
                }
            } else {
                let ev = self.parse_text()?;
                if let Some(ev) = ev {
                    return Ok(ev);
                }
                // Whitespace outside the root: loop for the next construct.
            }
        }
    }

    fn parse_text(&mut self) -> Result<Option<Event<'a>>> {
        let start = self.pos;
        let b = self.bytes();
        let mut i = self.pos;
        let mut references = false;
        while i < b.len() && b[i] != b'<' {
            references |= b[i] == b'&';
            if b[i] == b']' && b[i..].starts_with(b"]]>") {
                return Err(Error::CdataCloseInText(self.err_pos(i)));
            }
            i += 1;
        }
        self.pos = i;
        let raw = &self.input[start..i];
        if self.stack.is_empty() {
            // Outside the root only whitespace is allowed.
            if raw.bytes().all(|c| c.is_ascii_whitespace()) {
                return Ok(None);
            }
            return Err(Error::ExtraRootContent(self.err_pos(start)));
        }
        let text = self.expand(raw, start, references)?;
        Ok(Some(Event::Text(text)))
    }

    fn parse_start_tag(&mut self) -> Result<Event<'a>> {
        let tag_start = self.pos;
        self.expect("<")?;
        let name_start = self.pos;
        let name = self.read_name()?;
        let name_end = self.pos;
        let mut attributes = Vec::new();
        loop {
            let before = self.pos;
            self.skip_whitespace();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    if self.stack.is_empty() {
                        if self.seen_root {
                            return Err(Error::ExtraRootContent(self.err_pos(tag_start)));
                        }
                        self.seen_root = true;
                    }
                    self.stack.push((name_start, name_end));
                    return Ok(Event::StartTag {
                        name,
                        attributes,
                        self_closing: false,
                    });
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(">")?;
                    if self.stack.is_empty() {
                        if self.seen_root {
                            return Err(Error::ExtraRootContent(self.err_pos(tag_start)));
                        }
                        self.seen_root = true;
                    }
                    return Ok(Event::StartTag {
                        name,
                        attributes,
                        self_closing: true,
                    });
                }
                Some(_) => {
                    if self.pos == before {
                        return Err(Error::UnexpectedToken {
                            expected: "whitespace before attribute",
                            pos: self.err_pos(self.pos),
                        });
                    }
                    let attr = self.parse_attribute()?;
                    if attributes
                        .iter()
                        .any(|a: &Attribute<'_>| a.name == attr.name)
                    {
                        return Err(Error::DuplicateAttribute {
                            name: attr.name.to_string(),
                            pos: self.err_pos(before),
                        });
                    }
                    attributes.push(attr);
                }
                None => return Err(Error::UnexpectedEof(self.err_pos(self.pos))),
            }
        }
    }

    fn parse_attribute(&mut self) -> Result<Attribute<'a>> {
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
        let mut i = self.pos;
        let mut references = false;
        while i < b.len() && b[i] != quote {
            references |= b[i] == b'&';
            if b[i] == b'<' {
                return Err(Error::UnexpectedToken {
                    expected: "attribute value without '<'",
                    pos: self.err_pos(i),
                });
            }
            i += 1;
        }
        if i >= b.len() {
            return Err(Error::UnexpectedEof(self.err_pos(i)));
        }
        let raw = &self.input[val_start..i];
        self.pos = i + 1;
        let value = self.expand(raw, val_start, references)?;
        Ok(Attribute { name, value })
    }

    fn parse_end_tag(&mut self) -> Result<Event<'a>> {
        let tag_start = self.pos;
        self.expect("</")?;
        let name = self.read_name()?;
        self.skip_whitespace();
        self.expect(">")?;
        match self.stack.pop() {
            Some((s, e)) => {
                let open = &self.input[s..e];
                if open != name {
                    return Err(Error::MismatchedTag {
                        expected: open.to_string(),
                        found: name.to_string(),
                        pos: self.err_pos(tag_start),
                    });
                }
            }
            None => return Err(Error::UnexpectedClosingTag(self.err_pos(tag_start))),
        }
        Ok(Event::EndTag { name })
    }

    fn parse_comment(&mut self) -> Result<Event<'a>> {
        let start = self.pos;
        self.expect("<!--")?;
        let body_start = self.pos;
        match self.input[self.pos..].find("--") {
            Some(rel) => {
                let dashes = self.pos + rel;
                if !self.input[dashes..].starts_with("-->") {
                    return Err(Error::MalformedComment(self.err_pos(dashes)));
                }
                self.pos = dashes + 3;
                Ok(Event::Comment(&self.input[body_start..dashes]))
            }
            None => Err(Error::UnexpectedEof(self.err_pos(start))),
        }
    }

    fn parse_cdata(&mut self) -> Result<Event<'a>> {
        let start = self.pos;
        self.expect("<![CDATA[")?;
        let body_start = self.pos;
        match self.input[self.pos..].find("]]>") {
            Some(rel) => {
                let end = self.pos + rel;
                self.pos = end + 3;
                if self.stack.is_empty() {
                    return Err(Error::ExtraRootContent(self.err_pos(start)));
                }
                Ok(Event::CData(&self.input[body_start..end]))
            }
            None => Err(Error::UnexpectedEof(self.err_pos(start))),
        }
    }

    /// Parses `<?...?>`; returns `None` for the XML declaration.
    fn parse_pi(&mut self) -> Result<Option<Event<'a>>> {
        let start = self.pos;
        self.expect("<?")?;
        let target = self.read_name()?;
        let data_start = self.pos;
        match self.input[self.pos..].find("?>") {
            Some(rel) => {
                let end = self.pos + rel;
                self.pos = end + 2; // consume "?>"
                let data = self.input[data_start..end].trim_start();
                if target.eq_ignore_ascii_case("xml") {
                    if start != 0 {
                        return Err(Error::UnexpectedToken {
                            expected: "XML declaration only at document start",
                            pos: self.err_pos(start),
                        });
                    }
                    return Ok(None);
                }
                Ok(Some(Event::ProcessingInstruction { target, data }))
            }
            None => Err(Error::UnexpectedEof(self.err_pos(start))),
        }
    }

    /// Skips `<!DOCTYPE ...>` including a bracketed internal subset.
    fn skip_doctype(&mut self) -> Result<()> {
        let start = self.pos;
        self.expect("<!DOCTYPE")?;
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

/// Iterator adapter: yields events until `Eof` (exclusive) or the first error.
impl<'a> Iterator for PullParser<'a> {
    type Item = Result<Event<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.next_event() {
            Ok(Event::Eof) => None,
            Ok(ev) => Some(Ok(ev)),
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

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

    fn events(input: &str) -> Vec<Event<'_>> {
        PullParser::new(input).collect::<Result<Vec<_>>>().unwrap()
    }

    fn parse_err(input: &str) -> Error {
        PullParser::new(input)
            .collect::<Result<Vec<_>>>()
            .expect_err("expected parse failure")
    }

    #[test]
    fn minimal_document() {
        let ev = events("<a/>");
        assert_eq!(ev.len(), 1);
        assert!(matches!(
            &ev[0],
            Event::StartTag {
                name: "a",
                self_closing: true,
                ..
            }
        ));
    }

    #[test]
    fn nested_elements_and_text() {
        let ev = events("<a><b>hi</b></a>");
        assert_eq!(ev.len(), 5);
        assert!(matches!(&ev[2], Event::Text(t) if t == "hi"));
    }

    #[test]
    fn attributes_parsed_in_order() {
        let ev = events(r#"<a x="1" y='2'/>"#);
        let Event::StartTag { attributes, .. } = &ev[0] else {
            panic!()
        };
        assert_eq!(attributes.len(), 2);
        assert_eq!(attributes[0].name, "x");
        assert_eq!(attributes[0].value, "1");
        assert_eq!(attributes[1].name, "y");
        assert_eq!(attributes[1].value, "2");
    }

    #[test]
    fn attribute_entities_expanded() {
        let ev = events(r#"<a x="a&amp;b&#33;"/>"#);
        let Event::StartTag { attributes, .. } = &ev[0] else {
            panic!()
        };
        assert_eq!(attributes[0].value, "a&b!");
    }

    #[test]
    fn text_entities_expanded() {
        let ev = events("<a>1 &lt; 2 &amp;&amp; 3 &gt; 2</a>");
        assert!(matches!(&ev[1], Event::Text(t) if t == "1 < 2 && 3 > 2"));
    }

    #[test]
    fn comment_and_pi() {
        let ev = events("<a><!-- note --><?php echo ?></a>");
        assert!(matches!(&ev[1], Event::Comment(" note ")));
        assert!(
            matches!(&ev[2], Event::ProcessingInstruction { target: "php", data } if *data == "echo ")
        );
    }

    #[test]
    fn cdata_verbatim() {
        let ev = events("<a><![CDATA[<not> & markup]]></a>");
        assert!(matches!(&ev[1], Event::CData("<not> & markup")));
    }

    #[test]
    fn xml_declaration_and_doctype_skipped() {
        let ev = events("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE site SYSTEM \"auction.dtd\">\n<site/>");
        assert_eq!(ev.len(), 1);
        assert!(matches!(&ev[0], Event::StartTag { name: "site", .. }));
    }

    #[test]
    fn doctype_with_internal_subset() {
        let ev = events("<!DOCTYPE r [ <!ELEMENT r (#PCDATA)> ]><r/>");
        assert_eq!(ev.len(), 1);
    }

    #[test]
    fn mismatched_tag_reported() {
        assert!(matches!(
            parse_err("<a><b></a></b>"),
            Error::MismatchedTag { .. }
        ));
    }

    #[test]
    fn unclosed_elements_reported() {
        assert!(matches!(parse_err("<a><b>"), Error::UnclosedElements(_)));
    }

    #[test]
    fn stray_end_tag_reported() {
        assert!(matches!(
            parse_err("<a/></a>"),
            Error::UnexpectedClosingTag(_) | Error::ExtraRootContent(_)
        ));
    }

    #[test]
    fn two_roots_rejected() {
        assert!(matches!(parse_err("<a/><b/>"), Error::ExtraRootContent(_)));
    }

    #[test]
    fn text_outside_root_rejected() {
        assert!(matches!(parse_err("<a/>junk"), Error::ExtraRootContent(_)));
    }

    #[test]
    fn whitespace_outside_root_ok() {
        assert_eq!(events("  <a/>\n ").len(), 1);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(parse_err(""), Error::NoRootElement));
        assert!(matches!(parse_err("   \n"), Error::NoRootElement));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        assert!(matches!(
            parse_err("<a x='1' x='2'/>"),
            Error::DuplicateAttribute { .. }
        ));
    }

    #[test]
    fn bad_entity_rejected() {
        assert!(matches!(
            parse_err("<a>&unknown;</a>"),
            Error::InvalidReference(_)
        ));
    }

    #[test]
    fn double_dash_in_comment_rejected() {
        assert!(matches!(
            parse_err("<a><!-- x -- y --></a>"),
            Error::MalformedComment(_)
        ));
    }

    #[test]
    fn cdata_close_in_text_rejected() {
        assert!(matches!(
            parse_err("<a>oops ]]> here</a>"),
            Error::CdataCloseInText(_)
        ));
    }

    #[test]
    fn unicode_names_accepted() {
        let ev = events("<données étiquette='ü'/>");
        assert!(matches!(
            &ev[0],
            Event::StartTag {
                name: "données",
                ..
            }
        ));
    }

    #[test]
    fn depth_tracking() {
        let mut p = PullParser::new("<a><b/></a>");
        p.next_event().unwrap();
        assert_eq!(p.depth(), 1);
        p.next_event().unwrap();
        assert_eq!(p.depth(), 1); // self-closing does not change depth
        p.next_event().unwrap();
        assert_eq!(p.depth(), 0);
    }

    #[test]
    fn attribute_value_with_angle_rejected() {
        assert!(matches!(
            parse_err("<a x='<'/>"),
            Error::UnexpectedToken { .. }
        ));
    }

    #[test]
    fn iterator_stops_after_error() {
        let mut it = PullParser::new("<a><b></a>");
        let mut saw_err = false;
        for ev in &mut it {
            if ev.is_err() {
                saw_err = true;
            }
        }
        assert!(saw_err);
    }
}
