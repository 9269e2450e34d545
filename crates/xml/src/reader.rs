//! The pull parser: the push tokenizer's one-event sink.
//!
//! [`PullParser`] borrows from the input string and produces [`Event`]s one
//! at a time. It drives the crate's one scanner ([`crate::tokenize`]'s
//! core) a construct at a time and keeps the construct it is handed as an
//! owned [`Event`], so it reports exactly the text, positions and
//! well-formedness errors that a [`crate::Sink`] sees. Consumers that can
//! take constructs pushed at them (the accelerator's loader) implement
//! `Sink` instead and skip the events.

use std::borrow::Cow;

use crate::error::{Error, Result};
use crate::push::{Attributes, Chars, Sink, Tokenizer};

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
    core: Tokenizer<'a>,
    done: bool,
}

impl<'a> PullParser<'a> {
    /// Creates a parser over `input`. An XML declaration and a `DOCTYPE`
    /// are consumed silently if present.
    pub fn new(input: &'a str) -> PullParser<'a> {
        PullParser {
            core: Tokenizer::new(input),
            done: false,
        }
    }

    /// Current byte offset into the input (useful for error reporting).
    pub fn offset(&self) -> usize {
        self.core.offset()
    }

    /// Depth of currently open elements.
    pub fn depth(&self) -> usize {
        self.core.depth()
    }

    /// Returns the next event, or an error on malformed input. After
    /// [`Event::Eof`] every subsequent call returns `Eof` again.
    pub fn next_event(&mut self) -> Result<Event<'a>> {
        let mut one = OneEvent(None);
        loop {
            if !self.core.step(&mut one)? {
                match self.core.finish() {
                    // Once `Eof` was returned (or the iterator ended on an
                    // error) a missing root is not reported again.
                    Err(Error::NoRootElement) if self.done => {}
                    end => end?,
                }
                self.done = true;
                return Ok(Event::Eof);
            }
            if let Some(event) = one.0.take() {
                return Ok(event);
            }
            // A skipped construct: read on.
        }
    }
}

/// The sink that keeps one construct as an [`Event`].
struct OneEvent<'a>(Option<Event<'a>>);

impl<'a> Sink<'a> for OneEvent<'a> {
    fn start_tag(
        &mut self,
        name: &'a str,
        attributes: &Attributes<'a>,
        self_closing: bool,
    ) -> Result<()> {
        let attributes = attributes
            .iter()
            .map(|(name, value)| Attribute {
                name,
                value: value.into_cow(),
            })
            .collect();
        self.0 = Some(Event::StartTag {
            name,
            attributes,
            self_closing,
        });
        Ok(())
    }

    fn end_tag(&mut self, name: &'a str) -> Result<()> {
        self.0 = Some(Event::EndTag { name });
        Ok(())
    }

    fn text(&mut self, text: Chars<'a, '_>) -> Result<()> {
        self.0 = Some(Event::Text(text.into_cow()));
        Ok(())
    }

    fn cdata(&mut self, text: &'a str) -> Result<()> {
        self.0 = Some(Event::CData(text));
        Ok(())
    }

    fn comment(&mut self, body: &'a str) -> Result<()> {
        self.0 = Some(Event::Comment(body));
        Ok(())
    }

    fn pi(&mut self, target: &'a str, data: &'a str) -> Result<()> {
        self.0 = Some(Event::ProcessingInstruction { target, data });
        Ok(())
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
