//! Generator output sinks.
//!
//! The generator core walks the virtual document once and emits open/attr/
//! text/close events; a [`GenSink`] decides what becomes of them. One sink
//! feeds the XPath-accelerator encoding directly (the fast path used by
//! benchmarks), the other builds a real DOM for XML serialization.

use staircase_accel::EncodingBuilder;
use staircase_xml::{Document, NodeId};

/// Receiver of generated document structure.
pub(crate) trait GenSink {
    /// Opens an element named `tag`.
    fn open(&mut self, tag: &str);
    /// Adds an attribute to the most recently opened element (must be
    /// called before any child content).
    fn attr(&mut self, name: &str, value: &str);
    /// Emits a text child.
    fn text(&mut self, body: &str);
    /// Closes the innermost open element.
    fn close(&mut self);
}

/// Sink that feeds an [`EncodingBuilder`] (direct-to-plane path).
pub(crate) struct EncodingSink {
    pub builder: EncodingBuilder,
}

impl GenSink for EncodingSink {
    fn open(&mut self, tag: &str) {
        self.builder.open_element(tag);
    }

    fn attr(&mut self, name: &str, value: &str) {
        self.builder.attribute(name, value);
    }

    fn text(&mut self, body: &str) {
        self.builder.text(body);
    }

    fn close(&mut self) {
        self.builder.close_element();
    }
}

/// Sink that builds a [`Document`] tree (XML-text path).
pub(crate) struct DocumentSink {
    pub doc: Document,
    stack: Vec<NodeId>,
}

impl DocumentSink {
    pub fn new() -> DocumentSink {
        let doc = Document::new();
        let root = doc.document_node();
        DocumentSink {
            doc,
            stack: vec![root],
        }
    }
}

impl GenSink for DocumentSink {
    fn open(&mut self, tag: &str) {
        let parent = *self.stack.last().expect("document node always present");
        let id = self.doc.append_element(parent, tag, vec![]);
        self.stack.push(id);
    }

    fn attr(&mut self, name: &str, value: &str) {
        let id = *self.stack.last().expect("attr outside element");
        self.doc.push_attribute(id, name, value);
    }

    fn text(&mut self, body: &str) {
        let parent = *self.stack.last().expect("text outside element");
        self.doc.append_text(parent, body);
    }

    fn close(&mut self) {
        assert!(self.stack.len() > 1, "close without open");
        self.stack.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(sink: &mut impl GenSink) {
        sink.open("site");
        sink.attr("version", "1");
        sink.open("people");
        sink.text("hello");
        sink.close();
        sink.close();
    }

    #[test]
    fn encoding_sink_builds_plane() {
        let mut sink = EncodingSink {
            builder: EncodingBuilder::new(),
        };
        drive(&mut sink);
        let doc = sink.builder.finish();
        // site, @version, people, text
        assert_eq!(doc.len(), 4);
        assert_eq!(doc.tag_name(0), Some("site"));
        assert_eq!(doc.height(), 2);
    }

    #[test]
    fn document_sink_builds_tree() {
        let mut sink = DocumentSink::new();
        drive(&mut sink);
        let xml = sink.doc.to_xml();
        assert_eq!(xml, r#"<site version="1"><people>hello</people></site>"#);
    }

    #[test]
    fn sinks_agree_via_encoding() {
        let mut es = EncodingSink {
            builder: EncodingBuilder::new(),
        };
        drive(&mut es);
        let direct = es.builder.finish();
        let mut ds = DocumentSink::new();
        drive(&mut ds);
        let via_tree = staircase_accel::Doc::from_document(&ds.doc).unwrap();
        assert_eq!(direct.post_column(), via_tree.post_column());
        assert_eq!(direct.kind_column(), via_tree.kind_column());
    }
}
