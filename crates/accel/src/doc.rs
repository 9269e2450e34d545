//! The encoded document (`doc` table) and its streaming loader.

use staircase_storage::Bat;
use staircase_xml::{Attributes, Chars, Document, Error, NodeId, Sink};

use crate::tags::{TagId, TagInterner, NO_TAG};
use crate::{Level, Post, Pre};

/// Parent pre-rank sentinel for the root node.
pub const NO_PARENT: Pre = u32::MAX;

/// The deepest element nesting a document may have: an element opened
/// under `MAX_DEPTH - 1` others sits at level `MAX_DEPTH - 1`, its
/// attributes and children at `Level::MAX`, the last level the 16-bit
/// level column can count. Enforced where text and trees enter
/// ([`Doc::from_xml`], [`Doc::from_document`]); `.scj` decode refuses a
/// stored height the column cannot hold.
pub const MAX_DEPTH: usize = Level::MAX as usize;

/// The most nodes a document may have. Pre and post ranks are `u32`s and
/// `u32::MAX` is [`NO_PARENT`] (and, as a string index, "no content"), so
/// ranks run `0..MAX_NODES`. Post ranks count closed nodes, so this also
/// caps the post counter: it ends at the node count.
const MAX_NODES: usize = u32::MAX as usize;

/// The most content bytes a document may hold: string ends in the arena
/// are `u32`s.
const MAX_CONTENT: usize = u32::MAX as usize;

/// String index of a node without content.
const NO_CONTENT: u32 = u32::MAX;

/// The ingest error for a start tag that would open element number
/// `MAX_DEPTH + 1` on its path (the tokenizer places it in the text).
fn too_deep() -> Error {
    Error::TooDeep {
        limit: MAX_DEPTH,
        pos: None,
    }
}

/// The pre rank of the node that follows `len` nodes, or the ingest error
/// when there is none left.
#[inline]
fn node_rank(len: usize) -> Result<Pre, Error> {
    if len < MAX_NODES {
        Ok(len as Pre)
    } else {
        Err(Error::TooLarge {
            what: "nodes",
            limit: MAX_NODES as u64,
            pos: None,
        })
    }
}

/// `len` as the end of a string in the arena, or the ingest error when the
/// arena would grow past [`MAX_CONTENT`].
#[inline]
fn content_end(len: usize) -> Result<u32, Error> {
    if len <= MAX_CONTENT {
        Ok(len as u32)
    } else {
        Err(Error::TooLarge {
            what: "content bytes",
            limit: MAX_CONTENT as u64,
            pos: None,
        })
    }
}

/// What a programmatic build does with a refusal: there is no caller to
/// hand it to, so it fails loudly rather than wrap a rank.
fn refused(e: Error) -> ! {
    panic!("{e}")
}

/// The kind of an encoded node.
///
/// Attributes use "a special encoding … which allows them to be filtered
/// out if needed" (paper §3): they are ordinary plane nodes distinguished
/// only by this kind tag, placed in document order directly after their
/// owning element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum NodeKind {
    /// An element node.
    Element = 0,
    /// An attribute node (filtered from every axis except `attribute`).
    Attribute = 1,
    /// A text node.
    Text = 2,
    /// A comment node.
    Comment = 3,
    /// A processing instruction node.
    Pi = 4,
}

impl NodeKind {
    fn from_u8(v: u8) -> NodeKind {
        match v {
            0 => NodeKind::Element,
            1 => NodeKind::Attribute,
            2 => NodeKind::Text,
            3 => NodeKind::Comment,
            _ => NodeKind::Pi,
        }
    }
}

/// The XPath-accelerator encoding of one document: the paper's `doc` table.
///
/// Columns are dense and indexed positionally by preorder rank (`pre` is a
/// *void* column, cf. §4.1): `post` (the only column the staircase join's
/// inner loop reads), `level`, `kind`, `tag`, `parent`, and an optional
/// content arena for value reconstruction.
///
/// Node content (text bodies, attribute values, comment text, PI data)
/// lives in **one flat arena**: `arena` holds every content string's bytes
/// back to back in document order, `arena_ends[i]` is where string `i`
/// stops (it starts where string `i − 1` stopped), and `content[v]` is the
/// string index of node `v`. An empty string is a zero-length slice, so
/// `Some("")` (an attribute written `x=""`) stays distinct from `None` (an
/// element). A document is thus a fixed number of heap blocks whatever its
/// size: building a content node is a `push_str`, and dropping a document
/// frees a handful of buffers.
#[derive(Debug, Clone)]
pub struct Doc {
    post: Bat<Post>,
    level: Vec<Level>,
    kind: Vec<u8>,
    tag: Vec<TagId>,
    parent: Vec<Pre>,
    /// Content string index per node (`u32::MAX` = none).
    content: Vec<u32>,
    arena: String,
    arena_ends: Vec<u32>,
    tags: TagInterner,
    height: Level,
}

impl Doc {
    /// Parses XML text and encodes it in one document-order pass: the push
    /// tokenizer hands each construct straight to an [`EncodingBuilder`]
    /// (its [`Sink`]), so text becomes columns with no event in between and
    /// no allocation per node. Content (text/attribute values) is retained
    /// so the document can be reconstructed.
    ///
    /// # Errors
    ///
    /// The first well-formedness error in the text, or a document the
    /// encoding cannot count: [`Error::TooDeep`] past [`MAX_DEPTH`],
    /// [`Error::TooLarge`] past 2³² − 1 nodes or 4 GiB of content. Each
    /// carries the position of the construct that caused it.
    pub fn from_xml(input: &str) -> Result<Doc, Error> {
        let mut b = EncodingBuilder::new();
        // Pre-sized for XMark-like text (≈ 14 bytes a node, every other node
        // with content); denser input grows by doubling, `finish` trims.
        let nodes = input.len() / 12;
        b.reserve(nodes);
        b.arena_ends.reserve(nodes / 2);
        b.arena.reserve(input.len() / 2);
        staircase_xml::tokenize(input, &mut b)?;
        Ok(b.finish())
    }

    /// Encodes an in-memory [`Document`] tree; [`Error::TooDeep`] when its
    /// elements nest deeper than [`MAX_DEPTH`], [`Error::TooLarge`] when it
    /// has more nodes or content bytes than 32-bit ranks and offsets count.
    pub fn from_document(doc: &Document) -> Result<Doc, Error> {
        let mut b = EncodingBuilder::new();
        // One child iterator per open node, on the heap: a tree as deep
        // as the encoding allows would overflow a thread's stack.
        let mut open = vec![doc.children(doc.document_node())];
        while let Some(children) = open.last_mut() {
            let Some(id) = children.next() else {
                open.pop();
                if !open.is_empty() {
                    b.close_element();
                }
                continue;
            };
            match doc.kind(id) {
                staircase_xml::NodeKind::Document => {} // never a child
                staircase_xml::NodeKind::Element { name, attributes } => {
                    if b.depth() >= MAX_DEPTH {
                        return Err(too_deep());
                    }
                    let tag = b.tags.intern(name);
                    b.open(tag)?;
                    for (k, v) in attributes {
                        let name = b.tags.intern(k);
                        b.leaf(NodeKind::Attribute, name, Some(v))?;
                    }
                    open.push(doc.children(id));
                }
                staircase_xml::NodeKind::Text(t) => {
                    b.leaf(NodeKind::Text, NO_TAG, Some(t))?;
                }
                staircase_xml::NodeKind::Comment(c) => {
                    b.leaf(NodeKind::Comment, NO_TAG, Some(c))?;
                }
                staircase_xml::NodeKind::Pi { target, data } => {
                    let tag = b.tags.intern(target);
                    b.leaf(NodeKind::Pi, tag, Some(data))?;
                }
            }
        }
        Ok(b.finish())
    }

    /// Reconstructs a [`Document`] tree (requires retained content).
    pub fn to_document(&self) -> Document {
        let mut out = Document::new();
        let mut stack: Vec<(Pre, NodeId)> = vec![];
        let mut pre = 0 as Pre;
        while (pre as usize) < self.len() {
            // Pop completed elements: `pre` is past their subtree.
            while let Some(&(open, _)) = stack.last() {
                if !self.is_descendant_window(open, pre) {
                    stack.pop();
                } else {
                    break;
                }
            }
            let parent_id = stack
                .last()
                .map(|&(_, id)| id)
                .unwrap_or(out.document_node());
            match self.kind(pre) {
                NodeKind::Element => {
                    let name = self.tag_name(pre).unwrap_or("?").to_string();
                    // Attribute nodes directly follow their element.
                    let mut attrs = Vec::new();
                    let mut next = pre + 1;
                    while (next as usize) < self.len() && self.kind(next) == NodeKind::Attribute {
                        attrs.push((
                            self.tag_name(next).unwrap_or("?").to_string(),
                            self.content(next).unwrap_or("").to_string(),
                        ));
                        next += 1;
                    }
                    let id = out.append_element(parent_id, &name, attrs);
                    stack.push((pre, id));
                    pre = next;
                    continue;
                }
                NodeKind::Attribute => unreachable!("attributes are consumed by their element"),
                NodeKind::Text => out.append_text(parent_id, self.content(pre).unwrap_or("")),
                NodeKind::Comment => {
                    out.append_child(
                        parent_id,
                        staircase_xml::NodeKind::Comment(self.content(pre).unwrap_or("").into()),
                    );
                }
                NodeKind::Pi => {
                    let target = self.tag_name(pre).unwrap_or("?").to_string();
                    out.append_child(
                        parent_id,
                        staircase_xml::NodeKind::Pi {
                            target,
                            data: self.content(pre).unwrap_or("").into(),
                        },
                    );
                }
            }
            pre += 1;
        }
        out
    }

    /// `true` if `v` lies in the (inclusive-of-self) descendant window of
    /// `c`: `pre(v) >= pre(c) && post(v) <= post(c)`.
    #[inline]
    fn is_descendant_window(&self, c: Pre, v: Pre) -> bool {
        v >= c && self.post(v) <= self.post(c)
    }

    /// Number of encoded nodes (all kinds, attributes included).
    #[inline]
    pub fn len(&self) -> usize {
        self.level.len()
    }

    /// `true` for an empty document.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.level.is_empty()
    }

    /// The root node (pre rank 0). Panics on an empty document.
    #[inline]
    pub fn root(&self) -> Pre {
        assert!(!self.is_empty(), "empty document has no root");
        0
    }

    /// Postorder rank of `v`.
    #[inline]
    pub fn post(&self, v: Pre) -> Post {
        self.post.tail()[v as usize]
    }

    /// The whole postorder column — what the staircase join scans.
    #[inline]
    pub fn post_column(&self) -> &[Post] {
        self.post.tail()
    }

    /// Depth of `v` below the root (root = 0).
    #[inline]
    pub fn level(&self, v: Pre) -> Level {
        self.level[v as usize]
    }

    /// The level column.
    #[inline]
    pub fn level_column(&self) -> &[Level] {
        &self.level
    }

    /// Node kind of `v`.
    #[inline]
    pub fn kind(&self, v: Pre) -> NodeKind {
        NodeKind::from_u8(self.kind[v as usize])
    }

    /// The kind column (raw `u8`s, one per node).
    #[inline]
    pub fn kind_column(&self) -> &[u8] {
        &self.kind
    }

    /// Tag id of `v` ([`NO_TAG`] for text/comment nodes; attribute nodes
    /// carry their attribute name, PI nodes their target).
    #[inline]
    pub fn tag(&self, v: Pre) -> TagId {
        self.tag[v as usize]
    }

    /// The tag column.
    #[inline]
    pub fn tag_column(&self) -> &[TagId] {
        &self.tag
    }

    /// Tag name of `v`, if it has one.
    pub fn tag_name(&self, v: Pre) -> Option<&str> {
        self.tags.name(self.tag(v))
    }

    /// Pre rank of `v`'s parent ([`NO_PARENT`] for the root).
    #[inline]
    pub fn parent(&self, v: Pre) -> Pre {
        self.parent[v as usize]
    }

    /// The parent column.
    #[inline]
    pub fn parent_column(&self) -> &[Pre] {
        &self.parent
    }

    /// Stored content of `v` (text body, attribute value, comment text,
    /// PI data), if retained.
    pub fn content(&self, v: Pre) -> Option<&str> {
        let idx = self.content[v as usize] as usize;
        let end = *self.arena_ends.get(idx)? as usize;
        let start = idx
            .checked_sub(1)
            .map_or(0, |i| self.arena_ends[i] as usize);
        Some(&self.arena[start..end])
    }

    /// The tag-name interner.
    pub fn tags(&self) -> &TagInterner {
        &self.tags
    }

    /// Looks up the id of `name` if it occurs in the document.
    pub fn tag_id(&self, name: &str) -> Option<TagId> {
        self.tags.get(name)
    }

    /// Height `h` of the document: the maximum level, i.e. the length of
    /// the longest root-to-leaf path counted in edges. The paper computes
    /// `h` at document-loading time and uses it to bound `level(v)` in
    /// Equation (1).
    #[inline]
    pub fn height(&self) -> Level {
        self.height
    }

    /// **Equation (1)** — the exact number of nodes in the descendant
    /// region of `v` (attributes included):
    ///
    /// ```text
    /// |(v)/descendant| = post(v) − pre(v) + level(v)
    /// ```
    #[inline]
    pub fn subtree_size(&self, v: Pre) -> u32 {
        // post − pre may be transiently negative (leaves early in document
        // order); the sum with level is always ≥ 0.
        (self.post(v) as i64 - v as i64 + self.level(v) as i64) as u32
    }

    /// Iterates all pre ranks.
    pub fn pres(&self) -> impl ExactSizeIterator<Item = Pre> {
        0..self.len() as Pre
    }

    /// Iterates the children of `v` in document order (attributes
    /// included; filter by [`Doc::kind`] if needed). Skips over whole
    /// subtrees using Equation (1), so cost is `O(#children)`.
    pub fn children(&self, v: Pre) -> Children<'_> {
        Children {
            doc: self,
            next: v + 1,
            end: v + 1 + self.subtree_size(v),
        }
    }

    /// Iterates the descendants of `v` in document order (the contiguous
    /// preorder run after `v`).
    pub fn descendants(&self, v: Pre) -> impl ExactSizeIterator<Item = Pre> {
        v + 1..v + 1 + self.subtree_size(v)
    }

    /// Iterates `v`'s ancestors bottom-up (parent first).
    pub fn ancestors(&self, v: Pre) -> Ancestors<'_> {
        Ancestors {
            doc: self,
            next: self.parent(v),
        }
    }

    /// Exhaustively checks the encoding invariants; returns a description
    /// of the first violation, if any. Intended for validating documents
    /// decoded from untrusted bytes (see `Doc::from_bytes`).
    ///
    /// The check replays the loader: walking the pre ranks with the stack
    /// of open elements that the `parent` column implies must reproduce
    /// `post`, `level` and the height exactly, so a document that passes
    /// is one [`EncodingBuilder`] could have built.
    pub fn validate(&self) -> Result<(), String> {
        let mut open: Vec<Pre> = Vec::new();
        let mut next_post: Post = 0;
        let mut close = |v: Pre| {
            let closed = next_post;
            next_post += 1;
            if self.post(v) == closed {
                Ok(())
            } else {
                Err(format!("post({v}) = {}, expected {closed}", self.post(v)))
            }
        };
        let mut height: Level = 0;
        for v in self.pres() {
            let p = self.parent(v);
            // Elements `v` is not inside are complete.
            while open.last().is_some_and(|&top| top != p) {
                close(open.pop().expect("checked non-empty"))?;
            }
            // An empty stack is the top level (prolog comments and PIs
            // sit there beside the root element).
            if open.is_empty() && p != NO_PARENT {
                return Err(format!("parent({v}) = {p} is not an open element"));
            }
            if self.level(v) as usize != open.len() {
                return Err(format!("level({v}) inconsistent with parent {p}"));
            }
            height = height.max(self.level(v));
            let kind = self.kind(v);
            if matches!(kind, NodeKind::Element | NodeKind::Attribute)
                && self.tags.name(self.tag(v)).is_none()
            {
                return Err(format!("node {v} references unknown tag {}", self.tag(v)));
            }
            // Attributes directly follow their element or a sibling attribute.
            if kind == NodeKind::Attribute
                && !(v > 0
                    && (p == v - 1
                        || (self.kind(v - 1) == NodeKind::Attribute && self.parent(v - 1) == p)))
            {
                return Err(format!("attribute {v} does not follow its element"));
            }
            if kind == NodeKind::Element {
                open.push(v);
            } else {
                close(v)?;
            }
        }
        while let Some(v) = open.pop() {
            close(v)?;
        }
        if height != self.height {
            return Err(format!(
                "stored height {} != computed {height}",
                self.height
            ));
        }
        Ok(())
    }

    /// The content arena, its string ends and the per-node content index
    /// (persistence support).
    pub(crate) fn content_columns(&self) -> (&str, &[u32], &[u32]) {
        (&self.arena, &self.arena_ends, &self.content)
    }

    /// Reassembles a document from raw columns (persistence support).
    /// Callers must supply mutually consistent columns; this is `pub`
    /// within the crate only.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_raw_parts(
        post: Vec<Post>,
        level: Vec<Level>,
        kind: Vec<u8>,
        tag: Vec<TagId>,
        parent: Vec<Pre>,
        content: Vec<u32>,
        arena: String,
        arena_ends: Vec<u32>,
        tags: TagInterner,
        height: Level,
    ) -> Doc {
        // Decoded interners carry no occurrence counts; recount the
        // per-tag fragment sizes from the raw columns so planners see the
        // same statistics whether the document was built or decoded.
        let mut tags = tags;
        tags.clear_element_counts();
        let element = NodeKind::Element as u8;
        for (k, &t) in kind.iter().zip(&tag) {
            if *k == element {
                tags.record_element(t);
            }
        }
        Doc {
            post: Bat::from_tail(0, post),
            level,
            kind,
            tag,
            parent,
            content,
            arena,
            arena_ends,
            tags,
            height,
        }
    }

    /// Pre ranks of all *element* nodes with tag `tag`, in document order.
    pub fn elements_with_tag(&self, tag: TagId) -> Vec<Pre> {
        self.pres()
            .filter(|&p| self.kind(p) == NodeKind::Element && self.tag(p) == tag)
            .collect()
    }

    /// Per-kind node counts `(elements, attributes, texts, comments, pis)`.
    pub fn kind_counts(&self) -> (usize, usize, usize, usize, usize) {
        let mut c = [0usize; 5];
        for &k in &self.kind {
            c[k as usize] += 1;
        }
        (c[0], c[1], c[2], c[3], c[4])
    }
}

/// Iterator over the children of a node (see [`Doc::children`]).
pub struct Children<'d> {
    doc: &'d Doc,
    next: Pre,
    end: Pre,
}

impl Iterator for Children<'_> {
    type Item = Pre;

    fn next(&mut self) -> Option<Pre> {
        if self.next >= self.end {
            return None;
        }
        let child = self.next;
        // Jump over the child's entire subtree to its next sibling.
        self.next = child + 1 + self.doc.subtree_size(child);
        Some(child)
    }
}

/// Iterator over a node's ancestors, bottom-up (see [`Doc::ancestors`]).
pub struct Ancestors<'d> {
    doc: &'d Doc,
    next: Pre,
}

impl Iterator for Ancestors<'_> {
    type Item = Pre;

    fn next(&mut self) -> Option<Pre> {
        if self.next == NO_PARENT {
            return None;
        }
        let a = self.next;
        self.next = self.doc.parent(a);
        Some(a)
    }
}

/// Streaming builder for [`Doc`] — the "document loading" phase.
///
/// Drives the single counter pair the encoding needs: `pre` is assigned
/// when a node is opened, `post` when it is closed; leaves open and close
/// immediately. Attribute nodes are emitted directly after their element,
/// before any content — XPath document order.
///
/// It is the push tokenizer's [`Sink`] for [`Doc::from_xml`]; generators
/// drive it directly through the `open_element` / `text` / … calls, which
/// panic where ingest would return a typed error (too deep, too many nodes,
/// too much content), since no caller could handle it.
#[derive(Debug)]
pub struct EncodingBuilder {
    post: Vec<Post>,
    level: Vec<Level>,
    kind: Vec<u8>,
    tag: Vec<TagId>,
    parent: Vec<Pre>,
    content: Vec<u32>,
    arena: String,
    arena_ends: Vec<u32>,
    tags: TagInterner,
    /// Stack of open element pre ranks.
    open: Vec<Pre>,
    next_post: Post,
    height: Level,
    store_content: bool,
}

impl EncodingBuilder {
    /// A builder that retains node content.
    pub fn new() -> EncodingBuilder {
        EncodingBuilder::with_content(true)
    }

    /// A builder that drops node content (used by the generator's direct
    /// path, where multi-million-node documents would otherwise spend most
    /// of their memory on filler strings).
    pub fn without_content() -> EncodingBuilder {
        EncodingBuilder::with_content(false)
    }

    fn with_content(store_content: bool) -> EncodingBuilder {
        EncodingBuilder {
            post: Vec::new(),
            level: Vec::new(),
            kind: Vec::new(),
            tag: Vec::new(),
            parent: Vec::new(),
            content: Vec::new(),
            arena: String::new(),
            arena_ends: Vec::new(),
            tags: TagInterner::new(),
            open: Vec::new(),
            next_post: 0,
            height: 0,
            store_content,
        }
    }

    /// Pre-allocates columns for `n` expected nodes.
    pub fn reserve(&mut self, n: usize) {
        self.post.reserve(n);
        self.level.reserve(n);
        self.kind.reserve(n);
        self.tag.reserve(n);
        self.parent.reserve(n);
        self.content.reserve(n);
    }

    /// Current depth (number of open elements).
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Number of nodes emitted so far.
    pub fn len(&self) -> usize {
        self.level.len()
    }

    /// `true` before the first node.
    pub fn is_empty(&self) -> bool {
        self.level.is_empty()
    }

    /// Appends a node's row to every column but `content`, as a child of
    /// the innermost open element.
    #[inline]
    fn push_row(&mut self, kind: NodeKind, tag: TagId, post: Post) -> Result<Pre, Error> {
        let pre = node_rank(self.level.len())?;
        let level = Level::try_from(self.open.len()).expect("document deeper than u16::MAX levels");
        self.post.push(post);
        self.level.push(level);
        self.height = self.height.max(level);
        self.kind.push(kind as u8);
        self.tag.push(tag);
        self.parent
            .push(self.open.last().copied().unwrap_or(NO_PARENT));
        Ok(pre)
    }

    /// Opens an element: its post rank is patched in when it closes.
    #[inline]
    fn open(&mut self, tag: TagId) -> Result<Pre, Error> {
        let pre = self.push_row(NodeKind::Element, tag, 0)?;
        self.tags.record_element(tag);
        self.content.push(NO_CONTENT);
        self.open.push(pre);
        Ok(pre)
    }

    /// Emits a leaf, which opens and closes at once: its post rank is the
    /// next one.
    #[inline]
    fn leaf(&mut self, kind: NodeKind, tag: TagId, content: Option<&str>) -> Result<Pre, Error> {
        let pre = self.push_row(kind, tag, self.next_post)?;
        self.next_post += 1;
        match content {
            Some(c) if self.store_content => {
                let end = content_end(self.arena.len() + c.len())?;
                self.arena.push_str(c);
                self.content.push(self.arena_ends.len() as u32);
                self.arena_ends.push(end);
            }
            _ => self.content.push(NO_CONTENT),
        }
        Ok(pre)
    }

    /// Emits `run` as a text node or, when the node emitted last is a text
    /// node in the same element, appends it to that node's content: its
    /// string is the arena's open tail. Consecutive text and CDATA runs so
    /// make one text node (the XPath data model has no adjacent text
    /// siblings). Empty runs emit nothing.
    fn text_run(&mut self, run: &str) -> Result<(), Error> {
        if run.is_empty() {
            return Ok(());
        }
        let text_is_last = self.kind.last() == Some(&(NodeKind::Text as u8))
            && self.parent.last() == Some(self.open.last().unwrap_or(&NO_PARENT));
        if !text_is_last {
            self.leaf(NodeKind::Text, NO_TAG, Some(run))?;
        } else if self.store_content {
            let end = content_end(self.arena.len() + run.len())?;
            self.arena.push_str(run);
            *self.arena_ends.last_mut().expect("a text node is last") = end;
        }
        Ok(())
    }

    /// Opens an element named `tag`; returns its pre rank.
    pub fn open_element(&mut self, tag: &str) -> Pre {
        let id = self.tags.intern(tag);
        self.open(id).unwrap_or_else(|e| refused(e))
    }

    /// Opens an element by already-interned tag id (generator fast path).
    pub fn open_element_id(&mut self, tag: TagId) -> Pre {
        debug_assert!(self.tags.name(tag).is_some(), "unknown tag id");
        self.open(tag).unwrap_or_else(|e| refused(e))
    }

    /// Interns a tag name without emitting a node (generator setup).
    pub fn intern(&mut self, tag: &str) -> TagId {
        self.tags.intern(tag)
    }

    /// Closes the innermost open element. Panics if none is open.
    pub fn close_element(&mut self) {
        let pre = self.open.pop().expect("close_element without open element");
        self.post[pre as usize] = self.next_post;
        self.next_post += 1;
    }

    /// Emits an attribute node on the innermost open element.
    pub fn attribute(&mut self, name: &str, value: &str) -> Pre {
        assert!(!self.open.is_empty(), "attribute outside any element");
        let id = self.tags.intern(name);
        self.leaf(NodeKind::Attribute, id, Some(value))
            .unwrap_or_else(|e| refused(e))
    }

    /// Emits an attribute node by interned name id (generator fast path).
    pub fn attribute_id(&mut self, name: TagId) -> Pre {
        assert!(!self.open.is_empty(), "attribute outside any element");
        self.leaf(NodeKind::Attribute, name, None)
            .unwrap_or_else(|e| refused(e))
    }

    /// Emits a text node.
    pub fn text(&mut self, body: &str) -> Pre {
        self.leaf(NodeKind::Text, NO_TAG, Some(body))
            .unwrap_or_else(|e| refused(e))
    }

    /// Emits a text node without content (generator fast path).
    pub fn text_marker(&mut self) -> Pre {
        self.leaf(NodeKind::Text, NO_TAG, None)
            .unwrap_or_else(|e| refused(e))
    }

    /// Emits a comment node.
    pub fn comment(&mut self, body: &str) -> Pre {
        self.leaf(NodeKind::Comment, NO_TAG, Some(body))
            .unwrap_or_else(|e| refused(e))
    }

    /// Emits a processing-instruction node.
    pub fn pi(&mut self, target: &str, data: &str) -> Pre {
        let id = self.tags.intern(target);
        self.leaf(NodeKind::Pi, id, Some(data))
            .unwrap_or_else(|e| refused(e))
    }

    /// Finalises the encoding. Panics if elements are still open.
    pub fn finish(mut self) -> Doc {
        assert!(
            self.open.is_empty(),
            "finish with {} open element(s)",
            self.open.len()
        );
        debug_assert_eq!(self.next_post as usize, self.post.len());
        // The document outlives the build by far: give back the slack the
        // pre-sizing guess or the last doubling left in every buffer.
        self.post.shrink_to_fit();
        self.level.shrink_to_fit();
        self.kind.shrink_to_fit();
        self.tag.shrink_to_fit();
        self.parent.shrink_to_fit();
        self.content.shrink_to_fit();
        self.arena.shrink_to_fit();
        self.arena_ends.shrink_to_fit();
        Doc {
            post: Bat::from_tail(0, self.post),
            level: self.level,
            kind: self.kind,
            tag: self.tag,
            parent: self.parent,
            content: self.content,
            arena: self.arena,
            arena_ends: self.arena_ends,
            tags: self.tags,
            height: self.height,
        }
    }
}

impl Default for EncodingBuilder {
    fn default() -> Self {
        EncodingBuilder::new()
    }
}

/// The loader: the push tokenizer drives the builder directly, so
/// [`Doc::from_xml`] turns text into columns with no event values and no
/// allocation per start tag. A refusal (too deep, too many nodes, too much
/// content) ends the load, and the tokenizer places it in the text.
impl<'a> Sink<'a> for EncodingBuilder {
    fn start_tag(
        &mut self,
        name: &'a str,
        attributes: &Attributes<'a>,
        self_closing: bool,
    ) -> Result<(), Error> {
        if self.open.len() >= MAX_DEPTH {
            return Err(too_deep());
        }
        let tag = self.tags.intern(name);
        self.open(tag)?;
        for (name, value) in attributes.iter() {
            let name = self.tags.intern(name);
            self.leaf(NodeKind::Attribute, name, Some(value.as_str()))?;
        }
        if self_closing {
            self.close_element();
        }
        Ok(())
    }

    fn end_tag(&mut self, _name: &'a str) -> Result<(), Error> {
        self.close_element();
        Ok(())
    }

    fn text(&mut self, text: Chars<'a, '_>) -> Result<(), Error> {
        self.text_run(text.as_str())
    }

    fn cdata(&mut self, text: &'a str) -> Result<(), Error> {
        self.text_run(text)
    }

    fn comment(&mut self, body: &'a str) -> Result<(), Error> {
        self.leaf(NodeKind::Comment, NO_TAG, Some(body)).map(drop)
    }

    fn pi(&mut self, target: &'a str, data: &'a str) -> Result<(), Error> {
        let tag = self.tags.intern(target);
        self.leaf(NodeKind::Pi, tag, Some(data)).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staircase_xml::TextPos;

    /// The paper's Figure 1/2 document: a(b(c),d,e(f(g,h),i(j))).
    pub(crate) fn figure1() -> Doc {
        Doc::from_xml("<a><b><c/></b><d/><e><f><g/><h/></f><i><j/></i></e></a>").unwrap()
    }

    fn chain_xml(depth: usize) -> String {
        "<a>".repeat(depth) + &"</a>".repeat(depth)
    }

    #[test]
    fn deepest_encodable_chain_loads_with_exact_levels() {
        let doc = Doc::from_xml(&chain_xml(MAX_DEPTH)).unwrap();
        assert_eq!(doc.len(), MAX_DEPTH);
        assert_eq!(doc.height() as usize, MAX_DEPTH - 1);
        let last = (MAX_DEPTH - 1) as Pre;
        assert_eq!(doc.level(last) as usize, MAX_DEPTH - 1, "no wrap-around");
        assert_eq!(doc.parent(last), last - 1);
        doc.validate().unwrap();
    }

    #[test]
    fn one_level_too_deep_is_a_typed_error_before_the_node_is_pushed() {
        // From text: the error names the start tag that went too far.
        let xml = chain_xml(MAX_DEPTH + 2);
        let offending = 3 * MAX_DEPTH; // byte offset of start tag number MAX_DEPTH + 1
        assert_eq!(
            Doc::from_xml(&xml).unwrap_err(),
            staircase_xml::Error::TooDeep {
                limit: MAX_DEPTH,
                pos: Some(TextPos {
                    line: 1,
                    col: offending as u32 + 1
                }),
            }
        );
        // An attribute or text child of the deepest element still fits.
        let leafy = "<a>".repeat(MAX_DEPTH - 1) + "<a x='1'>t</a>" + &"</a>".repeat(MAX_DEPTH - 1);
        let doc = Doc::from_xml(&leafy).unwrap();
        assert_eq!(doc.height(), Level::MAX);

        // From a tree (built without recursion, as it must be walked).
        let mut tree = Document::new();
        let mut at = tree.document_node();
        for _ in 0..MAX_DEPTH + 2 {
            at = tree.append_element(at, "a", Vec::new());
        }
        assert_eq!(
            Doc::from_document(&tree).unwrap_err(),
            staircase_xml::Error::TooDeep {
                limit: MAX_DEPTH,
                pos: None
            }
        );
    }

    #[test]
    #[should_panic(expected = "document deeper than u16::MAX levels")]
    fn programmatic_builder_fails_loudly_instead_of_wrapping() {
        let mut b = EncodingBuilder::without_content();
        for _ in 0..MAX_DEPTH + 2 {
            b.open_element("a");
        }
    }

    #[test]
    fn the_encoding_caps_are_typed_errors_at_their_u32_boundaries() {
        // The last rank below `NO_PARENT` is given out; the one after it is
        // refused, not wrapped to 0.
        assert_eq!(node_rank(0), Ok(0));
        assert_eq!(node_rank(MAX_NODES - 1), Ok(u32::MAX - 1));
        let too_many = Error::TooLarge {
            what: "nodes",
            limit: u32::MAX as u64,
            pos: None,
        };
        assert_eq!(node_rank(MAX_NODES), Err(too_many.clone()));
        assert_eq!(node_rank(usize::MAX), Err(too_many));
        // A string may end at the last byte a `u32` can address, not past.
        assert_eq!(content_end(MAX_CONTENT), Ok(u32::MAX));
        assert_eq!(
            content_end(MAX_CONTENT + 1).unwrap_err().to_string(),
            "document has more than 4294967295 content bytes"
        );
    }

    #[test]
    fn figure2_pre_post_table() {
        let doc = figure1();
        // pre/post exactly as printed in Figure 2.
        let expected: [(&str, Pre, Post); 10] = [
            ("a", 0, 9),
            ("b", 1, 1),
            ("c", 2, 0),
            ("d", 3, 2),
            ("e", 4, 8),
            ("f", 5, 5),
            ("g", 6, 3),
            ("h", 7, 4),
            ("i", 8, 7),
            ("j", 9, 6),
        ];
        assert_eq!(doc.len(), 10);
        for (name, pre, post) in expected {
            assert_eq!(doc.tag_name(pre), Some(name), "tag at pre {pre}");
            assert_eq!(doc.post(pre), post, "post({name})");
        }
    }

    #[test]
    fn figure2_levels_and_height() {
        let doc = figure1();
        let levels: Vec<Level> = doc.pres().map(|p| doc.level(p)).collect();
        assert_eq!(levels, [0, 1, 2, 1, 1, 2, 3, 3, 2, 3]);
        assert_eq!(doc.height(), 3);
    }

    #[test]
    fn fragment_sizes_match_columns_and_survive_persistence() {
        let doc = Doc::from_xml("<a x='1'><b/><b/><c>t</c><b y='2'/></a>").expect("fixture parses");
        let count = |d: &Doc, name: &str| {
            d.tag_id(name)
                .map(|t| d.tags().element_count(t))
                .unwrap_or(0)
        };
        assert_eq!(count(&doc, "b"), 3);
        assert_eq!(count(&doc, "c"), 1);
        assert_eq!(count(&doc, "a"), 1);
        // Attribute names intern but contribute no element occurrences.
        assert_eq!(count(&doc, "x"), 0);
        for (t, _) in doc.tags().iter() {
            assert_eq!(doc.tags().element_count(t), doc.elements_with_tag(t).len());
        }
        // The decode path recounts from the raw columns.
        let reloaded = Doc::from_bytes(&doc.to_bytes()).expect("roundtrip decodes");
        for (t, name) in doc.tags().iter() {
            assert_eq!(
                reloaded.tags().element_count(t),
                doc.tags().element_count(t),
                "{name}"
            );
        }
    }

    #[test]
    fn equation_1_exact_on_figure1() {
        let doc = figure1();
        // Manually counted descendant set sizes.
        let expected = [9u32, 1, 0, 0, 5, 2, 0, 0, 1, 0];
        for p in doc.pres() {
            assert_eq!(
                doc.subtree_size(p),
                expected[p as usize],
                "subtree of pre {p}"
            );
        }
    }

    #[test]
    fn parents_follow_tree() {
        let doc = figure1();
        let parents: Vec<Pre> = doc.pres().map(|p| doc.parent(p)).collect();
        assert_eq!(parents, [NO_PARENT, 0, 1, 0, 0, 4, 5, 5, 4, 8]);
    }

    #[test]
    fn attributes_are_plane_nodes_after_element() {
        let doc = Doc::from_xml(r#"<a x="1" y="2"><b/></a>"#).unwrap();
        // pre order: a, @x, @y, b
        assert_eq!(doc.len(), 4);
        assert_eq!(doc.kind(0), NodeKind::Element);
        assert_eq!(doc.kind(1), NodeKind::Attribute);
        assert_eq!(doc.kind(2), NodeKind::Attribute);
        assert_eq!(doc.kind(3), NodeKind::Element);
        assert_eq!(doc.tag_name(1), Some("x"));
        assert_eq!(doc.content(1), Some("1"));
        // Attributes lie inside a's descendant region.
        assert!(doc.post(1) < doc.post(0));
        assert!(
            doc.post(2) < doc.post(3),
            "attributes close before following siblings"
        );
    }

    #[test]
    fn text_comment_pi_nodes_encoded() {
        let doc = Doc::from_xml("<a>hi<!--c--><?t d?></a>").unwrap();
        assert_eq!(doc.len(), 4);
        assert_eq!(doc.kind(1), NodeKind::Text);
        assert_eq!(doc.content(1), Some("hi"));
        assert_eq!(doc.kind(2), NodeKind::Comment);
        assert_eq!(doc.kind(3), NodeKind::Pi);
        assert_eq!(doc.tag_name(3), Some("t"));
    }

    #[test]
    fn post_is_permutation_of_pre() {
        let doc = figure1();
        let mut posts: Vec<Post> = doc.post_column().to_vec();
        posts.sort_unstable();
        let expected: Vec<Post> = (0..doc.len() as Post).collect();
        assert_eq!(posts, expected);
    }

    #[test]
    fn roundtrip_through_document() {
        let xml = r#"<site><people><person id="p0"><name>Jo</name></person></people><open_auctions/></site>"#;
        let doc = Doc::from_xml(xml).unwrap();
        let rebuilt = doc.to_document();
        assert_eq!(rebuilt.to_xml(), xml);
    }

    #[test]
    fn builder_direct_matches_from_xml() {
        let via_xml = Doc::from_xml("<a><b>t</b><c/></a>").unwrap();
        let mut b = EncodingBuilder::new();
        b.open_element("a");
        b.open_element("b");
        b.text("t");
        b.close_element();
        b.open_element("c");
        b.close_element();
        b.close_element();
        let direct = b.finish();
        assert_eq!(via_xml.post_column(), direct.post_column());
        assert_eq!(via_xml.len(), direct.len());
    }

    #[test]
    fn without_content_drops_arena() {
        let mut b = EncodingBuilder::without_content();
        b.open_element("a");
        b.text("payload");
        b.close_element();
        let doc = b.finish();
        assert_eq!(doc.content(1), None);
        assert_eq!(doc.kind(1), NodeKind::Text);
    }

    #[test]
    #[should_panic(expected = "open element")]
    fn close_without_open_panics() {
        let mut b = EncodingBuilder::new();
        b.close_element();
    }

    #[test]
    #[should_panic(expected = "finish with")]
    fn finish_with_open_panics() {
        let mut b = EncodingBuilder::new();
        b.open_element("a");
        let _ = b.finish();
    }

    #[test]
    fn kind_counts_tally() {
        let doc = Doc::from_xml(r#"<a x="1">t<!--c--><?p d?><b/></a>"#).unwrap();
        assert_eq!(doc.kind_counts(), (2, 1, 1, 1, 1));
    }

    #[test]
    fn elements_with_tag_in_document_order() {
        let doc = Doc::from_xml("<a><b/><a><b/></a></a>").unwrap();
        let b_id = doc.tag_id("b").unwrap();
        assert_eq!(doc.elements_with_tag(b_id), vec![1, 3]);
    }

    #[test]
    fn children_iterator_skips_subtrees() {
        let doc = figure1();
        // a's children: b (1), d (3), e (4) — skipping over c inside b.
        assert_eq!(doc.children(0).collect::<Vec<_>>(), vec![1, 3, 4]);
        assert_eq!(doc.children(4).collect::<Vec<_>>(), vec![5, 8]); // f, i
        assert_eq!(doc.children(2).count(), 0); // leaf
    }

    #[test]
    fn descendants_iterator_is_contiguous_run() {
        let doc = figure1();
        assert_eq!(doc.descendants(4).collect::<Vec<_>>(), vec![5, 6, 7, 8, 9]);
        assert_eq!(doc.descendants(9).count(), 0);
    }

    #[test]
    fn ancestors_iterator_bottom_up() {
        let doc = figure1();
        assert_eq!(doc.ancestors(6).collect::<Vec<_>>(), vec![5, 4, 0]); // f, e, a
        assert_eq!(doc.ancestors(0).count(), 0);
    }

    #[test]
    fn validate_accepts_well_formed_encodings() {
        assert_eq!(figure1().validate(), Ok(()));
        let doc = Doc::from_xml(r#"<a x="1">t<!--c--><b><c/></b></a>"#).unwrap();
        assert_eq!(doc.validate(), Ok(()));
        assert_eq!(EncodingBuilder::new().finish().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_columns_no_loader_builds() {
        // r(x(z), y) with z placed after y: every parent is earlier and
        // encloses its child and every level is its parent's plus one, yet
        // y sits inside x's pre range without being its descendant.
        let mut tags = TagInterner::new();
        let t = tags.intern("t");
        let build = |post: Vec<Post>, kind: Vec<u8>, parent: Vec<Pre>| {
            Doc::from_raw_parts(
                post,
                vec![0, 1, 1, 2],
                kind,
                vec![t; 4],
                parent,
                vec![u32::MAX; 4],
                String::new(),
                Vec::new(),
                tags.clone(),
                2,
            )
        };
        let scrambled = build(vec![3, 2, 0, 1], vec![0; 4], vec![NO_PARENT, 0, 0, 1]);
        assert_eq!(
            scrambled.validate(),
            Err("post(1) = 2, expected 0".to_string()),
            "x closes when y opens, before z"
        );
        // The same tree in preorder (r, x, z, y with levels 0, 1, 2, 1)
        // passes, and fails again once a leaf kind is given a child or an
        // attribute does not directly follow its element.
        let ordered = |kind: Vec<u8>| {
            let mut doc = build(vec![3, 1, 0, 2], kind, vec![NO_PARENT, 0, 1, 0]);
            doc.level = vec![0, 1, 2, 1];
            doc.validate()
        };
        assert_eq!(ordered(vec![0; 4]), Ok(()));
        let text = NodeKind::Text as u8;
        assert!(
            ordered(vec![0, text, 0, 0]).is_err(),
            "a text node with a child"
        );
        let attribute = NodeKind::Attribute as u8;
        assert!(
            ordered(vec![0, attribute, 0, 0]).is_err(),
            "an attribute with a child"
        );
        assert!(ordered(vec![0, 0, 0, attribute])
            .unwrap_err()
            .contains("does not follow its element"));
    }

    #[test]
    fn validate_detects_corruption() {
        let doc = figure1();
        // Corrupt via the persistence layer: flip bytes and re-decode.
        let good = doc.to_bytes();
        // post column starts at offset 16; make two entries collide.
        let mut bad = good.to_vec();
        bad[16] = bad[20];
        bad[17] = bad[21];
        bad[18] = bad[22];
        bad[19] = bad[23];
        if let Ok(decoded) = Doc::from_bytes(&bad) {
            assert!(decoded.validate().is_err(), "corruption must be detected");
        }
    }
}
