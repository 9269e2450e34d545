//! Tag-name interning.
//!
//! Tag names are interned into dense `u32` ids so the `tag` column of the
//! `doc` table is a fixed-width integer column — the shape the paper's DB2
//! baseline indexes via concatenated `(pre, post, tag)` keys, and the shape
//! the tag-name fragmentation strategy (§6) partitions on.

use std::collections::HashMap;

/// A dense identifier for an interned tag (or attribute) name.
pub type TagId = u32;

/// Sentinel tag id for nodes without a name (text, comments).
pub const NO_TAG: TagId = u32::MAX;

/// Bidirectional map between tag names and [`TagId`]s.
///
/// Besides the name↔id mapping, the interner tracks how many *element*
/// nodes carry each tag — the per-tag fragment sizes the §6 tag-name
/// fragmentation strategy partitions on. Keeping the counts here makes
/// them an O(1) lookup at query-planning time, with no need to build the
/// fragment index itself first.
#[derive(Debug, Clone)]
pub struct TagInterner {
    by_name: HashMap<String, TagId>,
    names: Vec<String>,
    element_counts: Vec<u32>,
    /// Direct-mapped cache in front of `by_name`: the name last interned in
    /// each slot, as its first eight bytes, its length and its id. A loader
    /// interns a few dozen names hundreds of thousands of times; a hit is
    /// one multiply and a compare of two words (and of the bytes past the
    /// eighth, for longer names), no SipHash; a miss (or a flood of
    /// colliding names) falls through to the map.
    recent: [Recent; RECENT_SLOTS],
}

const RECENT_SLOTS: usize = 256;

#[derive(Debug, Clone, Copy)]
struct Recent {
    head: u64,
    len: u32,
    id: TagId,
}

/// A slot no name matches: a `str` never holds the byte `0xFF`.
const EMPTY: Recent = Recent {
    head: u64::MAX,
    len: 0,
    id: NO_TAG,
};

/// The first eight bytes of `name`, zero-padded, as a word.
#[inline]
fn head(name: &[u8]) -> u64 {
    match name.get(..8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("eight bytes")),
        None => name
            .iter()
            .enumerate()
            .fold(0, |w, (i, &b)| w | (b as u64) << (8 * i)),
    }
}

impl Default for TagInterner {
    fn default() -> TagInterner {
        TagInterner {
            by_name: HashMap::new(),
            names: Vec::new(),
            element_counts: Vec::new(),
            recent: [EMPTY; RECENT_SLOTS],
        }
    }
}

impl TagInterner {
    /// An empty interner.
    pub fn new() -> TagInterner {
        TagInterner::default()
    }

    /// Interns `name`, returning its stable id.
    #[inline]
    pub fn intern(&mut self, name: &str) -> TagId {
        let bytes = name.as_bytes();
        let head = head(bytes);
        // Only ever picks a cache slot, so its quality is not a
        // correctness or a worst-case concern.
        let hash = (head ^ bytes.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let slot = (hash >> 56) as usize % RECENT_SLOTS;
        let cached = self.recent[slot];
        if cached.head == head
            && cached.len as usize == bytes.len()
            && (bytes.len() <= 8 || self.names[cached.id as usize].as_bytes()[8..] == bytes[8..])
        {
            return cached.id;
        }
        self.intern_slow(name, slot, head)
    }

    fn intern_slow(&mut self, name: &str, slot: usize, head: u64) -> TagId {
        let id = match self.by_name.get(name) {
            Some(&id) => id,
            None => {
                let id = self.names.len() as TagId;
                assert!(id != NO_TAG, "tag space exhausted");
                self.names.push(name.to_string());
                self.by_name.insert(name.to_string(), id);
                self.element_counts.push(0);
                id
            }
        };
        self.recent[slot] = Recent {
            head,
            // A length past `u32` saturates; the tail compare still decides.
            len: u32::try_from(name.len()).unwrap_or(u32::MAX),
            id,
        };
        id
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: &str) -> Option<TagId> {
        self.by_name.get(name).copied()
    }

    /// The name behind `id` (`None` for [`NO_TAG`] or unknown ids).
    pub fn name(&self, id: TagId) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TagId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as TagId, n.as_str()))
    }

    /// How many element nodes carry `id` — the size of `id`'s §6 tag
    /// fragment (0 for [`NO_TAG`], unknown ids, and attribute-only names).
    pub fn element_count(&self, id: TagId) -> usize {
        self.element_counts
            .get(id as usize)
            .map(|&c| c as usize)
            .unwrap_or(0)
    }

    /// Sum of all fragment sizes (= number of element nodes).
    pub fn total_elements(&self) -> usize {
        self.element_counts.iter().map(|&c| c as usize).sum()
    }

    /// Records one element occurrence of `id` (no-op for [`NO_TAG`]).
    pub(crate) fn record_element(&mut self, id: TagId) {
        if let Some(c) = self.element_counts.get_mut(id as usize) {
            *c += 1;
        }
    }

    /// Zeroes all element counts (before a recount from raw columns).
    pub(crate) fn clear_element_counts(&mut self) {
        self.element_counts.iter_mut().for_each(|c| *c = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = TagInterner::new();
        let a = t.intern("person");
        let b = t.intern("person");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn the_cache_tells_apart_names_that_share_a_head_or_are_empty() {
        let mut t = TagInterner::new();
        let names = [
            "",
            "open_auction",
            "open_auctions",
            "abcdefghX",
            "abcdefghY",
            "a\0",
        ];
        let ids: Vec<TagId> = names.iter().map(|n| t.intern(n)).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4, 5]);
        for _ in 0..2 {
            for (n, &id) in names.iter().zip(&ids) {
                assert_eq!(t.intern(n), id, "{n:?}");
            }
        }
        assert_eq!(t.len(), names.len());
    }

    #[test]
    fn ids_are_dense() {
        let mut t = TagInterner::new();
        assert_eq!(t.intern("a"), 0);
        assert_eq!(t.intern("b"), 1);
        assert_eq!(t.intern("c"), 2);
    }

    #[test]
    fn name_roundtrip() {
        let mut t = TagInterner::new();
        let id = t.intern("bidder");
        assert_eq!(t.name(id), Some("bidder"));
        assert_eq!(t.get("bidder"), Some(id));
        assert_eq!(t.get("nope"), None);
        assert_eq!(t.name(NO_TAG), None);
    }

    #[test]
    fn iter_in_id_order() {
        let mut t = TagInterner::new();
        t.intern("x");
        t.intern("y");
        let all: Vec<_> = t.iter().collect();
        assert_eq!(all, [(0, "x"), (1, "y")]);
    }

    #[test]
    fn element_counts_track_recorded_occurrences() {
        let mut t = TagInterner::new();
        let x = t.intern("x");
        let y = t.intern("y");
        t.record_element(x);
        t.record_element(x);
        t.record_element(y);
        assert_eq!(t.element_count(x), 2);
        assert_eq!(t.element_count(y), 1);
        assert_eq!(t.total_elements(), 3);
        // Unknown ids and the sentinel count as zero, silently.
        assert_eq!(t.element_count(99), 0);
        assert_eq!(t.element_count(NO_TAG), 0);
        t.record_element(NO_TAG);
        assert_eq!(t.total_elements(), 3);
        t.clear_element_counts();
        assert_eq!(t.total_elements(), 0);
    }
}
