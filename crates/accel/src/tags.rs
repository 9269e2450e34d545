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
    /// Direct-mapped cache in front of `by_name`: the id last interned in
    /// each slot. A loader interns a few dozen names hundreds of thousands
    /// of times; a hit is a cheap hash and one string compare, no SipHash,
    /// and a miss (or a flood of colliding names) falls through to the map.
    recent: [TagId; RECENT_SLOTS],
}

const RECENT_SLOTS: usize = 256;

impl Default for TagInterner {
    fn default() -> TagInterner {
        TagInterner {
            by_name: HashMap::new(),
            names: Vec::new(),
            element_counts: Vec::new(),
            recent: [NO_TAG; RECENT_SLOTS],
        }
    }
}

impl TagInterner {
    /// An empty interner.
    pub fn new() -> TagInterner {
        TagInterner::default()
    }

    /// Interns `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> TagId {
        // FNV-1a; only ever picks a cache slot, so its quality is not a
        // correctness or a worst-case concern.
        let hash = name.bytes().fold(0x811c_9dc5_u32, |h, b| {
            (h ^ b as u32).wrapping_mul(0x0100_0193)
        });
        let slot = (hash ^ (hash >> 16)) as usize % RECENT_SLOTS;
        let cached = self.recent[slot];
        if self.name(cached) == Some(name) {
            return cached;
        }
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
        self.recent[slot] = id;
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
