//! Allocation counts as the regression test for the load path: a document
//! is a fixed number of heap blocks whatever its size, so decoding one,
//! building one and dropping one must not allocate (or free) per node.
//! Counts are exact and machine-independent, which a timing test is not.

mod common;

use common::{counting, CountingAlloc};
use staircase_accel::Doc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The heap blocks of a `Doc`: six columns, the arena and its ends.
const BLOCKS: u64 = 8;

/// `<r>` over `n` items of one element and one text node each (no
/// attributes: the parser allocates a `Vec` per attributed start tag, which
/// is its cost, not the encoding's).
fn text_items(n: usize) -> String {
    let mut xml = String::from("<r>");
    for i in 0..n {
        xml.push_str(&format!("<t{}>text {i}</t{}>", i % 7, i % 7));
    }
    xml.push_str("</r>");
    xml
}

#[test]
fn decoding_allocates_per_column_and_tag_not_per_node() {
    let small = Doc::from_xml(&text_items(12_500)).unwrap();
    let large = Doc::from_xml(&text_items(25_000)).unwrap();
    assert!(large.len() > 50_000);
    let tags = large.tags().len() as u64;
    assert_eq!(small.tags().len() as u64, tags);

    let (small_bytes, large_bytes) = (small.to_bytes(), large.to_bytes());
    let (decoded, large_counts) = counting(|| Doc::from_bytes(&large_bytes).unwrap());
    // Per tag: its name twice (id → name, name → id); the two tables grow
    // by doubling, a constant at eight tags.
    assert!(
        large_counts.allocs <= BLOCKS + 2 * tags + 10,
        "{} allocations for {} nodes",
        large_counts.allocs,
        decoded.len()
    );
    // Twice the content nodes, the same number of allocations.
    let (_, small_counts) = counting(|| Doc::from_bytes(&small_bytes).unwrap());
    assert_eq!(small_counts.allocs, large_counts.allocs);
}

#[test]
fn encoding_xml_allocates_for_column_growth_only() {
    let (once, twice) = (text_items(20_000), text_items(40_000));
    let (a, small) = counting(|| Doc::from_xml(&once).unwrap());
    let (b, large) = counting(|| Doc::from_xml(&twice).unwrap());
    assert_eq!(b.len(), 2 * a.len() - 1);
    // Doubling the document adds at most one doubling per block.
    assert!(
        large.allocs <= small.allocs + BLOCKS + 2,
        "{} allocations for {} nodes, {} for {}",
        small.allocs,
        a.len(),
        large.allocs,
        b.len()
    );
}

#[test]
fn dropping_a_document_frees_a_constant_number_of_blocks() {
    let small = Doc::from_xml(&text_items(20_000)).unwrap();
    let large = Doc::from_xml(&text_items(40_000)).unwrap();
    let tags = large.tags().len() as u64;
    let ((), small_counts) = counting(|| drop(small));
    let ((), large_counts) = counting(|| drop(large));
    assert_eq!(small_counts.frees, large_counts.frees);
    // The blocks, each tag's name twice, and the two tag tables.
    assert!(
        large_counts.frees <= BLOCKS + 2 * tags + 4,
        "{} frees",
        large_counts.frees
    );
}
