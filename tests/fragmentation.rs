//! Tag-name fragmentation (§6 future work): per-tag fragments answer the
//! paper's queries exactly like the full plane, while touching only
//! fragment nodes.

use staircase_suite::prelude::*;

#[test]
fn fragments_partition_the_elements() {
    let session = Session::new(generate(XmarkConfig::new(0.1)));
    let doc = session.doc();
    let idx = session.tag_index();
    let total: usize = (0..idx.len() as u32).map(|t| idx.fragment(t).len()).sum();
    assert_eq!(
        total,
        doc.kind_counts().0,
        "every element in exactly one fragment"
    );
    // Fragments are document-ordered and duplicate-free.
    for t in 0..idx.len() as u32 {
        let frag = idx.fragment(t);
        assert!(frag.windows(2).all(|w| w[0] < w[1]));
    }
}

#[test]
fn q1_over_fragments_equals_full_plane() {
    let session = Session::new(generate(XmarkConfig::new(0.1)));
    let doc = session.doc();
    let idx = session.tag_index();
    let root = Context::singleton(doc.root());

    // Step 1: /descendant::profile over the profile fragment.
    let (profiles, s1) = descendant_on_list(doc, idx.fragment_by_name(doc, "profile"), &root);
    // Step 2: /descendant::education over the education fragment.
    let (educations, s2) =
        descendant_on_list(doc, idx.fragment_by_name(doc, "education"), &profiles);

    let full = session
        .run(
            "/descendant::profile/descendant::education",
            Engine::default(),
        )
        .unwrap();
    assert_eq!(&educations, full.nodes());

    // The whole point of fragmentation: node accesses bounded by the
    // fragment sizes, not the document size.
    let frag_nodes =
        idx.fragment_by_name(doc, "profile").len() + idx.fragment_by_name(doc, "education").len();
    assert!(
        (s1.nodes_touched() + s2.nodes_touched()) as usize <= frag_nodes,
        "touched {} > fragment total {}",
        s1.nodes_touched() + s2.nodes_touched(),
        frag_nodes
    );
}

#[test]
fn ancestor_steps_work_on_fragments_too() {
    let session = Session::new(generate(XmarkConfig::new(0.1)));
    let doc = session.doc();
    let idx = session.tag_index();
    let increases: Context = idx
        .fragment_by_name(doc, "increase")
        .iter()
        .copied()
        .collect();
    let (bidders, _) =
        staircase_core::ancestor_on_list(doc, idx.fragment_by_name(doc, "bidder"), &increases);
    let full = session
        .run("/descendant::increase/ancestor::bidder", Engine::default())
        .unwrap();
    assert_eq!(&bidders, full.nodes());
}

#[test]
fn fragments_compose_across_multiple_steps() {
    let session = Session::new(generate(XmarkConfig::new(0.05)));
    let doc = session.doc();
    let idx = session.tag_index();
    let root = Context::singleton(doc.root());
    // site → open_auction → bidder → increase, all on fragments.
    let (auctions, _) = descendant_on_list(doc, idx.fragment_by_name(doc, "open_auction"), &root);
    let (bidders, _) = descendant_on_list(doc, idx.fragment_by_name(doc, "bidder"), &auctions);
    let (increases, _) = descendant_on_list(doc, idx.fragment_by_name(doc, "increase"), &bidders);
    let full = session
        .run(
            "/descendant::open_auction/descendant::bidder/descendant::increase",
            Engine::default(),
        )
        .unwrap();
    assert_eq!(&increases, full.nodes());
}

#[test]
fn empty_fragment_is_harmless() {
    let session = Session::new(generate(XmarkConfig::new(0.02)));
    let doc = session.doc();
    let idx = session.tag_index();
    let root = Context::singleton(doc.root());
    let (r, stats) = descendant_on_list(doc, idx.fragment_by_name(doc, "no-such-tag"), &root);
    assert!(r.is_empty());
    assert_eq!(stats.nodes_touched(), 0);
}
