//! Per-layer probes of a traced run: direct, timed calls into each crate's
//! public functions on the workload's own document. They run after the
//! measured passes, so they never disturb an end-to-end number.

use std::time::Instant;

use staircase_accel::{Context, Doc};
use staircase_core::{
    ancestor, ancestor_on_list, descendant, descendant_on_list, following, preceding, twig_match,
    ChainStep, DocStats, SpineLeg, TagIndex, TwigEdge, Variant,
};
use staircase_server::protocol::{encode_frame, frame, ids_payload, parse_ids_payload};
use staircase_server::render_line;
use staircase_xml::{Event, PullParser};
use staircase_xpath::{parse, Engine, Session};

use crate::stats::median;
use crate::trace;
use crate::workloads::mixes::DocSpec;
use crate::workloads::{Metrics, Params};

/// Median wall time of `f` over `rounds` calls, in seconds.
pub fn time<T>(rounds: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            let out = f();
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(out);
            dt
        })
        .collect();
    median(&samples)
}

fn rounds(p: &Params) -> usize {
    if p.check {
        2
    } else {
        5
    }
}

const MEMCPY_BYTES: usize = 32 << 20;

/// Copy bandwidth of this machine right now: the yardstick scan kernels are
/// priced against (the paper's §4.3 claim is "near memory bandwidth").
fn memcpy_gb_s() -> f64 {
    let src = vec![1u8; MEMCPY_BYTES];
    let mut dst = vec![0u8; MEMCPY_BYTES];
    let secs = time(5, || {
        dst.copy_from_slice(std::hint::black_box(&src));
        dst[MEMCPY_BYTES / 2]
    });
    MEMCPY_BYTES as f64 / secs / 1e9
}

/// The reference scan's wall time right now (median of five), for runs
/// that do not scale their times by it but still report the machine's state.
pub fn reference_scan_ms() -> f64 {
    let mut reference = crate::reference::Reference::new();
    let samples: Vec<f64> = (0..5).map(|_| reference.time_ms()).collect();
    median(&samples)
}

/// What the probes hand back to the workload that ran them.
pub struct Probed {
    /// The share of `Doc::from_xml` that is the pull parse it drives.
    pub parse_part: f64,
    /// The plain descendant scan's cost per node, for `core.kernel_share_est`.
    pub scan_ns_per_node: f64,
}

/// Every probe, on the workload's first document: `session` holds it (and
/// the index state the workload left behind), `exprs` is the workload's mix
/// on it. The copy bandwidth is read before and after; a drift above 0.10
/// marks the run noisy.
pub fn run(
    spec: DocSpec,
    p: &Params,
    session: &Session,
    exprs: &[(&str, Engine)],
    out: &mut Metrics,
) -> Probed {
    let before = memcpy_gb_s();
    let parse_part = ingest(spec, p, out);
    let scan_ns_per_node = kernels(session.doc(), spec, out);
    xpath(session, exprs, out);
    frames(session.doc(), out);
    index_state(session, out);
    let after = memcpy_gb_s();
    out.push(("ref.memcpy_gb_s", before));
    out.push(("ref.memcpy_drift", (after - before).abs() / before));
    Probed {
        parse_part,
        scan_ns_per_node,
    }
}

/// `xml` and `accel` and index build, layer by layer, on the XML text of
/// the workload's first document. Returns the share of `Doc::from_xml`
/// that is the pull parse it drives.
fn ingest(spec: DocSpec, p: &Params, out: &mut Metrics) -> f64 {
    let n = rounds(p);
    let xml = spec.generate_xml(p.seed, p.factor());
    let mb = xml.len() as f64 / 1e6;

    let mut events = 0u64;
    let pull = time(n, || {
        events = 0;
        let mut parser = PullParser::new(&xml);
        loop {
            match parser.next_event() {
                Ok(Event::Eof) => break,
                Ok(_) => events += 1,
                Err(e) => panic!("generated XML does not parse: {e}"),
            }
        }
    });
    out.push(("xml.pull_parse_mb_s", mb / pull));
    out.push(("xml.events_per_s", events as f64 / pull));

    let from_xml = time(n, || Doc::from_xml(&xml).expect("generated XML encodes"));
    // Encoding's own time: the whole of `from_xml` minus the parse it drives.
    out.push(("accel.encode_mb_s", mb / (from_xml - pull).max(1e-9)));
    out.push(("accel.ingest_mb_s", mb / from_xml));
    let (doc, alloc) = trace::counting(|| Doc::from_xml(&xml).expect("generated XML encodes"));
    let nodes = doc.len() as f64;
    out.push(("accel.live_bytes_per_node", alloc.live as f64 / nodes));

    let scj = doc.to_bytes();
    out.push((
        "accel.scj_bytes_per_xml_byte",
        scj.len() as f64 / xml.len() as f64,
    ));
    out.push(("accel.persist_encode_mb_s", mb / time(n, || doc.to_bytes())));
    let decode = time(n, || Doc::from_bytes(&scj).expect("own bytes decode"));
    out.push(("accel.persist_decode_mb_s", mb / decode));
    let validate = time(n, || doc.validate().expect("generated document is valid"));
    out.push(("accel.validate_ms", validate * 1e3));

    out.push((
        "core.docstats_build_ms",
        time(n, || DocStats::from_doc(&doc)) * 1e3,
    ));
    out.push((
        "core.tagindex_build_ms",
        time(n, || TagIndex::build(&doc)) * 1e3,
    ));
    let (_index, alloc) = trace::counting(|| TagIndex::build(&doc));
    out.push(("core.index_live_bytes_per_node", alloc.live as f64 / nodes));
    let tag = spec.probe_tags().inner;
    let lazy_first = time(n, || {
        let index = TagIndex::lazy(&doc);
        index
            .fragment_window_by_name(&doc, tag, 0, doc.len() as u32)
            .len()
    });
    out.push(("core.tagindex_lazy_first_us", lazy_first * 1e6));

    let session = Session::new(doc).with_threads(1);
    let t0 = Instant::now();
    session.sql_engine();
    out.push(("baselines.sql_build_ms", t0.elapsed().as_secs_f64() * 1e3));
    (pull / from_xml).min(1.0)
}

/// The seven single-context kernels, called directly. Returns the plain
/// scan's cost per node in nanoseconds (for `core.kernel_share_est`).
fn kernels(doc: &Doc, spec: DocSpec, out: &mut Metrics) -> f64 {
    let n = 7;
    let tags = spec.probe_tags();
    let index = TagIndex::build(doc);
    let outer_list = index.fragment_by_name(doc, tags.outer);
    let inner_list = index.fragment_by_name(doc, tags.inner);
    let pred_list = index.fragment_by_name(doc, tags.twig_pred);
    let outer: Context = outer_list.iter().copied().collect();
    let inner: Context = inner_list.iter().copied().collect();
    let root = Context::singleton(doc.root());
    let per = |secs: f64, units: u64| secs * 1e9 / units.max(1) as f64;

    // Full-plane descendant from the root: the copy-phase kernel.
    let (result, _) = descendant(doc, &root, Variant::default());
    let secs = time(n, || descendant(doc, &root, Variant::default()));
    let per_node = per(secs, result.len() as u64);
    out.push(("core.desc_root_ns_per_node", per_node));
    let bytes_per_s = result.len() as f64 * 4.0 / secs;
    let memcpy = memcpy_gb_s() * 1e9;
    out.push(("core.desc_root_frac_memcpy", bytes_per_s / memcpy));

    // Skipping descendant from a many-node context; the paper bounds its
    // touched nodes by |result| + |context|.
    let (_, stats) = descendant(doc, &outer, Variant::Skipping);
    let secs = time(n, || descendant(doc, &outer, Variant::Skipping));
    out.push((
        "core.desc_skip_ns_per_touched",
        per(secs, stats.nodes_touched()),
    ));
    out.push((
        "core.bound_ratio",
        stats.nodes_touched() as f64 / (stats.result_size + stats.context_out).max(1) as f64,
    ));

    let (_, stats) = ancestor(doc, &inner, Variant::default());
    let secs = time(n, || ancestor(doc, &inner, Variant::default()));
    out.push(("core.anc_ns_per_touched", per(secs, stats.nodes_touched())));

    let (result, _) = following(doc, &outer);
    let secs = time(n, || following(doc, &outer));
    out.push(("core.following_ns_per_node", per(secs, result.len() as u64)));
    let (result, _) = preceding(doc, &outer);
    let secs = time(n, || preceding(doc, &outer));
    out.push(("core.preceding_ns_per_node", per(secs, result.len() as u64)));

    let (_, stats) = descendant_on_list(doc, inner_list, &outer);
    let secs = time(n, || descendant_on_list(doc, inner_list, &outer));
    out.push((
        "core.on_list_desc_ns_per_entry",
        per(secs, stats.nodes_touched()),
    ));
    let (_, stats) = ancestor_on_list(doc, outer_list, &inner);
    let secs = time(n, || ancestor_on_list(doc, outer_list, &inner));
    out.push((
        "core.on_list_anc_ns_per_entry",
        per(secs, stats.nodes_touched()),
    ));

    // `//outer[.//pred]//inner` as one leapfrog twig match.
    let spine = [
        SpineLeg {
            edge: TwigEdge::Descendant,
            list: outer_list,
            chains: vec![vec![ChainStep {
                edge: TwigEdge::Descendant,
                list: pred_list,
            }]],
        },
        SpineLeg {
            edge: TwigEdge::Descendant,
            list: inner_list,
            chains: Vec::new(),
        },
    ];
    let (_, stats) = twig_match(doc, &spine, &root);
    let secs = time(n, || twig_match(doc, &spine, &root));
    out.push(("core.twig_ns_per_seek", per(secs, stats.seeks)));
    per_node
}

/// `xpath` costs that are paid per query whatever its size: parse, plan,
/// prepare, the fixed cost of a trivial query, and first run against steady.
fn xpath(session: &Session, exprs: &[(&str, Engine)], out: &mut Metrics) {
    let n = 9;
    let each = |f: &dyn Fn(&str, Engine)| {
        let per_expr: Vec<f64> = exprs
            .iter()
            .map(|(expr, engine)| time(n, || f(expr, *engine)) * 1e6)
            .collect();
        median(&per_expr)
    };
    out.push(("xpath.parse_us", each(&|e, _| drop(parse(e)))));
    out.push(("xpath.prepare_us", each(&|e, _| drop(session.prepare(e)))));
    let prepared: Vec<_> = exprs
        .iter()
        .map(|(e, engine)| (session.prepare(e).expect("mix query parses"), *engine))
        .collect();
    let plan: Vec<f64> = prepared
        .iter()
        .map(|(q, engine)| time(n, || q.explain(*engine)) * 1e6)
        .collect();
    out.push(("xpath.plan_us", median(&plan)));

    // One result out of a one-entry fragment: all of it is fixed overhead.
    let tag = session
        .doc()
        .tag_name(session.doc().root())
        .unwrap_or("site");
    let trivial = session
        .prepare(&format!("/descendant-or-self::{tag}"))
        .expect("a tag name is a valid name test");
    std::hint::black_box(trivial.run(Engine::auto()));
    let block = time(n, || {
        for _ in 0..64 {
            std::hint::black_box(trivial.run(Engine::auto()));
        }
    });
    out.push(("xpath.fixed_overhead_us", block * 1e6 / 64.0));

    // First run of a freshly prepared query (plan built, nothing cached on
    // the query) against the same query's steady state.
    let ratios: Vec<f64> = exprs
        .iter()
        .map(|(e, engine)| {
            let fresh = session.prepare(e).expect("mix query parses");
            let t0 = Instant::now();
            std::hint::black_box(fresh.run(*engine));
            let first = t0.elapsed().as_secs_f64();
            first / time(n, || fresh.run(*engine)).max(1e-9)
        })
        .collect();
    out.push(("xpath.first_run_over_steady", median(&ratios)));
}

/// `server`'s pure helpers: id framing and node rendering.
fn frames(doc: &Doc, out: &mut Metrics) {
    let n = 7;
    let ids: Vec<u32> = (0..doc.len().min(65_536) as u32).collect();
    let encode = time(n, || encode_frame(frame::CHUNK, &ids_payload(&ids)));
    out.push((
        "server.frame_encode_ns_per_id",
        encode * 1e9 / ids.len() as f64,
    ));
    let payload = ids_payload(&ids);
    let decode = time(n, || {
        parse_ids_payload(&payload).expect("own payload decodes")
    });
    out.push((
        "server.frame_decode_ns_per_id",
        decode * 1e9 / ids.len() as f64,
    ));
    let render = time(n, || {
        ids.iter()
            .map(|&v| render_line(doc, v).len())
            .sum::<usize>()
    });
    out.push(("server.render_ns_per_node", render * 1e9 / ids.len() as f64));
}

/// What the session's tag index has built by now (lazy fragments, cracks,
/// bitmaps): counts that repeat exactly for the same seed.
fn index_state(session: &Session, out: &mut Metrics) {
    let index = session.tag_index();
    out.push(("core.crack_scan_work", index.crack_scan_work() as f64));
    out.push(("core.fragments_built", index.fragments_built() as f64));
    out.push(("core.bitmaps_built", index.bitmaps_built() as f64));
}
