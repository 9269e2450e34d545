//! Regenerators for every table and figure of the paper's evaluation.
//!
//! Each function returns a [`Table`] whose *shape* is comparable with the
//! paper's plot/table: same series, same sweep, same counted quantities.
//! Absolute timings obviously differ (2003 Pentium 4 vs this machine), but
//! who wins, by what factor, and how curves scale with document size is
//! reproduced.

use staircase_accel::{Axis, Context};
use staircase_baselines::naive_step;
use staircase_core::{ancestor, descendant, Variant};
use staircase_storage::scan::{append_run, append_run_unrolled};
use staircase_xpath::Engine;

/// Staircase join with §4.4 query-time name-test pushdown.
fn pushdown_engine() -> Engine {
    Engine::staircase()
        .pushdown(true)
        .build()
        .expect("pushdown engine config is valid")
}

/// Staircase join over §6 prebuilt per-tag fragments.
fn fragmented_engine() -> Engine {
    Engine::staircase()
        .fragmented(true)
        .build()
        .expect("fragmented engine config is valid")
}

/// The SQL baseline with the paper's line-7 window and early name test.
fn sql_engine(eq1_window: bool) -> Engine {
    Engine::sql()
        .eq1_window(eq1_window)
        .early_nametest(true)
        .build()
        .expect("sql engine config is valid")
}

use crate::cells;
use crate::table::Table;
use crate::workload::{time_ms, Workload, QUERY_Q1, QUERY_Q2};

/// **Table 1** — number of nodes in intermediary results for Q1 and Q2.
///
/// Paper values (1 GB / 50 844 982-node document):
/// Q1: 47 015 212, 127 984, 1 849 360, 63 793;
/// Q2: 47 015 212, 597 777, 706 193, 597 777.
pub fn table1(w: &Workload) -> Table {
    let mut t = Table::new(
        format!(
            "Table 1: intermediary result sizes (scale {}, {} nodes)",
            w.scale,
            w.doc().len()
        ),
        &[
            "query",
            "step1 axis",
            "step1 nametest",
            "step2 axis",
            "step2 nametest",
        ],
    );
    let root = w.root();

    // Q1: /descendant::profile/descendant::education
    let (d1, _) = descendant(w.doc(), &root, Variant::EstimationSkipping);
    let profiles = d1.name_test(w.doc(), "profile");
    let (d2, _) = descendant(w.doc(), &profiles, Variant::EstimationSkipping);
    let educations = d2.name_test(w.doc(), "education");
    t.row(cells!(
        QUERY_Q1,
        d1.len(),
        profiles.len(),
        d2.len(),
        educations.len()
    ));

    // Q2: /descendant::increase/ancestor::bidder
    let increases = d1.name_test(w.doc(), "increase");
    let (a2, _) = ancestor(w.doc(), &increases, Variant::Skipping);
    let bidders = a2.name_test(w.doc(), "bidder");
    t.row(cells!(
        QUERY_Q2,
        d1.len(),
        increases.len(),
        a2.len(),
        bidders.len()
    ));
    t
}

/// **Figure 11(a)** — duplicates avoided: nodes the naive strategy
/// produces for Q2's ancestor step versus the staircase join's
/// duplicate-free result, across document sizes.
pub fn fig11a(workloads: &[Workload]) -> Table {
    let mut t = Table::new(
        "Figure 11(a): avoiding duplicates (Q2 ancestor step)",
        &[
            "scale",
            "nodes",
            "naive produced",
            "staircase result",
            "duplicates avoided",
            "dup %",
        ],
    );
    for w in workloads {
        let ctx = w.increases();
        // The naive strategy produces |ancestor(c)| = level(c) tuples per
        // context node; summing the level column gives the exact tuple
        // count without paying the naive engine's quadratic scan cost at
        // large scales. (tests cross-check this against an actual
        // `naive_step` run on small documents.)
        let naive_produced: u64 = ctx.iter().map(|c| w.doc().level(c) as u64).sum();
        let (got, _) = ancestor(w.doc(), &ctx, Variant::Skipping);
        let dup = naive_produced - got.len() as u64;
        let pct = 100.0 * dup as f64 / naive_produced.max(1) as f64;
        t.row(cells!(
            w.scale,
            w.doc().len(),
            naive_produced,
            got.len(),
            dup,
            format!("{pct:.1}")
        ));
    }
    t
}

/// Cross-check used by tests: the analytic naive tuple count of
/// [`fig11a`] equals what the executable naive engine actually produces.
pub fn naive_count_crosscheck(w: &Workload) -> (u64, u64) {
    let ctx = w.increases();
    let analytic: u64 = ctx.iter().map(|c| w.doc().level(c) as u64).sum();
    let (_, naive) = naive_step(w.doc(), &ctx, Axis::Ancestor);
    (analytic, naive.tuples_produced)
}

/// **Figure 11(b)** — staircase join performance on Q2: execution time
/// versus document size (expect a linear trend — constant ns/node).
pub fn fig11b(workloads: &[Workload], runs: usize) -> Table {
    let mut t = Table::new(
        "Figure 11(b): staircase join performance (Q2)",
        &["scale", "nodes", "time ms", "ns/node"],
    );
    for w in workloads {
        let query = w.session().prepare(QUERY_Q2).expect("Q2 parses");
        let ms = time_ms(runs, || query.run(Engine::default()));
        let ns_per_node = ms * 1e6 / w.doc().len() as f64;
        t.row(cells!(
            w.scale,
            w.doc().len(),
            format!("{ms:.2}"),
            format!("{ns_per_node:.2}")
        ));
    }
    t
}

/// **Figure 11(c)** — effectiveness of skipping: nodes accessed by the
/// second axis step of Q1 under the three join variants, against the
/// result size.
///
/// The "skipping (estimated)" column is Algorithm 4 with Equation 1
/// exact (`level` is stored): it copies each profile's subtree and
/// touches no node past it — the result plus the attributes inside the
/// subtrees, one node per profile fewer than "skipping", which compares
/// its way to each partition's first miss. The paper's Algorithm 4
/// touched what "skipping" touches: its scan phase still read the last
/// `level` descendants and the miss, only with fewer comparisons.
pub fn fig11c(workloads: &[Workload]) -> Table {
    let mut t = Table::new(
        "Figure 11(c): skipping, nodes accessed (Q1 second step)",
        &[
            "scale",
            "nodes",
            "no skipping",
            "skipping",
            "skipping (estimated)",
            "result size",
        ],
    );
    for w in workloads {
        let profiles = w.profiles();
        let (r, basic) = descendant(w.doc(), &profiles, Variant::Basic);
        let (_, skip) = descendant(w.doc(), &profiles, Variant::Skipping);
        let (_, est) = descendant(w.doc(), &profiles, Variant::EstimationSkipping);
        t.row(cells!(
            w.scale,
            w.doc().len(),
            basic.nodes_touched(),
            skip.nodes_touched(),
            est.nodes_touched(),
            r.len()
        ));
    }
    t
}

/// **Figure 11(d)** — effectiveness of skipping: execution times of the
/// same three variants.
pub fn fig11d(workloads: &[Workload], runs: usize) -> Table {
    let mut t = Table::new(
        "Figure 11(d): skipping, execution time (Q1 second step)",
        &[
            "scale",
            "nodes",
            "no skipping ms",
            "skipping ms",
            "skipping (estimated) ms",
        ],
    );
    for w in workloads {
        let profiles = w.profiles();
        let basic = time_ms(runs, || descendant(w.doc(), &profiles, Variant::Basic));
        let skip = time_ms(runs, || descendant(w.doc(), &profiles, Variant::Skipping));
        let est = time_ms(runs, || {
            descendant(w.doc(), &profiles, Variant::EstimationSkipping)
        });
        t.row(cells!(
            w.scale,
            w.doc().len(),
            format!("{basic:.2}"),
            format!("{skip:.2}"),
            format!("{est:.2}")
        ));
    }
    t
}

/// **Figure 11(e)** — performance comparison on Q1: staircase join,
/// staircase join with early name test (pushdown), and the tree-unaware
/// SQL plan ("IBM DB2 SQL"). Two SQL variants are shown: the literal
/// Figure 3 plan, whose inner index scans are *unbounded* above (run only
/// while feasible — its cost is quadratic), and the same plan with the
/// paper's line-7 Equation-1 window, the optimizer hint §2.1 proposes.
pub fn fig11e(workloads: &[Workload], runs: usize) -> Table {
    comparison_figure(
        "Figure 11(e): performance comparison (Q1)",
        QUERY_Q1,
        workloads,
        runs,
    )
}

/// **Figure 11(f)** — performance comparison on Q2. Like the paper, the
/// SQL engine runs the manual rewrite
/// `/descendant::bidder[descendant::increase]` (the direct ancestor plan
/// is what DB2's optimizer mishandled).
pub fn fig11f(workloads: &[Workload], runs: usize) -> Table {
    let mut t = Table::new(
        "Figure 11(f): performance comparison (Q2)",
        &[
            "scale",
            "nodes",
            "staircase ms",
            "scj early nametest ms",
            "SQL (rewrite) ms",
            "SQL direct ancestor ms",
        ],
    );
    for w in workloads {
        let query = w.session().prepare(QUERY_Q2).expect("Q2 parses");
        let sql = w.session().sql_engine();
        let bidder = w.doc().tag_id("bidder").expect("bidder tag");
        let increase = w.doc().tag_id("increase").expect("increase tag");
        let root = w.root();

        let t_late = time_ms(runs, || query.run(Engine::default()));
        let t_early = time_ms(runs, || query.run(pushdown_engine()));
        let t_sql = time_ms(runs, || {
            sql.descendant_exists_rewrite(&root, bidder, increase)
        });
        // The plan the paper could not get DB2 to run acceptably: a direct
        // ancestor step, whose per-context prefix scans are quadratic.
        let t_direct = if w.doc().len() <= SQL_UNBOUNDED_LIMIT {
            format!("{:.2}", time_ms(runs, || query.run(sql_engine(true))))
        } else {
            "- (prefix scans infeasible)".to_string()
        };
        t.row(cells!(
            w.scale,
            w.doc().len(),
            format!("{t_late:.2}"),
            format!("{t_early:.2}"),
            format!("{t_sql:.2}"),
            t_direct
        ));
    }
    t
}

/// Documents above this size skip the unbounded SQL plan (quadratic cost).
const SQL_UNBOUNDED_LIMIT: usize = 200_000;

fn comparison_figure(title: &str, query: &str, workloads: &[Workload], runs: usize) -> Table {
    let mut t = Table::new(
        title,
        &[
            "scale",
            "nodes",
            "staircase ms",
            "scj early nametest ms",
            "SQL plan ms",
            "SQL+Eq1 window ms",
        ],
    );
    for w in workloads {
        let prepared = w.session().prepare(query).expect("paper query parses");
        // "Document loading time" work stays out of the timed region: force
        // the session's lazily built SQL B-tree before the clock starts.
        w.session().sql_engine();
        let t_late = time_ms(runs, || prepared.run(Engine::default()));
        let t_early = time_ms(runs, || prepared.run(pushdown_engine()));
        let t_sql = if w.doc().len() <= SQL_UNBOUNDED_LIMIT {
            format!("{:.2}", time_ms(runs, || prepared.run(sql_engine(false))))
        } else {
            "- (unbounded scans infeasible)".to_string()
        };
        let t_sqlw = time_ms(runs, || prepared.run(sql_engine(true)));
        t.row(cells!(
            w.scale,
            w.doc().len(),
            format!("{t_late:.2}"),
            format!("{t_early:.2}"),
            t_sql,
            format!("{t_sqlw:.2}")
        ));
    }
    t
}

/// **§4.3** — copy-phase memory bandwidth for `(root)/descendant`, the
/// experiment behind the paper's 719 MB/s (plain) vs 805 MB/s (unrolled +
/// prefetch) measurement. Bandwidth is computed with the paper's formula:
/// `(nodes read + written) × 4 bytes / time`.
pub fn bandwidth(w: &Workload, runs: usize) -> Table {
    let mut t = Table::new(
        format!(
            "§4.3 bandwidth: (root)/descendant copy phase ({} nodes)",
            w.doc().len()
        ),
        &["method", "time ms", "MB/s"],
    );
    let root = w.root();
    let n = w.doc().len() as f64;

    // Full staircase join (estimation skipping — almost pure copy phase).
    let ms = time_ms(runs, || {
        descendant(w.doc(), &root, Variant::EstimationSkipping)
    });
    let (result, _) = descendant(w.doc(), &root, Variant::EstimationSkipping);
    let bytes = (n + 1.0 + result.len() as f64) * 4.0;
    t.row(cells!(
        "staircase join (est. skipping)",
        format!("{ms:.2}"),
        format!("{:.0}", bytes / (ms / 1e3) / 1e6)
    ));

    // Raw copy kernels over the postorder column (load + store streams).
    let src = w.doc().post_column();
    let plain = time_ms(runs, || {
        let mut dst: Vec<u32> = Vec::with_capacity(src.len());
        append_run(&mut dst, src);
        dst
    });
    t.row(cells!(
        "plain copy kernel",
        format!("{plain:.2}"),
        format!("{:.0}", (2.0 * n * 4.0) / (plain / 1e3) / 1e6)
    ));
    let unrolled = time_ms(runs, || {
        let mut dst: Vec<u32> = Vec::with_capacity(src.len());
        append_run_unrolled(&mut dst, src);
        dst
    });
    t.row(cells!(
        "unrolled copy kernel (Duff)",
        format!("{unrolled:.2}"),
        format!("{:.0}", (2.0 * n * 4.0) / (unrolled / 1e3) / 1e6)
    ));
    t
}

/// **§6 future work** — fragmentation by tag name: Q1 over the full plane
/// versus over per-tag fragments (the paper saw 345 ms → 39 ms).
pub fn fragmentation(w: &Workload, runs: usize) -> Table {
    let mut t = Table::new(
        format!("§6 tag-name fragmentation (Q1, scale {})", w.scale),
        &["strategy", "time ms"],
    );
    let query = w.session().prepare(QUERY_Q1).expect("Q1 parses");
    // Fragments are "document loading time" work (§6): build them before
    // the clock starts so t_frag times the join, not TagIndex::build.
    w.session().tag_index();
    let t_full = time_ms(runs, || query.run(Engine::default()));
    let t_early = time_ms(runs, || query.run(pushdown_engine()));
    let t_frag = time_ms(runs, || query.run(fragmented_engine()));
    t.row(cells!("full plane, late nametest", format!("{t_full:.2}")));
    t.row(cells!(
        "query-time nametest pushdown",
        format!("{t_early:.2}")
    ));
    t.row(cells!("prebuilt per-tag fragments", format!("{t_frag:.2}")));
    t
}

/// **§4.1** — storage footprint and loading paths. The paper: "a document
/// occupies only about 1.5× its size in Monet using our storage
/// structure" (thanks to the void `pre` column). We report the encoded
/// size against the XML text size, plus load-path timings: XML parse +
/// encode, direct generation, and binary reload of a persisted plane.
pub fn storage(scale: f64, runs: usize) -> Table {
    use staircase_xmlgen::{generate_xml, XmarkConfig};
    let mut t = Table::new(
        format!("§4.1 storage footprint and loading (scale {scale})"),
        &["quantity", "value"],
    );
    let xml = generate_xml(XmarkConfig::new(scale));
    let doc = staircase_accel::Doc::from_xml(&xml).expect("generated XML parses");
    let encoded = doc.to_bytes();
    t.row(cells!("XML text bytes", xml.len()));
    t.row(cells!("encoded bytes (content retained)", encoded.len()));
    t.row(cells!(
        "encoded / XML ratio",
        format!("{:.2}", encoded.len() as f64 / xml.len() as f64)
    ));
    // Without content a `.scj` is the plane alone: `level`, `kind` and
    // `tag` (five bytes a node while the tag table is narrow) and the tag
    // names; the loader derives the rest.
    let mut plane = staircase_accel::EncodingBuilder::without_content();
    staircase_xml::tokenize(&xml, &mut plane).expect("generated XML parses");
    let plane_only = plane.finish().to_bytes().len();
    t.row(cells!("plane-only bytes (no content)", plane_only));
    t.row(cells!(
        "plane-only / XML ratio",
        format!("{:.2}", plane_only as f64 / xml.len() as f64)
    ));
    t.row(cells!("nodes", doc.len()));

    let parse_ms = time_ms(runs, || staircase_accel::Doc::from_xml(&xml).unwrap());
    t.row(cells!(
        "load: parse XML + encode",
        format!("{parse_ms:.2} ms")
    ));
    let gen_ms = time_ms(runs, || staircase_xmlgen::generate(XmarkConfig::new(scale)));
    t.row(cells!("load: direct generation", format!("{gen_ms:.2} ms")));
    let reload_ms = time_ms(runs, || staircase_accel::Doc::from_bytes(&encoded).unwrap());
    t.row(cells!("load: binary reload", format!("{reload_ms:.2} ms")));
    t
}

/// **Ablation** — where skipping pays off: nodes touched by the second Q1
/// step as the context density varies. With one context node near the
/// root, every strategy must walk the result; with many scattered context
/// nodes, the tree-unaware plan re-reads shared regions while the
/// staircase join's pruning+skipping keeps accesses at
/// `result + context`.
pub fn context_density(w: &Workload) -> Table {
    let mut t = Table::new(
        format!(
            "ablation: context density vs nodes touched (scale {})",
            w.scale
        ),
        &[
            "context size",
            "staircase touched",
            "naive scanned",
            "sql entries",
            "result size",
        ],
    );
    let sql = w.session().sql_engine();
    let profiles = w.profiles();
    let all = profiles.as_slice();
    for take in [1usize, 10, 100, 1_000, all.len()] {
        let take = take.min(all.len());
        // Spread the sample across the document, not a prefix.
        let step = (all.len() / take).max(1);
        let ctx: Context = all.iter().step_by(step).take(take).copied().collect();
        let (r, sc) = descendant(w.doc(), &ctx, Variant::EstimationSkipping);
        let sql_stats = if w.doc().len() <= SQL_UNBOUNDED_LIMIT || take <= 100 {
            let (_, s) = sql.axis_step(
                &ctx,
                Axis::Descendant,
                staircase_baselines::SqlPlanOptions {
                    eq1_window: true,
                    early_nametest: None,
                },
            );
            s.index_entries_scanned.to_string()
        } else {
            "-".into()
        };
        // The naive strategy's scan volume is analytic: each context node
        // scans from its position to the end of the plane.
        let naive_scanned: u64 = ctx
            .iter()
            .map(|c| (w.doc().len() as u64).saturating_sub(c as u64 + 1))
            .sum();
        t.row(cells!(
            ctx.len(),
            sc.nodes_touched(),
            naive_scanned,
            sql_stats,
            r.len()
        ));
    }
    t
}

/// Sanity helper used by tests and the repro binary: all engines agree on
/// both queries for the given workload.
pub fn verify_engines_agree(w: &Workload) -> bool {
    let engines = [
        Engine::staircase()
            .variant(Variant::Basic)
            .build()
            .expect("valid engine config"),
        pushdown_engine(),
        fragmented_engine(),
        Engine::naive(),
        sql_engine(true),
    ];
    for query in [QUERY_Q1, QUERY_Q2] {
        let Ok(prepared) = w.session().prepare(query) else {
            return false;
        };
        let results: Vec<Context> = engines
            .iter()
            .map(|&e| prepared.run(e).into_nodes())
            .collect();
        if !results.windows(2).all(|p| p[0] == p[1]) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Workload {
        Workload::generate(0.25)
    }

    #[test]
    fn table1_shape_matches_paper() {
        let w = small();
        let t = table1(&w);
        assert_eq!(t.rows.len(), 2);
        // Q1 and Q2 share the first intermediate (descendants of root).
        assert_eq!(t.rows[0][1], t.rows[1][1]);
        // education ≤ profile count; bidder count equals increase count.
        let q1_profiles: u64 = t.rows[0][2].parse().unwrap();
        let q1_educations: u64 = t.rows[0][4].parse().unwrap();
        assert!(q1_educations <= q1_profiles);
        let q2_increases: u64 = t.rows[1][2].parse().unwrap();
        let q2_bidders: u64 = t.rows[1][4].parse().unwrap();
        assert_eq!(q2_increases, q2_bidders);
        // ancestor result strictly larger than bidder count (adds
        // open_auction/open_auctions/site ancestors).
        let q2_anc: u64 = t.rows[1][3].parse().unwrap();
        assert!(q2_anc > q2_bidders);
    }

    #[test]
    fn fig11a_duplicate_ratio_near_75_percent() {
        let w = small();
        let t = fig11a(std::slice::from_ref(&w));
        let dup_pct: f64 = t.rows[0][5].parse().unwrap();
        // level(increase) = 4 and heavy path sharing at level 3 yields the
        // paper's "about 75%" duplicates.
        assert!((60.0..85.0).contains(&dup_pct), "duplicate ratio {dup_pct}");
    }

    #[test]
    fn fig11c_skipping_shrinks_access_counts() {
        let w = small();
        let t = fig11c(std::slice::from_ref(&w));
        let no_skip: u64 = t.rows[0][2].parse().unwrap();
        let skip: u64 = t.rows[0][3].parse().unwrap();
        let est: u64 = t.rows[0][4].parse().unwrap();
        let result: u64 = t.rows[0][5].parse().unwrap();
        assert!(skip < no_skip, "skipping must reduce accesses");
        assert!(est <= skip + 1);
        assert!(skip >= result, "accessed ≥ result");
    }

    #[test]
    fn engines_agree_on_generated_documents() {
        assert!(verify_engines_agree(&small()));
    }

    #[test]
    fn fig11a_analytic_count_matches_naive_engine() {
        let (analytic, executed) = naive_count_crosscheck(&small());
        assert_eq!(analytic, executed);
    }

    #[test]
    fn timing_tables_have_expected_shape() {
        let w = small();
        let ws = [w];
        assert_eq!(fig11b(&ws, 1).rows.len(), 1);
        assert_eq!(fig11d(&ws, 1).rows.len(), 1);
        assert_eq!(fig11e(&ws, 1).rows.len(), 1);
        assert_eq!(fig11f(&ws, 1).rows.len(), 1);
        assert_eq!(bandwidth(&ws[0], 1).rows.len(), 3);
        assert_eq!(fragmentation(&ws[0], 1).rows.len(), 3);
    }
}
