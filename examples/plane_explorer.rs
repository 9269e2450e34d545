//! Visualise the pre/post plane: plot a small document, shade the region
//! of a chosen axis/context node, and show the staircase a pruned context
//! traces (paper Figures 2, 5 and 6 as ASCII art).
//!
//! ```sh
//! cargo run -p staircase-suite --example plane_explorer
//! ```

use staircase_suite::prelude::*;

fn plot(doc: &Doc, title: &str, mark: impl Fn(Pre) -> char) {
    println!("{title}");
    let n = doc.len() as u32;
    // post on the y axis (top = high), pre on the x axis.
    for post in (0..n).rev() {
        let mut row = String::new();
        for pre in 0..n {
            let c = if doc.post(pre) == post {
                mark(pre)
            } else {
                '·'
            };
            row.push(c);
            row.push(' ');
        }
        println!("{post:>3} | {row}");
    }
    print!("      ");
    for pre in 0..n {
        print!("{pre:<2}");
    }
    println!("  (pre →, post ↑)");
    println!();
}

fn main() -> Result<(), Error> {
    let xml = "<a><b><c/></b><d/><e><f><g/><h/></f><i><j/></i></e></a>";
    let session = Session::parse_xml(xml)?;
    let doc = session.doc();
    let name = |v: Pre| {
        doc.tag_name(v)
            .and_then(|n| n.chars().next())
            .unwrap_or('?')
    };

    plot(doc, "the pre/post plane of Figure 2:", name);

    // Regions of context node f (pre 5), Figure 2's dashed lines.
    let f: Pre = 5;
    for axis in Axis::PARTITIONING {
        let Some(region) = Region::of(doc, axis, f) else {
            continue;
        };
        plot(doc, &format!("f/{axis} region (■ = inside):"), |v| {
            if v == f {
                '◦'
            } else if region.contains(v, doc.post(v)) {
                '■'
            } else {
                name(v)
            }
        });
    }

    // A context sequence and its descendant staircase (Figure 6).
    let ctx: Context = [1u32, 4, 5, 8].into_iter().collect(); // b, e, f, i
    let pruned = prune(doc, &ctx, Axis::Descendant);
    println!(
        "context {{b,e,f,i}} prunes to {:?} for descendant (f, i are inside e's subtree):",
        pruned
            .iter()
            .filter_map(|v| doc.tag_name(v))
            .collect::<Vec<_>>()
    );
    plot(doc, "the staircase (◦ = pruned context steps):", |v| {
        if pruned.contains(v) {
            '◦'
        } else {
            name(v)
        }
    });

    let (result, stats) = descendant(doc, &pruned, Variant::EstimationSkipping);
    println!(
        "descendant result: {:?}",
        result
            .iter()
            .filter_map(|v| doc.tag_name(v))
            .collect::<Vec<_>>()
    );
    println!("stats: {stats}");

    // The same step through the session API, for comparison.
    let query = session.prepare("descendant::node()")?;
    let out = session
        .execute(&[(&query, None)], Engine::default(), Some(&pruned))
        .remove(0)?;
    assert_eq!(out.nodes(), &result);
    println!("(session API agrees: {} nodes)", out.len());
    Ok(())
}
