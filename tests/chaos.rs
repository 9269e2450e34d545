//! The chaos suite: fault-injection tests compiled only under
//! `RUSTFLAGS="--cfg stair_faults"` (CI runs them as a dedicated leg).
//!
//! Each test arms named fail points (`staircase_xpath::faults`) to
//! force failures ordinary inputs cannot reach — a panic before a
//! query's step, a forced budget trip inside a kernel, an injected delay that
//! makes deadlines observable on small documents — and asserts the
//! governor's containment claims: one query fails, its siblings and
//! the session (and, server-side, the connection) survive.
//!
//! The fail-point registry is process-wide, so every test serializes on
//! one mutex and disarms everything it armed.

#![allow(unexpected_cfgs)]
#![cfg(stair_faults)]

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use staircase_suite::prelude::*;
use staircase_xpath::faults::{self, FaultKind};

/// Serializes chaos tests (the registry is process-wide) and guarantees
/// a clean registry on entry and exit.
struct FaultScope(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FaultScope {
    fn enter() -> FaultScope {
        static LOCK: Mutex<()> = Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        faults::clear_all();
        FaultScope(guard)
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        faults::clear_all();
    }
}

fn layered_doc(fanout: usize, width: usize) -> Doc {
    let mut b = EncodingBuilder::new();
    b.open_element("root");
    for _ in 0..fanout {
        b.open_element("p");
        for _ in 0..width {
            b.open_element("q");
            b.close_element();
        }
        b.close_element();
    }
    b.close_element();
    b.finish()
}

fn engine() -> Engine {
    Engine::staircase().build().expect("valid engine config")
}

#[test]
fn a_panicking_step_fails_only_its_query() {
    let _scope = FaultScope::enter();
    // `xpath::lane` fires before every step of every query; armed once,
    // it panics on the first query's first step, and that panic must
    // fail exactly its query.
    let session = Session::new(layered_doc(100, 100));
    let queries = [
        session.prepare("//q").expect("query parses"),
        session
            .prepare("/child::p/descendant::q")
            .expect("query parses"),
    ];
    let refs: Vec<&_> = queries.iter().collect();
    let baseline = session.run_many(&refs, engine());

    faults::set("xpath::lane", FaultKind::Panic, Some(1));
    let governed = session.execute(&[(refs[0], None), (refs[1], None)], engine(), None);
    faults::clear_all();

    let failed: Vec<usize> = governed
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_err())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(failed.len(), 1, "exactly one query must fail: {governed:?}");
    assert!(
        matches!(governed[failed[0]], Err(Error::Internal(_))),
        "the failure must be the isolated-panic variant: {:?}",
        governed[failed[0]]
    );
    for (i, (g, b)) in governed.iter().zip(&baseline).enumerate() {
        if i == failed[0] {
            continue;
        }
        let g = g.as_ref().expect("sibling completes");
        assert_eq!(
            g.nodes().as_slice(),
            b.nodes().as_slice(),
            "sibling {i} diverged"
        );
    }

    // The session survives the unwound step: the same batch answers in
    // full.
    let again = session.run_many(&refs, engine());
    for (a, b) in again.iter().zip(&baseline) {
        assert_eq!(a.nodes().as_slice(), b.nodes().as_slice());
    }
}

#[test]
fn a_forced_trip_inside_a_kernel_cancels_the_governed_query() {
    let _scope = FaultScope::enter();
    let session = Session::new(layered_doc(30, 30));
    let query = session.prepare("//q/ancestor::p").expect("query parses");

    faults::set("core::desc::partition", FaultKind::Trip, None);
    let governed = || {
        session
            .execute(&[(&query, Some(Arc::new(Budget::new())))], engine(), None)
            .remove(0)
    };
    let out = governed();
    faults::clear_all();
    assert!(
        matches!(out, Err(Error::Cancelled)),
        "a forced trip surfaces as cancellation: {out:?}"
    );

    let ok = governed().expect("disarmed: the query answers");
    assert_eq!(
        ok.nodes().as_slice(),
        query.run(engine()).nodes().as_slice()
    );
}

#[test]
fn an_injected_delay_makes_a_deadline_trip_on_a_small_document() {
    let _scope = FaultScope::enter();
    let session = Session::new(layered_doc(5, 5));
    let query = session.prepare("//q/ancestor::p").expect("query parses");

    // 30 ms before every step against a 10 ms deadline: the check after
    // the step must trip even though the document is far too small for
    // the in-kernel tickers to fire.
    faults::set("xpath::lane", FaultKind::Delay(30), None);
    let budget = Arc::new(Budget::new().with_deadline_in(Duration::from_millis(10)));
    let out = session
        .execute(&[(&query, Some(budget))], engine(), None)
        .remove(0);
    faults::clear_all();
    assert!(
        matches!(out, Err(Error::DeadlineExceeded)),
        "the delayed round must overrun the deadline: {out:?}"
    );
}

/// A step whose query panics never enters the memo: the same text,
/// later in the batch, computes its own steps and reports what it
/// reports alone (the twin of `tests/batch.rs`' tripped-budget test).
#[test]
fn a_panicked_step_never_enters_the_memo() {
    let _scope = FaultScope::enter();
    let session = Session::new(layered_doc(40, 40));
    let text = "/descendant::node()/ancestor::node()";
    let queries = [
        session.prepare(text).expect("query parses"),
        session.prepare(text).expect("query parses"),
    ];
    // The fail point fires before every step: once, so on the first
    // query's first step.
    faults::set("xpath::lane", FaultKind::Panic, Some(1));
    let outs = session.execute(&[(&queries[0], None), (&queries[1], None)], engine(), None);
    faults::clear_all();
    assert!(
        matches!(outs[0], Err(Error::Internal(_))),
        "the first query panics: {:?}",
        outs[0].as_ref().map(|o| o.len())
    );
    let batched = outs[1].as_ref().expect("the second query completes");
    let alone = queries[1].run(engine());
    assert_eq!(batched.nodes(), alone.nodes());
    assert_eq!(batched.stats().steps, alone.stats().steps);
    assert!(batched.stats().steps[0].nodes_touched > 0);
}

#[test]
fn a_panicking_batch_execution_answers_internal_and_the_server_survives() {
    use staircase_server::protocol::code;
    use staircase_server::{Client, ClientError, QueryOptions, Server, ServerConfig};

    let _scope = FaultScope::enter();
    let session =
        Arc::new(staircase_xpath::Session::parse_xml("<a><b/><b/></a>").expect("fixture parses"));
    let handle = Server::start(session, ServerConfig::default()).expect("server binds");
    let mut client = Client::connect(handle.local_addr()).expect("client connects");

    faults::set("server::execute", FaultKind::Panic, Some(1));
    let err = client
        .query("//b", &QueryOptions::default())
        .expect_err("the injected panic must fail the query");
    assert!(
        matches!(err, ClientError::Server { code: c, .. } if c == code::INTERNAL),
        "{err:?}"
    );

    // Same connection, same batcher thread: the next query answers.
    let reply = client
        .query("//b", &QueryOptions::default())
        .expect("the server survives the caught panic");
    assert_eq!(reply.total, 2);
    assert!(
        handle
            .metrics()
            .internal_errors
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    handle.shutdown_and_join();
}

#[test]
fn an_injected_delay_trips_the_client_deadline_over_the_wire() {
    use staircase_server::protocol::code;
    use staircase_server::{Client, ClientError, QueryOptions, Server, ServerConfig};

    let _scope = FaultScope::enter();
    let session =
        Arc::new(staircase_xpath::Session::parse_xml("<a><b/><b/></a>").expect("fixture parses"));
    let handle = Server::start(session, ServerConfig::default()).expect("server binds");
    let mut client = Client::connect(handle.local_addr()).expect("client connects");

    faults::set("xpath::lane", FaultKind::Delay(80), None);
    let err = client
        .query(
            "//b",
            &QueryOptions {
                deadline_ms: Some(20),
                ..QueryOptions::default()
            },
        )
        .expect_err("the delayed execution must overrun the 20 ms deadline");
    assert!(
        matches!(err, ClientError::Server { code: c, .. } if c == code::TIMEOUT),
        "{err:?}"
    );
    faults::clear_all();

    // The connection survives the governed timeout.
    let reply = client
        .query("//b", &QueryOptions::default())
        .expect("the connection stays open after TIMEOUT");
    assert_eq!(reply.total, 2);
    assert!(
        handle
            .metrics()
            .exec_timeouts
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    handle.shutdown_and_join();
}
