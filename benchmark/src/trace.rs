//! Spans around the calls the benchmark makes into each layer, kept in
//! memory and written out at exit, plus a counting allocator that is
//! switched on only inside traced sections.
//!
//! Span names are `<layer>.<call>`; a layer's self time is its spans'
//! duration minus the part their child spans cover.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Value;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's list, or `NO_PARENT`.
    pub parent: u32,
    /// The operation (mix entry, request) all spans of one unit of work share.
    pub op: u32,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    op: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Finished per-thread span lists, so the trace file holds every thread.
static COLLECTED: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    RECORDER.with(|r| r.borrow_mut().on = on);
}

/// Sets the operation id stamped on the calling thread's following spans.
pub fn set_op(op: u32) {
    RECORDER.with(|r| r.borrow_mut().op = op);
}

/// Runs `f` inside a span named `name` (when recording is on).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let id = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let op = r.op;
        r.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            op,
        });
        r.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        let end = now_ns();
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            r.spans[id as usize].end_ns = end;
            r.open.pop();
        });
    }
    out
}

/// Moves the calling thread's finished spans out of the recorder.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Hands a thread's spans to the process-wide collection for the trace file.
pub fn collect(spans: Vec<Span>) {
    COLLECTED
        .lock()
        .expect("no thread panics while holding the span collection")
        .push(spans);
}

/// Self time per span name, in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(children);
    }
    out
}

/// Self time per layer (the part of a span name before the first `.`).
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (name, ns) in self_times(spans) {
        let layer = name.split('.').next().unwrap_or(name);
        *out.entry(layer).or_insert(0) += ns;
    }
    out
}

/// Writes every collected span and the derived summary to
/// `benchmark/out/trace-<workload>.json`, relative to the working directory
/// (the checkout root when run the way `BENCHMARK.json` says).
pub fn write_file(workload: &str, seed: u64, summary: Value) -> std::io::Result<()> {
    let threads = std::mem::take(
        &mut *COLLECTED
            .lock()
            .expect("no thread panics while holding the span collection"),
    );
    let spans = threads
        .iter()
        .enumerate()
        .flat_map(|(t, list)| {
            list.iter().map(move |s| {
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("thread", Value::Num(t as f64)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "parent",
                        if s.parent == NO_PARENT {
                            Value::Null
                        } else {
                            Value::Num(f64::from(s.parent))
                        },
                    ),
                    ("op", Value::Num(f64::from(s.op))),
                ])
            })
        })
        .collect();
    let doc = Value::obj([
        ("workload", Value::str(workload)),
        ("seed", Value::Num(seed as f64)),
        ("summary", summary),
        ("spans", Value::Arr(spans)),
    ]);
    let dir = std::path::Path::new("benchmark").join("out");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("trace-{workload}.json")), doc.render())
}

// ---------------------------------------------------------------- allocator

/// Counts allocations while switched on; always forwards to the system
/// allocator.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
// Statistics only: they publish no other data, so `Relaxed` is enough.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// atomics and never influence the returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What `counting` saw: allocation calls, bytes requested, and the net
/// change in live bytes (wrapping: frees of older memory can make it
/// "negative", which callers that build-and-keep never see).
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocDelta {
    pub count: u64,
    pub bytes: u64,
    pub live: u64,
}

/// Runs `f` with allocation counting on and returns what it allocated.
pub fn counting<T>(f: impl FnOnce() -> T) -> (T, AllocDelta) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
        LIVE.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    let delta = AllocDelta {
        count: ALLOCS.load(Ordering::Relaxed) - before.0,
        bytes: BYTES.load(Ordering::Relaxed) - before.1,
        live: LIVE.load(Ordering::Relaxed).wrapping_sub(before.2),
    };
    (out, delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            s("harness.pass", 0, 100, NO_PARENT),
            s("xpath.run", 10, 60, 0),
            s("core.kernel", 20, 50, 1),
            s("xpath.run", 60, 90, 0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["harness.pass"], 20);
        assert_eq!(t["xpath.run"], 20 + 30);
        assert_eq!(t["core.kernel"], 30);
        let l = layer_times(&spans);
        assert_eq!(
            l.values().sum::<u64>(),
            100,
            "self times account for the root"
        );
        assert_eq!(l["xpath"], 50);
    }

    #[test]
    fn spans_nest_and_record_only_when_enabled() {
        span("off.outer", || ());
        assert!(take().is_empty());
        set_enabled(true);
        set_op(7);
        span("a.outer", || span("b.inner", || ()));
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (NO_PARENT, 0));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].op, 7);
    }
}
