//! In-memory span recorder for the traced run.
//!
//! A span is `(id, parent, thread, name, start, end)` with times in
//! nanoseconds since the recorder was enabled. Spans live in memory
//! until [`write`] dumps them as JSON lines when the run ends; the
//! orchestrator derives self time and the per-layer table from them.
//! With tracing off, [`span`] is one relaxed load and a direct call.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Innermost open span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static THREAD: RefCell<Option<u64>> = const { RefCell::new(None) };
}

struct Span {
    id: u64,
    parent: u64,
    thread: u64,
    name: Cow<'static, str>,
    start: u64,
    end: u64,
}

/// Starts recording; every later [`span`] call is kept.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    let epoch = EPOCH.get().expect("trace epoch is set by enable()");
    u64::try_from(epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years")
}

fn thread_index() -> u64 {
    THREAD.with(|t| {
        *t.borrow_mut()
            .get_or_insert_with(|| NEXT_THREAD.fetch_add(1, Ordering::Relaxed))
    })
}

/// The innermost open span on this thread, for handing to work that
/// may run on another thread (see [`job`]).
pub fn current() -> u64 {
    CURRENT.with(Cell::get)
}

/// Runs one work item of a `pc-par` fan-out inside a `pc-par.job`
/// span whose parent is `fanout`, the span (possibly on another
/// thread) that fanned the work out.
pub fn job<R>(fanout: u64, f: impl FnOnce() -> R) -> R {
    let outer = current();
    CURRENT.with(|c| c.set(fanout));
    let r = span("pc-par.job", f);
    CURRENT.with(|c| c.set(outer));
    r
}

/// Runs `f` inside a span called `name`.
pub fn span<R>(name: impl Into<Cow<'static, str>>, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current();
    CURRENT.with(|c| c.set(id));
    let start = now_ns();
    let r = f();
    let end = now_ns();
    CURRENT.with(|c| c.set(parent));
    let span = Span {
        id,
        parent,
        thread: thread_index(),
        name: name.into(),
        start,
        end,
    };
    SPANS.lock().expect("no span holder panicked").push(span);
    r
}

/// Writes every recorded span to `path`, one JSON object per line.
pub fn write(path: &str) -> std::io::Result<()> {
    let spans = SPANS.lock().expect("no span holder panicked");
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"thread":{},"name":"{}","start":{},"end":{}}}"#,
            s.id, s.parent, s.thread, s.name, s.start, s.end
        )?;
    }
    out.flush()
}
