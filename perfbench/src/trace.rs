//! Spans recorded by the benchmark around its calls into the workspace's
//! public API. Off by default (`--trace 0`), in which case [`span`] is a
//! plain call. When on, every span keeps its name, start, end, parent
//! span and request id in memory; [`write_chrome`] writes them out once,
//! at the end of the run, as Chrome trace-event JSON (open it in
//! `chrome://tracing` or Perfetto).

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn thread_tag() -> u64 {
    thread_local! {
        static TAG: u64 = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

/// Switches recording on for the rest of the process.
pub fn enable() {
    epoch();
    ON.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name`, attributed to request `request`
/// (0 for set-up work). Nested calls on the same thread become children.
pub fn span<R>(name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start = epoch().elapsed().as_nanos() as u64;
    let out = f();
    let end = epoch().elapsed().as_nanos() as u64;
    STACK.with(|s| s.borrow_mut().pop());
    SPANS.lock().expect("span log lock").push(Span {
        id,
        parent,
        name,
        request,
        start_ns: start,
        end_ns: end,
        thread: thread_tag(),
    });
    out
}

/// Serializes the recorded spans as Chrome trace-event JSON.
pub fn write_chrome(path: &std::path::Path) -> std::io::Result<usize> {
    let spans = SPANS.lock().expect("span log lock").clone();
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.request
        );
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)?;
    Ok(spans.len())
}
