//! Spans around the calls the benchmark makes into each layer.
//!
//! A span is pushed to a thread-local buffer when its guard drops —
//! child closures run on the kernel's vehicle threads, so one shared
//! buffer would put a lock on the measured path — and buffers move to
//! the shared list only when their thread ends or [`drain`] is called.
//! Nothing is written to disk until the last iteration is over.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; 0 for a root. May live on
    /// another thread (see [`enter_under`]).
    pub parent: u64,
    pub iter: u32,
    pub layer: &'static str,
    pub op: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ITER: AtomicU32 = AtomicU32::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static FINISHED: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

struct Local {
    thread: u64,
    open: Vec<u64>,
    done: Vec<Span>,
}

impl Drop for Local {
    fn drop(&mut self) {
        if !self.done.is_empty() {
            // A poisoned list only means another thread panicked while
            // appending; the spans already in it are whole.
            let mut all = FINISHED.lock().unwrap_or_else(|e| e.into_inner());
            all.append(&mut self.done);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Relaxed),
        open: Vec::new(),
        done: Vec::new(),
    });
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off. Off, a guard costs one relaxed load.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Relaxed);
}

/// The iteration number stamped on spans from now on.
pub fn set_iter(iter: u32) {
    ITER.store(iter, Relaxed);
}

/// Makes room on the calling thread so pushes inside the measured loop
/// do not reallocate.
pub fn reserve(spans: usize) {
    LOCAL.with(|l| l.borrow_mut().done.reserve(spans));
}

#[must_use = "the span ends when the guard drops"]
pub struct Guard {
    id: u64,
    parent: u64,
    layer: &'static str,
    op: &'static str,
    start_ns: u64,
}

/// Opens a span under the innermost open span of this thread.
pub fn enter(layer: &'static str, op: &'static str) -> Guard {
    enter_under(0, layer, op)
}

/// Opens a span whose cause is `parent` when this thread has no open
/// span of its own — for closures the kernel runs on another thread.
/// Capture `parent` with [`current`] before handing the closure over.
pub fn enter_under(parent: u64, layer: &'static str, op: &'static str) -> Guard {
    if !ENABLED.load(Relaxed) {
        return Guard {
            id: 0,
            parent: 0,
            layer,
            op,
            start_ns: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Relaxed);
    let parent = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let p = l.open.last().copied().unwrap_or(parent);
        l.open.push(id);
        p
    });
    Guard {
        id,
        parent,
        layer,
        op,
        start_ns: now_ns(),
    }
}

/// The innermost open span of this thread, 0 if none.
pub fn current() -> u64 {
    if !ENABLED.load(Relaxed) {
        return 0;
    }
    LOCAL.with(|l| l.borrow().open.last().copied().unwrap_or(0))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.open.retain(|open| *open != self.id);
            let span = Span {
                id: self.id,
                parent: self.parent,
                iter: ITER.load(Relaxed),
                layer: self.layer,
                op: self.op,
                thread: l.thread,
                start_ns: self.start_ns,
                end_ns,
            };
            l.done.push(span);
        });
    }
}

/// Takes every finished span: this thread's and those of threads that
/// have ended. Call it after the kernel has joined its vehicles.
pub fn drain() -> Vec<Span> {
    let mut all = std::mem::take(&mut *FINISHED.lock().unwrap_or_else(|e| e.into_inner()));
    LOCAL.with(|l| all.append(&mut l.borrow_mut().done));
    all.sort_by_key(|s| s.id);
    all
}

/// Self time of each span, in `spans` order: its duration minus the
/// durations of its children *on the same thread*. A child on another
/// thread runs beside its parent, not inside it, and takes nothing off.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::BTreeMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            if spans[p].thread == s.thread {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
    }
    own
}

/// One line of `spans_<workload>.jsonl`.
pub fn to_json_line(workload: &str, s: &Span) -> String {
    format!(
        "{{\"id\":{},\"parent\":{},\"workload\":\"{}\",\"iter\":{},\"layer\":\"{}\",\"op\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
        s.id, s.parent, workload, s.iter, s.layer, s.op, s.thread, s.start_ns, s.end_ns
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, thread: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            iter: 0,
            layer: "l",
            op: "o",
            thread,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_same_thread_children_only() {
        let spans = [
            span(1, 0, 0, 0, 100), // root
            span(2, 1, 0, 10, 40), // child, same thread
            span(3, 2, 0, 15, 25), // grandchild: comes off 2, not off 1
            span(4, 1, 0, 50, 60), // second child
            span(5, 1, 7, 0, 90),  // child on another thread: beside, not inside
            span(6, 5, 7, 10, 30), // its own same-thread child
            span(7, 99, 0, 0, 5),  // parent not recorded: ignored
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10, 70, 20, 5]);
    }

    /// The one test that touches the global recorder (tests run on
    /// parallel threads, so the switch must have a single owner).
    #[test]
    fn guards_record_nesting_and_cross_thread_parents() {
        {
            let _off = enter("x", "ignored");
        }
        set_enabled(true);
        set_iter(3);
        {
            let _outer = enter("kernel", "outer");
            let parent = current();
            {
                let _inner = enter("kernel", "inner");
            }
            // `join`, as the kernel does with its vehicles: a scoped
            // thread may still be running its thread-local destructors
            // (which hand the buffer over) when the scope returns.
            std::thread::spawn(move || {
                let _remote = enter_under(parent, "runtime", "remote");
            })
            .join()
            .expect("span thread");
        }
        set_enabled(false);
        let spans = drain();
        let by_op = |op: &str| spans.iter().find(|s| s.op == op).expect(op).clone();
        assert!(spans.iter().all(|s| s.op != "ignored"));
        let (outer, inner, remote) = (by_op("outer"), by_op("inner"), by_op("remote"));
        assert_eq!(
            (outer.parent, inner.parent, remote.parent),
            (0, outer.id, outer.id)
        );
        assert_eq!(inner.thread, outer.thread);
        assert_ne!(remote.thread, outer.thread);
        assert_eq!(inner.iter, 3);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let line = to_json_line("w", &inner);
        assert!(line.starts_with("{\"id\":") && line.contains("\"workload\":\"w\""));
    }
}
