//! Spans recorded by the benchmark around its own calls into the runtime:
//! `RuntimeHandle::spawn`, `TaskFuture::get` and the task body.
//!
//! Every thread keeps a stack of open spans. A span's self time is its
//! duration minus the durations of the spans nested inside it, so on a
//! worker thread the self times of all spans add up to the time covered by
//! the outermost task bodies, and wall × workers minus that sum is the
//! time no public call explains (pop, steal, park, wake, counter updates).
//! Samples go into per-thread histograms of relaxed atomics; the threads
//! are registered once and read after the runtime has gone idle.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use rpx_runtime::Runtime;

use crate::report::Hist;

/// Which public call a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `RuntimeHandle::spawn`.
    Spawn = 0,
    /// `TaskFuture::get`.
    Get = 1,
    /// The task body.
    Body = 2,
}

const KINDS: usize = 3;
const BUCKETS: usize = 64 << 4;

struct ThreadTrace {
    worker: bool,
    hist: Vec<AtomicU64>,
    self_ns: [AtomicU64; KINDS],
    last_body_end: AtomicU64,
}

impl ThreadTrace {
    fn new(worker: bool) -> Self {
        ThreadTrace {
            worker,
            hist: (0..KINDS * BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            self_ns: Default::default(),
            last_body_end: AtomicU64::new(0),
        }
    }
}

fn threads() -> &'static Mutex<Vec<Arc<ThreadTrace>>> {
    static THREADS: OnceLock<Mutex<Vec<Arc<ThreadTrace>>>> = OnceLock::new();
    THREADS.get_or_init(Default::default)
}

thread_local! {
    static LOCAL: Arc<ThreadTrace> = {
        let t = Arc::new(ThreadTrace::new(Runtime::current_worker().is_some()));
        threads().lock().expect("trace registry poisoned").push(t.clone());
        t
    };
    /// Durations of the spans nested in each open span.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Open a span; pass the returned start time to [`end`].
#[inline]
pub fn begin() -> u64 {
    STACK.with(|s| s.borrow_mut().push(0));
    now_ns()
}

/// Close the span opened at `start`.
#[inline]
pub fn end(kind: Kind, start: u64) {
    let end = now_ns();
    let dur = end.saturating_sub(start);
    let nested = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let nested = s.pop().unwrap_or(0);
        if let Some(parent) = s.last_mut() {
            *parent += dur;
        }
        nested
    });
    let self_ns = dur.saturating_sub(nested);
    LOCAL.with(|t| {
        let k = kind as usize;
        t.hist[k * BUCKETS + Hist::bucket(self_ns)].fetch_add(1, Ordering::Relaxed);
        t.self_ns[k].fetch_add(self_ns, Ordering::Relaxed);
        if kind == Kind::Body {
            t.last_body_end.store(end, Ordering::Relaxed);
        }
    });
}

/// Time `f` as a span of `kind`.
#[inline]
pub fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    let s = begin();
    let r = f();
    end(kind, s);
    r
}

/// Spans of the worker threads, merged.
#[derive(Default)]
pub struct Agg {
    /// Self-time histograms, indexed by [`Kind`].
    hist: [Hist; KINDS],
    /// Σ self time, ns, indexed by [`Kind`].
    self_ns: [u64; KINDS],
}

impl Agg {
    /// Samples of `kind`.
    pub fn count(&self, kind: Kind) -> u64 {
        self.hist[kind as usize].count()
    }

    /// Σ self time of `kind`, ns.
    pub fn total(&self, kind: Kind) -> u64 {
        self.self_ns[kind as usize]
    }

    /// Self-time quantile of `kind`, ns.
    pub fn quantile(&self, kind: Kind, p: f64) -> f64 {
        self.hist[kind as usize].quantile(p)
    }
}

/// Merge the spans every runtime worker thread of this process recorded.
/// Spans on other threads (the benchmark's caller) are not part of the
/// workers' balance.
pub fn snapshot() -> Agg {
    let mut agg = Agg::default();
    for t in threads().lock().expect("trace registry poisoned").iter() {
        if !t.worker {
            continue;
        }
        for k in 0..KINDS {
            for b in 0..BUCKETS {
                let c = t.hist[k * BUCKETS + b].load(Ordering::Relaxed);
                if c > 0 {
                    agg.hist[k].add_bucket(b, c);
                }
            }
            agg.self_ns[k] += t.self_ns[k].load(Ordering::Relaxed);
        }
    }
    agg
}

/// End time of the last task body on any thread.
pub fn last_body_end() -> u64 {
    threads()
        .lock()
        .expect("trace registry poisoned")
        .iter()
        .map(|t| t.last_body_end.load(Ordering::Relaxed))
        .max()
        .unwrap_or(0)
}
