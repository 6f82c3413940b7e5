//! Dependence-countdown execution of a `rpx_taskbench` graph over
//! `RuntimeHandle::spawn`.
//!
//! Each task body spins for the grain, then decrements the remaining-deps
//! count of every task it enables and spawns, fire-and-forget, each one it
//! brought to zero. The run ends when `Runtime::wait_idle` returns. With
//! tracing on, the body and each nested spawn are recorded as spans; with
//! it off the same path runs minus the clock reads.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use rpx_runtime::RuntimeHandle;
use rpx_simnode::TaskGraph;
use rpx_taskbench::spin_iters;

use crate::trace::{self, Kind};

/// One graph, ready to execute repeatedly on one runtime.
pub struct Dag {
    handle: RuntimeHandle,
    enables: Vec<Vec<u32>>,
    initial_deps: Vec<u32>,
    deps: Vec<AtomicU32>,
    roots: Vec<u32>,
    spin: u64,
    completed: AtomicU64,
    traced: AtomicBool,
}

impl Dag {
    /// Lower `graph` onto `handle`; every task body spins `spin`
    /// iterations (the graph's grain is uniform).
    pub fn new(handle: RuntimeHandle, graph: &TaskGraph, spin: u64) -> Arc<Self> {
        Arc::new(Dag {
            handle,
            enables: graph.tasks.iter().map(|t| t.enables.clone()).collect(),
            initial_deps: graph.tasks.iter().map(|t| t.deps).collect(),
            deps: graph.tasks.iter().map(|_| AtomicU32::new(0)).collect(),
            roots: graph.roots(),
            spin,
            completed: AtomicU64::new(0),
            traced: AtomicBool::new(false),
        })
    }

    /// Tasks in the graph.
    pub fn len(&self) -> usize {
        self.enables.len()
    }

    /// Tasks spawned from outside the runtime per execution (the roots).
    pub fn roots(&self) -> usize {
        self.roots.len()
    }

    /// Reset the countdowns and spawn the roots. The caller waits for the
    /// runtime to go idle, then calls [`check`](Self::check).
    pub fn start(self: &Arc<Self>, traced: bool) {
        for (d, &init) in self.deps.iter().zip(&self.initial_deps) {
            d.store(init, Ordering::Relaxed);
        }
        self.completed.store(0, Ordering::Relaxed);
        // Relaxed is enough: the runtime's hand-off of each spawned task
        // publishes these stores to the worker that runs it.
        self.traced.store(traced, Ordering::Relaxed);
        for &root in &self.roots {
            spawn(self, root, traced);
        }
    }

    /// Whether the last execution ran every task exactly once.
    pub fn check(&self) -> bool {
        self.completed.load(Ordering::Relaxed) == self.len() as u64
            && self.deps.iter().all(|d| d.load(Ordering::Relaxed) == 0)
    }
}

fn spawn(d: &Arc<Dag>, id: u32, traced: bool) {
    let d2 = d.clone();
    let task = move || run(&d2, id);
    if traced {
        trace::span(Kind::Spawn, || drop(d.handle.spawn(task)));
    } else {
        drop(d.handle.spawn(task));
    }
}

fn run(d: &Arc<Dag>, id: u32) {
    let traced = d.traced.load(Ordering::Relaxed);
    let start = if traced { trace::begin() } else { 0 };
    spin_iters(d.spin);
    d.completed.fetch_add(1, Ordering::Relaxed);
    for &c in &d.enables[id as usize] {
        // AcqRel: the last finishing dependency observes every earlier
        // dependency's writes before it spawns the child.
        if d.deps[c as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
            spawn(d, c, traced);
        }
    }
    if traced {
        trace::end(Kind::Body, start);
    }
}
