//! Worker threads: the scheduling loop, the thread-local worker context,
//! and the work-helping wait used by futures.
//!
//! Dispatch accounting is batched: each scheduling loop folds its
//! `pending`-counter decrements into a [`PendingBatch`] and publishes them
//! every [`PendingBatch::FLUSH_EVERY`] tasks (and whenever the loop runs
//! dry), so the fork/join inner loop does one shared-counter RMW per batch
//! instead of per task. The park decision does not read `pending` at all —
//! it probes the queues directly (`Scheduler::has_queued_work`), so batch
//! staleness can never strand a worker.
//!
//! Time accounting is chained: both loops read the clock once per step, so
//! the reading that closes a find window opens the task's execution window
//! and the reading taken after the body opens the next find window. A
//! worker's find, execute and idle windows are therefore contiguous and
//! cost two clock reads per task.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::deque::Worker as Deque;
use crossbeam::sync::Parker;

use rpx_counters::counter::Clock;

use crate::faults::InjectedFault;
use crate::runtime::{RuntimeInner, RuntimeState};
use crate::scheduler::{Scheduler, Task, TaskIdBlock};
use crate::stats::WorkerStats;

/// A worker's thread-local context. It lives in the worker loop's stack
/// frame and is published through [`CTX`] only while that frame is alive,
/// so every pointer in it is valid for any call made on the worker thread.
struct Ctx {
    index: usize,
    /// The worker loop's own runtime reference: spawns and help-waits on
    /// this thread borrow it instead of upgrading a `Weak`.
    inner: *const Arc<RuntimeInner>,
    /// The worker's own deque; only ever dereferenced from this thread.
    local: *const Deque<Task>,
    /// The worker's own slab (kept alive by `RuntimeInner`).
    slab: *const crate::slab::Slab,
    /// Task ids this worker reserved for its spawns.
    ids: TaskIdBlock,
}

thread_local! {
    static CTX: Cell<*const Ctx> = const { Cell::new(std::ptr::null()) };
}

/// The calling thread's worker context, if it is a worker.
///
/// The reference is only valid while the worker loop that installed the
/// context is on this thread's stack — true for every caller, which runs
/// above that loop — so it must not be stored anywhere that outlives the
/// current call.
fn ctx<'a>() -> Option<&'a Ctx> {
    let p = CTX.with(Cell::get);
    // SAFETY: non-null only between `worker_loop` installing a context that
    // lives in its frame and `LoopGuard` clearing it; see above.
    unsafe { p.as_ref() }
}

impl Ctx {
    fn runtime(&self) -> &Arc<RuntimeInner> {
        // SAFETY: points at `worker_loop`'s `inner`, alive as long as `self`.
        unsafe { &*self.inner }
    }

    fn worker_ref(&self) -> WorkerRef {
        WorkerRef {
            index: self.index,
            local: self.local,
            ids: &self.ids,
        }
    }
}

/// Whether the calling thread is one of a runtime's workers.
pub(crate) fn on_worker_thread() -> bool {
    ctx().is_some()
}

/// The calling worker's index within its runtime, if any. Exposed through
/// [`crate::runtime::Runtime::current_worker`].
pub(crate) fn current_worker_index() -> Option<usize> {
    ctx().map(|c| c.index)
}

/// A worker's identity within one specific runtime: its index, its own
/// deque and its task-id block. The pointers are only valid on the
/// worker's thread (which is the only thread that can obtain a
/// `WorkerRef` for it) while the worker loop below it on the stack is
/// alive.
#[derive(Clone, Copy)]
pub(crate) struct WorkerRef {
    pub index: usize,
    pub local: *const Deque<Task>,
    ids: *const TaskIdBlock,
}

impl WorkerRef {
    /// A fresh task id from this worker's reserved block.
    pub(crate) fn next_task_id(&self, scheduler: &Scheduler) -> u64 {
        // SAFETY: the block lives in this thread's worker context.
        scheduler.next_task_id_in(unsafe { &*self.ids })
    }
}

/// The calling worker's context, but only when it belongs to the runtime
/// at `target`. The identity check compares pointers, so it costs no
/// refcount traffic.
fn ctx_of<'a>(target: *const RuntimeInner) -> Option<&'a Ctx> {
    ctx().filter(|c| std::ptr::eq(Arc::as_ptr(c.runtime()), target))
}

/// The calling worker's identity, but only when it belongs to *this*
/// runtime. Spawn paths must use this instead of
/// [`current_worker_index`]: a worker of runtime A spawning into runtime
/// B must not index B's per-worker state with A's index.
pub(crate) fn context_for(inner: &Arc<RuntimeInner>) -> Option<WorkerRef> {
    ctx_of(Arc::as_ptr(inner)).map(Ctx::worker_ref)
}

/// The worker loop's own runtime reference and the worker's identity, when
/// the caller is a worker of the runtime at `target` (a handle's `Weak`
/// pointer).
///
/// # Safety
///
/// The caller must not use the returned reference after the call it was
/// obtained in returns: it points into the worker loop's stack frame.
pub(crate) unsafe fn borrow_runtime<'a>(
    target: *const RuntimeInner,
) -> Option<(&'a Arc<RuntimeInner>, WorkerRef)> {
    ctx_of(target).map(|c| (c.runtime(), c.worker_ref()))
}

/// The calling worker's index when it is one of the workers whose
/// runtime state is `state` (a deferred run picks its stats sink with
/// this).
pub(crate) fn index_in(state: &RuntimeState) -> Option<usize> {
    ctx()
        .filter(|c| std::ptr::eq(Arc::as_ptr(&c.runtime().state), state))
        .map(|c| c.index)
}

/// The calling worker's slab, or null when not on a worker thread. Used
/// by `Slab::cleanup` to decide between the owner-local free list and
/// the cross-worker return path.
pub(crate) fn current_slab_ptr() -> *const crate::slab::Slab {
    ctx().map_or(std::ptr::null(), |c| c.slab)
}

/// Thread-local accumulator for `pending`-counter decrements. A scheduling
/// loop notes each claimed task here; the shared `pending` atomic is only
/// touched on flush — every [`PendingBatch::FLUSH_EVERY`] claims, whenever
/// the loop runs dry, and on drop (which also covers unwinds, so an
/// injected worker kill cannot leak accounting).
pub(crate) struct PendingBatch<'a> {
    scheduler: &'a Scheduler,
    count: Cell<u64>,
}

impl<'a> PendingBatch<'a> {
    /// Claims folded into one shared-counter update. Chosen small enough
    /// that `/threads/count/instantaneous/pending` stays useful (staleness
    /// is bounded by `workers × FLUSH_EVERY`) and large enough to take the
    /// shared RMW off the per-task path.
    pub(crate) const FLUSH_EVERY: u64 = 32;

    pub(crate) fn new(scheduler: &'a Scheduler) -> Self {
        PendingBatch {
            scheduler,
            count: Cell::new(0),
        }
    }

    /// Note one claimed task; publishes the batch at the flush threshold.
    pub(crate) fn note_started(&self) {
        let n = self.count.get() + 1;
        if n >= Self::FLUSH_EVERY {
            self.count.set(0);
            self.scheduler.note_started_n(n);
        } else {
            self.count.set(n);
        }
    }

    /// Publish any accumulated decrements now.
    pub(crate) fn flush(&self) {
        let n = self.count.replace(0);
        self.scheduler.note_started_n(n);
    }
}

impl Drop for PendingBatch<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Run one found task on worker `index`, its execution window opening at
/// `start`; returns the clock reading that closed it. Execution
/// timing/accounting lives inside the task (see `runtime::TaskCell` and
/// `runtime::run_slab_task`) so it is ordered before the future's
/// completion; here we only account the scheduler-side events. The
/// `pending` decrement is the caller's job (batched via [`PendingBatch`]).
pub(crate) fn execute_task(
    inner: &Arc<RuntimeInner>,
    index: usize,
    task: Task,
    stolen_local: u64,
    stolen_remote: u64,
    start: u64,
) -> u64 {
    if stolen_local + stolen_remote > 0 {
        // The steal counts cover every task the find moved off another
        // worker's deque: the task we are about to run plus any batch-steal
        // extras now parked in our local deque. Those extras come back out
        // as local (stolen == 0) finds, so crediting them here keeps
        // `/threads/count/stolen` equal to "tasks migrated between
        // workers" without double counting. The local/remote split drives
        // `/threads/count/steals-{local,remote}`.
        inner.state.stats[index].record_steals(stolen_local, stolen_remote);
    }
    let Task { repr, id: _ } = task;
    match repr {
        crate::scheduler::TaskRepr::Heap(run) => run.run(index, start),
        crate::scheduler::TaskRepr::Slab(slot_ref) => {
            let end = crate::runtime::run_slab_task(inner, &slot_ref, index, start);
            // The run claimed the slot; forgetting the ref skips the
            // teardown claim its Drop would otherwise attempt.
            std::mem::forget(slot_ref);
            end
        }
    }
}

/// Clears the worker context and re-parks the deque into its scheduler
/// slot on every exit from the loop — normal shutdown *and* unwinds. The
/// re-park is what makes worker respawn after an injected (or real) panic
/// lossless: the next `worker_loop` on this slot claims the same deque
/// with all queued tasks intact.
struct LoopGuard<'a> {
    inner: &'a Arc<RuntimeInner>,
    index: usize,
    deque: Option<Deque<Task>>,
}

impl Drop for LoopGuard<'_> {
    fn drop(&mut self) {
        CTX.with(|c| c.set(std::ptr::null()));
        *self.inner.scheduler.deques[self.index].lock() = self.deque.take();
    }
}

/// The main scheduling loop of worker `index`.
pub(crate) fn worker_loop(inner: Arc<RuntimeInner>, index: usize) {
    let deque = inner.scheduler.deques[index]
        .lock()
        .take()
        .expect("worker deque claimed twice");
    let _pmu_guard = rpx_papi::DomainGuard::enter(inner.pmu.clone(), index);
    // Bind to the placed hardware thread when a bind policy is active; a
    // failed pin is tolerated (the socket assignment used for victim
    // ordering still stands, it is just advisory then).
    if let Some(hw) = inner.placement.get(index).copied().flatten() {
        let _ = crate::affinity::pin_current_thread(hw);
    }
    // Declared before `guard` but initialised after it (the context points
    // into the guard's deque), so the guard drops first and unpublishes
    // the context before the context itself goes away.
    #[allow(clippy::needless_late_init)]
    let ctx;
    let guard = LoopGuard {
        inner: &inner,
        index,
        deque: Some(deque),
    };
    let local = guard.deque.as_ref().expect("deque just parked");
    ctx = Ctx {
        index,
        inner: &inner,
        local,
        slab: Arc::as_ptr(&inner.slabs[index]),
        ids: TaskIdBlock::default(),
    };
    CTX.with(|c| c.set(&ctx));
    run_loop(&inner, index, local);
}

/// One find-miss step of the scheduling loop: register as a sleeper, park
/// unless the queues are (now) non-empty or shutdown was requested,
/// deregister, and attribute the *whole* window since `t0` — the failed
/// find, the registration, and any park — to `idle_ns`. Returns the clock
/// reading that closed the window (and opens the next one), or `None` when
/// the loop should exit (shutdown).
///
/// Extracted from `run_loop` so the accounting is unit-testable: the
/// register-then-recheck path used to `continue` without accruing the
/// elapsed time to either `idle_ns` or `overhead_ns`, silently dropping
/// wall-clock from the counters' time balance.
pub(crate) fn idle_step(
    scheduler: &Scheduler,
    shutdown: &AtomicBool,
    parker: &Parker,
    index: usize,
    stats: &WorkerStats,
    clock: &Clock,
    t0: u64,
) -> Option<u64> {
    if shutdown.load(Ordering::Acquire) {
        return None;
    }
    // Register before the final probe so a push that races with us is
    // guaranteed to either be seen by the probe or unpark us (the fence
    // pairing is documented on `Scheduler::register_sleeper`).
    scheduler.register_sleeper(index, parker.unparker().clone());
    // `SeqCst` so the shutdown store (also `SeqCst`) is covered by the same
    // fence pairing as a task push: either `wake_all` sees our
    // registration, or we see the flag here.
    if !(scheduler.has_queued_work() || shutdown.load(Ordering::SeqCst)) {
        parker.park_timeout(Duration::from_micros(500));
    }
    scheduler.deregister_sleeper(index);
    let t1 = clock.now_ns();
    stats.record_idle(t1.saturating_sub(t0));
    (!shutdown.load(Ordering::Acquire)).then_some(t1)
}

fn run_loop(inner: &Arc<RuntimeInner>, index: usize, deque: &Deque<Task>) {
    let parker = Parker::new();
    let state = &inner.state;
    let stats = &state.stats[index];
    let batch = PendingBatch::new(&inner.scheduler);

    let mut t0 = state.clock.now_ns();
    loop {
        stats.beat();
        let found = inner.scheduler.find(index, deque);
        if found.remote_probe_ns > 0 {
            // Sub-attribution of the find window: time spent probing
            // remote sockets, successful or not. The overall balance is
            // untouched (the window still lands in overhead/idle below);
            // this lets the causal profiler separate placement misses
            // from granularity.
            stats.record_remote_probe(found.remote_probe_ns);
        }
        match found.task {
            Some(task) => {
                batch.note_started();
                let t1 = state.clock.now_ns();
                stats.record_overhead(t1.saturating_sub(t0));
                let mut start = t1;
                // Injected stall sits between claiming the task and running
                // it: `live > 0` for the whole sleep, so the watchdog has a
                // guaranteed window to observe the frozen heartbeat. The
                // sleep is booked to no window.
                if let Some(faults) = &inner.faults {
                    if let Some(stall) = faults.inject_stall() {
                        std::thread::sleep(stall);
                        start = state.clock.now_ns();
                    }
                }
                t0 = execute_task(
                    inner,
                    index,
                    task,
                    found.stolen_local,
                    found.stolen_remote,
                    start,
                );
                // Injected worker kill fires only after the task completed:
                // the unwind holds no task, so respawning loses nothing
                // (`batch` flushes on drop during the unwind).
                if let Some(faults) = &inner.faults {
                    if faults.inject_worker_kill() {
                        std::panic::panic_any(InjectedFault("worker-kill"));
                    }
                }
            }
            None => {
                batch.flush();
                match idle_step(
                    &inner.scheduler,
                    &inner.shutdown,
                    &parker,
                    index,
                    stats,
                    &state.clock,
                    t0,
                ) {
                    Some(t1) => t0 = t1,
                    None => break,
                }
            }
        }
    }
}

/// Work-helping wait: while `pred()` holds, execute other pending tasks on
/// the calling worker; spin/yield briefly when no work is available. Falls
/// back to yielding when called off a worker thread.
pub(crate) fn help_while(pred: impl Fn() -> bool) {
    let Some(ctx) = ctx() else {
        while pred() {
            std::thread::yield_now();
        }
        return;
    };
    let inner = ctx.runtime();
    let index = ctx.index;
    // SAFETY: `local` is this thread's own deque; see `worker_loop`.
    let deque = unsafe { &*ctx.local };
    let state = &inner.state;
    let stats = &state.stats[index];
    let batch = PendingBatch::new(&inner.scheduler);
    let mut idle_spins: u32 = 0;
    let mut t0 = state.clock.now_ns();
    while pred() {
        stats.beat();
        let found = inner.scheduler.find(index, deque);
        if found.remote_probe_ns > 0 {
            stats.record_remote_probe(found.remote_probe_ns);
        }
        match found.task {
            Some(task) => {
                batch.note_started();
                let t1 = state.clock.now_ns();
                stats.record_overhead(t1.saturating_sub(t0));
                t0 = execute_task(
                    inner,
                    index,
                    task,
                    found.stolen_local,
                    found.stolen_remote,
                    t1,
                );
                idle_spins = 0;
            }
            None => {
                batch.flush();
                idle_spins = idle_spins.saturating_add(1);
                if idle_spins < 16 {
                    std::hint::spin_loop();
                } else if idle_spins < 64 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(20));
                }
                let t1 = state.clock.now_ns();
                stats.record_idle(t1.saturating_sub(t0));
                t0 = t1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Runnable, SchedulerMode};
    use std::time::Instant;

    struct Nop;
    impl Runnable for Nop {
        fn run(&self, _worker: usize, start: u64) -> u64 {
            start
        }
    }

    fn nop_task(id: u64) -> Task {
        Task {
            repr: crate::scheduler::TaskRepr::Heap(Arc::new(Nop)),
            id,
        }
    }

    #[test]
    fn pending_batch_flushes_at_threshold_and_on_drop() {
        let s = Scheduler::new(1, SchedulerMode::LocalQueues);
        let n = PendingBatch::FLUSH_EVERY + 3;
        for i in 0..n {
            s.push(nop_task(i), None);
        }
        {
            let batch = PendingBatch::new(&s);
            for _ in 0..PendingBatch::FLUSH_EVERY - 1 {
                batch.note_started();
            }
            // Below threshold: nothing published yet.
            assert_eq!(s.pending_tasks(), n as i64);
            batch.note_started();
            assert_eq!(s.pending_tasks(), 3, "threshold must publish the batch");
            batch.note_started();
            batch.note_started();
            batch.note_started();
            assert_eq!(s.pending_tasks(), 3, "decrements buffered again");
        }
        assert_eq!(s.pending_tasks(), 0, "drop must flush the remainder");
        assert_eq!(s.pending_underflows(), 0);
    }

    /// Regression: the register-sleeper → recheck → continue path used to
    /// attribute its elapsed time to neither `idle_ns` nor `overhead_ns`,
    /// leaking wall-clock out of the counter time balance. Both exits of
    /// `idle_step` must accrue the window since `t0` to `idle_ns`.
    #[test]
    fn idle_step_accrues_idle_time_even_when_work_is_queued() {
        let s = Scheduler::new(1, SchedulerMode::LocalQueues);
        let clock = Clock::new();
        let stats = WorkerStats::new();
        let parker = Parker::new();
        let shutdown = AtomicBool::new(false);
        // Queued work forces the no-park exit (the old `continue` branch).
        s.push(nop_task(1), None);
        let t0 = clock.now_ns();
        std::thread::sleep(Duration::from_millis(2));
        let t_entry = Instant::now();
        let t1 = idle_step(&s, &shutdown, &parker, 0, &stats, &clock, t0)
            .expect("no shutdown requested");
        assert!(
            t_entry.elapsed() < Duration::from_millis(400),
            "queued work must skip the park"
        );
        let idle = stats.idle_ns.load(Ordering::Relaxed);
        assert!(
            idle >= 2_000_000,
            "the whole window since t0 must be idle-accounted, got {idle}ns"
        );
        assert_eq!(idle, t1 - t0, "the returned reading closes the window");
        assert_eq!(s.sleeper_count(), 0, "sleeper must deregister");
    }

    #[test]
    fn idle_step_parks_and_accrues_when_no_work() {
        let s = Scheduler::new(1, SchedulerMode::LocalQueues);
        let clock = Clock::new();
        let stats = WorkerStats::new();
        let parker = Parker::new();
        let shutdown = AtomicBool::new(false);
        let t0 = clock.now_ns();
        assert!(idle_step(&s, &shutdown, &parker, 0, &stats, &clock, t0).is_some());
        let idle = stats.idle_ns.load(Ordering::Relaxed);
        assert!(
            idle >= 300_000,
            "park window must be idle-accounted, got {idle}ns"
        );
        assert_eq!(s.sleeper_count(), 0);
    }

    #[test]
    fn idle_step_exits_on_shutdown() {
        let s = Scheduler::new(1, SchedulerMode::LocalQueues);
        let clock = Clock::new();
        let stats = WorkerStats::new();
        let parker = Parker::new();
        let shutdown = AtomicBool::new(true);
        let t0 = clock.now_ns();
        assert!(idle_step(&s, &shutdown, &parker, 0, &stats, &clock, t0).is_none());
    }
}
