//! Per-worker instrumentation state feeding the `/threads/*` counters.
//!
//! Every field is a relaxed atomic read by counter evaluations from any
//! thread — the low-overhead introspection pattern the paper's framework is
//! built on. The per-task fields have exactly one writer, the owning worker
//! thread, so they are bumped with a plain relaxed load + store instead of
//! a locked read-modify-write. Work done by any other thread (external
//! spawns, inline or deferred runs on foreign threads) goes to the runtime's
//! single [`WorkerStats::shared`] sink, whose writers use `fetch_add`; that
//! sink is summed into every `total` counter instance and never into a
//! `worker-thread#N` one. The rare health fields (`cancelled`, `recovered`,
//! `restarts`, `stalls`, ...) keep `fetch_add` in both kinds of block: the
//! watchdog and queue teardown write them from other threads.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Instrumentation accumulators for one worker thread. Aligned to a pair
/// of cache lines so one worker's stores never invalidate a line another
/// worker (or the external sink's writers) is storing to.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct WorkerStats {
    /// Tasks whose execution finished on this worker.
    pub executed: AtomicU64,
    /// Nanoseconds spent executing task bodies.
    pub exec_ns: AtomicU64,
    /// Nanoseconds of per-task scheduling cost attributed to this worker
    /// (spawn-path cost accrues on the spawning worker, dispatch-path cost
    /// on the executing worker).
    pub overhead_ns: AtomicU64,
    /// Number of scheduling operations folded into `overhead_ns`.
    pub overhead_ops: AtomicU64,
    /// Nanoseconds tasks executed by this worker spent queued
    /// (spawn → start of execution).
    pub wait_ns: AtomicU64,
    /// Tasks this worker stole from another worker's queue.
    pub stolen: AtomicU64,
    /// Steals from victims on this worker's own socket segment
    /// (feeds `/threads/steals-local`).
    pub stolen_local: AtomicU64,
    /// Steals from victims on a remote socket segment
    /// (feeds `/threads/steals-remote`).
    pub stolen_remote: AtomicU64,
    /// Nanoseconds spent probing remote-socket queues (hit or miss).
    /// Sub-attribution of `idle_ns`-adjacent time: the causal profiler
    /// reads this so placement misses aren't blamed on task granularity.
    pub steal_probe_remote_ns: AtomicU64,
    /// Tasks this worker spawned.
    pub spawned: AtomicU64,
    /// Nanoseconds spent looking for work unsuccessfully (idle).
    pub idle_ns: AtomicU64,
    /// Liveness heartbeat: bumped every scheduling-loop iteration (and
    /// every work-helping iteration). A static value while work is pending
    /// means the worker is stalled — the watchdog watches exactly this.
    pub heartbeat: AtomicU64,
    /// Times the worker loop was respawned after a panic escaped a task
    /// wrapper (feeds `/runtime/health/restarts`).
    pub restarts: AtomicU64,
    /// Stall episodes the watchdog attributed to this worker
    /// (feeds `/runtime/health/stalls`).
    pub stalls: AtomicU64,
    /// Tasks skipped at dispatch because their cancel token was cancelled
    /// (feeds `/runtime/health/cancelled-tasks`).
    pub cancelled: AtomicU64,
    /// Injected task panics caught and retried at dispatch
    /// (feeds `/runtime/health/recovered-tasks`).
    pub recovered: AtomicU64,
    /// Nanoseconds the supervisor spent backing off between respawns of
    /// this worker (feeds `/runtime/health/restart-backoff`).
    pub backoff_ns: AtomicU64,
    /// Times this worker's restart budget was exhausted and the breaker
    /// tripped (feeds `/runtime/health/breaker-trips`; 0 or 1 per worker).
    pub breaker_trips: AtomicU64,
    /// Set once the breaker trips: the worker thread has exited for good,
    /// its deque was re-parented into the injector, and the watchdog must
    /// stop stall-checking its frozen heartbeat.
    pub retired: AtomicBool,
    /// Task bodies executing right now (nested help-executions count once
    /// per level; feeds `/threads/count/instantaneous/active`).
    pub active: AtomicI64,
    /// Whether several threads write the per-task fields (the external
    /// sink), which then need `fetch_add` instead of owner load + store.
    shared: bool,
}

impl WorkerStats {
    /// Fresh zeroed stats for one worker: the per-task recorders below
    /// must only be called from that worker's thread.
    pub fn new() -> Self {
        WorkerStats::default()
    }

    /// Fresh zeroed stats that any number of threads may record into (the
    /// runtime's external sink).
    pub fn shared() -> Self {
        WorkerStats {
            shared: true,
            ..WorkerStats::default()
        }
    }

    #[inline]
    fn add(&self, field: &AtomicU64, v: u64) {
        if self.shared {
            field.fetch_add(v, Ordering::Relaxed);
        } else {
            // Single writer: a plain load + store cannot lose an update.
            field.store(
                field.load(Ordering::Relaxed).wrapping_add(v),
                Ordering::Relaxed,
            );
        }
    }

    #[inline]
    fn add_active(&self, v: i64) {
        if self.shared {
            self.active.fetch_add(v, Ordering::Relaxed);
        } else {
            let a = &self.active;
            a.store(a.load(Ordering::Relaxed).wrapping_add(v), Ordering::Relaxed);
        }
    }

    /// Record one finished task execution.
    pub fn record_execution(&self, exec_ns: u64, wait_ns: u64) {
        self.add(&self.executed, 1);
        self.add(&self.exec_ns, exec_ns);
        self.add(&self.wait_ns, wait_ns);
    }

    /// A task body starts executing.
    pub fn enter_task(&self) {
        self.add_active(1);
    }

    /// A task body finished executing.
    pub fn leave_task(&self) {
        self.add_active(-1);
    }

    /// Record one spawn issued by this worker.
    pub fn record_spawn(&self) {
        self.add(&self.spawned, 1);
    }

    /// Record the tasks one find moved off other workers' deques, split by
    /// the victim's socket segment.
    pub fn record_steals(&self, local: u64, remote: u64) {
        self.add(&self.stolen, local + remote);
        if local > 0 {
            self.add(&self.stolen_local, local);
        }
        if remote > 0 {
            self.add(&self.stolen_remote, remote);
        }
    }

    /// Record time one find spent probing remote-socket queues.
    pub fn record_remote_probe(&self, ns: u64) {
        self.add(&self.steal_probe_remote_ns, ns);
    }

    /// Bump the liveness heartbeat (called from scheduling loops only —
    /// never from task bodies, so an injected stall freezes it).
    pub fn beat(&self) {
        self.add(&self.heartbeat, 1);
    }

    /// Record scheduling-path cost (spawn or dispatch).
    pub fn record_overhead(&self, ns: u64) {
        self.add(&self.overhead_ns, ns);
        self.add(&self.overhead_ops, 1);
    }

    /// Record time spent looking for work unsuccessfully (including parked
    /// time). Every find-miss window must land here so the per-worker time
    /// balance (exec + overhead + idle ≈ wall) holds.
    pub fn record_idle(&self, ns: u64) {
        self.add(&self.idle_ns, ns);
    }

    /// Snapshot of (executed, exec_ns) for average counters.
    pub fn exec_pair(&self) -> (u64, u64) {
        (
            self.exec_ns.load(Ordering::Relaxed),
            self.executed.load(Ordering::Relaxed),
        )
    }

    /// Snapshot of (overhead_ns, executed) for the average-overhead counter.
    /// HPX reports overhead per executed task, not per scheduling op.
    pub fn overhead_pair(&self) -> (u64, u64) {
        (
            self.overhead_ns.load(Ordering::Relaxed),
            self.executed.load(Ordering::Relaxed),
        )
    }

    /// Snapshot of (wait_ns, executed) for the average-wait counter.
    pub fn wait_pair(&self) -> (u64, u64) {
        (
            self.wait_ns.load(Ordering::Relaxed),
            self.executed.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn record_execution_accumulates() {
        let s = WorkerStats::new();
        s.record_execution(100, 20);
        s.record_execution(300, 40);
        assert_eq!(s.exec_pair(), (400, 2));
        assert_eq!(s.wait_pair(), (60, 2));
    }

    #[test]
    fn overhead_pair_uses_executed_denominator() {
        let s = WorkerStats::new();
        s.record_overhead(10);
        s.record_overhead(30);
        s.record_execution(1000, 0);
        assert_eq!(s.overhead_pair(), (40, 1));
        assert_eq!(s.overhead_ops.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn shared_sink_loses_no_concurrent_update() {
        let s = Arc::new(WorkerStats::shared());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        s.record_overhead(1);
                        s.enter_task();
                        s.record_execution(2, 3);
                        s.leave_task();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.overhead_pair(), (40_000, 40_000));
        assert_eq!(s.exec_pair(), (80_000, 40_000));
        assert_eq!(s.active.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn steals_split_by_segment() {
        let s = WorkerStats::new();
        s.record_steals(3, 0);
        s.record_steals(1, 2);
        assert_eq!(s.stolen.load(Ordering::Relaxed), 6);
        assert_eq!(s.stolen_local.load(Ordering::Relaxed), 4);
        assert_eq!(s.stolen_remote.load(Ordering::Relaxed), 2);
    }
}
