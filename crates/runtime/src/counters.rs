//! Registration of the runtime's intrinsic counters — the `/threads/*`,
//! `/scheduler/*`, and `/runtime/*` names the paper's metrics are built on.
//!
//! | Counter | Paper metric |
//! |---|---|
//! | `/threads/time/average` | Task Duration (grain size) |
//! | `/threads/time/average-overhead` | Task Overhead |
//! | `/threads/time/cumulative` | Task Time (summed; divided by cores in the figures) |
//! | `/threads/time/cumulative-overhead` | Scheduling Overhead |
//! | `/threads/count/cumulative` | number of tasks executed |
//!
//! Every per-worker counter is discoverable as
//! `{locality#L/worker-thread#N}` and aggregated as `{locality#L/total}`;
//! whole-runtime counters exist only as `{locality#L/total}`. The instance
//! layout is [`Scope`]'s; this file only lists the counters.

use std::sync::atomic::Ordering::{Acquire, Relaxed};
use std::sync::Arc;

use rpx_counters::registry::{CounterRegistry, InstanceFn, Scope, Source};

use crate::runtime::RuntimeInner;
use crate::slab::Slab;
use crate::stats::WorkerStats;
use crate::AnomalyKind;

/// How a counter reads the runtime. Per-worker readers are summed over
/// every worker (and the external sink) for the `total` instance.
#[derive(Clone, Copy)]
enum Reader {
    /// Monotonic, one value per worker.
    Stats(fn(&WorkerStats) -> u64),
    /// Average of a per-worker (sum, count) pair.
    Pair(fn(&WorkerStats) -> (u64, u64)),
    /// Raw share `a / (a + b)` of a per-worker pair, in units of 0.01 %
    /// (the HPX convention).
    Share(fn(&WorkerStats) -> (u64, u64)),
    /// Monotonic, one value per worker's task slab.
    Slabs(fn(&Slab) -> u64),
    /// Raw gauge of the whole runtime (total instance only).
    Gauge(fn(&RuntimeInner) -> i64),
    /// Monotonic count of the whole runtime (total instance only).
    Count(fn(&RuntimeInner) -> i64),
}

use Reader::{Count, Gauge, Pair, Share, Slabs, Stats};

/// Every runtime counter: type path, help, unit and reader.
const COUNTERS: &[(&str, &str, &str, Reader)] = &[
    (
        "/threads/count/cumulative",
        "number of tasks executed",
        "1",
        Stats(|s| s.executed.load(Relaxed)),
    ),
    (
        "/threads/time/cumulative",
        "cumulative time spent executing task bodies",
        "ns",
        Stats(|s| s.exec_ns.load(Relaxed)),
    ),
    (
        "/threads/time/cumulative-overhead",
        "cumulative scheduling cost (spawn + dispatch paths)",
        "ns",
        Stats(|s| s.overhead_ns.load(Relaxed)),
    ),
    (
        "/threads/count/stolen",
        "tasks stolen from other workers' queues",
        "1",
        Stats(|s| s.stolen.load(Relaxed)),
    ),
    (
        "/threads/count/steals-local",
        "steals from victims on this worker's own socket segment",
        "1",
        Stats(|s| s.stolen_local.load(Relaxed)),
    ),
    (
        "/threads/count/steals-remote",
        "steals from victims on a remote socket segment",
        "1",
        Stats(|s| s.stolen_remote.load(Relaxed)),
    ),
    (
        "/threads/time/steal-probe-remote",
        "time spent probing remote-socket queues, hit or miss (idle sub-attribution)",
        "ns",
        Stats(|s| s.steal_probe_remote_ns.load(Relaxed)),
    ),
    (
        "/threads/count/spawned",
        "tasks spawned by this worker",
        "1",
        Stats(|s| s.spawned.load(Relaxed)),
    ),
    (
        "/threads/time/average",
        "average task execution time (Task Duration / grain size)",
        "ns",
        Pair(WorkerStats::exec_pair),
    ),
    (
        "/threads/time/average-overhead",
        "average per-task scheduling cost (Task Overhead)",
        "ns",
        Pair(WorkerStats::overhead_pair),
    ),
    (
        "/threads/time/average-wait",
        "average time tasks spend queued before execution",
        "ns",
        Pair(WorkerStats::wait_pair),
    ),
    (
        "/threads/idle-rate",
        "fraction of wall time workers spent without work",
        "0.01%",
        Share(|s| {
            let busy = s.exec_ns.load(Relaxed) + s.overhead_ns.load(Relaxed);
            (s.idle_ns.load(Relaxed), busy)
        }),
    ),
    (
        "/threads/count/instantaneous/active",
        "tasks currently executing",
        "1",
        Gauge(active_tasks),
    ),
    (
        "/threads/count/instantaneous/pending",
        "tasks queued, not yet started",
        "1",
        Gauge(|i| i.scheduler.pending_tasks()),
    ),
    (
        "/scheduler/utilization/instantaneous",
        "executing tasks as a percentage of workers",
        "%",
        Gauge(|i| (active_tasks(i) * 100 / i.config.workers as i64).min(100)),
    ),
    // Health counters backing the fault-tolerance layer (DESIGN.md §health).
    (
        "/runtime/health/restarts",
        "worker-loop respawns after a panic escaped a task wrapper",
        "1",
        Stats(|s| s.restarts.load(Relaxed)),
    ),
    (
        "/runtime/health/stalls",
        "stall episodes detected by the watchdog (static heartbeat with work pending)",
        "1",
        Stats(|s| s.stalls.load(Relaxed)),
    ),
    (
        "/runtime/health/cancelled-tasks",
        "tasks skipped at dispatch because their cancel token was cancelled",
        "1",
        Stats(|s| s.cancelled.load(Relaxed)),
    ),
    (
        "/runtime/health/recovered-tasks",
        "injected task panics caught and retried at dispatch",
        "1",
        Stats(|s| s.recovered.load(Relaxed)),
    ),
    (
        "/runtime/health/restart-backoff",
        "time the supervisor spent backing off between worker respawns",
        "ns",
        Stats(|s| s.backoff_ns.load(Relaxed)),
    ),
    (
        "/runtime/health/breaker-trips",
        "restart budgets exhausted (worker retired by the circuit breaker)",
        "1",
        Stats(|s| s.breaker_trips.load(Relaxed)),
    ),
    // Accounting drift detector: the pending counter's public view clamps
    // at zero, so genuine underflows (a decrement without a matching push)
    // would otherwise be invisible. Any nonzero value here is a bug.
    (
        "/runtime/health/pending-underflows",
        "times the pending-task counter was decremented below zero (accounting drift)",
        "1",
        Count(|i| i.scheduler.pending_underflows() as i64),
    ),
    // Overload-protection counters (DESIGN.md §14). `/runtime/tasks/*`
    // reads the admission gate when one is configured — exact, CAS-guarded
    // accounting — and falls back to the scheduler's batched (approximate)
    // view otherwise.
    (
        "/runtime/tasks/pending",
        "tasks holding admission slots (queued, not yet started)",
        "1",
        Gauge(|i| match &i.gate {
            Some(gate) => gate.pending(),
            None => i.scheduler.pending_tasks(),
        }),
    ),
    (
        "/runtime/tasks/peak-pending",
        "lifetime high-water mark of the pending-task count",
        "1",
        Gauge(|i| i.gate.as_ref().map_or(0, |g| g.peak())),
    ),
    (
        "/runtime/tasks/admitted",
        "spawns admitted through the task-budget gate",
        "1",
        Count(|i| i.gate.as_ref().map_or(0, |g| g.admitted() as i64)),
    ),
    (
        "/runtime/health/shed",
        "spawns rejected by the admission gate (Shed policy / try_spawn)",
        "1",
        Count(|i| i.gate.as_ref().map_or(0, |g| g.shed() as i64)),
    ),
    (
        "/runtime/health/degraded-spawns",
        "spawns run inline in the caller because the gate was closed",
        "1",
        Count(|i| i.gate.as_ref().map_or(0, |g| g.degraded() as i64)),
    ),
    (
        "/runtime/health/blocked-spawns",
        "spawners that parked at least once waiting for admission",
        "1",
        Count(|i| i.gate.as_ref().map_or(0, |g| g.blocked() as i64)),
    ),
    (
        "/runtime/health/gate-closes",
        "open-to-closed transitions of the admission gate",
        "1",
        Count(|i| i.gate.as_ref().map_or(0, |g| g.closes() as i64)),
    ),
    (
        "/runtime/health/overload-state",
        "overload detector verdict (0 normal, 1 elevated, 2 overloaded)",
        "1",
        Gauge(|i| i.state.overload_state.load(Acquire)),
    ),
    (
        "/runtime/health/live-workers",
        "workers not retired by a tripped restart breaker",
        "1",
        Gauge(|i| i.state.live_workers.load(Acquire) as i64),
    ),
    // Anomaly-detector episode counts (DESIGN.md §14). Counters expose
    // *episodes*, not ticks: a storm that holds for 50 watchdog ticks is
    // one increment, so a policy thresholding on these reacts to events,
    // not durations.
    (
        "/runtime/anomaly/steal-storms",
        "steal-storm episodes (steal/exec ratio spiked over its EWMA baseline)",
        "1",
        Count(|i| i.state.anomalies.count(AnomalyKind::StealStorm) as i64),
    ),
    (
        "/runtime/anomaly/granularity-collapses",
        "granularity-collapse episodes (mean task grain fell far below baseline)",
        "1",
        Count(|i| i.state.anomalies.count(AnomalyKind::GranularityCollapse) as i64),
    ),
    (
        "/runtime/anomaly/idle-spikes",
        "idle-spike episodes (cores starved while a backlog existed)",
        "1",
        Count(|i| i.state.anomalies.count(AnomalyKind::IdleSpike) as i64),
    ),
    (
        "/runtime/anomaly/events",
        "anomaly episodes of any kind (what an adaptive policy thresholds on)",
        "1",
        Count(|i| i.state.anomalies.total() as i64),
    ),
    // Slab health (DESIGN.md §16). An allocation-free steady state shows
    // growing `allocs`/`*-frees` with `exhausted` and `fallback-allocs`
    // flat at zero; anything else means the slab is undersized or spawns
    // are arriving from non-worker threads.
    (
        "/runtime/slab/allocs",
        "task slots claimed from this worker's slab",
        "1",
        Slabs(Slab::allocs),
    ),
    (
        "/runtime/slab/local-frees",
        "slots returned to the owning worker's free list directly",
        "1",
        Slabs(Slab::local_frees),
    ),
    (
        "/runtime/slab/remote-frees",
        "slots returned through the cross-worker return stack",
        "1",
        Slabs(Slab::remote_frees),
    ),
    (
        "/runtime/slab/exhausted",
        "slab allocation attempts that found no free slot (heap fallback taken)",
        "1",
        Slabs(Slab::exhausted),
    ),
    (
        "/runtime/slab/fallback-allocs",
        "spawns that took the heap path (oversized closure, external spawner, or slab exhaustion)",
        "1",
        Count(|i| i.fallback_allocs.load(Relaxed) as i64),
    ),
    // Tracer self-measurement (the paper's ≤10% overhead envelope is
    // checked against exactly these).
    (
        "/runtime/trace/overhead-time",
        "time spent inside TaskTracer::record (tracing self-measurement)",
        "ns",
        Count(|i| i.state.tracer.overhead_ns() as i64),
    ),
    (
        "/runtime/trace/records",
        "task spans recorded by the tracer (including overwritten ones)",
        "1",
        Count(|i| i.state.tracer.records() as i64),
    ),
    (
        "/runtime/trace/dropped",
        "task spans overwritten by ring-buffer wraparound",
        "1",
        Count(|i| i.state.tracer.dropped() as i64),
    ),
];

/// Task bodies executing right now, summed over the per-worker gauges and
/// the external sink.
fn active_tasks(inner: &RuntimeInner) -> i64 {
    let sum: i64 = inner
        .state
        .all_stats()
        .map(|s| s.active.load(Relaxed))
        .sum();
    sum.max(0)
}

/// A per-worker pair for the selected worker, or summed over every worker
/// and the external sink for the total.
fn pair(
    inner: &RuntimeInner,
    selected: Option<usize>,
    read: fn(&WorkerStats) -> (u64, u64),
) -> (u64, u64) {
    match selected {
        Some(w) => read(&inner.state.stats[w]),
        None => inner.state.all_stats().fold((0, 0), |(a, b), w| {
            let (wa, wb) = read(w);
            (a + wa, b + wb)
        }),
    }
}

/// The instance reader `read(inner, selected)`: one `Weak` upgrade per
/// read, `dead` once the runtime is gone.
fn reader<T: Copy + Send + Sync + 'static>(
    inner: &Arc<RuntimeInner>,
    dead: T,
    read: impl Fn(&RuntimeInner, Option<usize>) -> T + Copy + Send + Sync + 'static,
) -> InstanceFn<Arc<dyn Fn() -> T + Send + Sync>> {
    let weak = Arc::downgrade(inner);
    Arc::new(move |selected| {
        let weak = weak.clone();
        Arc::new(move || weak.upgrade().map_or(dead, |i| read(&i, selected)))
    })
}

/// Register every runtime counter with `registry`. Called by
/// [`Runtime::new`](crate::runtime::Runtime::new).
pub(crate) fn register_runtime_counters(
    registry: &Arc<CounterRegistry>,
    inner: &Arc<RuntimeInner>,
) {
    let locality = inner.config.locality;
    let workers = inner.state.stats.len();
    for &(path, help, unit, read) in COUNTERS {
        let scope = match read {
            Gauge(_) | Count(_) => Scope::Total(locality),
            _ => Scope::Workers { locality, workers },
        };
        let source = match read {
            Stats(read) => Source::Monotonic(reader(inner, 0, move |i, sel| match sel {
                None => i.state.total(read) as i64,
                Some(w) => read(&i.state.stats[w]) as i64,
            })),
            Pair(read) => Source::Average(reader(inner, (0, 0), move |i, sel| pair(i, sel, read))),
            Share(read) => Source::Raw(reader(inner, 0, move |i, sel| {
                let (a, b) = pair(i, sel, read);
                if a + b == 0 {
                    return 0;
                }
                ((a as f64 / (a + b) as f64) * 10_000.0).round() as i64
            })),
            Slabs(read) => Source::Monotonic(reader(inner, 0, move |i, sel| match sel {
                None => i.slabs.iter().map(|s| read(s)).sum::<u64>() as i64,
                Some(w) => read(&i.slabs[w]) as i64,
            })),
            Gauge(read) => Source::Raw(reader(inner, 0, move |i, _| read(i))),
            Count(read) => Source::Monotonic(reader(inner, 0, move |i, _| read(i))),
        };
        registry.register_scoped(path, help, unit, scope, source);
    }
    registry.register_elapsed("/runtime/uptime", "time since the runtime started");
}
