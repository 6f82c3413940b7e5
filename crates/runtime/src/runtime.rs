//! The runtime facade: configuration, worker lifecycle, and the spawn API.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use rpx_counters::counter::Clock;
use rpx_counters::CounterRegistry;
use rpx_papi::Pmu;

use crate::admission::{AdmissionControl, AdmissionGate};
use crate::affinity::{BindSpec, Topology};
use crate::cancel::CancelToken;
use crate::detector::{AnomalyEvent, AnomalyLog, OverloadState};
use crate::faults::{FaultInjector, FaultPlan, InjectedFault};
use crate::future::{FutureCore, Shared, TaskFuture};
use crate::policy::{LaunchPolicy, OverloadPolicy};
use crate::scheduler::{Runnable, Scheduler, SchedulerMode, Task, TaskRepr};
use crate::slab::{Slab, SlabJoin, SlabSlotRef, SpawnMeta};
use crate::stats::WorkerStats;
use crate::trace::{TaskSpan, TaskTracer, EXTERNAL_WORKER};
use crate::watchdog::{RestartPolicy, RestartState, RestartVerdict};
use crate::{watchdog, worker};

/// Runtime configuration (the knobs of Table IV).
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of worker threads ("cores" in the paper's strong-scaling runs).
    pub workers: usize,
    /// Queue discipline.
    pub mode: SchedulerMode,
    /// Locality id used in counter instance names (single-node: 0).
    pub locality: u32,
    /// Worker stack size in bytes (the paper had to move Alignment's large
    /// arrays to the heap because of small task stacks; our workers carry
    /// the whole stack, so the default is generous).
    pub stack_size: usize,
    /// Fault-injection plan for chaos testing; defaults to
    /// [`FaultPlan::from_env`] (`None` — disabled — unless `RPX_FAULT_*`
    /// variables are set).
    pub faults: Option<FaultPlan>,
    /// How often the watchdog samples worker heartbeats.
    pub watchdog_interval: Duration,
    /// How long a heartbeat may stay static (while work is live or
    /// pending) before the watchdog counts a stall episode.
    pub stall_threshold: Duration,
    /// Admission high watermark: maximum queued-but-not-started tasks
    /// before the admission gate closes and [`overload_policy`](RuntimeConfig::overload_policy) decides each spawn's fate.
    /// `None` (the default) disables admission control entirely.
    pub max_pending: Option<usize>,
    /// Admission low watermark: a closed gate reopens once pending work
    /// drains to this level (hysteresis). Defaults to `max_pending / 2`
    /// when `None`.
    pub resume_pending: Option<usize>,
    /// What happens to a spawn while the admission gate is closed.
    pub overload_policy: OverloadPolicy,
    /// Restart budget per worker: maximum supervisor respawns within
    /// `restart_window` before the circuit breaker trips and the worker is
    /// retired (its queued tasks re-parent into the global injector). The
    /// token bucket refills continuously at `budget / window`.
    pub restart_budget: u32,
    /// Token-bucket refill window for `restart_budget`; also the calm
    /// period after which the consecutive-crash backoff resets.
    pub restart_window: Duration,
    /// Minimum backoff before a crashed worker is respawned; doubles per
    /// consecutive crash up to `restart_backoff_max`.
    pub restart_backoff: Duration,
    /// Upper bound for the exponential restart backoff.
    pub restart_backoff_max: Duration,
    /// Machine topology to schedule against. `None` (default) discovers
    /// it from sysfs ([`Topology::discover`]); tests and simulations pass
    /// an explicit shape.
    pub topology: Option<Topology>,
    /// Worker→hardware-thread placement policy. [`BindSpec::None`]
    /// (default) neither pins threads nor segments the scheduler; any
    /// other value pins each worker via `sched_setaffinity` and derives
    /// per-socket injector segments and hierarchical victim order from
    /// the placement.
    pub bind: BindSpec,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            mode: SchedulerMode::LocalQueues,
            locality: 0,
            stack_size: 8 << 20,
            // Fail fast on misspelled RPX_FAULT_* knobs: silently running a
            // chaos suite with injection disabled is worse than aborting.
            faults: FaultPlan::from_env().unwrap_or_else(|e| panic!("rpx: {e}")),
            watchdog_interval: Duration::from_millis(20),
            stall_threshold: Duration::from_millis(500),
            max_pending: None,
            resume_pending: None,
            overload_policy: OverloadPolicy::default(),
            // Generous enough that transient fault-injection storms (tens
            // of kills) never trip in ordinary chaos runs; a genuine crash
            // loop exhausts it within a window.
            restart_budget: 64,
            restart_window: Duration::from_secs(10),
            restart_backoff: Duration::from_millis(1),
            restart_backoff_max: Duration::from_millis(100),
            topology: None,
            bind: BindSpec::None,
        }
    }
}

impl RuntimeConfig {
    /// Config with `workers` worker threads and defaults otherwise.
    pub fn with_workers(workers: usize) -> Self {
        RuntimeConfig {
            workers: workers.max(1),
            ..RuntimeConfig::default()
        }
    }
}

/// The `live` task count on a cache-line pair of its own: every spawn and
/// completion RMWs it, and sharing a line with the read-mostly fields next
/// to it (`clock`, `stats`, `tracer`) would turn each of their loads on
/// the hot path into a coherence miss.
#[repr(align(128))]
pub(crate) struct LiveCount(AtomicI64);

impl std::ops::Deref for LiveCount {
    type Target = AtomicI64;

    fn deref(&self) -> &AtomicI64 {
        &self.0
    }
}

/// Counter-visible runtime state (shared with counter closures via `Weak`).
pub(crate) struct RuntimeState {
    pub clock: Arc<Clock>,
    /// Per-worker stats; each block's per-task fields are written only by
    /// its worker (see [`crate::stats`]).
    pub stats: Vec<Arc<WorkerStats>>,
    /// Work done for this runtime by threads that are not its workers:
    /// external spawns, and inline or deferred runs on foreign threads.
    /// Summed into every `total` counter instance, never into a
    /// `worker-thread#N` one.
    pub external: WorkerStats,
    /// Tasks scheduled but not yet finished (pending + active).
    pub live: LiveCount,
    pub idle_lock: Mutex<()>,
    pub idle_cv: Condvar,
    /// Optional task-lifetime tracing (off by default; see [`TaskTracer`]).
    pub tracer: Arc<TaskTracer>,
    /// Set by [`Runtime::quiesce`] once the drain deadline passes: queued
    /// tasks are cancelled at dispatch instead of executed.
    pub quiesce_cancel: AtomicBool,
    /// Workers not retired by a tripped restart breaker (effective
    /// parallelism; feeds `/runtime/health/live-workers`).
    pub live_workers: AtomicUsize,
    /// Latest [`OverloadState`] the watchdog's detector published
    /// (feeds `/runtime/health/overload-state`).
    pub overload_state: AtomicI64,
    /// Anomaly episodes the watchdog's detector recorded
    /// (feeds `/runtime/anomaly/*`; see [`crate::detector`]).
    pub anomalies: Arc<AnomalyLog>,
}

impl RuntimeState {
    /// The stats block work done by `worker` (an index of this runtime's
    /// workers, `None` for any other thread) is booked to.
    pub(crate) fn sink(&self, worker: Option<usize>) -> &WorkerStats {
        match worker {
            Some(w) => &self.stats[w],
            None => &self.external,
        }
    }

    /// Every stats block a `total` counter instance sums: the workers' and
    /// the external sink.
    pub(crate) fn all_stats(&self) -> impl Iterator<Item = &WorkerStats> {
        self.stats
            .iter()
            .map(|s| &**s)
            .chain(std::iter::once(&self.external))
    }

    /// Sum of `f` over [`all_stats`](Self::all_stats).
    pub(crate) fn total(&self, f: impl Fn(&WorkerStats) -> u64) -> u64 {
        self.all_stats().map(f).sum()
    }

    pub(crate) fn note_task_finished(&self) {
        if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = self.idle_lock.lock();
            self.idle_cv.notify_all();
        }
    }
}

pub(crate) struct RuntimeInner {
    // Field order is load-bearing: `scheduler` (and its queues, which may
    // hold `SlabSlotRef`s) must drop before `slabs` does.
    pub scheduler: Scheduler,
    /// Per-worker task slabs (the allocation-free spawn path), indexed by
    /// worker, [`slab::SLOTS`](crate::slab::SLOTS) slots each.
    pub slabs: Vec<Arc<Slab>>,
    /// Worker→hardware-thread placement (all `None` under
    /// [`BindSpec::None`]); workers pin themselves on loop entry.
    pub placement: Vec<Option<u32>>,
    /// Spawns that took the heap `Arc<TaskCell>` path instead of a slab
    /// slot (external spawn, oversized closure, or slab exhaustion).
    /// Feeds `/runtime/slab/fallback-allocs`.
    pub fallback_allocs: AtomicU64,
    pub state: Arc<RuntimeState>,
    pub registry: Arc<CounterRegistry>,
    pub pmu: Arc<Pmu>,
    pub shutdown: AtomicBool,
    pub config: RuntimeConfig,
    /// Active fault injector (None when the configured plan is inactive).
    pub faults: Option<Arc<FaultInjector>>,
    /// Admission gate (Some iff `config.max_pending` is set).
    pub gate: Option<Arc<AdmissionGate>>,
    /// Set by [`Runtime::quiesce`]: no new task enters a queue (spawns run
    /// inline, `try_spawn` fails).
    pub draining: AtomicBool,
    /// Callbacks run at the end of a quiesce, after queues drain — the
    /// sampler registers a final-flush here so shutdown under load loses
    /// no counter data.
    pub drain_hooks: Mutex<Vec<Box<dyn Fn() + Send>>>,
}

/// Why a fallible spawn was refused. The closure is handed back so no
/// work is silently lost — the caller decides to retry, defer, or drop.
pub enum SpawnError<F> {
    /// The admission gate is closed (pending ≥ `max_pending`).
    Overloaded(F),
    /// The runtime is quiescing; it will not queue new work again.
    Draining(F),
}

impl<F> SpawnError<F> {
    /// Recover the rejected closure.
    pub fn into_inner(self) -> F {
        match self {
            SpawnError::Overloaded(f) | SpawnError::Draining(f) => f,
        }
    }
}

impl<F> std::fmt::Debug for SpawnError<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SpawnError::Overloaded(_) => "SpawnError::Overloaded",
            SpawnError::Draining(_) => "SpawnError::Draining",
        })
    }
}

impl<F> std::fmt::Display for SpawnError<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SpawnError::Overloaded(_) => "spawn rejected: runtime overloaded",
            SpawnError::Draining(_) => "spawn rejected: runtime draining",
        })
    }
}

/// What [`Runtime::quiesce`] accomplished by its deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuiesceReport {
    /// All outstanding work finished within the deadline without any task
    /// being cancelled.
    pub drained: bool,
    /// Queued tasks cancelled at dispatch after the deadline passed.
    pub cancelled: u64,
    /// Tasks still live (executing or queued behind a wedged worker) when
    /// the quiesce returned.
    pub remaining: u64,
}

/// A lightweight-task runtime: `N` worker threads, per-worker work-stealing
/// queues, instrumented task lifecycle, and a counter registry exposing
/// `/threads/*`, `/scheduler/*`, `/runtime/*`, and `/papi/*` counters.
///
/// ```
/// use rpx_runtime::{Runtime, RuntimeConfig};
///
/// let rt = Runtime::new(RuntimeConfig::with_workers(2));
/// let f = rt.spawn(|| 21 * 2);
/// assert_eq!(f.get(), 42);
/// let executed = rt
///     .registry()
///     .evaluate("/threads{locality#0/total}/count/cumulative", false)
///     .unwrap();
/// assert!(executed.value >= 1);
/// rt.shutdown();
/// ```
pub struct Runtime {
    pub(crate) inner: Arc<RuntimeInner>,
    threads: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl Runtime {
    /// Start a runtime with the given configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        let workers = config.workers.max(1);
        let registry = CounterRegistry::new();
        let pmu = Pmu::new(workers);
        let state = Arc::new(RuntimeState {
            clock: registry.clock(),
            stats: (0..workers).map(|_| Arc::new(WorkerStats::new())).collect(),
            external: WorkerStats::shared(),
            live: LiveCount(AtomicI64::new(0)),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            tracer: TaskTracer::with_workers(64 * 1024, workers),
            quiesce_cancel: AtomicBool::new(false),
            live_workers: AtomicUsize::new(workers),
            overload_state: AtomicI64::new(0),
            anomalies: Arc::new(AnomalyLog::new(256)),
        });
        let faults = config
            .faults
            .clone()
            .filter(FaultPlan::is_active)
            .map(FaultInjector::new);
        let gate = config.max_pending.map(|high| {
            let low = config.resume_pending.unwrap_or(high / 2);
            AdmissionGate::new(high, low)
        });
        // Placement: resolve the topology (explicit or discovered), map
        // workers to hardware threads per the bind policy, and derive the
        // socket of each worker for the scheduler's injector segments and
        // victim ordering. `BindSpec::None` keeps everything on one
        // segment — identical scheduling to a topology-blind build.
        let topo = config.topology.unwrap_or_else(Topology::discover);
        let placement: Vec<Option<u32>> = config.bind.placement(&topo, workers as u32);
        let worker_sockets: Vec<u32> = placement
            .iter()
            .map(|hw| hw.map_or(0, |h| topo.socket_of_hw(h)))
            .collect();
        let inner = Arc::new(RuntimeInner {
            scheduler: Scheduler::with_topology(workers, config.mode, &worker_sockets),
            slabs: (0..workers)
                .map(|i| Arc::new(Slab::new(i, crate::slab::SLOTS)))
                .collect(),
            placement,
            fallback_allocs: AtomicU64::new(0),
            state,
            registry: registry.clone(),
            pmu: pmu.clone(),
            shutdown: AtomicBool::new(false),
            config: RuntimeConfig {
                workers,
                ..config.clone()
            },
            faults,
            gate,
            draining: AtomicBool::new(false),
            drain_hooks: Mutex::new(Vec::new()),
        });
        for slab in &inner.slabs {
            slab.attach_runtime(Arc::downgrade(&inner));
        }

        crate::counters::register_runtime_counters(&registry, &inner);
        rpx_papi::register_papi_counters(&registry, &pmu, config.locality);

        let restart_policy = RestartPolicy::from_config(&config);
        let threads = (0..workers)
            .map(|index| {
                let inner = inner.clone();
                let policy = restart_policy;
                std::thread::Builder::new()
                    .name(format!("rpx-worker-{index}"))
                    .stack_size(config.stack_size)
                    // Supervisor loop: a panic escaping the worker loop (an
                    // injected worker kill, or a real bug outside a task
                    // wrapper) is caught here; the loop is re-entered on the
                    // same thread and reclaims its re-parked deque, so
                    // queued tasks survive. Respawns are counted in
                    // /runtime/health/restarts, spaced by an exponential
                    // backoff, and budgeted: an exhausted token bucket trips
                    // the circuit breaker (see `supervise_crash`).
                    .spawn(move || {
                        let mut restart = RestartState::new(policy);
                        loop {
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    worker::worker_loop(inner.clone(), index)
                                }));
                            match result {
                                Ok(()) => break,
                                Err(_) => {
                                    // Topology event: live wildcard queries
                                    // (`worker-thread#*`) re-expand on their
                                    // next evaluation and pick up the
                                    // respawned (or retired) worker's
                                    // counters.
                                    inner.registry.bump_generation();
                                    if inner.shutdown.load(Ordering::Acquire) {
                                        break;
                                    }
                                    if !supervise_crash(&inner, index, &mut restart) {
                                        break;
                                    }
                                }
                            }
                        }
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();

        let watchdog = Some(watchdog::spawn(&inner));
        Runtime {
            inner,
            threads,
            watchdog,
        }
    }

    /// Start with default configuration (all available cores).
    pub fn with_defaults() -> Self {
        Runtime::new(RuntimeConfig::default())
    }

    /// Spawn with the default (`Async`) policy.
    #[track_caller]
    pub fn spawn<T, F>(&self, f: F) -> TaskFuture<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.target().spawn(LaunchPolicy::Async, None, f)
    }

    /// Spawn with an explicit launch policy.
    #[track_caller]
    pub fn spawn_with<T, F>(&self, policy: LaunchPolicy, f: F) -> TaskFuture<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.target().spawn(policy, None, f)
    }

    /// Fallible spawn (`Async` policy): fails fast — never blocks, never
    /// degrades to inline — when the admission gate is closed
    /// ([`SpawnError::Overloaded`]) or the runtime is quiescing
    /// ([`SpawnError::Draining`]). The closure is handed back inside the
    /// error, so no work is silently lost.
    #[track_caller]
    pub fn try_spawn<T, F>(&self, f: F) -> Result<TaskFuture<T>, SpawnError<F>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.target().submit(LaunchPolicy::Async, None, true, f)
    }

    /// Spawn a task bound to `token`: if the token is cancelled before the
    /// task is dispatched, the body never runs, the future completes in the
    /// cancelled state ([`TaskFuture::get`] re-raises
    /// [`TaskCancelled`](crate::TaskCancelled)), and the worker's
    /// `/runtime/health/cancelled-tasks` counter increments. A
    /// [`CancelToken::with_deadline`] token also cancels it if it is late.
    #[track_caller]
    pub fn spawn_cancellable<T, F>(&self, token: &CancelToken, f: F) -> TaskFuture<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.target()
            .spawn(LaunchPolicy::Async, Some(token.clone()), f)
    }

    /// Where a spawn through this runtime lands: its own strong reference
    /// (no refcount traffic) and the caller's worker identity in it.
    fn target(&self) -> SpawnTarget<'_> {
        SpawnTarget {
            inner: Cow::Borrowed(&self.inner),
            spawner: worker::context_for(&self.inner),
        }
    }

    /// The active fault injector, if this runtime was configured with an
    /// active [`FaultPlan`]. Chaos tests use it to compare injected counts
    /// against the `/runtime/health/*` counters.
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.inner.faults.clone()
    }

    /// The runtime's counter registry.
    pub fn registry(&self) -> Arc<CounterRegistry> {
        self.inner.registry.clone()
    }

    /// The runtime's synthetic PMU (one domain per worker).
    pub fn pmu(&self) -> Arc<Pmu> {
        self.inner.pmu.clone()
    }

    /// The task tracer (disabled by default; `tracer().enable()` starts
    /// recording task spans for chrome://tracing export).
    pub fn tracer(&self) -> Arc<TaskTracer> {
        self.inner.state.tracer.clone()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.config.workers
    }

    /// Index of the calling worker thread among its own runtime's workers,
    /// for a worker of any runtime, not only this one.
    pub fn current_worker() -> Option<usize> {
        worker::current_worker_index()
    }

    /// A cloneable, `'static` handle for spawning from inside tasks.
    pub fn handle(&self) -> RuntimeHandle {
        RuntimeHandle {
            inner: Arc::downgrade(&self.inner),
        }
    }

    /// Block until no scheduled task is pending or running.
    pub fn wait_idle(&self) {
        let state = &self.inner.state;
        let mut guard = state.idle_lock.lock();
        while state.live.load(Ordering::Acquire) > 0 {
            state.idle_cv.wait(&mut guard);
        }
    }

    /// Like [`wait_idle`](Self::wait_idle) with a timeout; returns whether
    /// the runtime went idle.
    fn wait_idle_for(&self, timeout: Duration) -> bool {
        let state = &self.inner.state;
        let t0 = Instant::now();
        let mut guard = state.idle_lock.lock();
        while state.live.load(Ordering::Acquire) > 0 {
            let remaining = timeout.saturating_sub(t0.elapsed());
            if remaining.is_zero() {
                return false;
            }
            let _ = state.idle_cv.wait_for(&mut guard, remaining);
        }
        true
    }

    /// Gracefully drain the runtime. The protocol:
    ///
    /// 1. **Stop admission**: infallible spawns run inline from here on,
    ///    [`try_spawn`](Self::try_spawn) fails with
    ///    [`SpawnError::Draining`], and parked `Block`-policy spawners are
    ///    released without queueing.
    /// 2. **Drain**: wait up to `deadline` for outstanding work.
    /// 3. **Cancel stragglers**: if work remains, still-queued tasks are
    ///    cancelled at dispatch (their futures complete cancelled, counted
    ///    in `/runtime/health/cancelled-tasks`) and the drain waits up to
    ///    `deadline` once more for tasks already executing.
    /// 4. **Flush**: run the registered drain hooks (e.g. a final sampler
    ///    flush via [`add_drain_hook`](Self::add_drain_hook)), so shutdown
    ///    under load loses no counter data.
    ///
    /// Workers stay up (counters remain readable); call
    /// [`shutdown`](Self::shutdown) afterwards to stop them.
    pub fn quiesce(&self, deadline: Duration) -> QuiesceReport {
        let inner = &self.inner;
        inner.draining.store(true, Ordering::SeqCst);
        if let Some(gate) = &inner.gate {
            gate.drain();
        }
        let drained = self.wait_idle_for(deadline);
        let mut cancelled = 0;
        if !drained {
            let cancelled_total = || inner.state.total(|s| s.cancelled.load(Ordering::Relaxed));
            let before = cancelled_total();
            inner.state.quiesce_cancel.store(true, Ordering::SeqCst);
            inner.scheduler.wake_all();
            let _ = self.wait_idle_for(deadline);
            cancelled = cancelled_total().saturating_sub(before);
        }
        for hook in inner.drain_hooks.lock().iter() {
            hook();
        }
        QuiesceReport {
            drained,
            cancelled,
            remaining: inner.state.live.load(Ordering::Acquire).max(0) as u64,
        }
    }

    /// Register a callback to run at the end of a [`quiesce`](Self::quiesce)
    /// (after queues drain, before it returns). The sampler's final flush
    /// belongs here.
    pub fn add_drain_hook(&self, hook: impl Fn() + Send + 'static) {
        self.inner.drain_hooks.lock().push(Box::new(hook));
    }

    /// Handle to the admission gate (Some iff `max_pending` was
    /// configured), for adaptive policies and monitoring.
    pub fn admission(&self) -> Option<AdmissionControl> {
        self.inner
            .gate
            .as_ref()
            .map(|gate| AdmissionControl { gate: gate.clone() })
    }

    /// The overload detector's latest verdict (also exposed as the
    /// `/runtime/health/overload-state` counter).
    pub fn overload_state(&self) -> OverloadState {
        OverloadState::from_i64(self.inner.state.overload_state.load(Ordering::Acquire))
    }

    /// Anomaly episodes the watchdog's detector has recorded so far,
    /// oldest first (episode *counts* per [`AnomalyKind`](crate::AnomalyKind)
    /// are also exposed as the `/runtime/anomaly/*` counters).
    pub fn anomalies(&self) -> Vec<AnomalyEvent> {
        self.inner.state.anomalies.events()
    }

    /// Drain outstanding work, stop the workers, and join them.
    pub fn shutdown(mut self) {
        self.wait_idle();
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        // SeqCst so the store participates in the fence pairing of
        // `wake_all` vs. worker sleeper registration: a worker that
        // registered before our `wake_all` probe is unparked; one that
        // registers after must observe the flag in its own probe.
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.scheduler.wake_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            // Best-effort stop without draining; prefer calling `shutdown()`.
            self.stop_workers();
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.inner.config.workers)
            .field("mode", &self.inner.config.mode)
            .finish()
    }
}

thread_local! {
    /// Gross execution time of tasks completed on this thread; used to
    /// compute net (exclusive) task durations under work-helping waits.
    static NESTED_EXEC_NS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Id of the task whose body is currently running on this thread
    /// (`u64::MAX` = none). Saved/restored around each body so spans can
    /// record their causal parent even under nested help-execution.
    static CURRENT_TASK: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
}

/// The task id currently executing on this thread, if any — the causal
/// parent of any task spawned right now.
pub(crate) fn current_task_id() -> Option<u64> {
    let id = CURRENT_TASK.with(|c| c.get());
    (id != u64::MAX).then_some(id)
}

/// Weak, cloneable handle to a [`Runtime`], usable from inside tasks. Its
/// infallible spawns panic once the runtime has been dropped.
#[derive(Clone)]
pub struct RuntimeHandle {
    inner: Weak<RuntimeInner>,
}

impl RuntimeHandle {
    /// Where a spawn through this handle lands: a worker of this runtime
    /// borrows its loop's own reference (no refcount traffic), any other
    /// thread upgrades the `Weak`. `None` once the runtime is dropped.
    fn target(&self) -> Option<SpawnTarget<'_>> {
        // SAFETY: every caller is a spawn method that drops the target
        // before it returns.
        if let Some((inner, w)) = unsafe { worker::borrow_runtime(self.inner.as_ptr()) } {
            return Some(SpawnTarget {
                inner: Cow::Borrowed(inner),
                spawner: Some(w),
            });
        }
        self.inner.upgrade().map(|inner| SpawnTarget {
            inner: Cow::Owned(inner),
            spawner: None,
        })
    }

    /// The target of an infallible spawn.
    #[track_caller]
    fn live_target(&self) -> SpawnTarget<'_> {
        self.target()
            .expect("RuntimeHandle used after Runtime was dropped")
    }

    /// Spawn with the default (`Async`) policy.
    #[track_caller]
    pub fn spawn<T, F>(&self, f: F) -> TaskFuture<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.live_target().spawn(LaunchPolicy::Async, None, f)
    }

    /// Spawn with an explicit launch policy.
    #[track_caller]
    pub fn spawn_with<T, F>(&self, policy: LaunchPolicy, f: F) -> TaskFuture<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.live_target().spawn(policy, None, f)
    }

    /// Fallible spawn; see [`Runtime::try_spawn`]. It does not panic on a
    /// dropped runtime, which will never queue work again: it fails with
    /// [`SpawnError::Draining`].
    #[track_caller]
    pub fn try_spawn<T, F>(&self, f: F) -> Result<TaskFuture<T>, SpawnError<F>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        match self.target() {
            Some(target) => target.submit(LaunchPolicy::Async, None, true, f),
            None => Err(SpawnError::Draining(f)),
        }
    }

    /// Spawn a task bound to `token`; see [`Runtime::spawn_cancellable`].
    #[track_caller]
    pub fn spawn_cancellable<T, F>(&self, token: &CancelToken, f: F) -> TaskFuture<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.live_target()
            .spawn(LaunchPolicy::Async, Some(token.clone()), f)
    }
}

impl std::fmt::Debug for RuntimeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeHandle")
            .field("alive", &(self.inner.strong_count() > 0))
            .finish()
    }
}

/// The single allocation behind a spawned task: the instrumented body
/// (scheduler side, via [`Runnable`]) and the future's shared state
/// (waiter side, via [`FutureCore`]) live in one `Arc`. Spawning used to
/// allocate a boxed wrapper closure *plus* an `Arc<Shared<T>>`; the cell
/// collapses both into one allocation and one refcount.
///
/// All instrumentation happens *before* `complete()`, so a thread observing
/// the future as ready is guaranteed to see the task in the counters —
/// the ordering the paper's evaluate/reset sampling protocol relies on.
///
/// A `token` makes the dispatch cancellable: a task whose token is
/// cancelled by dispatch time is skipped, its future completes cancelled.
/// `faults` injects *recovered* task panics: the body raises and catches
/// an [`InjectedFault`] unwind, counts it, then runs the real work — the
/// result is still produced, which is what lets chaos tests assert both
/// correct benchmark output and exact recovery counts.
struct TaskCell<T, F> {
    shared: Shared<T>,
    /// The user closure, taken on first run (later runs are no-ops).
    body: Mutex<Option<F>>,
    state: Arc<RuntimeState>,
    faults: Option<Arc<FaultInjector>>,
    /// The same per-task record a slab slot carries.
    spawn: SpawnMeta,
    /// The admission slot this task holds (queued tasks under admission
    /// control only); returned via `note_started` when the body is taken.
    gate: Option<Arc<AdmissionGate>>,
    /// Whether this task participates in the `live` count (scheduled
    /// tasks; inline and deferred ones never enter a queue).
    track_live: bool,
}

impl<T, F> TaskCell<T, F>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    /// A cell for a task that never enters a queue (inline or deferred).
    fn new(
        inner: &Arc<RuntimeInner>,
        task_id: u64,
        site: u32,
        f: F,
        token: Option<CancelToken>,
        spawned_ns: u64,
    ) -> Self {
        TaskCell {
            shared: Shared::fresh(),
            body: Mutex::new(Some(f)),
            state: inner.state.clone(),
            faults: inner.faults.clone(),
            spawn: SpawnMeta {
                task_id,
                parent: current_task_id().unwrap_or(u64::MAX),
                site,
                spawned_ns,
                token,
                holds_gate: false,
            },
            gate: None,
            track_live: false,
        }
    }

    /// The same cell for a queued task: it counts in `live` and may hold
    /// an admission slot.
    fn queued(mut self, gate: Option<Arc<AdmissionGate>>) -> Self {
        self.spawn.holds_gate = gate.is_some();
        TaskCell {
            gate,
            track_live: true,
            ..self
        }
    }

    /// Run the body on the calling thread (a deferred task's `get`),
    /// booking it to that thread's stats block in this runtime.
    fn run_here(&self) {
        let worker = worker::index_in(&self.state);
        self.run_body(worker, self.state.clock.now_ns());
    }

    /// Run the task body with full instrumentation and complete the
    /// embedded future; `worker` is the runner's index among this
    /// runtime's workers (`None` books to the external sink) and `start`
    /// opens the execution window. Returns the reading that closed it.
    /// Idempotent: only the first caller gets the body.
    fn run_body(&self, worker: Option<usize>, start: u64) -> u64 {
        let Some(f) = self.body.lock().take() else {
            return start;
        };
        TaskRun {
            state: &self.state,
            faults: self.faults.as_deref(),
            spawn: &self.spawn,
            gate: self.gate.as_deref(),
            worker,
            track_live: self.track_live,
        }
        .run(
            start,
            || std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)),
            |outcome| match outcome {
                None => self.shared.complete_cancelled(),
                Some(Ok(v)) => self.shared.complete(v),
                Some(Err(p)) => self.shared.complete_panicked(p),
            },
        )
    }
}

/// One task run as the instrumentation envelope sees it, read out of a
/// heap [`TaskCell`] or a claimed slab slot.
struct TaskRun<'a> {
    state: &'a RuntimeState,
    faults: Option<&'a FaultInjector>,
    spawn: &'a SpawnMeta,
    /// The admission gate; a task that `holds_gate` returns its slot as
    /// it leaves the queue.
    gate: Option<&'a AdmissionGate>,
    /// The runner's index among this runtime's workers (`None` books to
    /// the external sink).
    worker: Option<usize>,
    /// Whether the task counts in `live` (queued tasks only).
    track_live: bool,
}

impl TaskRun<'_> {
    /// The per-task instrumentation both task representations share:
    /// gate return, cancellation check, fault injection, net/nested
    /// timing and the span record — all *before* `publish` completes the
    /// future, so a thread observing it ready sees the task in the
    /// counters. `body` runs the closure (catching its panic); `publish`
    /// completes the future with its outcome, or cancelled on `None`.
    /// `start` opens the execution window; returns the reading that
    /// closed it (`start` for a cancelled task).
    #[inline(always)]
    fn run<R>(self, start: u64, body: impl FnOnce() -> R, publish: impl FnOnce(Option<R>)) -> u64 {
        let (state, spawn) = (self.state, self.spawn);
        // The task left the queue (it either runs now or is cancelled):
        // return its admission slot so backpressured spawners proceed.
        if let Some(gate) = self.gate.filter(|_| spawn.holds_gate) {
            gate.note_started();
        }
        let stats = state.sink(self.worker);
        let cancelled = spawn.token.as_ref().is_some_and(CancelToken::is_cancelled)
            || (self.track_live && state.quiesce_cancel.load(Ordering::Acquire));
        if cancelled {
            stats.cancelled.fetch_add(1, Ordering::Relaxed);
            publish(None);
            if self.track_live {
                state.note_task_finished();
            }
            return start;
        }
        if let Some(faults) = self.faults {
            if faults.inject_task_panic() {
                // Transient-fault-with-retry: exercise the unwind path,
                // recover, and run the real body.
                let _ =
                    std::panic::catch_unwind(|| std::panic::panic_any(InjectedFault("task-panic")));
                stats.recovered.fetch_add(1, Ordering::Relaxed);
            }
        }
        stats.enter_task();
        let nested_before = NESTED_EXEC_NS.with(|c| c.get());
        // Mark this task as the causal parent of anything its body spawns
        // (restored below — help-execution nests bodies on one thread).
        let prev_task = CURRENT_TASK.with(|c| c.replace(spawn.task_id));
        let outcome = body();
        let end = state.clock.now_ns();
        CURRENT_TASK.with(|c| c.set(prev_task));
        stats.leave_task();
        // Net execution time: subtract time spent executing *other* tasks
        // while helping inside this task's waits, so `/threads/time/*`
        // counts every task exactly once (HPX suspends the parent; we
        // deduct instead — same accounting, different mechanism).
        let gross = end.saturating_sub(start);
        let nested_during = NESTED_EXEC_NS
            .with(|c| c.get())
            .saturating_sub(nested_before);
        let net = gross.saturating_sub(nested_during);
        NESTED_EXEC_NS.with(|c| c.set(nested_before + gross));
        let wait_ns = start.saturating_sub(spawn.spawned_ns);
        stats.record_execution(net, wait_ns);
        // The span records gross start..end plus `nested_ns`, so readers
        // can reconstruct both views; net (gross − nested) is what the
        // profile and the causal analyzer sum — matching the stats above.
        state.tracer.record_on(
            self.worker,
            TaskSpan {
                task_id: spawn.task_id,
                parent: (spawn.parent != u64::MAX).then_some(spawn.parent),
                site: spawn.site,
                worker: self.worker.map_or(EXTERNAL_WORKER, |w| w as u32),
                start_ns: start,
                end_ns: end,
                wait_ns,
                nested_ns: nested_during,
            },
            &state.clock,
        );
        publish(Some(outcome));
        if self.track_live {
            state.note_task_finished();
        }
        end
    }
}

impl<T, F> Runnable for TaskCell<T, F>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    fn run(&self, worker: usize, start: u64) -> u64 {
        self.run_body(Some(worker), start)
    }
}

impl<T, F> FutureCore<T> for TaskCell<T, F>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    fn shared(&self) -> &Shared<T> {
        &self.shared
    }
}

/// Handle one worker crash in the supervisor loop: consume a restart token
/// and back off, or trip the breaker and retire the worker. Returns `false`
/// when the worker must not be respawned.
fn supervise_crash(inner: &Arc<RuntimeInner>, index: usize, restart: &mut RestartState) -> bool {
    let stats = &inner.state.stats[index];
    match restart.on_crash(Instant::now()) {
        RestartVerdict::Respawn { backoff } => {
            stats.restarts.fetch_add(1, Ordering::Relaxed);
            backoff_sleep(inner, stats, backoff);
            true
        }
        RestartVerdict::Trip => {
            // Claim a retirement slot atomically: the last live worker can
            // never trip, or queued tasks would strand with no executor.
            let claimed = inner
                .state
                .live_workers
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                    (n > 1).then_some(n - 1)
                })
                .is_ok();
            if !claimed {
                // Sole survivor: keep respawning, at the maximum backoff.
                stats.restarts.fetch_add(1, Ordering::Relaxed);
                backoff_sleep(inner, stats, inner.config.restart_backoff_max);
                return true;
            }
            stats.breaker_trips.fetch_add(1, Ordering::Relaxed);
            stats.retired.store(true, Ordering::Release);
            // Re-parent the dead worker's queued tasks into the global
            // injector so the surviving workers drain them — shrinking
            // parallelism loses no task.
            inner.scheduler.reparent_to_injector(index);
            inner.scheduler.wake_all();
            false
        }
    }
}

/// Sleep out a restart backoff (sliced, so shutdown stays responsive) and
/// account it into `/runtime/health/restart-backoff`.
fn backoff_sleep(inner: &Arc<RuntimeInner>, stats: &WorkerStats, backoff: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < backoff && !inner.shutdown.load(Ordering::Acquire) {
        let remaining = backoff.saturating_sub(t0.elapsed());
        std::thread::sleep(remaining.min(Duration::from_millis(1)));
    }
    stats
        .backoff_ns
        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// How a spawn that wants a queue proceeds past admission.
enum Admit {
    /// Queue the task; `Some` means it holds an admission slot.
    Queue(Option<Arc<AdmissionGate>>),
    /// Run the task inline in the caller: an infallible spawn the runtime
    /// will not queue.
    Inline,
    /// Refuse a fallible spawn: the admission gate is closed.
    Overloaded,
    /// Refuse a fallible spawn: the runtime is draining.
    Draining,
}

/// The admission decision for a spawn that wants a queue: draining first,
/// then a slot from the gate, then the overload policy. A `fallible`
/// spawn the runtime will not queue is refused (and counted as shed at a
/// closed gate); an infallible one parks for a slot or runs inline.
fn admit(inner: &RuntimeInner, fallible: bool) -> Admit {
    if inner.draining.load(Ordering::SeqCst) {
        return if fallible {
            Admit::Draining
        } else {
            Admit::Inline
        };
    }
    let Some(gate) = &inner.gate else {
        return Admit::Queue(None);
    };
    if gate.try_admit() {
        return Admit::Queue(Some(gate.clone()));
    }
    if fallible {
        gate.note_shed();
        return Admit::Overloaded;
    }
    match inner.config.overload_policy {
        // Backpressure — but only external threads may park: a *worker*
        // blocking on admission would deadlock the very drain that reopens
        // the gate, so worker spawns degrade to inline instead. Keyed on
        // "any worker thread", not "worker of this runtime": parking a
        // foreign runtime's worker would stall that runtime too.
        OverloadPolicy::Block if !worker::on_worker_thread() => {
            if gate.admit_blocking() {
                Admit::Queue(Some(gate.clone()))
            } else {
                Admit::Inline // the gate drained while we were parked
            }
        }
        _ => {
            gate.note_degraded();
            Admit::Inline
        }
    }
}

/// Enqueue an admitted task (the `Async` hot path).
///
/// Fast path: a worker of this runtime spawning a task whose closure and
/// output fit a slab slot takes one off its own free list and publishes a
/// generation-checked slot reference — no allocation, no refcounts. The
/// heap `Arc<TaskCell>` remains for external spawns, oversized closures,
/// and slab exhaustion, counted in `/runtime/slab/fallback-allocs`.
///
/// The overhead window `t0..t1` covers slot/cell setup and the queue push.
/// The spawn's bookkeeping increments (`spawned`, the task id and `live`)
/// sit just before it; the `live` RMW, the first locked instruction of a
/// spawn, also absorbs the drain of the caller's buffered stores, which
/// is the body's cost, not the scheduler's.
fn queue_task<T, F>(
    inner: &Arc<RuntimeInner>,
    task_id: u64,
    site: u32,
    f: F,
    token: Option<CancelToken>,
    spawner: Option<worker::WorkerRef>,
    gate: Option<Arc<AdmissionGate>>,
) -> TaskFuture<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    inner.state.live.fetch_add(1, Ordering::AcqRel);
    let t0 = inner.state.clock.now_ns();
    if crate::slab::task_fits::<T, F>() {
        if let Some(w) = spawner {
            let slab = &inner.slabs[w.index];
            if let Some(idx) = slab.alloc() {
                let spawn = SpawnMeta {
                    task_id,
                    parent: current_task_id().unwrap_or(u64::MAX),
                    site,
                    spawned_ns: t0,
                    token,
                    holds_gate: gate.is_some(),
                };
                // SAFETY: `idx` was just allocated on this (owner) thread.
                let gen = unsafe { slab.init_task::<T, F>(idx, spawn, f) };
                let task = Task {
                    repr: TaskRepr::Slab(SlabSlotRef {
                        slab: Arc::as_ptr(slab),
                        idx,
                        gen,
                    }),
                    id: task_id,
                };
                // SAFETY: `w.local` is the calling worker's own deque
                // (see `WorkerRef`); this is the spawning thread.
                inner.scheduler.push(task, Some(unsafe { &*w.local }));
                let t1 = inner.state.clock.now_ns();
                inner.state.stats[w.index].record_overhead(t1.saturating_sub(t0));
                return TaskFuture::from_slab(SlabJoin::new(slab.clone(), idx, gen));
            }
        }
    }
    inner.fallback_allocs.fetch_add(1, Ordering::Relaxed);
    let cell = Arc::new(TaskCell::new(inner, task_id, site, f, token, t0).queued(gate));
    let task = Task {
        repr: TaskRepr::Heap(cell.clone()),
        id: task_id,
    };
    match spawner {
        // SAFETY: as above — the worker's own deque, on its own thread.
        Some(w) => inner.scheduler.push(task, Some(unsafe { &*w.local })),
        None => inner.scheduler.push(task, None),
    }
    let t1 = inner.state.clock.now_ns();
    inner
        .state
        .sink(spawner.map(|w| w.index))
        .record_overhead(t1.saturating_sub(t0));
    TaskFuture::from_core(cell)
}

/// Run a slab-resident task on worker `widx` with its execution window
/// opening at `start`; returns the reading that closed it. The claim
/// takes the body; [`TaskRun::run`] instruments it exactly as it does a
/// heap task, and the slot is released after the completion publish.
/// Slab tasks are always queued, so they always track `live`, and only
/// worker loops dispatch them, so `widx` is always the calling thread's
/// own stats block.
pub(crate) fn run_slab_task(
    inner: &Arc<RuntimeInner>,
    slot_ref: &SlabSlotRef,
    widx: usize,
    start: u64,
) -> u64 {
    let slab = slot_ref.slab();
    let idx = slot_ref.idx;
    if !slab.claim(idx) {
        return start;
    }
    // SAFETY: we won the claim; meta/payload are ours until runner_done.
    let spawn = unsafe { &slab.meta(idx).spawn };
    let end = TaskRun {
        state: &inner.state,
        faults: inner.faults.as_deref(),
        spawn,
        gate: inner.gate.as_deref(),
        worker: Some(widx),
        track_live: true,
    }
    .run(
        start,
        // SAFETY: claimant; consumes the closure (catches panics internally).
        || unsafe { slab.run_claimed(idx) },
        |outcome| match outcome {
            // SAFETY: claimant; drops the un-run closure, publishes cancelled.
            None => unsafe { slab.cancel_claimed(idx) },
            Some(outcome) => slab.publish(idx, outcome),
        },
    );
    slab.runner_done(idx);
    end
}

/// Issue a task id and count the spawn against the spawner's stats block
/// (the external sink for threads that are not this runtime's workers).
fn begin_spawn(inner: &RuntimeInner, spawner: Option<worker::WorkerRef>) -> u64 {
    match spawner {
        Some(w) => {
            inner.state.stats[w.index].record_spawn();
            w.next_task_id(&inner.scheduler)
        }
        None => {
            inner.state.external.record_spawn();
            inner.scheduler.next_task_id()
        }
    }
}

/// Where a spawn lands: the runtime, borrowed when the caller holds a
/// strong reference already, and the caller's identity among its workers.
/// A worker of runtime A is an external spawner to runtime B and must not
/// index B's stats or slabs with A's worker index.
struct SpawnTarget<'a> {
    inner: Cow<'a, Arc<RuntimeInner>>,
    spawner: Option<worker::WorkerRef>,
}

impl SpawnTarget<'_> {
    /// An infallible spawn: admission queues it, parks the caller for a
    /// slot, or runs it inline, but never refuses it.
    #[track_caller]
    fn spawn<T, F>(self, policy: LaunchPolicy, token: Option<CancelToken>, f: F) -> TaskFuture<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        match self.submit(policy, token, false, f) {
            Ok(future) => future,
            Err(_) => unreachable!("admission never refuses an infallible spawn"),
        }
    }

    /// The one spawn path. A task that wants a queue passes [`admit`]
    /// before it takes a task id, so a refused (`fallible`) spawn is never
    /// counted as spawned. Every other task runs inline, or waits for its
    /// getter (`Deferred`).
    #[track_caller]
    fn submit<T, F>(
        self,
        policy: LaunchPolicy,
        token: Option<CancelToken>,
        fallible: bool,
        f: F,
    ) -> Result<TaskFuture<T>, SpawnError<F>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let site = crate::trace::site_id(std::panic::Location::caller());
        let (inner, spawner) = (&*self.inner, self.spawner);
        // A worker's `Fork` child runs now, on this worker, with no queue
        // round-trip (the continuation-stealing approximation).
        let wants_queue =
            policy == LaunchPolicy::Async || (policy == LaunchPolicy::Fork && spawner.is_none());
        let queue = match wants_queue.then(|| admit(inner, fallible)) {
            Some(Admit::Queue(slot)) => Some(slot),
            Some(Admit::Inline) | None => None,
            Some(Admit::Overloaded) => return Err(SpawnError::Overloaded(f)),
            Some(Admit::Draining) => return Err(SpawnError::Draining(f)),
        };
        let task_id = begin_spawn(inner, spawner);
        if let Some(slot) = queue {
            return Ok(queue_task(inner, task_id, site, f, token, spawner, slot));
        }
        let now = inner.state.clock.now_ns();
        let cell = Arc::new(TaskCell::new(inner, task_id, site, f, token, now));
        if policy == LaunchPolicy::Deferred {
            let c2 = cell.clone();
            cell.shared.set_deferred(Box::new(move || c2.run_here()));
        } else {
            cell.run_body(spawner.map(|w| w.index), now);
        }
        Ok(TaskFuture::from_core(cell))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spawn overhead of a thread that is not one of the runtime's workers
    /// lands in the external sink, which the `total` counter instance sums,
    /// and never in `worker-thread#0`.
    #[test]
    fn external_spawn_overhead_books_to_the_external_sink() {
        const N: u64 = 64;
        let rt = Runtime::new(RuntimeConfig::with_workers(1));
        let futures: Vec<_> = (0..N).map(|i| rt.spawn(move || i)).collect();
        assert_eq!(futures.into_iter().map(TaskFuture::get).sum::<u64>(), 2016);
        rt.wait_idle();

        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let state = &rt.inner.state;
        let (ext, w0) = (&state.external, &state.stats[0]);
        assert_eq!(ld(&ext.spawned), N);
        assert_eq!(ld(&ext.overhead_ops), N, "one spawn window per spawn");
        assert!(ld(&ext.overhead_ns) > 0);
        assert_eq!(ld(&w0.spawned), 0);
        assert_eq!(ld(&w0.executed), N);
        assert_eq!(
            ld(&w0.overhead_ops),
            N,
            "worker 0's ledger holds only its own dispatch windows"
        );

        let reg = rt.registry();
        let eval = |path: &str| reg.evaluate(path, false).unwrap().value as u64;
        let own = eval("/threads{locality#0/worker-thread#0}/time/cumulative-overhead");
        let total = eval("/threads{locality#0/total}/time/cumulative-overhead");
        assert_eq!(own, ld(&w0.overhead_ns));
        assert_eq!(total, own + ld(&ext.overhead_ns));
        assert_eq!(
            eval("/threads{locality#0/total}/count/spawned"),
            N,
            "the total sums the external sink"
        );
        assert_eq!(
            eval("/threads{locality#0/total}/count/instantaneous/active"),
            0
        );
        rt.shutdown();
    }
}
