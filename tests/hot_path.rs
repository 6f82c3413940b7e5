//! Integration tests for the spawn/join hot path: lost-wakeup freedom
//! under concurrent external spawning and parking workers, the timed-wait
//! semantics of deferred futures, the pending-accounting health counter,
//! and the parity of slab-resident and heap task runs.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rpx::counters::CounterRegistry;
use rpx::runtime::{
    CancelToken, LaunchPolicy, OverloadPolicy, Runtime, RuntimeConfig, RuntimeHandle, SpawnError,
    TaskFuture, TaskTracer,
};

/// Lost-wakeup stress: external threads spawn trivial tasks with gaps long
/// enough for workers to park between bursts, exercising the racy edge of
/// the lock-free sleeper probe (push → fence → count-load vs. register →
/// fence → queue-probe). A lost wakeup shows up as a future that never
/// completes within the deadline; with the 500µs park timeout as a safety
/// net, a *systematic* loss would still blow the per-future deadline under
/// this volume.
#[test]
fn external_spawn_storm_never_loses_wakeups() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let executed = Arc::new(AtomicU64::new(0));
    const THREADS: usize = 4;
    const SPAWNS: usize = 500;

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let rt = &rt;
            let executed = executed.clone();
            s.spawn(move || {
                for i in 0..SPAWNS {
                    let executed = executed.clone();
                    let f = rt.spawn(move || {
                        executed.fetch_add(1, Ordering::Relaxed);
                        i as u64
                    });
                    assert_eq!(
                        f.get_timeout(Duration::from_secs(10))
                            .unwrap_or_else(|_| panic!("spawn {i} of thread {t} lost")),
                        i as u64
                    );
                    // Let workers drain and park so the next spawn races
                    // against sleeper registration rather than a busy loop.
                    if i % 16 == 0 {
                        std::thread::sleep(Duration::from_micros(700));
                    }
                }
            });
        }
    });

    assert_eq!(executed.load(Ordering::Relaxed), (THREADS * SPAWNS) as u64);
    let total = rt
        .registry()
        .evaluate("/threads{locality#0/total}/count/cumulative", false)
        .unwrap();
    assert!(total.value >= (THREADS * SPAWNS) as i64);
    rt.shutdown();
}

/// Regression (public API): a timed wait on a deferred future must hand the
/// future back without executing the deferred closure — previously
/// `get_timeout(ZERO)` ran the whole closure on the calling thread.
#[test]
fn get_timeout_hands_back_deferred_future_unrun() {
    let rt = Runtime::new(RuntimeConfig::with_workers(1));
    let ran = Arc::new(AtomicBool::new(false));
    let r2 = ran.clone();
    let f = rt.spawn_with(LaunchPolicy::Deferred, move || {
        r2.store(true, Ordering::SeqCst);
        42u64
    });
    let f = f
        .get_timeout(Duration::ZERO)
        .expect_err("deferred future must not complete under a timed wait");
    assert!(
        !ran.load(Ordering::SeqCst),
        "timed wait must not run the deferred closure"
    );
    assert_eq!(f.get(), 42, "an unbounded wait still runs it");
    assert!(ran.load(Ordering::SeqCst));
    rt.shutdown();
}

/// The pending-accounting drift counter exists, reads zero on a healthy
/// run, and is discoverable as a total-only instance.
#[test]
fn pending_underflows_counter_reads_zero_on_healthy_run() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let futures: Vec<_> = (0..200).map(|i| rt.spawn(move || i * 2)).collect();
    for (i, f) in futures.into_iter().enumerate() {
        assert_eq!(f.get(), i * 2);
    }
    rt.wait_idle();
    let v = rt
        .registry()
        .evaluate(
            "/runtime{locality#0/total}/health/pending-underflows",
            false,
        )
        .unwrap();
    assert_eq!(v.value, 0, "healthy runs must show zero accounting drift");
    // After the run drains, the batched pending counter converges to zero:
    // workers publish buffered decrements on their next find-miss, so give
    // them a moment rather than racing the flush.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let pending = rt
            .registry()
            .evaluate(
                "/threads{locality#0/total}/count/instantaneous/pending",
                false,
            )
            .unwrap();
        if pending.value == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "drained runtime still shows {} pending tasks",
            pending.value
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    rt.shutdown();
}

/// Regression for the park gate under the lock-free deques: workers park
/// between bursts while root tasks push children onto their *local* deques
/// (the path where `Scheduler::has_queued_work` must observe a lock-free
/// `is_empty` probe and the sleeper fences must still pair with the push).
/// Each burst makes the other workers cycle through register → probe →
/// park → unpark while steals (single and batched) race the owner's pops.
/// A lost wakeup strands a root task's children and blows the deadline.
#[test]
fn steals_during_park_unpark_never_lose_wakeups() {
    let rt = Runtime::new(RuntimeConfig::with_workers(4));
    let executed = Arc::new(AtomicU64::new(0));
    const ROUNDS: usize = 40;
    const CHILDREN: u64 = 24;

    for round in 0..ROUNDS {
        let executed = executed.clone();
        let h = rt.handle();
        let root = rt.spawn(move || {
            // Children land on the running worker's local deque; parked
            // siblings must be woken to steal their share, and the owner's
            // helping-wait pops race those steals on the same Chase–Lev
            // buffer.
            let futures: Vec<_> = (0..CHILDREN)
                .map(|i| {
                    let executed = executed.clone();
                    h.spawn(move || {
                        executed.fetch_add(1, Ordering::Relaxed);
                        i
                    })
                })
                .collect();
            futures.into_iter().map(|f| f.get()).sum::<u64>()
        });
        assert_eq!(
            root.get_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("round {round}: children lost under park/unpark")),
            CHILDREN * (CHILDREN - 1) / 2
        );
        // Longer than the 500µs park-timeout safety net: every worker
        // parks for real before the next burst, so the next round's pushes
        // race genuine sleeper registrations, not busy probes.
        std::thread::sleep(Duration::from_micros(1500));
    }

    assert_eq!(
        executed.load(Ordering::Relaxed),
        ROUNDS as u64 * CHILDREN,
        "every child must run exactly once"
    );
    let underflows = rt
        .registry()
        .evaluate(
            "/runtime{locality#0/total}/health/pending-underflows",
            false,
        )
        .unwrap();
    assert_eq!(underflows.value, 0);
    rt.shutdown();
}

/// Time-balance regression for the lock-free find loops: failed sweeps —
/// including `Steal::Retry` spins that end a sweep without work — must
/// accrue to `idle_ns`, so per-worker exec + overhead + idle still adds up
/// to roughly the worker's wall-clock lifetime. If retry spins or probe
/// misses leaked out of the accounting, the accounted sum would fall well
/// short of `workers × wall`.
///
/// Uses flat (non-nested) tasks only: a helping wait inside a task would
/// double-count the helped tasks' exec time inside the helper's own exec
/// window and skew the balance upward.
#[test]
fn find_loop_time_accounting_balances_against_wall_clock() {
    const WORKERS: usize = 2;
    let rt = Runtime::new(RuntimeConfig::with_workers(WORKERS));
    let start = std::time::Instant::now();

    for _ in 0..30 {
        let futures: Vec<_> = (0..16)
            .map(|i: u64| {
                rt.spawn(move || {
                    // ~100µs of real work so exec_ns is meaningfully nonzero.
                    let t = std::time::Instant::now();
                    let mut acc = i;
                    while t.elapsed() < Duration::from_micros(100) {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    acc
                })
            })
            .collect();
        for f in futures {
            f.get();
        }
        // Idle gap long enough for every worker to park.
        std::thread::sleep(Duration::from_micros(1500));
    }
    rt.wait_idle();
    let wall = start.elapsed().as_nanos() as i64;

    let eval = |path: &str| rt.registry().evaluate(path, false).unwrap().value;
    let exec = eval("/threads{locality#0/total}/time/cumulative");
    let overhead = eval("/threads{locality#0/total}/time/cumulative-overhead");
    // idle_ns is published as a rate (0.01% units of idle/(idle+busy));
    // recover the cumulative figure from the busy total.
    let rate = eval("/threads{locality#0/total}/idle-rate");
    let busy = exec + overhead;
    assert!(busy > 0, "tasks must have accrued exec/overhead time");
    assert!(rate < 10_000, "workers cannot have been 100% idle");
    let idle = busy * rate / (10_000 - rate);

    let accounted = exec + overhead + idle;
    let budget = WORKERS as i64 * wall;
    assert!(
        accounted >= budget / 2,
        "accounted {accounted}ns < half of {budget}ns: find-miss/Retry time \
         is leaking out of idle_ns"
    );
    assert!(
        accounted <= budget * 3 / 2,
        "accounted {accounted}ns > 1.5x {budget}ns: time is being \
         double-counted somewhere"
    );
    rt.shutdown();
}

/// Regression: a `Sync` spawn into runtime B issued by a worker of runtime
/// A used to index B's per-worker stats with A's worker index — a panic
/// for A's worker 1 when B has one worker, and a silent misbooking into
/// B's `worker-thread#0` for A's worker 0. Both are external threads to B:
/// the runs must count in B's total and leave B's worker 0 untouched.
#[test]
fn sync_spawn_into_another_runtime_books_to_its_external_sink() {
    let a = Runtime::new(RuntimeConfig::with_workers(2));
    let b = Runtime::new(RuntimeConfig::with_workers(1));
    let eval = |path: &str| b.registry().evaluate(path, false).unwrap().value;
    let total = "/threads{locality#0/total}/count/cumulative";
    let w0 = "/threads{locality#0/worker-thread#0}/count/cumulative";
    let (total_before, w0_before) = (eval(total), eval(w0));

    // Two A tasks that meet at a barrier run on A's two workers at once,
    // so both worker indices issue spawns into B.
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let tasks: Vec<_> = (0..2u64)
        .map(|t| {
            let hb = b.handle();
            let barrier = barrier.clone();
            a.spawn(move || {
                barrier.wait();
                let worker = Runtime::current_worker().expect("runs on an A worker");
                let sum: u64 = (0..4u64)
                    .map(|i| hb.spawn_with(LaunchPolicy::Sync, move || t * 4 + i).get())
                    .sum();
                (worker, sum)
            })
        })
        .collect();
    let mut workers: Vec<usize> = Vec::new();
    let mut sum = 0;
    for f in tasks {
        let (w, s) = f.get();
        workers.push(w);
        sum += s;
    }
    workers.sort_unstable();
    assert_eq!(workers, vec![0, 1], "both A workers spawned into B");
    assert_eq!(sum, (0..8).sum::<u64>());
    assert_eq!(eval(total) - total_before, 8, "B's total counts every run");
    assert_eq!(eval(w0) - w0_before, 0, "no run is booked to B's worker 0");
    a.shutdown();
    b.shutdown();
}

/// Deep fork/join through the single-allocation task cells: results stay
/// correct and the overhead counter stays well-formed while every join is
/// a helping wait.
#[test]
fn recursive_fork_join_via_task_cells() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let h = rt.handle();
    fn fib(h: &rpx::runtime::RuntimeHandle, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let h2 = h.clone();
        let a = h.spawn(move || fib(&h2, n - 1));
        let b = fib(h, n - 2);
        a.get() + b
    }
    assert_eq!(fib(&h, 18), 2584);
    rt.wait_idle();
    let overhead = rt
        .registry()
        .evaluate("/threads{locality#0/total}/time/average-overhead", false)
        .unwrap();
    assert!(overhead.value >= 0);
    rt.shutdown();
}

/// Tasks of each parity set that run to completion.
const PARITY_NORMAL: usize = 8;

/// Counters whose deltas a slab task set and a heap task set must agree
/// on, plus the fallback-allocation count that tells the two paths apart.
const PARITY_COUNTERS: [&str; 4] = [
    "/threads{locality#0/total}/count/cumulative",
    "/runtime{locality#0/total}/health/cancelled-tasks",
    "/threads{locality#0/total}/count/spawned",
    "/runtime{locality#0/total}/slab/fallback-allocs",
];

/// The span fields both task paths must record alike.
type SpanFields = (Option<u64>, u32, u32);

/// From inside a worker task, spawn `PARITY_NORMAL` tasks, one whose token
/// is already cancelled and one that panics, every closure capturing
/// `payload` (whose size picks the slab or the heap path), all through one
/// spawn site. Returns the deltas of `PARITY_COUNTERS` and the parent,
/// site and worker of every span the set recorded.
fn spawn_parity_set<const N: usize>(
    h: &RuntimeHandle,
    reg: &Arc<CounterRegistry>,
    tracer: &TaskTracer,
    payload: [u8; N],
) -> ([i64; 4], Vec<SpanFields>) {
    let read = || PARITY_COUNTERS.map(|name| reg.evaluate(name, false).unwrap().value);
    let (before, seen) = (read(), tracer.spans());
    let seen: BTreeSet<u64> = seen.iter().map(|s| s.task_id).collect();
    let (live, cancelled) = (CancelToken::new(), CancelToken::new());
    cancelled.cancel();
    let spawn = |token: &CancelToken, panics: bool| {
        h.spawn_cancellable(token, move || {
            assert!(!panics, "parity probe panic");
            u64::from(payload[N - 1])
        })
    };
    let normal: Vec<_> = (0..PARITY_NORMAL).map(|_| spawn(&live, false)).collect();
    let skipped = spawn(&cancelled, false);
    let panicking = spawn(&live, true);
    for f in normal {
        assert_eq!(f.get(), 7);
    }
    skipped.wait();
    assert!(skipped.is_cancelled(), "a cancelled token skips the task");
    let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| panicking.get()));
    assert!(joined.is_err(), "the task's panic reaches its getter");
    let after = read();
    let spans = tracer
        .spans()
        .into_iter()
        .filter(|s| !seen.contains(&s.task_id))
        .map(|s| (s.parent, s.site, s.worker))
        .collect();
    (std::array::from_fn(|i| after[i] - before[i]), spans)
}

/// Slab-resident and heap tasks run through the same instrumented body:
/// the same mix of normal, cancelled and panicking tasks, spawned from one
/// worker task once with closures that fit a slab slot (128 bytes) and
/// once with 256-byte captures, must book the same executed, cancelled and
/// spawned counts and record one span per run task with the same parent,
/// site and worker.
#[test]
fn slab_and_heap_tasks_book_identical_counters_and_spans() {
    let rt = Runtime::new(RuntimeConfig::with_workers(1));
    let tracer = rt.tracer();
    tracer.enable();
    let (h, reg) = (rt.handle(), rt.registry());
    let ((slab, slab_spans), (heap, heap_spans)) = rt
        .spawn(move || {
            let slab = spawn_parity_set(&h, &reg, &tracer, [7u8; 16]);
            let heap = spawn_parity_set(&h, &reg, &tracer, [7u8; 256]);
            (slab, heap)
        })
        .get();

    let mix = (PARITY_NORMAL + 2) as i64;
    assert_eq!(slab[3], 0, "closures that fit a slot take the slab path");
    assert_eq!(heap[3], mix, "256-byte captures take the heap path");
    assert_eq!(slab[..3], heap[..3], "executed, cancelled, spawned deltas");
    assert_eq!(slab[..3], [mix - 1, 1, mix]);

    assert_eq!(slab_spans.len(), PARITY_NORMAL + 1, "one span per run task");
    assert_eq!(heap_spans.len(), slab_spans.len());
    let fields: BTreeSet<SpanFields> = slab_spans.iter().chain(&heap_spans).copied().collect();
    assert_eq!(
        fields.len(),
        1,
        "every span shares one parent, site and worker: {fields:?}"
    );
    assert!(slab_spans[0].0.is_some(), "the spawning task is the parent");
    rt.shutdown();
}

/// Where a spawn-surface probe issues its spawns from.
#[derive(Clone, Copy, Debug)]
enum Caller {
    /// `Runtime` methods on the main thread.
    Runtime,
    /// `RuntimeHandle` methods on the main thread.
    Handle,
    /// `RuntimeHandle` methods on a worker of the same runtime.
    OwnWorker,
    /// `RuntimeHandle` methods on a worker of another runtime.
    ForeignWorker,
}

/// The admission state a spawn-surface probe runs under. Every state
/// finishes without timing: a closed gate under `Block` would park.
#[derive(Clone, Copy, Debug)]
enum Admission {
    NoGate,
    OpenGate,
    ClosedShed,
    ClosedDegrade,
    Draining,
}

/// Every spawn entry point, in probe order.
const ENTRY_POINTS: [&str; 8] = [
    "spawn",
    "spawn_with(Async)",
    "spawn_with(Fork)",
    "spawn_with(Sync)",
    "spawn_with(Deferred)",
    "try_spawn",
    "spawn_cancellable(live)",
    "spawn_cancellable(cancelled)",
];

/// The spawn-side counters whose deltas a probe records.
const SURFACE_COUNTERS: [&str; 7] = [
    "/threads{locality#0/total}/count/spawned",
    "/threads{locality#0/worker-thread#0}/count/spawned",
    "/runtime{locality#0/total}/tasks/admitted",
    "/runtime{locality#0/total}/health/shed",
    "/runtime{locality#0/total}/health/degraded-spawns",
    "/runtime{locality#0/total}/slab/allocs",
    "/runtime{locality#0/total}/slab/fallback-allocs",
];

/// The spawn API `Runtime` and `RuntimeHandle` share, so one probe drives
/// both. A refused `try_spawn` comes back as its error kind.
trait SpawnSurface {
    fn call(&self, entry: usize, f: fn() -> u64) -> Result<TaskFuture<u64>, &'static str>;
}

macro_rules! spawn_surface {
    ($ty:ty) => {
        impl SpawnSurface for $ty {
            fn call(&self, entry: usize, f: fn() -> u64) -> Result<TaskFuture<u64>, &'static str> {
                let cancelled = CancelToken::new();
                cancelled.cancel();
                Ok(match entry {
                    0 => self.spawn(f),
                    1 => self.spawn_with(LaunchPolicy::Async, f),
                    2 => self.spawn_with(LaunchPolicy::Fork, f),
                    3 => self.spawn_with(LaunchPolicy::Sync, f),
                    4 => self.spawn_with(LaunchPolicy::Deferred, f),
                    5 => self.try_spawn(f).map_err(|e| match e {
                        SpawnError::Overloaded(_) => "Overloaded",
                        SpawnError::Draining(_) => "Draining",
                    })?,
                    6 => self.spawn_cancellable(&CancelToken::new(), f),
                    _ => self.spawn_cancellable(&cancelled, f),
                })
            }
        }
    };
}
spawn_surface!(Runtime);
spawn_surface!(RuntimeHandle);

/// Call every entry point once through `s` and describe each call: its
/// outcome, how the task ran (`queued` into a slab slot or onto the heap,
/// `inline` before the spawn returned, `deferred` to its getter, or
/// `refused`), and the deltas of `SURFACE_COUNTERS` across the call.
fn probe_surface(s: &impl SpawnSurface, reg: &Arc<CounterRegistry>) -> Vec<String> {
    let read = || SURFACE_COUNTERS.map(|name| reg.evaluate(name, false).unwrap().value);
    (0..ENTRY_POINTS.len())
        .map(|entry| {
            let before = read();
            let call = s.call(entry, || 42);
            let d: [i64; 7] = {
                let after = read();
                std::array::from_fn(|i| after[i] - before[i])
            };
            let (outcome, path) = match call {
                Err(kind) => (format!("Err({kind})"), "refused"),
                Ok(fut) => {
                    let path = if d[5] + d[6] > 0 {
                        "queued"
                    } else if fut.is_ready() {
                        "inline"
                    } else {
                        "deferred"
                    };
                    fut.wait();
                    let outcome = if fut.is_cancelled() {
                        "cancelled".to_string()
                    } else {
                        fut.get().to_string()
                    };
                    (outcome, path)
                }
            };
            format!(
                "{:<28} {outcome:<16} {path:<8} spawned={}/{} admitted={} shed={} \
                 degraded={} slab={}/{}",
                ENTRY_POINTS[entry], d[0], d[1], d[2], d[3], d[4], d[5], d[6]
            )
        })
        .collect()
}

/// Run `probe_surface` from `caller` against a fresh one-worker runtime in
/// the `admission` state. A closed gate holds one queued filler task that
/// cannot start: the caller's worker is busy probing, or a plug task holds
/// the only worker until the probe ends.
fn surface_case(caller: Caller, admission: Admission, foreign: &Runtime) -> Vec<String> {
    let (max_pending, overload_policy) = match admission {
        Admission::NoGate | Admission::Draining => (None, OverloadPolicy::Block),
        Admission::OpenGate => (Some(1 << 20), OverloadPolicy::Block),
        Admission::ClosedShed => (Some(1), OverloadPolicy::Shed),
        Admission::ClosedDegrade => (Some(1), OverloadPolicy::Degrade),
    };
    let rt = Runtime::new(RuntimeConfig {
        max_pending,
        resume_pending: Some(0),
        overload_policy,
        ..RuntimeConfig::with_workers(1)
    });
    let (h, reg) = (rt.handle(), rt.registry());
    let closed = matches!(admission, Admission::ClosedShed | Admission::ClosedDegrade);
    let close_gate = move |h: &RuntimeHandle| {
        if closed {
            h.spawn(|| 0u64);
        }
    };
    let (release, released) = std::sync::mpsc::channel::<()>();
    let plug = (closed && !matches!(caller, Caller::OwnWorker)).then(|| {
        let (started_tx, started) = std::sync::mpsc::channel();
        let plug = rt.spawn(move || {
            started_tx.send(()).unwrap();
            let _ = released.recv();
        });
        started.recv().unwrap();
        plug
    });
    if matches!(admission, Admission::Draining) && !matches!(caller, Caller::OwnWorker) {
        rt.quiesce(Duration::from_secs(5));
    }
    let lines = match caller {
        Caller::Runtime => {
            close_gate(&h);
            probe_surface(&rt, &reg)
        }
        Caller::Handle => {
            close_gate(&h);
            probe_surface(&h, &reg)
        }
        Caller::ForeignWorker => foreign
            .spawn(move || {
                close_gate(&h);
                probe_surface(&h, &reg)
            })
            .get(),
        Caller::OwnWorker => {
            // The probe starts only once the runtime is draining, which a
            // refused `try_spawn` from this thread witnesses.
            let (go_tx, go) = std::sync::mpsc::channel::<()>();
            let probe = rt.spawn(move || {
                go.recv().unwrap();
                close_gate(&h);
                probe_surface(&h, &reg)
            });
            if matches!(admission, Admission::Draining) {
                std::thread::scope(|s| {
                    s.spawn(|| rt.quiesce(Duration::from_secs(30)));
                    while !matches!(rt.try_spawn(|| 0u64), Err(SpawnError::Draining(_))) {
                        std::thread::yield_now();
                    }
                    go_tx.send(()).unwrap();
                    probe.get()
                })
            } else {
                go_tx.send(()).unwrap();
                probe.get()
            }
        }
    };
    drop(release);
    if let Some(plug) = plug {
        plug.get();
    }
    rt.shutdown();
    lines
        .into_iter()
        .map(|line| {
            let (caller, admission) = (format!("{caller:?}"), format!("{admission:?}"));
            format!("{caller:<13} {admission:<13} {line}")
        })
        .collect()
}

/// Golden record of the spawn API's observable behaviour: every entry
/// point, called from the main thread through `Runtime` and through
/// `RuntimeHandle`, from a worker of the same runtime and from a worker of
/// another runtime, under no gate, an open gate, a closed gate that sheds
/// or degrades, and a draining runtime. Each line gives the call's
/// outcome, how its task ran, and its spawn-side counter deltas
/// (`spawned` as total/worker-thread#0, `slab` as allocs/fallback-allocs).
#[test]
fn spawn_surface_is_unchanged() {
    let foreign = Runtime::new(RuntimeConfig::with_workers(1));
    let mut surface = String::new();
    for caller in [
        Caller::Runtime,
        Caller::Handle,
        Caller::OwnWorker,
        Caller::ForeignWorker,
    ] {
        for admission in [
            Admission::NoGate,
            Admission::OpenGate,
            Admission::ClosedShed,
            Admission::ClosedDegrade,
            Admission::Draining,
        ] {
            for line in surface_case(caller, admission, &foreign) {
                surface += &line;
                surface.push('\n');
            }
        }
    }
    foreign.shutdown();
    let golden = include_str!("golden/spawn_surface.txt");
    for (i, (got, want)) in surface.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "spawn surface differs at line {}", i + 1);
    }
    assert_eq!(
        surface.lines().count(),
        golden.lines().count(),
        "spawn surface has a different number of lines:\n{surface}"
    );
}

/// A fallible spawn through the handle of a dropped runtime hands the
/// closure back as `Draining`, since that runtime will never queue work
/// again. The infallible spawns still panic.
#[test]
fn try_spawn_on_a_dropped_runtime_hands_the_closure_back() {
    let rt = Runtime::new(RuntimeConfig::with_workers(1));
    let h = rt.handle();
    rt.shutdown();
    match h.try_spawn(|| 7u64) {
        Err(SpawnError::Draining(f)) => assert_eq!(f(), 7),
        other => panic!("expected Err(Draining), got {other:?}"),
    }
    let spawned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.spawn(|| 7u64)));
    assert!(spawned.is_err(), "an infallible spawn still panics");
}
