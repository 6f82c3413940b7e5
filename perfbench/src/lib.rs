//! # perfbench — the rpx benchmark
//!
//! Two workloads against the release build of the runtime, the counter
//! framework and the exporter; see `README.md` for why each was chosen and
//! which layer metric should move which end-to-end metric.
//!
//! A run without tracing reports the end-to-end metrics in
//! [`END_TO_END`]. A traced run times the benchmark's own calls into each
//! layer and reports [`PER_LAYER`]. Every iteration and every scrape is
//! checked; failures are counted, never dropped.

mod ctr;
mod dag;
mod fib;
mod host;
pub mod report;
mod scrape;
mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rpx_inncabs::fib::FibInput;
use rpx_inncabs::spawner::RpxSpawner;
use rpx_runtime::{Runtime, RuntimeConfig};
use rpx_taskbench::{graph_hash, GrainCalibration, Shape, WorkloadSpec};

use crate::dag::Dag;
use crate::report::{median, tail, Metric};
use crate::scrape::{Cells, Exporter, Probe, Tick};
use crate::trace::Kind;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A seeded random layered DAG with a 5 µs grain on 2 workers.
    DagGrain,
    /// 10,000 exported counters scraped at 2 Hz beside fib on 1 worker.
    Scrape10k,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::DagGrain, Workload::Scrape10k];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DagGrain => "dag-grain",
            Workload::Scrape10k => "scrape-10k",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn workers(self) -> usize {
        match self {
            Workload::DagGrain => 2,
            Workload::Scrape10k => 1,
        }
    }
}

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 3] = [
    ("efficiency", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run): name and unit. The first five are
/// user-visible timings, taken from the traced run's untraced halves; the
/// untraced run prints them too. On the development host they did not
/// repeat within a tenth from run to run, so they carry no bound.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("tasks_per_s", "1/s"),
    ("iter_ms_p50", "ms"),
    ("iter_ms_tail", "ms"),
    ("scrape_ms_p50", "ms"),
    ("scrape_ms_tail", "ms"),
    ("runtime.spawn.ns_p50", "ns"),
    ("runtime.spawn.ns_p99", "ns"),
    ("runtime.get.ns_p50", "ns"),
    ("runtime.get.share", "ratio"),
    ("runtime.body.self_ns_p50", "ns"),
    ("runtime.residual_ns_per_task", "ns"),
    ("runtime.drain_us", "us"),
    ("runtime.new.ms", "ms"),
    ("runtime.shutdown.ms", "ms"),
    ("runtime.ctr.tasks", "count"),
    ("runtime.ctr.overhead_ns", "ns"),
    ("runtime.ctr.wait_ns", "ns"),
    ("runtime.ctr.idle_rate", "ratio"),
    ("runtime.ctr.steals_per_ktask", "1/ktask"),
    ("runtime.ctr.slab_fallback", "count"),
    ("runtime.ctr.slab_remote_free_frac", "ratio"),
    ("runtime.ctr.exec_ratio", "ratio"),
    ("counters.collect_ns_per_instance", "ns"),
    ("counters.evaluate.ns_p50", "ns"),
    ("serve.collect.ms_p50", "ms"),
    ("serve.render.ms_p50", "ms"),
    ("serve.http_residual.ms_p50", "ms"),
    ("serve.bytes_per_scrape", "bytes"),
    ("serve.self_scrape_ms", "ms"),
    ("serve.generator_lag_ms", "ms"),
    ("taskbench.build.ms", "ms"),
    ("taskbench.calibrate.ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("error_rate", "ratio"),
];

/// Grain of every `dag-grain` task.
const DAG_GRAIN_NS: u64 = 5_000;

/// The `dag-grain` graph for `seed`: 16 wide, 256 layers, expected
/// in-degree 3.
pub fn dag_spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec::new(
        Shape::Random {
            width: 16,
            layers: 256,
            degree: 3,
        },
        DAG_GRAIN_NS,
        seed,
    )
}

/// Scrape period of `scrape-10k` (2 Hz), which is also each scrape's
/// deadline. A 10k scrape takes about 25 ms on the 2-vCPU development host,
/// but three times that when the host is busy, and a faster schedule then
/// fails scrapes. A round's window is shorter than the period, so one
/// scrape falls due at the start of each window.
const SCRAPE_PERIOD: Duration = Duration::from_millis(500);
/// Groups each round's iterations are split into for `tasks_per_s`.
const RATE_GROUPS: usize = 2;
/// Spin calibrations whose median sets one set-up's grain.
const CALIBRATIONS: usize = 5;

/// How a run is split up. The window is shared out over `rounds` fresh
/// set-ups of the workload: one runtime instance can settle into a faster
/// or slower steady state than the next, so medians pooled over many short
/// instances repeat better than one long instance does.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload seed.
    pub seed: u64,
    /// The measured window, summed over rounds.
    pub window: Duration,
    /// Set-ups per run, each measured for `window / rounds`; `setup_s`
    /// is their median.
    pub rounds: u32,
    /// Untimed iterations at the start of each round.
    pub warmup: Duration,
}

impl Plan {
    /// The plan for a `seconds`-long window.
    pub fn new(seed: u64, seconds: u64) -> Plan {
        Plan {
            seed,
            window: Duration::from_secs(seconds),
            rounds: 4 * seconds.max(1) as u32,
            warmup: Duration::from_millis(50),
        }
    }
}

/// What a run reports.
pub struct Outcome {
    /// The metrics, in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// Set-ups, iterations and scrapes attempted.
    pub attempted: u64,
    /// Set-ups, iterations and scrapes that failed their check.
    pub failed: u64,
    /// Of the failures, scrapes that ended after the next one was due.
    pub late: u64,
    /// The failures by cause.
    pub failures: String,
    /// Per-task balance of a traced run.
    pub balance: Option<String>,
    /// Metrics printed beside an untraced run's but not part of its
    /// result: the unbounded timings, which the traced run reports.
    pub extra: Vec<Metric>,
    /// Host fingerprint (JSON object).
    pub fingerprint: String,
}

/// One closed-loop iteration: a fib call or a DAG execution.
#[derive(Debug, Clone, Copy)]
struct Iter {
    start_ns: u64,
    dur_ns: f64,
    tasks: u64,
    ok: bool,
    /// Useful work of the iteration spread over the workers, ns.
    ideal_ns: f64,
    /// `ideal_ns` (its median over the segment) over `dur_ns`.
    efficiency: f64,
    drain_ns: f64,
}

enum Job {
    Fib {
        spawner: RpxSpawner,
        traced: fib::TracedSpawner,
        input: FibInput,
        cells: Arc<Cells>,
    },
    Dag {
        dag: Arc<Dag>,
        ideal_ns: f64,
    },
}

/// The runtime side of a workload.
struct Core {
    rt: Runtime,
    job: Job,
    reader: ctr::Reader,
    workers: usize,
}

struct Env {
    core: Core,
    /// The 10k-counter exporter of `scrape-10k`.
    exporter: Option<Exporter>,
}

/// Timings of one set-up, ns.
#[derive(Default)]
struct SetupTimes {
    /// Everything but the spin calibration, whose search doubles its batch
    /// until it runs 2 ms, so one call takes either about 2 or about 4 ms
    /// depending on the host's speed of the moment.
    total: f64,
    runtime_new: f64,
    build: f64,
    /// One `GrainCalibration::calibrate` call, median over the set-up's.
    calibrate: f64,
}

/// One set-up, its timings, and whether the generated graph passed its
/// check. The DAG's grain is calibrated in every set-up, so it follows the
/// host's speed through the run.
fn set_up(w: Workload, seed: u64) -> (Env, SetupTimes, bool) {
    let mut times = SetupTimes::default();
    let t0 = Instant::now();
    let mut ok = true;
    let mut calibrating = 0.0;
    // The DAG's graph and its per-task spin count.
    let mut dag_input = None;
    if w == Workload::DagGrain {
        let spec = dag_spec(seed);
        let tb = Instant::now();
        let graph = spec.build();
        times.build = tb.elapsed().as_nanos() as f64;
        ok = graph.len() as u64 == spec.shape.task_count()
            && graph.validate().is_ok()
            && graph_hash(&graph) == graph_hash(&spec.build());
        // Calibrate on as many threads at once as there are workers, so the
        // spin rate is the one the workers see with every core busy.
        let tc = Instant::now();
        let samples: Vec<(f64, f64)> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..w.workers())
                .map(|_| {
                    s.spawn(|| {
                        (0..CALIBRATIONS)
                            .map(|_| {
                                let t = Instant::now();
                                let rate = GrainCalibration::calibrate().iters_per_us();
                                (rate, t.elapsed().as_nanos() as f64)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("calibration thread panicked"))
                .collect()
        });
        calibrating = tc.elapsed().as_nanos() as f64;
        let (mut rates, mut calls): (Vec<f64>, Vec<f64>) = samples.into_iter().unzip();
        let grain = GrainCalibration::fixed(median(&mut rates));
        times.calibrate = median(&mut calls);
        dag_input = Some((graph, grain.iters_for_ns(DAG_GRAIN_NS)));
    }
    let tr = Instant::now();
    let rt = Runtime::new(RuntimeConfig::with_workers(w.workers()));
    times.runtime_new = tr.elapsed().as_nanos() as f64;
    let registry = rt.registry();
    let (job, exporter) = match dag_input {
        None => {
            let cells = Cells::register(&registry, seed);
            let exporter = Exporter::cells(&registry, cells.clone());
            let spawner = RpxSpawner::new(rt.handle());
            let job = Job::Fib {
                traced: fib::TracedSpawner::new(spawner.clone()),
                spawner,
                input: fib::input(),
                cells,
            };
            (job, Some(exporter))
        }
        Some((graph, spin)) => {
            let ideal_ns = (graph.total_work_ns() as f64 / w.workers() as f64)
                .max(graph.critical_path_ns() as f64);
            let dag = Dag::new(rt.handle(), &graph, spin);
            (Job::Dag { dag, ideal_ns }, None)
        }
    };
    let env = Env {
        core: Core {
            reader: ctr::Reader::new(registry),
            rt,
            job,
            workers: w.workers(),
        },
        exporter,
    };
    times.total = t0.elapsed().as_nanos() as f64 - calibrating;
    (env, times, ok)
}

/// Stop the exporter and the runtime; returns the runtime's shutdown time.
fn tear_down(env: Env) -> f64 {
    if let Some(exporter) = env.exporter {
        exporter.shutdown();
    }
    let t0 = Instant::now();
    env.core.rt.shutdown();
    t0.elapsed().as_nanos() as f64
}

impl Core {
    fn tasks_per_iter(&self) -> u64 {
        match &self.job {
            Job::Fib { input, .. } => fib::tasks_per_call(*input),
            Job::Dag { dag, .. } => dag.len() as u64,
        }
    }

    /// Tasks each iteration spawns from the calling thread, which take the
    /// runtime's heap path by design.
    fn external_spawns(&self) -> u64 {
        match &self.job {
            Job::Fib { .. } => fib::EXTERNAL_SPAWNS,
            Job::Dag { dag, .. } => dag.roots() as u64,
        }
    }

    /// One iteration. Its useful work spread over the workers is
    /// `max(W/P, T∞)` for the DAG, and for fib the serial oracle's time / P,
    /// with the oracle timed just before and just after the parallel call
    /// so both see the host in the same state.
    fn iterate(&mut self, traced: bool) -> Iter {
        let workers = self.workers as f64;
        let before = self.reader.tasks();
        let mut start_ns = trace::now_ns();
        let mut t0 = Instant::now();
        let (dur, ok, ideal_ns) = match &self.job {
            Job::Fib {
                spawner,
                traced: traced_spawner,
                input,
                cells,
            } => {
                let expected = rpx_inncabs::fib::run_serial(std::hint::black_box(*input));
                let mut serial_ns = t0.elapsed().as_nanos() as f64;
                start_ns = trace::now_ns();
                t0 = Instant::now();
                let v = if traced {
                    rpx_inncabs::fib::run(traced_spawner, *input)
                } else {
                    rpx_inncabs::fib::run(spawner, *input)
                };
                let dur = t0.elapsed();
                self.rt.wait_idle();
                let ts = Instant::now();
                std::hint::black_box(rpx_inncabs::fib::run_serial(std::hint::black_box(*input)));
                serial_ns = (serial_ns + ts.elapsed().as_nanos() as f64) / 2.0;
                cells.bump();
                (dur, v == expected, serial_ns / workers)
            }
            Job::Dag { dag, ideal_ns } => {
                dag.start(traced);
                self.rt.wait_idle();
                (t0.elapsed(), dag.check(), *ideal_ns)
            }
        };
        let drain_ns = if traced {
            trace::now_ns().saturating_sub(trace::last_body_end()) as f64
        } else {
            0.0
        };
        let tasks = self.reader.tasks() - before;
        let dur_ns = dur.as_nanos() as f64;
        Iter {
            start_ns,
            dur_ns,
            tasks,
            ok: ok && tasks == self.tasks_per_iter(),
            ideal_ns,
            efficiency: 0.0,
            drain_ns,
        }
    }
}

/// Closed-loop iterations, the open-loop scrapes made beside them on
/// `scrape-10k`, and the runtime counters' deltas over them.
#[derive(Default)]
struct Segment {
    iters: Vec<Iter>,
    ticks: Vec<Tick>,
    ctr: ctr::Window,
    /// Tasks per second of each group of consecutive iterations.
    rates: Vec<f64>,
}

impl Segment {
    fn absorb(&mut self, other: Segment) {
        self.iters.extend(other.iters);
        self.ticks.extend(other.ticks);
        self.ctr.add(&other.ctr);
        self.rates.extend(other.rates);
    }

    fn wall_ns(&self) -> f64 {
        self.iters.iter().map(|i| i.dur_ns).sum()
    }

    fn tasks(&self) -> u64 {
        self.iters.iter().map(|i| i.tasks).sum()
    }

    fn tasks_per_s(&self) -> f64 {
        self.tasks() as f64 * 1e9 / self.wall_ns()
    }
}

/// Tasks completed per second of wall time (checks between iterations
/// included) for each of `groups` runs of consecutive iterations.
fn group_rates(iters: &[Iter], groups: usize) -> Vec<f64> {
    let groups = groups.min(iters.len());
    (0..groups)
        .map(|k| {
            let g = &iters[k * iters.len() / groups..(k + 1) * iters.len() / groups];
            let (first, last) = (g[0], g[g.len() - 1]);
            let wall = last.start_ns as f64 + last.dur_ns - first.start_ns as f64;
            g.iter().map(|i| i.tasks).sum::<u64>() as f64 * 1e9 / wall
        })
        .collect()
}

impl Env {
    fn segment(&mut self, dur: Duration, traced: bool, alternate: bool) -> Segment {
        let start = self.core.reader.start();
        let stop = AtomicBool::new(false);
        let core = &mut self.core;
        let (mut iters, ticks) = std::thread::scope(|s| {
            let scraper = self
                .exporter
                .as_ref()
                .map(|e| s.spawn(|| e.open_loop(SCRAPE_PERIOD, &stop, alternate)));
            let t0 = Instant::now();
            let mut iters = Vec::new();
            while t0.elapsed() < dur {
                iters.push(core.iterate(traced));
            }
            stop.store(true, Ordering::Release);
            let ticks = scraper
                .map(|h| h.join().expect("scraper thread panicked"))
                .unwrap_or_default();
            (iters, ticks)
        });
        // A single oracle call is easily disturbed (by the exporter
        // rendering on the other core, say); the segment's median is not.
        let mut ideal: Vec<f64> = iters.iter().map(|i| i.ideal_ns).collect();
        let ideal = median(&mut ideal);
        for it in &mut iters {
            it.efficiency = ideal / it.dur_ns;
        }
        let ctr = self.core.reader.finish(&start);
        Segment {
            rates: group_rates(&iters, RATE_GROUPS),
            iters,
            ticks,
            ctr,
        }
    }
}

/// Operations attempted, and failures by cause.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    bad_setup: u64,
    bad_iteration: u64,
    bad_payload: u64,
    late: u64,
}

impl Ledger {
    fn setup(&mut self, ok: bool) {
        self.attempted += 1;
        self.bad_setup += u64::from(!ok);
    }

    fn segment(&mut self, seg: &Segment) {
        for it in &seg.iters {
            self.attempted += 1;
            self.bad_iteration += u64::from(!it.ok);
        }
        self.ticks(&seg.ticks);
    }

    fn ticks(&mut self, ticks: &[Tick]) {
        for t in ticks {
            self.attempted += 1;
            self.bad_payload += u64::from(!t.ok);
            self.late += u64::from(t.ok && t.late);
        }
    }

    fn failed(&self) -> u64 {
        self.bad_setup + self.bad_iteration + self.bad_payload + self.late
    }

    fn error_rate(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    fn causes(&self) -> String {
        format!(
            "set-ups {}, iterations {}, scrape payloads {}, late scrapes {}",
            self.bad_setup, self.bad_iteration, self.bad_payload, self.late
        )
    }
}

/// Everything a run measured, pooled over its rounds.
#[derive(Default)]
struct Pooled {
    /// Untraced segments.
    plain: Segment,
    /// Traced segments.
    timed: Segment,
    setup: Vec<SetupTimes>,
    shutdown_ns: Vec<f64>,
    evaluate_ns: Vec<f64>,
    /// Σ `/counters/serve/scrape-time` and Σ `scrape-count`.
    self_scrape: (f64, f64),
    /// Σ external spawns the untraced iterations made.
    external_spawns: f64,
    instances: f64,
    workers: f64,
    /// Peak resident memory at the end of the first round, MiB.
    peak_rss_mib: f64,
}

/// Run `w` under `plan`; `traced` selects the per-layer run.
pub fn run(w: Workload, plan: &Plan, traced: bool) -> Outcome {
    let mut ledger = Ledger::default();
    let mut pooled = Pooled::default();
    let mut fingerprint = String::new();
    let rounds = plan.rounds.max(1);
    let part = plan.window / rounds;
    for round in 0..rounds {
        let (mut env, times, ok) = set_up(w, plan.seed);
        ledger.setup(ok);
        pooled.setup.push(times);
        if round == 0 {
            fingerprint = host::fingerprint(w.name(), plan.seed, &env.core.rt.registry().clock());
        }
        ledger.segment(&env.segment(plan.warmup, false, traced));
        env.core.reader.evaluate_ns.clear();
        if traced {
            // Untraced and traced halves alternate in order from round to
            // round, so drift on the host hits both sides of the
            // trace-overhead comparison alike.
            for timed in [round % 2 == 1, round % 2 == 0] {
                let seg = env.segment(part / 2, timed, true);
                ledger.segment(&seg);
                if timed {
                    pooled.timed.absorb(seg);
                } else {
                    pooled.external_spawns +=
                        (env.core.external_spawns() * seg.iters.len() as u64) as f64;
                    pooled.plain.absorb(seg);
                }
            }
        } else {
            let seg = env.segment(part, false, false);
            ledger.segment(&seg);
            pooled.plain.absorb(seg);
        }
        if let Some(exporter) = &env.exporter {
            let time = env.core.reader.read("/counters/serve/scrape-time", false);
            let count = env.core.reader.read("/counters/serve/scrape-count", false);
            pooled.self_scrape.0 += time;
            pooled.self_scrape.1 += count;
            pooled.instances = exporter.instances() as f64;
        }
        pooled.evaluate_ns.append(&mut env.core.reader.evaluate_ns);
        pooled.workers = env.core.workers as f64;
        // The first round runs in a fresh process; later set-ups reuse and
        // grow a heap shaped by their predecessors, which blurs the figure.
        if round == 0 {
            pooled.peak_rss_mib = host::peak_rss_mib();
        }
        pooled.shutdown_ns.push(tear_down(env));
    }
    let (metrics, balance, extra) = if traced {
        let (m, b) = per_layer(w, &mut pooled, &ledger);
        (m, Some(b), Vec::new())
    } else {
        (end_to_end(&pooled), None, timings(&mut pooled).to_vec())
    };
    Outcome {
        metrics,
        attempted: ledger.attempted,
        failed: ledger.failed(),
        late: ledger.late,
        failures: ledger.causes(),
        balance,
        extra,
        fingerprint,
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// The user-visible timings of the untraced segments: `tasks_per_s`,
/// `iter_ms_p50`, `iter_ms_tail`, `scrape_ms_p50`, `scrape_ms_tail`.
fn timings(p: &mut Pooled) -> [Metric; 5] {
    let mut iter_ms: Vec<f64> = p.plain.iters.iter().map(|i| ms(i.dur_ns)).collect();
    let mut scrape_ms: Vec<f64> = p
        .plain
        .ticks
        .iter()
        .filter(|t| matches!(t.probe, Probe::Http { .. }))
        .map(|t| ms(t.latency_ns))
        .collect();
    let (iter_tail, iter_p) = tail(&mut iter_ms);
    let (scrape_tail, scrape_p) = tail(&mut scrape_ms);
    let scrape_max = scrape_ms.last().copied().unwrap_or(0.0);
    let (n_iter, n_scrape) = (iter_ms.len() as u64, scrape_ms.len() as u64);
    let rates = &mut p.plain.rates;
    [
        Metric::new("tasks_per_s", median(rates), "1/s", rates.len() as u64)
            .with_note("median over groups of iterations"),
        Metric::new("iter_ms_p50", median(&mut iter_ms), "ms", n_iter),
        Metric::new("iter_ms_tail", iter_tail, "ms", n_iter).with_note(format!("p{iter_p}")),
        Metric::new("scrape_ms_p50", median(&mut scrape_ms), "ms", n_scrape),
        Metric::new("scrape_ms_tail", scrape_tail, "ms", n_scrape)
            .with_note(format!("p{scrape_p}, max {scrape_max:.3}")),
    ]
}

fn end_to_end(p: &Pooled) -> Vec<Metric> {
    let mut eff: Vec<f64> = p.plain.iters.iter().map(|i| i.efficiency).collect();
    let mut setup_s: Vec<f64> = p.setup.iter().map(|t| t.total / 1e9).collect();
    vec![
        Metric::new("efficiency", median(&mut eff), "ratio", eff.len() as u64),
        Metric::new("setup_s", median(&mut setup_s), "s", setup_s.len() as u64),
        Metric::new("peak_rss_mb", p.peak_rss_mib, "MiB", 1).with_note("first round"),
    ]
}

fn per_layer(w: Workload, p: &mut Pooled, ledger: &Ledger) -> (Vec<Metric>, String) {
    let snap = trace::snapshot();
    let workers = p.workers;
    // Balance over the traced segments: every worker-nanosecond of wall
    // time is spawn, get or body self time, or the residual no public
    // call covers.
    let wall = p.timed.wall_ns();
    let tasks = p.timed.tasks() as f64;
    let spawn = snap.total(Kind::Spawn) as f64;
    let get = snap.total(Kind::Get) as f64;
    let body = snap.total(Kind::Body) as f64;
    let residual = wall * workers - spawn - get - body;
    let exec_ratio = p.timed.ctr.exec_ns / (spawn + get + body);
    let mut balance = format!(
        "balance: {} traced, {workers} workers, {tasks} tasks, wall {:.3} ms; per task, and share of wall x workers\n",
        w.name(),
        ms(wall)
    );
    for (name, v) in [
        ("spawn", spawn),
        ("get", get),
        ("body self", body),
        ("residual", residual),
        ("total", wall * workers),
    ] {
        balance.push_str(&format!(
            "  {name:<10} {:>10.1} ns/task {:>6.1} %\n",
            v / tasks,
            100.0 * v / (wall * workers)
        ));
    }
    balance.push_str(&format!("  runtime.ctr.exec_ratio {exec_ratio:.4}\n"));

    let (mut collect, mut render, mut rtt, mut bytes) = (vec![], vec![], vec![], vec![]);
    let ticks: Vec<Tick> = p
        .plain
        .ticks
        .iter()
        .chain(&p.timed.ticks)
        .copied()
        .collect();
    for t in &ticks {
        match t.probe {
            Probe::Direct {
                collect_ns,
                render_ns,
            } => {
                collect.push(collect_ns);
                render.push(render_ns);
            }
            Probe::Http { rtt_ns, bytes: b } => {
                rtt.push(rtt_ns);
                bytes.push(b as f64);
            }
        }
    }
    let mut lag: Vec<f64> = ticks.iter().map(|t| t.lag_ns).collect();
    let mut drain: Vec<f64> = p.timed.iters.iter().map(|i| i.drain_ns).collect();
    let mut runtime_new: Vec<f64> = p.setup.iter().map(|t| t.runtime_new).collect();
    let mut build: Vec<f64> = p.setup.iter().map(|t| t.build).collect();
    let mut calibrate: Vec<f64> = p.setup.iter().map(|t| t.calibrate).collect();
    let n = |v: usize| v as u64;
    let (n_collect, n_render, n_rtt) = (n(collect.len()), n(render.len()), n(rtt.len()));
    let collect_p50 = median(&mut collect);
    let render_p50 = median(&mut render);
    let rtt_p50 = median(&mut rtt);
    let n_plain = p.plain.iters.len() as f64;
    let c = p.plain.ctr;
    let ct = c.tasks as u64;
    let spawns = snap.count(Kind::Spawn);
    let overhead_pct = 100.0 * (1.0 - p.timed.tasks_per_s() / p.plain.tasks_per_s());
    let mut metrics = timings(p).to_vec();
    metrics.extend([
        Metric::new(
            "runtime.spawn.ns_p50",
            snap.quantile(Kind::Spawn, 50.0),
            "ns",
            spawns,
        ),
        Metric::new(
            "runtime.spawn.ns_p99",
            snap.quantile(Kind::Spawn, 99.0),
            "ns",
            spawns,
        ),
        Metric::new(
            "runtime.get.ns_p50",
            snap.quantile(Kind::Get, 50.0),
            "ns",
            snap.count(Kind::Get),
        )
        .with_note("self time"),
        Metric::new(
            "runtime.get.share",
            get / (wall * workers),
            "ratio",
            snap.count(Kind::Get),
        ),
        Metric::new(
            "runtime.body.self_ns_p50",
            snap.quantile(Kind::Body, 50.0),
            "ns",
            snap.count(Kind::Body),
        ),
        Metric::new(
            "runtime.residual_ns_per_task",
            residual / tasks,
            "ns",
            tasks as u64,
        ),
        Metric::new(
            "runtime.drain_us",
            median(&mut drain) / 1e3,
            "us",
            n(drain.len()),
        ),
        Metric::new(
            "runtime.new.ms",
            ms(median(&mut runtime_new)),
            "ms",
            n(runtime_new.len()),
        ),
        Metric::new(
            "runtime.shutdown.ms",
            ms(median(&mut p.shutdown_ns)),
            "ms",
            n(p.shutdown_ns.len()),
        ),
        Metric::new(
            "runtime.ctr.tasks",
            c.tasks / n_plain,
            "count",
            n_plain as u64,
        )
        .with_note("per iteration"),
        Metric::new("runtime.ctr.overhead_ns", c.overhead_per_task(), "ns", ct),
        Metric::new("runtime.ctr.wait_ns", c.wait_per_task(), "ns", ct),
        Metric::new("runtime.ctr.idle_rate", c.idle_rate(), "ratio", ct),
        Metric::new(
            "runtime.ctr.steals_per_ktask",
            c.steals_per_ktask(),
            "1/ktask",
            ct,
        ),
        Metric::new(
            "runtime.ctr.slab_fallback",
            c.fallback - p.external_spawns,
            "count",
            ct,
        )
        .with_note("beyond the benchmark's own external spawns"),
        Metric::new(
            "runtime.ctr.slab_remote_free_frac",
            c.remote_free_frac(),
            "ratio",
            ct,
        ),
        Metric::new("runtime.ctr.exec_ratio", exec_ratio, "ratio", tasks as u64),
        Metric::new(
            "counters.collect_ns_per_instance",
            collect_p50 / p.instances.max(1.0),
            "ns",
            n_collect,
        ),
        Metric::new(
            "counters.evaluate.ns_p50",
            median(&mut p.evaluate_ns),
            "ns",
            n(p.evaluate_ns.len()),
        ),
        Metric::new("serve.collect.ms_p50", ms(collect_p50), "ms", n_collect),
        Metric::new("serve.render.ms_p50", ms(render_p50), "ms", n_render),
        Metric::new(
            "serve.http_residual.ms_p50",
            ms(rtt_p50 - collect_p50 - render_p50),
            "ms",
            n_rtt,
        ),
        Metric::new("serve.bytes_per_scrape", median(&mut bytes), "bytes", n_rtt),
        Metric::new(
            "serve.self_scrape_ms",
            ms(p.self_scrape.0 / p.self_scrape.1.max(1.0)),
            "ms",
            p.self_scrape.1 as u64,
        ),
        Metric::new(
            "serve.generator_lag_ms",
            ms(median(&mut lag)),
            "ms",
            n(lag.len()),
        ),
        Metric::new(
            "taskbench.build.ms",
            ms(median(&mut build)),
            "ms",
            n(build.len()),
        ),
        Metric::new(
            "taskbench.calibrate.ms",
            ms(median(&mut calibrate)),
            "ms",
            n(calibrate.len()),
        ),
        Metric::new(
            "bench.trace_overhead_pct",
            overhead_pct,
            "%",
            n(p.plain.iters.len() + p.timed.iters.len()),
        ),
        Metric::new("error_rate", ledger.error_rate(), "ratio", ledger.attempted),
    ]);
    (metrics, balance)
}
