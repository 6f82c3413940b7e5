//! Health detection on the intrinsic counter stream.
//!
//! The paper's position is that runtime health should be *visible* through
//! intrinsic counters; Drebes et al. push further — the counter stream can
//! *detect* anomalies. Every watchdog tick the [`Detector`] differences one
//! [`Signals`] snapshot of cumulative counters against the last, compares
//! each signal with its EWMA baseline, and yields both outputs: the
//! [`OverloadState`] verdict behind `/runtime/health/overload-state`, which
//! an rpx-apex policy can feed back into admission, and anomaly episodes
//! (one per [`AnomalyKind`]) in the [`AnomalyLog`] behind
//! `/runtime/anomaly/*`. The steal storm feeds both: each tick it holds
//! adds one to the overload score, and the tick it starts opens one episode.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::runtime::RuntimeInner;

/// The overload verdict, least to most severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum OverloadState {
    /// Headroom everywhere: admission open, queues draining.
    #[default]
    Normal = 0,
    /// One pressure signal active — worth widening the sampling lens.
    Elevated = 1,
    /// Multiple signals (or hard saturation): shed/degrade territory.
    Overloaded = 2,
}

impl OverloadState {
    /// Counter encoding (`/runtime/health/overload-state` raw value).
    pub fn as_i64(self) -> i64 {
        self as i64
    }

    /// Decode a counter value (unknown values clamp to `Overloaded`).
    pub fn from_i64(v: i64) -> Self {
        match v {
            0 => OverloadState::Normal,
            1 => OverloadState::Elevated,
            _ => OverloadState::Overloaded,
        }
    }
}

/// What kind of anomaly an event describes (the discriminant indexes the
/// log's per-kind episode counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// Steal/execution ratio spiked far above its EWMA baseline: tasks are
    /// too coarse or too few, and workers burn cycles in each other's
    /// deques.
    StealStorm = 0,
    /// Mean net task grain dropped far below its EWMA baseline: the
    /// workload degenerated into microtasks and per-task overhead now
    /// dominates.
    GranularityCollapse = 1,
    /// Idle fraction spiked while a backlog existed: cores are starved
    /// (lost wakeups, a wedged worker, one long serial task).
    IdleSpike = 2,
}

/// One detected anomaly episode (recorded at episode start).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyEvent {
    /// What happened.
    pub kind: AnomalyKind,
    /// Runtime-clock timestamp of the tick that opened the episode.
    pub at_ns: u64,
    /// The observed signal value that tripped the detector (ratio, mean
    /// grain in ns, or idle fraction — per kind).
    pub value: f64,
    /// The EWMA baseline the value was compared against.
    pub baseline: f64,
}

/// Bounded, thread-safe record of anomaly episodes plus per-kind episode
/// counters (the backing store of the `/runtime/anomaly/*` counters).
pub(crate) struct AnomalyLog {
    events: Mutex<VecDeque<AnomalyEvent>>,
    counts: [AtomicU64; 3],
    capacity: usize,
}

impl AnomalyLog {
    pub(crate) fn new(capacity: usize) -> Self {
        AnomalyLog {
            events: Mutex::new(VecDeque::new()),
            counts: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            capacity: capacity.max(1),
        }
    }

    pub(crate) fn push(&self, event: AnomalyEvent) {
        self.counts[event.kind as usize].fetch_add(1, Ordering::Relaxed);
        let mut events = self.events.lock();
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back(event);
    }

    /// Episodes of `kind` recorded so far.
    pub fn count(&self, kind: AnomalyKind) -> u64 {
        self.counts[kind as usize].load(Ordering::Relaxed)
    }

    /// Total episodes across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The most recent episodes, oldest first.
    pub fn events(&self) -> Vec<AnomalyEvent> {
        self.events.lock().iter().copied().collect()
    }
}

/// One watchdog tick's raw readings (cumulative where noted; the detector
/// differences them itself).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Signals {
    /// Queued-but-not-started tasks right now.
    pub pending: i64,
    /// Admission capacity (`max_pending`), or 0 when admission control is
    /// off, which disables depth scoring.
    pub capacity: i64,
    /// Cumulative stolen-task count across workers, plus any injected
    /// steal-storm synthetic steals.
    pub steals: u64,
    /// Cumulative executed-task count across workers.
    pub executed: u64,
    /// Cumulative net task-execution nanoseconds across workers.
    pub exec_ns: u64,
    /// Cumulative idle nanoseconds across workers.
    pub idle_ns: u64,
    /// Wall nanoseconds this tick × live workers (the idle budget:
    /// `idle_ns` delta ≈ this when everyone is parked).
    pub tick_budget_ns: u64,
    /// Runtime-clock timestamp of this tick.
    pub now_ns: u64,
}

impl Signals {
    /// Read watchdog tick number `tick` (0-based) of `inner`, one tick
    /// being `interval` long. An injected steal storm
    /// ([`FaultPlan::steal_storm_ticks`](crate::faults::FaultPlan)) adds
    /// synthetic steals here — and only here, so the scheduler's real
    /// steal counters stay truthful.
    pub(crate) fn read(inner: &RuntimeInner, interval: Duration, tick: u64) -> Self {
        let (pending, capacity) = match &inner.gate {
            Some(gate) => (gate.pending(), gate.limits().0 as i64),
            None => (inner.scheduler.pending_tasks(), 0),
        };
        let live_workers = inner.state.live_workers.load(Ordering::Acquire) as u64;
        let mut s = Signals {
            pending,
            capacity,
            steals: inner
                .faults
                .as_ref()
                .map_or(0, |f| f.steal_storm_steals(tick)),
            tick_budget_ns: interval.as_nanos() as u64 * live_workers.max(1),
            now_ns: inner.state.clock.now_ns(),
            ..Signals::default()
        };
        for w in inner.state.all_stats() {
            s.steals += w.stolen.load(Ordering::Relaxed);
            s.executed += w.executed.load(Ordering::Relaxed);
            s.exec_ns += w.exec_ns.load(Ordering::Relaxed);
            s.idle_ns += w.idle_ns.load(Ordering::Relaxed);
        }
        s
    }
}

/// EWMA smoothing factor: ~5-tick memory at the watchdog cadence.
const ALPHA: f64 = 0.2;
/// A steal ratio this many times its baseline (and above 1 steal per
/// execution) is a storm.
const STORM_FACTOR: f64 = 4.0;
/// Steals below this per tick are noise, never a storm.
const STORM_MIN_STEALS: f64 = 64.0;
/// Idle fraction below this while a backlog exists is a collapse.
const IDLE_COLLAPSE: f64 = 0.02;
/// Consecutive calm ticks required per verdict downgrade step, so a
/// single quiet interval does not flap the verdict.
const CALM_TICKS: u32 = 2;
/// Mean net grain below `baseline / COLLAPSE_FACTOR` is a collapse.
const COLLAPSE_FACTOR: f64 = 8.0;
/// Ticks with fewer executed tasks than this don't update or test the
/// grain baseline (a mean over 3 tasks is noise).
const GRAIN_MIN_TASKS: u64 = 32;
/// Ticks the grain baseline must have seen before collapse can fire.
const GRAIN_WARMUP_TICKS: u32 = 3;
/// Idle fraction must exceed this absolute floor for a spike.
const SPIKE_MIN_IDLE: f64 = 0.5;
/// ... and this many times its EWMA baseline.
const SPIKE_FACTOR: f64 = 4.0;

/// An EWMA baseline behind an episode latch. An episode is recorded once,
/// on the tick its breach first holds, and re-armed only after it clears;
/// the baseline learns only outside episodes, so a long one cannot
/// normalize itself into the baseline and self-clear.
#[derive(Debug, Default)]
struct Baseline {
    ewma: f64,
    active: bool,
}

impl Baseline {
    /// Fold one tick's `value`: `breach` says whether it trips the rule,
    /// `learn` whether a calm tick may teach the baseline. Returns the
    /// baseline the value was compared against when this tick opens an
    /// episode.
    fn observe(&mut self, value: f64, breach: bool, learn: bool) -> Option<f64> {
        let opened = (breach && !self.active).then_some(self.ewma);
        self.active = breach;
        if learn && !breach {
            self.ewma += ALPHA * (value - self.ewma);
        }
        opened
    }
}

/// EWMA-baselined overload and anomaly detector; pure state-machine logic
/// (the watchdog feeds it), so it unit tests without a runtime.
#[derive(Default)]
pub(crate) struct Detector {
    last: Option<Signals>,
    /// EWMA of pending depth (growth-rate baseline).
    ewma_pending: f64,
    steal_ratio: Baseline,
    grain_ns: Baseline,
    grain_ticks: u32,
    idle_frac: Baseline,
    calm_ticks: u32,
    state: OverloadState,
}

impl Detector {
    /// Fold one tick of signals: new episodes go to `log`, and the
    /// (possibly unchanged) overload verdict is returned.
    pub fn tick(&mut self, s: Signals, log: &AnomalyLog) -> OverloadState {
        let Some(last) = self.last.replace(s) else {
            // First tick only primes the deltas and baselines.
            self.ewma_pending = s.pending as f64;
            return self.state;
        };
        let d_steals = s.steals.saturating_sub(last.steals) as f64;
        let d_exec = s.executed.saturating_sub(last.executed);
        let d_exec_ns = s.exec_ns.saturating_sub(last.exec_ns) as f64;
        let d_idle = s.idle_ns.saturating_sub(last.idle_ns) as f64;
        let idle_frac = if s.tick_budget_ns > 0 {
            (d_idle / s.tick_budget_ns as f64).min(1.0)
        } else {
            0.0
        };
        let record = |kind, value, opened: Option<f64>| {
            if let Some(baseline) = opened {
                log.push(AnomalyEvent {
                    kind,
                    at_ns: s.now_ns,
                    value,
                    baseline,
                });
            }
        };

        let mut score = 0;
        // Depth pressure: hard saturation scores double — it alone means
        // the spawn rate beat the drain rate all the way to the cap.
        if s.capacity > 0 && s.pending >= s.capacity {
            score += 2;
        } else if s.capacity > 0
            && s.pending * 2 >= s.capacity
            && (s.pending as f64) > self.ewma_pending * 1.25
        {
            score += 1;
        }
        self.ewma_pending += ALPHA * (s.pending as f64 - self.ewma_pending);

        // Steal storm: absolute volume AND ratio AND baseline breach. With
        // nothing executed at all the ratio is unbounded; use the count.
        let ratio = if d_exec > 0 {
            d_steals / d_exec as f64
        } else {
            d_steals
        };
        let storming =
            d_steals >= STORM_MIN_STEALS && ratio > (self.steal_ratio.ewma * STORM_FACTOR).max(1.0);
        if storming {
            score += 1;
        }
        let opened = self.steal_ratio.observe(ratio, storming, true);
        record(AnomalyKind::StealStorm, ratio, opened);

        // Idle collapse: a backlog with (almost) zero idle time anywhere.
        if s.pending > 0 && s.tick_budget_ns > 0 && idle_frac < IDLE_COLLAPSE {
            score += 1;
        }

        // Granularity collapse: mean net grain far below its baseline. Too
        // few tasks to judge neither tests nor teaches the baseline, and a
        // quiet tick also ends any episode.
        let judged = d_exec >= GRAIN_MIN_TASKS;
        let mean = d_exec_ns / d_exec.max(1) as f64;
        let collapsed = judged
            && self.grain_ticks >= GRAIN_WARMUP_TICKS
            && mean * COLLAPSE_FACTOR < self.grain_ns.ewma;
        let opened = self.grain_ns.observe(mean, collapsed, judged);
        record(AnomalyKind::GranularityCollapse, mean, opened);
        if judged && !collapsed {
            self.grain_ticks = self.grain_ticks.saturating_add(1);
        }

        // Idle spike: starved cores while a backlog exists. The baseline is
        // "idle fraction *while working*": a quiet runtime (no backlog,
        // nothing executed) is legitimately idle, and letting those ticks
        // teach the baseline would mask real starvation later.
        let spiking = s.pending > 0
            && idle_frac > SPIKE_MIN_IDLE
            && idle_frac > self.idle_frac.ewma * SPIKE_FACTOR;
        let working = s.pending > 0 || d_exec > 0;
        let opened = self.idle_frac.observe(idle_frac, spiking, working);
        record(AnomalyKind::IdleSpike, idle_frac, opened);

        let observed = OverloadState::from_i64(score);
        if observed >= self.state {
            // Upgrades (and confirmations) apply immediately.
            self.state = observed;
            self.calm_ticks = 0;
        } else {
            // Downgrades need sustained calm: one step per CALM_TICKS.
            self.calm_ticks += 1;
            if self.calm_ticks >= CALM_TICKS {
                self.state = OverloadState::from_i64(self.state.as_i64() - 1);
                self.calm_ticks = 0;
            }
        }
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, STEAL_STORM_PER_TICK};
    use crate::{Runtime, RuntimeConfig};

    /// A calm tick for the verdict: no backlog, mostly idle.
    fn calm_idle(prev: &Signals) -> Signals {
        Signals {
            pending: 0,
            capacity: 100,
            steals: prev.steals + 1,
            executed: prev.executed + 100,
            // Mostly idle: well above the collapse threshold.
            idle_ns: prev.idle_ns + 800_000,
            tick_budget_ns: 1_000_000,
            ..*prev
        }
    }

    /// A calm tick for the episodes: busy executing, few steals, moderate
    /// idle.
    fn calm_busy(prev: &Signals) -> Signals {
        Signals {
            steals: prev.steals + 2,
            executed: prev.executed + 200,
            exec_ns: prev.exec_ns + 200 * 10_000, // 10µs grain
            idle_ns: prev.idle_ns + 100_000,      // 10% idle
            tick_budget_ns: 1_000_000,
            pending: 4,
            now_ns: prev.now_ns + 1_000_000,
            ..*prev
        }
    }

    fn warm_up(d: &mut Detector, log: &AnomalyLog, ticks: u32) -> Signals {
        let mut s = Signals::default();
        for _ in 0..ticks {
            s = calm_busy(&s);
            d.tick(s, log);
        }
        s
    }

    #[test]
    fn stays_normal_when_calm() {
        let (mut d, log) = (Detector::default(), AnomalyLog::new(16));
        let mut s = Signals {
            tick_budget_ns: 1_000_000,
            ..Default::default()
        };
        for _ in 0..10 {
            s = calm_idle(&s);
            assert_eq!(d.tick(s, &log), OverloadState::Normal);
        }
    }

    #[test]
    fn saturated_pending_is_overloaded_immediately() {
        let (mut d, log) = (Detector::default(), AnomalyLog::new(16));
        let mut s = Signals {
            capacity: 100,
            tick_budget_ns: 1_000_000,
            ..Default::default()
        };
        d.tick(s, &log); // prime
        s.pending = 100; // at capacity
        s.idle_ns += 900_000; // idle is fine — depth alone must suffice
        assert_eq!(d.tick(s, &log), OverloadState::Overloaded);
    }

    #[test]
    fn growth_toward_capacity_elevates() {
        let (mut d, log) = (Detector::default(), AnomalyLog::new(16));
        let mut s = Signals {
            capacity: 100,
            tick_budget_ns: 1_000_000,
            ..Signals::default()
        };
        d.tick(s, &log); // prime: ewma_pending = 0
        s.pending = 60; // ≥ capacity/2 and far above the baseline
        s.idle_ns += 500_000; // no idle collapse
        s.executed += 10;
        assert_eq!(d.tick(s, &log), OverloadState::Elevated);
    }

    #[test]
    fn steal_storm_plus_idle_collapse_is_overloaded() {
        let (mut d, log) = (Detector::default(), AnomalyLog::new(16));
        let mut s = Signals {
            capacity: 0, // admission off: depth scoring disabled
            tick_budget_ns: 1_000_000,
            ..Signals::default()
        };
        d.tick(s, &log);
        // Workers execute little, steal a lot, and report no idle time
        // while a backlog exists.
        s.pending = 10;
        s.steals += 500;
        s.executed += 10;
        s.idle_ns += 1_000; // < 2% of the budget
        assert_eq!(d.tick(s, &log), OverloadState::Overloaded);
    }

    #[test]
    fn downgrade_needs_sustained_calm() {
        let (mut d, log) = (Detector::default(), AnomalyLog::new(16));
        let mut s = Signals {
            capacity: 100,
            tick_budget_ns: 1_000_000,
            ..Signals::default()
        };
        d.tick(s, &log);
        s.pending = 100;
        assert_eq!(d.tick(s, &log), OverloadState::Overloaded);
        // One calm tick: still Overloaded (hysteresis).
        s = calm_idle(&s);
        assert_eq!(d.tick(s, &log), OverloadState::Overloaded);
        // Second calm tick: one step down.
        s = calm_idle(&s);
        assert_eq!(d.tick(s, &log), OverloadState::Elevated);
        // Two more: back to Normal.
        s = calm_idle(&s);
        assert_eq!(d.tick(s, &log), OverloadState::Elevated);
        s = calm_idle(&s);
        assert_eq!(d.tick(s, &log), OverloadState::Normal);
    }

    #[test]
    fn encoding_round_trips() {
        for st in [
            OverloadState::Normal,
            OverloadState::Elevated,
            OverloadState::Overloaded,
        ] {
            assert_eq!(OverloadState::from_i64(st.as_i64()), st);
        }
        assert_eq!(OverloadState::from_i64(99), OverloadState::Overloaded);
    }

    #[test]
    fn calm_stream_raises_nothing() {
        let mut d = Detector::default();
        let log = AnomalyLog::new(16);
        warm_up(&mut d, &log, 20);
        assert_eq!(log.total(), 0);
    }

    #[test]
    fn sustained_steal_storm_is_one_episode() {
        let mut d = Detector::default();
        let log = AnomalyLog::new(16);
        let mut s = warm_up(&mut d, &log, 10);
        // 5 consecutive storm ticks: steals ≫ executions.
        for _ in 0..5 {
            s.steals += 10_000;
            s.executed += 100;
            s.exec_ns += 100 * 10_000;
            s.idle_ns += 100_000;
            s.now_ns += 1_000_000;
            d.tick(s, &log);
        }
        assert_eq!(log.count(AnomalyKind::StealStorm), 1, "one episode");
        assert_eq!(log.total(), 1);
        let ev = log.events()[0];
        assert_eq!(ev.kind, AnomalyKind::StealStorm);
        assert!(ev.value > ev.baseline * STORM_FACTOR);
        // After the storm clears, a second storm is a second episode.
        for _ in 0..4 {
            s = calm_busy(&s);
            d.tick(s, &log);
        }
        s.steals += 10_000;
        s.executed += 100;
        s.exec_ns += 100 * 10_000;
        s.now_ns += 1_000_000;
        d.tick(s, &log);
        assert_eq!(log.count(AnomalyKind::StealStorm), 2);
    }

    /// The storm rule is shared: one storm tick both opens an episode and
    /// raises the verdict, whether the steals are real or injected by the
    /// fault plan at the watchdog's signal read.
    #[test]
    fn one_storm_tick_logs_an_event_and_elevates_the_verdict() {
        let mut d = Detector::default();
        let log = AnomalyLog::new(16);
        let mut s = warm_up(&mut d, &log, 10);
        s.steals += 10_000;
        s.executed += 100;
        s.exec_ns += 100 * 10_000;
        s.idle_ns += 100_000;
        s.now_ns += 1_000_000;
        assert!(d.tick(s, &log) >= OverloadState::Elevated);
        assert_eq!(log.count(AnomalyKind::StealStorm), 1);

        // An idle runtime whose only steals are the injected ones.
        let rt = Runtime::new(RuntimeConfig {
            faults: Some(FaultPlan {
                steal_storm_ticks: 1,
                ..FaultPlan::default()
            }),
            ..RuntimeConfig::with_workers(1)
        });
        let interval = rt.inner.config.watchdog_interval;
        let (mut d, log) = (Detector::default(), AnomalyLog::new(16));
        let primed = Signals::read(&rt.inner, interval, 0);
        d.tick(primed, &log);
        let storm = Signals::read(&rt.inner, interval, 1);
        assert!(storm.steals - primed.steals >= STEAL_STORM_PER_TICK);
        assert!(d.tick(storm, &log) >= OverloadState::Elevated);
        assert_eq!(log.count(AnomalyKind::StealStorm), 1);
        assert_eq!(log.events()[0].kind, AnomalyKind::StealStorm);
        rt.shutdown();
    }

    #[test]
    fn grain_collapse_fires_once_per_episode() {
        let mut d = Detector::default();
        let log = AnomalyLog::new(16);
        let mut s = warm_up(&mut d, &log, 10); // baseline grain 10µs
        for _ in 0..4 {
            // Grain collapses to 200ns — 50× below baseline.
            s.steals += 2;
            s.executed += 5_000;
            s.exec_ns += 5_000 * 200;
            s.idle_ns += 100_000;
            s.now_ns += 1_000_000;
            d.tick(s, &log);
        }
        assert_eq!(log.count(AnomalyKind::GranularityCollapse), 1);
        let ev = log.events()[0];
        assert!(ev.value * COLLAPSE_FACTOR < ev.baseline);
    }

    #[test]
    fn collapse_needs_warmed_baseline() {
        let mut d = Detector::default();
        let log = AnomalyLog::new(16);
        let mut s = Signals::default();
        // Fine-grained from the first tick: no baseline to collapse from.
        for _ in 0..10 {
            s.executed += 5_000;
            s.exec_ns += 5_000 * 200;
            s.idle_ns += 100_000;
            s.tick_budget_ns = 1_000_000;
            s.now_ns += 1_000_000;
            d.tick(s, &log);
        }
        assert_eq!(log.count(AnomalyKind::GranularityCollapse), 0);
    }

    #[test]
    fn idle_spike_requires_backlog() {
        let mut d = Detector::default();
        let log = AnomalyLog::new(16);
        let mut s = warm_up(&mut d, &log, 10); // baseline idle 10%
                                               // Near-total idleness with no pending work: not an anomaly (the
                                               // runtime is simply quiet).
        for _ in 0..3 {
            s.idle_ns += 990_000;
            s.pending = 0;
            s.now_ns += 1_000_000;
            d.tick(s, &log);
        }
        assert_eq!(log.count(AnomalyKind::IdleSpike), 0);
        // The same idleness with a backlog is starvation.
        s.idle_ns += 990_000;
        s.pending = 50;
        s.now_ns += 1_000_000;
        d.tick(s, &log);
        assert_eq!(log.count(AnomalyKind::IdleSpike), 1);
    }

    #[test]
    fn baseline_freezes_during_episode() {
        let mut d = Detector::default();
        let log = AnomalyLog::new(16);
        let mut s = warm_up(&mut d, &log, 10);
        let baseline_before = d.steal_ratio.ewma;
        for _ in 0..50 {
            s.steals += 10_000;
            s.executed += 100;
            s.exec_ns += 100 * 10_000;
            s.idle_ns += 100_000;
            s.now_ns += 1_000_000;
            d.tick(s, &log);
        }
        assert_eq!(
            d.steal_ratio.ewma, baseline_before,
            "a 50-tick storm must not teach the baseline that storms are normal"
        );
        assert_eq!(log.count(AnomalyKind::StealStorm), 1);
    }

    #[test]
    fn log_is_bounded() {
        let log = AnomalyLog::new(3);
        for i in 0..10 {
            log.push(AnomalyEvent {
                kind: AnomalyKind::IdleSpike,
                at_ns: i,
                value: 1.0,
                baseline: 0.0,
            });
        }
        let events = log.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].at_ns, 7, "oldest evicted first");
        assert_eq!(log.count(AnomalyKind::IdleSpike), 10, "counts are exact");
    }
}
