//! The runtime's own intrinsic counters, read with
//! `CounterRegistry::evaluate` between timed windows.

use std::sync::Arc;
use std::time::Instant;

use rpx_counters::CounterRegistry;

const TASKS: &str = "/threads{locality#0/total}/count/cumulative";
const EXEC: &str = "/threads{locality#0/total}/time/cumulative";
const OVERHEAD: &str = "/threads{locality#0/total}/time/cumulative-overhead";
const STOLEN: &str = "/threads{locality#0/total}/count/stolen";
const IDLE_RATE: &str = "/threads{locality#0/total}/idle-rate";
const AVG_WAIT: &str = "/threads{locality#0/total}/time/average-wait";
const LOCAL_FREES: &str = "/runtime{locality#0/total}/slab/local-frees";
const REMOTE_FREES: &str = "/runtime{locality#0/total}/slab/remote-frees";
const FALLBACK: &str = "/runtime{locality#0/total}/slab/fallback-allocs";

/// Reads counters and times each `evaluate` call.
pub struct Reader {
    registry: Arc<CounterRegistry>,
    /// Duration of every `evaluate` call, ns.
    pub evaluate_ns: Vec<f64>,
}

/// One reading of the counters a window's deltas are taken from.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reading {
    tasks: f64,
    exec_ns: f64,
    overhead_ns: f64,
    stolen: f64,
    idle_ns: f64,
    local_frees: f64,
    remote_frees: f64,
    fallback: f64,
}

impl Reader {
    /// A reader over `registry`.
    pub fn new(registry: Arc<CounterRegistry>) -> Self {
        Reader {
            registry,
            evaluate_ns: Vec::new(),
        }
    }

    /// Evaluate one counter (scaled), timing the call. A counter that does
    /// not resolve is a broken benchmark, not a measurement.
    pub fn read(&mut self, name: &str, reset: bool) -> f64 {
        let t0 = Instant::now();
        let v = self
            .registry
            .evaluate(name, reset)
            .unwrap_or_else(|e| panic!("counter {name}: {e}"));
        self.evaluate_ns.push(t0.elapsed().as_nanos() as f64);
        v.scaled()
    }

    /// Tasks executed so far.
    pub fn tasks(&mut self) -> u64 {
        self.read(TASKS, false) as u64
    }

    /// Read everything a window needs and restart the average-wait
    /// counter, so the next [`Reading`]'s wait is that window's.
    pub fn start(&mut self) -> Reading {
        self.read(AVG_WAIT, true);
        self.reading()
    }

    fn reading(&mut self) -> Reading {
        let exec_ns = self.read(EXEC, false);
        let overhead_ns = self.read(OVERHEAD, false);
        // The idle-rate counter is idle / (idle + busy) over the runtime's
        // lifetime, with busy = exec + overhead; invert it to get the
        // cumulative idle time, whose deltas give a window's idle rate.
        let rate = self.read(IDLE_RATE, false) / 10_000.0;
        let busy = exec_ns + overhead_ns;
        Reading {
            tasks: self.read(TASKS, false),
            exec_ns,
            overhead_ns,
            stolen: self.read(STOLEN, false),
            idle_ns: if rate < 1.0 {
                busy * rate / (1.0 - rate)
            } else {
                0.0
            },
            local_frees: self.read(LOCAL_FREES, false),
            remote_frees: self.read(REMOTE_FREES, false),
            fallback: self.read(FALLBACK, false),
        }
    }

    /// Close a window opened by [`start`](Self::start).
    pub fn finish(&mut self, start: &Reading) -> Window {
        let wait_ns = self.read(AVG_WAIT, false);
        let end = self.reading();
        Window {
            tasks: end.tasks - start.tasks,
            exec_ns: end.exec_ns - start.exec_ns,
            overhead_ns: end.overhead_ns - start.overhead_ns,
            stolen: end.stolen - start.stolen,
            idle_ns: end.idle_ns - start.idle_ns,
            local_frees: end.local_frees - start.local_frees,
            remote_frees: end.remote_frees - start.remote_frees,
            fallback: end.fallback - start.fallback,
            wait_ns_sum: wait_ns * (end.tasks - start.tasks),
        }
    }
}

/// Counter deltas over one or more windows.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// `/threads/count/cumulative` delta.
    pub tasks: f64,
    /// `/threads/time/cumulative` delta, ns.
    pub exec_ns: f64,
    /// `/threads/time/cumulative-overhead` delta, ns.
    pub overhead_ns: f64,
    /// `/threads/count/stolen` delta.
    pub stolen: f64,
    /// Idle time reconstructed from `/threads/idle-rate`, ns.
    pub idle_ns: f64,
    /// `/runtime/slab/local-frees` delta.
    pub local_frees: f64,
    /// `/runtime/slab/remote-frees` delta.
    pub remote_frees: f64,
    /// `/runtime/slab/fallback-allocs` delta.
    pub fallback: f64,
    /// Σ queue wait over the window's tasks, ns.
    pub wait_ns_sum: f64,
}

impl Window {
    /// Add another window's deltas.
    pub fn add(&mut self, o: &Window) {
        self.tasks += o.tasks;
        self.exec_ns += o.exec_ns;
        self.overhead_ns += o.overhead_ns;
        self.stolen += o.stolen;
        self.idle_ns += o.idle_ns;
        self.local_frees += o.local_frees;
        self.remote_frees += o.remote_frees;
        self.fallback += o.fallback;
        self.wait_ns_sum += o.wait_ns_sum;
    }

    fn per_task(&self, v: f64) -> f64 {
        if self.tasks > 0.0 {
            v / self.tasks
        } else {
            0.0
        }
    }

    /// Scheduling overhead per task, ns.
    pub fn overhead_per_task(&self) -> f64 {
        self.per_task(self.overhead_ns)
    }

    /// Queue wait per task, ns.
    pub fn wait_per_task(&self) -> f64 {
        self.per_task(self.wait_ns_sum)
    }

    /// Steals per thousand tasks.
    pub fn steals_per_ktask(&self) -> f64 {
        self.per_task(self.stolen * 1_000.0)
    }

    /// Idle share of worker time.
    pub fn idle_rate(&self) -> f64 {
        let total = self.idle_ns + self.exec_ns + self.overhead_ns;
        if total > 0.0 {
            self.idle_ns / total
        } else {
            0.0
        }
    }

    /// Share of slab frees that came back through the remote stack.
    pub fn remote_free_frac(&self) -> f64 {
        let frees = self.local_frees + self.remote_frees;
        if frees > 0.0 {
            self.remote_frees / frees
        } else {
            0.0
        }
    }
}
