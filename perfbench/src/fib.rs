//! Inncabs fib through a benchmark-side `Spawner` that times spawn, get and
//! the task body around `RpxSpawner`.

use rpx_inncabs::fib::{self, FibInput};
use rpx_inncabs::spawner::{BenchFuture, RpxSpawner, Spawner};
use rpx_runtime::TaskFuture;

use crate::trace::{self, Kind};

/// The input every fib workload runs: n = 21, both branches spawned.
pub fn input() -> FibInput {
    FibInput::paper()
}

/// Tasks one call spawns: 2·(F(n+1) − 1).
pub fn tasks_per_call(input: FibInput) -> u64 {
    2 * (fib::run_serial(FibInput { n: input.n + 1 }) - 1)
}

/// Spawns one call makes from the calling thread (the two root branches).
pub const EXTERNAL_SPAWNS: u64 = 2;

/// `RpxSpawner` with spans around each spawn, get and task body.
#[derive(Clone)]
pub struct TracedSpawner {
    inner: RpxSpawner,
}

impl TracedSpawner {
    /// Wrap a spawner.
    pub fn new(inner: RpxSpawner) -> Self {
        TracedSpawner { inner }
    }
}

/// A `TaskFuture` whose `get` is recorded as a span.
pub struct TracedFuture<T>(TaskFuture<T>);

impl<T: Send + 'static> BenchFuture<T> for TracedFuture<T> {
    fn get(self) -> T {
        trace::span(Kind::Get, || self.0.get())
    }
}

impl Spawner for TracedSpawner {
    type Fut<T: Send + 'static> = TracedFuture<T>;

    fn spawn<T, F>(&self, f: F) -> Self::Fut<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let body = move || trace::span(Kind::Body, f);
        TracedFuture(trace::span(Kind::Spawn, || self.inner.spawn(body)))
    }

    fn name(&self) -> &'static str {
        "hpx-traced"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_input_spawns_the_documented_task_count() {
        assert_eq!(tasks_per_call(input()), 35_420);
    }
}
