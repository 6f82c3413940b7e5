//! Scrape-path stress probe: a large live counter population exported
//! through `rpx-serve`'s sharded scrape engine while the runtime executes
//! tasks, reporting the serve pipeline's self-measured cost.
//!
//! Where `overhead_probe` measures the *spawn* path with the runtime's own
//! counters, this probe measures the *export* path the same way: it reads
//! `/counters/serve/{scrape-count,scrape-time,bytes,dropped}` from the run
//! that produced them and prints the scrape overhead as a percentage of
//! cumulative task execution time — the paper's ≤10 % instrumentation
//! envelope, at wire scale.
//!
//! ```sh
//! cargo run --release -p rpx-bench --bin scrape_storm                  # 10k instances
//! cargo run --release -p rpx-bench --bin scrape_storm -- 50000 4      # 50k, 4 workers
//! cargo run --release -p rpx-bench --bin scrape_storm -- 10000 2 --interval-ms 250
//! ```

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rpx_counters::counter::ValueFn;
use rpx_counters::registry::{Scope, Source};
use rpx_runtime::{Runtime, RuntimeConfig, RuntimeHandle};
use rpx_serve::server::{ServeConfig, Server};

fn fib(h: &RuntimeHandle, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let h2 = h.clone();
    let a = h.spawn(move || fib(&h2, n - 1));
    let b = fib(h, n - 2);
    a.get() + b
}

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut interval_ms: u64 = 1000;
    let mut duration_ms: u64 = 3000;
    let mut shards: usize = 8;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--interval-ms" => interval_ms = it.next().and_then(|v| v.parse().ok()).unwrap_or(1000),
            "--duration-ms" => duration_ms = it.next().and_then(|v| v.parse().ok()).unwrap_or(3000),
            "--shards" => shards = it.next().and_then(|v| v.parse().ok()).unwrap_or(8),
            _ => positional.push(arg),
        }
    }
    let instances: usize = positional
        .first()
        .and_then(|a| a.parse().ok())
        .unwrap_or(10_000);
    let workers: usize = positional.get(1).and_then(|a| a.parse().ok()).unwrap_or(2);

    let rt = Runtime::new(RuntimeConfig::with_workers(workers));
    let registry = rt.registry();

    // The storm population: one counter type, `instances` live instances,
    // all reading a shared cell — the per-object instrumentation shape.
    let cell = Arc::new(AtomicI64::new(0));
    let c2 = cell.clone();
    let read: ValueFn = Arc::new(move || c2.load(Ordering::Relaxed));
    registry.register_scoped(
        "/app/cell",
        "per-object probe",
        "1",
        Scope::Workers {
            locality: 0,
            workers: instances,
        },
        Source::Monotonic(Arc::new(move |_| read.clone())),
    );

    let server = Server::start(
        &registry,
        ServeConfig {
            interval: Duration::from_millis(interval_ms),
            history: 8,
            shards,
            specs: vec![
                "/app{locality#0/worker-thread#*}/cell".into(),
                "/threads{locality#0/total}/time/cumulative".into(),
                "/threads{locality#0/total}/count/cumulative".into(),
            ],
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let exported = server.engine().entries().len();

    let h = rt.handle();
    let t0 = Instant::now();
    let mut rounds = 0u64;
    while t0.elapsed() < Duration::from_millis(duration_ms) {
        let _ = fib(&h, 18);
        cell.fetch_add(1, Ordering::Relaxed);
        rounds += 1;
    }
    rt.wait_idle();
    server.flush_now();
    let wall = t0.elapsed();

    let read = |name: &str| {
        registry
            .evaluate(name, false)
            .map(|v| v.value)
            .unwrap_or_default()
    };
    let scrape_count = read("/counters/serve/scrape-count");
    let scrape_ns = read("/counters/serve/scrape-time");
    let bytes = read("/counters/serve/bytes");
    let dropped = read("/counters/serve/dropped");
    let exec_ns = read("/threads{locality#0/total}/time/cumulative");
    let tasks = read("/threads{locality#0/total}/count/cumulative");
    let overhead_pct = if exec_ns > 0 {
        scrape_ns as f64 * 100.0 / exec_ns as f64
    } else {
        0.0
    };
    let ns_per_instance = if scrape_count > 0 && exported > 0 {
        scrape_ns as f64 / (scrape_count as f64 * exported as f64)
    } else {
        0.0
    };

    println!("scrape_storm: {exported} instances, {workers} workers, {interval_ms} ms interval");
    println!(
        "wall-clock                  {:>14.3} ms  ({rounds} fib(18) rounds)",
        wall.as_secs_f64() * 1e3
    );
    println!("/threads/count/cumulative   {tasks:>14}");
    println!("/threads/time/cumulative    {exec_ns:>14} ns");
    println!("/counters/serve/scrape-count{scrape_count:>14}");
    println!("/counters/serve/scrape-time {scrape_ns:>14} ns");
    println!("/counters/serve/bytes       {bytes:>14}");
    println!("/counters/serve/dropped     {dropped:>14}");
    println!("per-instance scrape cost    {ns_per_instance:>14.1} ns");
    println!("serve-overhead              {overhead_pct:>14.3} %");

    server.shutdown();
    rt.shutdown();
}
