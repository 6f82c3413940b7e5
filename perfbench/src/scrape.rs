//! The read side: 10,000 app counters exported by `rpx-serve`, a loopback
//! HTTP client, the open-loop scrape schedule, and the check applied to
//! every payload.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rpx_counters::counter::{Counter, RawCounter};
use rpx_counters::name::{CounterInstance, CounterName, InstanceIndex};
use rpx_counters::value::{CounterInfo, CounterKind};
use rpx_counters::{CounterError, CounterRegistry};
use rpx_serve::{text, ScrapeEngine, ServeConfig, Server};

/// Live counter instances exported on `scrape-10k`.
pub const CELLS: usize = 10_000;
const CELL_SPEC: &str = "/app{locality#0/worker-thread#*}/cell";
const CELL_FAMILY: &str = "rpx_app_cell";

/// `CELLS` counter instances, each reading its seeded base plus a shared
/// epoch that the workload advances once per completed iteration.
pub struct Cells {
    base: Vec<i64>,
    epoch: AtomicI64,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn cell_info() -> CounterInfo {
    CounterInfo::new(
        "/app/cell",
        CounterKind::MonotonicallyIncreasing,
        "per-object probe",
        "1",
    )
}

impl Cells {
    /// Register `/app{locality#0/worker-thread#*}/cell` on `registry`.
    pub fn register(registry: &Arc<CounterRegistry>, seed: u64) -> Arc<Cells> {
        let cells = Arc::new(Cells {
            base: (0..CELLS as u64)
                .map(|i| (splitmix(seed ^ splitmix(i)) % 1_000_000) as i64)
                .collect(),
            epoch: AtomicI64::new(0),
        });
        let clock = registry.clock();
        let c = cells.clone();
        registry.register_type(
            cell_info(),
            Arc::new(move |name: &CounterName, _| {
                let index = match name.instance.as_ref().and_then(|i| i.children.first()) {
                    Some(part) => match part.index {
                        Some(InstanceIndex::At(i)) if (i as usize) < CELLS => i as usize,
                        _ => return Err(CounterError::UnknownInstance(name.canonical())),
                    },
                    None => return Err(CounterError::UnknownInstance(name.canonical())),
                };
                let mut info = cell_info();
                info.name = name.canonical();
                let c = c.clone();
                let read = Arc::new(move || c.base[index] + c.epoch.load(Ordering::Relaxed));
                Ok(Arc::new(RawCounter::new(info, clock.clone(), read)) as Arc<dyn Counter>)
            }),
            Some(Arc::new(|f: &mut dyn FnMut(CounterName)| {
                for i in 0..CELLS as u32 {
                    f(
                        CounterName::new("app", "cell")
                            .with_instance(CounterInstance::worker(0, i)),
                    );
                }
            })),
        );
        cells
    }

    /// Advance the epoch every cell reads.
    pub fn bump(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    fn epoch(&self) -> i64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Whether `body` holds exactly one sample per cell, each reading its
    /// base plus an epoch within `[lo, hi]`, and no other sample.
    fn check(&self, body: &str, lo: i64, hi: i64) -> bool {
        let mut seen = vec![false; CELLS];
        let mut samples = 0;
        for line in body.lines().filter(|l| !l.starts_with('#')) {
            samples += 1;
            let Some(rest) = line.strip_prefix(CELL_FAMILY) else {
                return false;
            };
            let parsed = rest
                .strip_prefix("{instance=\"locality#0/worker-thread#")
                .and_then(|r| r.split_once("\"} "))
                .and_then(|(i, v)| Some((i.parse::<usize>().ok()?, v.parse::<i64>().ok()?)));
            let Some((i, v)) = parsed else {
                return false;
            };
            if i >= CELLS || seen[i] || !(lo..=hi).contains(&(v - self.base[i])) {
                return false;
            }
            seen[i] = true;
        }
        samples == CELLS
    }
}

/// How one scrape was made.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Probe {
    /// `GET /metrics` over loopback: round trip from firing, and body size.
    Http {
        /// Fire to last byte, ns.
        rtt_ns: f64,
        /// Response body bytes.
        bytes: usize,
    },
    /// `ScrapeEngine::collect` and `text::render` called directly.
    Direct {
        /// `collect` duration, ns.
        collect_ns: f64,
        /// `render` duration, ns.
        render_ns: f64,
    },
}

/// One scrape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tick {
    /// From when the scrape was due to its last byte, ns.
    pub latency_ns: f64,
    /// How late the generator fired it, ns.
    pub lag_ns: f64,
    /// Whether the payload passed its check.
    pub ok: bool,
    /// Whether it ended after the next scrape was due.
    pub late: bool,
    /// How it was made.
    pub probe: Probe,
}

/// A running exporter of the `CELLS` counters.
pub struct Exporter {
    server: Server,
    engine: Arc<ScrapeEngine>,
    cells: Arc<Cells>,
    /// Scrapes made so far; alternating scrapes use its parity.
    scrapes: AtomicU64,
}

impl Exporter {
    /// Export `cells` with the default `ServeConfig`.
    pub fn cells(registry: &Arc<CounterRegistry>, cells: Arc<Cells>) -> Self {
        let server = Server::start(
            registry,
            ServeConfig {
                specs: vec![CELL_SPEC.into()],
                ..ServeConfig::default()
            },
        )
        .expect("exporter starts on loopback");
        Exporter {
            engine: server.engine(),
            server,
            cells,
            scrapes: AtomicU64::new(0),
        }
    }

    /// Counter instances exported.
    pub fn instances(&self) -> usize {
        self.engine.entries().len()
    }

    /// Stop the listener and publisher threads.
    pub fn shutdown(self) {
        self.server.shutdown();
    }

    /// Make one scrape that was due at `due`.
    pub fn scrape(&self, due: Instant, direct: bool) -> Tick {
        let fired = Instant::now();
        let lo = self.cells.epoch();
        let (body, probe) = if direct {
            let batch = self.engine.collect();
            let collected = Instant::now();
            let body = text::render(&batch);
            let probe = Probe::Direct {
                collect_ns: (collected - fired).as_nanos() as f64,
                render_ns: collected.elapsed().as_nanos() as f64,
            };
            (Some(body), probe)
        } else {
            let body = http_get(self.server.addr()).ok();
            let probe = Probe::Http {
                rtt_ns: fired.elapsed().as_nanos() as f64,
                bytes: body.as_ref().map_or(0, String::len),
            };
            (body, probe)
        };
        let done = Instant::now();
        let hi = self.cells.epoch();
        Tick {
            latency_ns: (done - due).as_nanos() as f64,
            lag_ns: (fired - due).as_nanos() as f64,
            ok: body.is_some_and(|b| self.cells.check(&b, lo, hi)),
            late: false,
            probe,
        }
    }

    /// Open loop: scrape every `period` until `stop` is set. A scrape
    /// whose last byte arrives after the next one is due fails, and a
    /// scrape that falls behind fires as soon as the previous one (and its
    /// check) ends. With `alternate`, every other scrape of this exporter
    /// calls the engine directly instead of going over HTTP.
    pub fn open_loop(&self, period: Duration, stop: &AtomicBool, alternate: bool) -> Vec<Tick> {
        let start = Instant::now();
        let mut ticks = Vec::new();
        for k in 0u32.. {
            let due = start + period * k;
            // Sleep in short slices so a stop is seen promptly.
            while let Some(wait) = due.checked_duration_since(Instant::now()) {
                if stop.load(Ordering::Acquire) {
                    return ticks;
                }
                std::thread::sleep(wait.min(Duration::from_millis(5)));
            }
            if stop.load(Ordering::Acquire) {
                break;
            }
            let direct = alternate
                && self
                    .scrapes
                    .fetch_add(1, Ordering::Relaxed)
                    .is_multiple_of(2);
            let mut tick = self.scrape(due, direct);
            tick.late = tick.latency_ns > period.as_nanos() as f64;
            ticks.push(tick);
        }
        ticks
    }
}

/// `GET /metrics`: the body of a `200 OK` whose length matches its
/// `Content-Length`.
fn http_get(addr: SocketAddr) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    let raw = String::from_utf8(raw).map_err(|e| e.to_string())?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or("no header end")?;
    if !head.starts_with("HTTP/1.1 200 ") {
        return Err(format!("status {}", head.lines().next().unwrap_or("")));
    }
    let length = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse::<usize>().ok())
        .ok_or("no Content-Length")?;
    if length != body.len() {
        return Err(format!("body {} of {length} bytes", body.len()));
    }
    Ok(body.to_string())
}
