//! The sharded scrape front-end: generation-cached counter handles,
//! per-counter history rings, and exact drop accounting.
//!
//! ## Scrape-vs-update memory ordering
//!
//! A scrape never takes a registry lock. Each shard stores its export
//! entries as an `Arc<Vec<Arc<ExportEntry>>>` behind a `parking_lot`
//! `RwLock` that is held only long enough to clone the outer `Arc`; the
//! actual evaluation walks the cloned list with no lock at all. Counter
//! updates on the hot path are plain relaxed atomic increments inside the
//! runtime; a scrape reads them through `Counter::get_value`, which uses
//! acquire loads where a counter maintains multi-word state. The scrape
//! therefore observes each counter atomically but the *batch* is not a
//! cross-counter snapshot — the same contract the in-process sampler and
//! HPX itself provide. Topology changes are detected by comparing the
//! registry's generation (acquire load) against the engine's stamp; the
//! swap of a shard's entry list is an `Arc` store under the write lock, so
//! a scraper either sees the whole old list or the whole new one.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use rpx_counters::counter::Counter;
use rpx_counters::value::CounterInfo;
use rpx_counters::{CounterError, CounterRegistry, ResolvedQuery};

/// One scraped value, stamped with the engine-wide scrape sequence so a
/// subscriber that receives both a backfill and the live stream can
/// deduplicate exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Engine-wide scrape sequence number (1-based; every counter sampled
    /// in the same scrape shares it).
    pub seq: u64,
    /// Registry-clock timestamp (ns since epoch) of the scrape.
    pub timestamp_ns: u64,
    /// Scaled counter value ([`rpx_counters::CounterValue::scaled`]).
    pub value: f64,
    /// Whether the evaluation produced a usable value.
    pub ok: bool,
}

/// Fixed-capacity ring of the most recent samples of one exported
/// counter, for late binary-stream subscribers to backfill from.
///
/// Ring-buffer drop rule: an eviction forced by a full ring is counted —
/// in this ring and in the engine-wide total behind
/// `/counters/serve/dropped` — never silent.
pub struct HistoryRing {
    cap: usize,
    buf: Mutex<VecDeque<Sample>>,
    dropped: AtomicU64,
    dropped_total: Arc<AtomicU64>,
}

impl HistoryRing {
    fn new(cap: usize, dropped_total: Arc<AtomicU64>) -> Self {
        HistoryRing {
            cap: cap.max(1),
            buf: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
            dropped_total,
        }
    }

    fn push(&self, s: Sample) {
        let mut buf = self.buf.lock();
        while buf.len() >= self.cap {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
            self.dropped_total.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(s);
    }

    /// The most recent sample, if any scrape happened yet.
    pub fn latest(&self) -> Option<Sample> {
        self.buf.lock().back().copied()
    }

    /// The most recent `n` samples, oldest first.
    pub fn tail(&self, n: usize) -> Vec<Sample> {
        let buf = self.buf.lock();
        buf.iter()
            .skip(buf.len().saturating_sub(n))
            .copied()
            .collect()
    }

    /// Samples evicted from this ring so far (exact).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// One exported counter: stable identity (`id`, `canonical`), cached
/// metadata, the live handle, and its history ring. The entry — and with
/// it the ring and the binary-stream dictionary id — survives topology
/// refreshes as long as the canonical name stays resolvable; only the
/// handle inside is swapped.
pub struct ExportEntry {
    /// Stable dictionary id for the binary stream.
    pub id: u32,
    /// Canonical counter name (`/object{instance}/counter`).
    pub canonical: String,
    /// Counter metadata at resolution time (kind, help, unit).
    pub info: CounterInfo,
    counter: RwLock<Arc<dyn Counter>>,
    /// Recent samples for subscriber backfill.
    pub ring: HistoryRing,
}

/// Self-measurement of the serve layer, exported as
/// `/counters/serve/{scrape-count,scrape-time,bytes,dropped}`.
#[derive(Default)]
pub struct ServeStats {
    /// Completed scrapes (text endpoint + publisher ticks).
    pub scrape_count: AtomicU64,
    /// Total ns spent evaluating scrape batches.
    pub scrape_time_ns: AtomicU64,
    /// Response/stream payload bytes written to clients.
    pub bytes: AtomicU64,
    /// History-ring evictions, engine-wide.
    pub history_dropped: Arc<AtomicU64>,
    /// Binary-stream frames dropped because a subscriber could not keep
    /// up (its connection is then closed — a stalled stream must not
    /// stall the publisher).
    pub stream_dropped: AtomicU64,
}

impl ServeStats {
    /// All records lost anywhere in the serve pipeline.
    pub fn dropped(&self) -> u64 {
        self.history_dropped.load(Ordering::Relaxed) + self.stream_dropped.load(Ordering::Relaxed)
    }
}

struct Shard {
    entries: RwLock<Arc<Vec<Arc<ExportEntry>>>>,
}

/// Sharded, generation-cached scrape engine over one registry.
pub struct ScrapeEngine {
    registry: Arc<CounterRegistry>,
    query: Mutex<ResolvedQuery>,
    shards: Vec<Shard>,
    /// Topology generation the shard lists were built against.
    generation: AtomicU64,
    next_id: AtomicU64,
    seq: AtomicU64,
    history_cap: usize,
    stats: Arc<ServeStats>,
}

impl ScrapeEngine {
    /// Resolve `specs` (wildcards allowed; unknown names are an error
    /// *now*) and build the shard lists. Registers the serve
    /// self-measurement counters on `registry`.
    pub fn new(
        registry: &Arc<CounterRegistry>,
        specs: &[String],
        shards: usize,
        history_cap: usize,
    ) -> Result<Arc<Self>, CounterError> {
        // Register the self-measurement counters before resolving, so the
        // export specs may include the serve layer's own counters.
        let stats = Arc::new(ServeStats::default());
        register_serve_counters(registry, &stats);
        let query = ResolvedQuery::resolve(registry, specs)?;
        let engine = Arc::new(ScrapeEngine {
            registry: registry.clone(),
            generation: AtomicU64::new(query.generation()),
            query: Mutex::new(query),
            shards: (0..shards.max(1))
                .map(|_| Shard {
                    entries: RwLock::new(Arc::new(Vec::new())),
                })
                .collect(),
            next_id: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            history_cap,
            stats,
        });
        engine.rebuild();
        Ok(engine)
    }

    /// The registry this engine scrapes.
    pub fn registry(&self) -> &Arc<CounterRegistry> {
        &self.registry
    }

    /// Self-measurement counters (shared with the server).
    pub fn stats(&self) -> Arc<ServeStats> {
        self.stats.clone()
    }

    /// Re-resolve the specs if the registry topology moved. Entries whose
    /// canonical name survives keep their ring and dictionary id; only
    /// the counter handle is refreshed. Returns `true` if the export set
    /// changed.
    pub fn refresh_if_stale(&self) -> bool {
        if self.registry.generation() == self.generation.load(Ordering::Acquire) {
            return false;
        }
        self.rebuild()
    }

    fn rebuild(&self) -> bool {
        let mut query = self.query.lock();
        // Stamp first (like ResolvedQuery): a concurrent bump re-triggers.
        self.generation
            .store(self.registry.generation(), Ordering::Release);
        query.refresh();
        // The current entries, indexed by their own canonical names (the
        // query lock serializes rebuilds, so these lists are the latest).
        let old: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.entries.read().clone())
            .collect();
        let mut by_name: HashMap<&str, &Arc<ExportEntry>> = old
            .iter()
            .flat_map(|list| list.iter())
            .map(|e| (e.canonical.as_str(), e))
            .collect();
        let mut shard_lists: Vec<Vec<Arc<ExportEntry>>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut created = false;
        for h in query.handles() {
            let entry = match by_name.remove(h.canonical.as_str()) {
                Some(e) => {
                    *e.counter.write() = h.counter.clone();
                    e.clone()
                }
                None => {
                    created = true;
                    Arc::new(ExportEntry {
                        id: self.next_id.fetch_add(1, Ordering::Relaxed) as u32,
                        canonical: h.canonical.clone(),
                        info: h.counter.info(),
                        counter: RwLock::new(h.counter.clone()),
                        ring: HistoryRing::new(
                            self.history_cap,
                            self.stats.history_dropped.clone(),
                        ),
                    })
                }
            };
            shard_lists[shard_of(&h.canonical, self.shards.len())].push(entry);
        }
        // Whatever is left in the old index resolved to nothing anymore.
        let changed = created || !by_name.is_empty();
        for (shard, list) in self.shards.iter().zip(shard_lists) {
            *shard.entries.write() = Arc::new(list);
        }
        changed
    }

    /// Every export entry, shard order (stable between refreshes).
    pub fn entries(&self) -> Vec<Arc<ExportEntry>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let list = shard.entries.read().clone();
            out.extend(list.iter().cloned());
        }
        out
    }

    /// Scrape every exported counter: evaluate the cached handles (no
    /// registry lock), push each sample into its entry's history ring,
    /// and return the batch. The batch's wall time is folded into the
    /// serve stats *and* the registry's own query-overhead counters, so
    /// the paper's overhead envelope includes remote scrapers.
    pub fn collect(&self) -> Vec<(Arc<ExportEntry>, Sample)> {
        self.refresh_if_stale();
        let clock = self.registry.clock();
        let t0 = clock.now_ns();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut out = Vec::new();
        for shard in &self.shards {
            let list = shard.entries.read().clone();
            for entry in list.iter() {
                let counter = entry.counter.read().clone();
                let value = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    counter.get_value(false)
                }));
                let sample = match value {
                    Ok(v) => Sample {
                        seq,
                        timestamp_ns: v.timestamp_ns,
                        value: v.scaled(),
                        ok: v.status.is_ok(),
                    },
                    Err(_) => Sample {
                        seq,
                        timestamp_ns: t0,
                        value: 0.0,
                        ok: false,
                    },
                };
                entry.ring.push(sample);
                out.push((entry.clone(), sample));
            }
        }
        let dt = clock.now_ns().saturating_sub(t0);
        self.stats.scrape_count.fetch_add(1, Ordering::Relaxed);
        self.stats.scrape_time_ns.fetch_add(dt, Ordering::Relaxed);
        self.registry.record_query_overhead(dt, 1);
        out
    }
}

fn shard_of(canonical: &str, shards: usize) -> usize {
    // FNV-1a over the canonical name: stable across refreshes so an
    // entry stays on its shard.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canonical.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    (h % shards as u64) as usize
}

type StatReader = Arc<dyn Fn(&ServeStats) -> u64 + Send + Sync>;

fn register_serve_counters(registry: &Arc<CounterRegistry>, stats: &Arc<ServeStats>) {
    let specs: [(&str, &str, &str, StatReader); 4] = [
        (
            "/counters/serve/scrape-count",
            "completed telemetry scrapes (text endpoint and publisher ticks)",
            "1",
            Arc::new(|s| s.scrape_count.load(Ordering::Relaxed)),
        ),
        (
            "/counters/serve/scrape-time",
            "total time spent evaluating telemetry scrape batches",
            "ns",
            Arc::new(|s| s.scrape_time_ns.load(Ordering::Relaxed)),
        ),
        (
            "/counters/serve/bytes",
            "telemetry payload bytes written to clients",
            "bytes",
            Arc::new(|s| s.bytes.load(Ordering::Relaxed)),
        ),
        (
            "/counters/serve/dropped",
            "telemetry records lost (history-ring evictions + stream frames \
             dropped on slow subscribers)",
            "1",
            Arc::new(|s| s.dropped()),
        ),
    ];
    for (name, help, unit, read) in specs {
        // A fresh engine must not report a predecessor's totals: replace
        // the type entry *and* the cached instance.
        registry.unregister_type(name);
        let stats = stats.clone();
        registry.register_monotonic(name, help, unit, Arc::new(move || read(&stats) as i64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;

    fn engine_with(
        specs: &[&str],
        history: usize,
    ) -> (Arc<CounterRegistry>, Arc<ScrapeEngine>, Arc<AtomicI64>) {
        let reg = CounterRegistry::new();
        let v = Arc::new(AtomicI64::new(0));
        let v2 = v.clone();
        reg.register_monotonic(
            "/app/requests",
            "h",
            "1",
            Arc::new(move || v2.load(Ordering::Relaxed)),
        );
        let specs: Vec<String> = specs.iter().map(|s| s.to_string()).collect();
        let engine = ScrapeEngine::new(&reg, &specs, 4, history).unwrap();
        (reg, engine, v)
    }

    #[test]
    fn collect_samples_and_feeds_history() {
        let (_reg, engine, v) = engine_with(&["/app/requests"], 8);
        v.store(3, Ordering::Relaxed);
        let batch = engine.collect();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].0.canonical, "/app/requests");
        assert_eq!(batch[0].1.value, 3.0);
        assert!(batch[0].1.ok);
        v.store(9, Ordering::Relaxed);
        engine.collect();
        let ring = &engine.entries()[0].ring;
        let tail = ring.tail(8);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].value, 3.0);
        assert_eq!(tail[1].value, 9.0);
        // Scrape sequence numbers are engine-wide and increasing.
        assert_eq!(tail[0].seq + 1, tail[1].seq);
    }

    #[test]
    fn history_ring_counts_evictions_exactly() {
        let (_reg, engine, _v) = engine_with(&["/app/requests"], 4);
        for _ in 0..10 {
            engine.collect();
        }
        let entry = &engine.entries()[0];
        assert_eq!(entry.ring.tail(100).len(), 4);
        assert_eq!(entry.ring.dropped(), 6, "10 pushes into 4 slots evict 6");
        assert_eq!(engine.stats().dropped(), 6);
        let exported = engine
            .registry()
            .evaluate("/counters/serve/dropped", false)
            .unwrap();
        assert_eq!(exported.value, 6);
    }

    #[test]
    fn refresh_preserves_entry_identity_across_generations() {
        let (reg, engine, _v) = engine_with(&["/app/requests"], 8);
        engine.collect();
        let before = engine.entries();
        let (id, ring_len) = (before[0].id, before[0].ring.tail(8).len());
        reg.bump_generation();
        engine.collect();
        let after = engine.entries();
        assert_eq!(after[0].id, id, "dictionary id must survive a bump");
        assert_eq!(
            after[0].ring.tail(8).len(),
            ring_len + 1,
            "ring must survive a bump and keep accumulating"
        );
    }

    #[test]
    fn collect_tracks_topology_growth() {
        let (reg, engine, _v) = engine_with(&["/app/requests"], 8);
        assert_eq!(engine.collect().len(), 1);
        reg.register_raw("/app/errors", "h", "1", Arc::new(|| 0));
        // The new type is only exported if a spec matches it; /app/requests
        // does not, so the set is unchanged…
        assert_eq!(engine.collect().len(), 1);
        // …but self-measurement proves the scrapes were accounted.
        assert!(engine.stats().scrape_count.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn unknown_spec_errors_eagerly() {
        let reg = CounterRegistry::new();
        assert!(ScrapeEngine::new(&reg, &["/none/x".into()], 2, 4).is_err());
    }
}
