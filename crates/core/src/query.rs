//! Handle-cached counter queries.
//!
//! A [`ResolvedQuery`] resolves a set of counter specs (wildcards allowed)
//! into concrete `Arc<dyn Counter>` handles *once*, stamps the result with
//! the registry's topology [generation](CounterRegistry::generation), and
//! re-resolves only when that generation moves — not on every use. This is
//! the query-side twin of the registry's active-set snapshot: consumers
//! like the [`Sampler`](crate::sampler::Sampler) evaluate cached handles
//! with no registry lock held and no per-tick name resolution, yet still
//! observe topology changes (a respawned worker, a late-registered type)
//! within one generation.

use std::sync::Arc;

use crate::error::CounterError;
use crate::name::CounterName;
use crate::registry::{CounterHandle, CounterRegistry, OnFailure};
use crate::value::CounterValue;

/// A set of counter specs resolved against a registry, cached per topology
/// generation.
pub struct ResolvedQuery {
    registry: Arc<CounterRegistry>,
    specs: Vec<CounterName>,
    generation: u64,
    handles: Vec<CounterHandle>,
}

impl ResolvedQuery {
    /// Parse and resolve `specs` eagerly. Unknown types, unparseable names
    /// and wildcards matching nothing are errors *now*; afterwards the
    /// query is live and failures during re-expansion merely drop the
    /// affected entries until the topology provides them again.
    pub fn resolve(
        registry: &Arc<CounterRegistry>,
        specs: &[String],
    ) -> Result<Self, CounterError> {
        let mut parsed = Vec::with_capacity(specs.len());
        for spec in specs {
            parsed.push(spec.parse::<CounterName>()?);
        }
        let mut query = ResolvedQuery {
            registry: registry.clone(),
            specs: parsed,
            generation: 0,
            handles: Vec::new(),
        };
        // Eager validation: surface resolution errors to the caller once.
        query.generation = registry.generation();
        query.handles = query.expand(true)?;
        Ok(query)
    }

    /// Re-resolve if the registry topology moved since the handles were
    /// cached. Returns `true` when the set of resolved names changed (not
    /// merely the generation stamp) so consumers can re-key per-counter
    /// state or re-emit schema headers.
    pub fn refresh(&mut self) -> bool {
        let generation = self.registry.generation();
        if generation == self.generation {
            return false;
        }
        // Stamp first: a concurrent bump re-triggers refresh next time.
        self.generation = generation;
        let fresh = match self.expand(false) {
            Ok(h) => h,
            Err(_) => return false,
        };
        let changed = fresh.len() != self.handles.len()
            || fresh
                .iter()
                .zip(&self.handles)
                .any(|(a, b)| a.canonical != b.canonical);
        self.handles = fresh;
        changed
    }

    fn expand(&self, strict: bool) -> Result<Vec<CounterHandle>, CounterError> {
        let on_failure = if strict {
            OnFailure::Fail
        } else {
            OnFailure::Skip
        };
        let mut out = Vec::new();
        for spec in &self.specs {
            match self.registry.resolve(spec, on_failure) {
                Ok(handles) => out.extend(handles),
                Err(e) if strict => return Err(e),
                Err(_) => {}
            }
        }
        Ok(out)
    }

    /// The resolved handles, in spec order then expansion order.
    pub fn handles(&self) -> &[CounterHandle] {
        &self.handles
    }

    /// Canonical names of the resolved counters, in handle order.
    pub fn names(&self) -> Vec<String> {
        self.handles.iter().map(|h| h.canonical.clone()).collect()
    }

    /// The topology generation the handles were resolved against.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The registry this query resolves against.
    pub fn registry(&self) -> &Arc<CounterRegistry> {
        &self.registry
    }

    /// Evaluate every handle with no registry lock held and fold the
    /// batch's wall time into the registry's overhead counters. Intended
    /// for one-shot consumers; the sampler keeps per-counter resilience
    /// state and drives the handles itself.
    pub fn evaluate(&self, reset: bool) -> Vec<(String, CounterValue)> {
        let clock = self.registry.clock();
        let t0 = clock.now_ns();
        let out: Vec<(String, CounterValue)> = self
            .handles
            .iter()
            .map(|h| (h.canonical.clone(), h.counter.get_value(reset)))
            .collect();
        self.registry
            .record_query_overhead(clock.now_ns().saturating_sub(t0), 1);
        out
    }
}

impl std::fmt::Debug for ResolvedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolvedQuery")
            .field("specs", &self.specs.len())
            .field("handles", &self.handles.len())
            .field("generation", &self.generation)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::CounterInstance;
    use crate::value::{CounterInfo, CounterKind};
    use std::sync::atomic::{AtomicI64, Ordering};

    fn register_workers(reg: &Arc<CounterRegistry>, count: Arc<AtomicI64>) {
        let info = CounterInfo::new("/threads/count", CounterKind::Raw, "h", "1");
        let clock = reg.clock();
        reg.register_type(
            info,
            Arc::new(move |name, _| {
                let mut i = CounterInfo::new("/threads/count", CounterKind::Raw, "h", "1");
                i.name = name.canonical();
                Ok(Arc::new(crate::counter::RawCounter::new(
                    i,
                    clock.clone(),
                    Arc::new(|| 1),
                )) as Arc<dyn crate::counter::Counter>)
            }),
            Some(Arc::new(move |f: &mut dyn FnMut(CounterName)| {
                for w in 0..count.load(Ordering::Relaxed) {
                    f(CounterName::new("threads", "count")
                        .with_instance(CounterInstance::worker(0, w as u32)));
                }
            })),
        );
    }

    #[test]
    fn resolve_is_eager_and_cached() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/v", "h", "1", Arc::new(|| 7));
        let q = ResolvedQuery::resolve(&reg, &["/test/v".into()]).unwrap();
        assert_eq!(q.names(), vec!["/test/v".to_string()]);
        assert!(ResolvedQuery::resolve(&reg, &["/none/x".into()]).is_err());
    }

    #[test]
    fn refresh_is_a_noop_within_a_generation() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/v", "h", "1", Arc::new(|| 7));
        let mut q = ResolvedQuery::resolve(&reg, &["/test/v".into()]).unwrap();
        let g = q.generation();
        assert!(!q.refresh());
        assert_eq!(q.generation(), g);
    }

    #[test]
    fn refresh_tracks_topology_growth() {
        let reg = CounterRegistry::new();
        let workers = Arc::new(AtomicI64::new(2));
        register_workers(&reg, workers.clone());
        let mut q =
            ResolvedQuery::resolve(&reg, &["/threads{locality#0/worker-thread#*}/count".into()])
                .unwrap();
        assert_eq!(q.handles().len(), 2);

        workers.store(4, Ordering::Relaxed);
        reg.bump_generation();
        assert!(q.refresh(), "grown topology must change the name set");
        assert_eq!(q.handles().len(), 4);

        // A bump without a topology change refreshes but reports no change.
        reg.bump_generation();
        assert!(!q.refresh());
    }

    #[test]
    fn evaluate_records_overhead() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/v", "h", "1", Arc::new(|| 7));
        let q = ResolvedQuery::resolve(&reg, &["/test/v".into()]).unwrap();
        for _ in 0..32 {
            let vals = q.evaluate(false);
            assert_eq!(vals[0].1.value, 7);
        }
        let batches = reg
            .evaluate("/counters{locality#0/total}/overhead/count", false)
            .unwrap();
        assert!(batches.value >= 32);
    }
}
