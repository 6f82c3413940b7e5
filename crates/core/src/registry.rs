//! The counter registry: counter *types* are registered with a factory and
//! a discovery function; counter *instances* are created (and cached) on
//! demand when a name is resolved; an *active set* supports the paper's
//! `evaluate_active_counters` / `reset_active_counters` protocol.
//!
//! # Snapshot-based query engine
//!
//! The active set is published as an immutable [`ActiveSnapshot`]: readers
//! (`evaluate_active_counters`, the [`Sampler`](crate::sampler::Sampler)
//! tick, `active_names`) clone one `Arc` and then call
//! [`Counter::get_value`] with **no registry lock held**, so a counter may
//! freely re-enter the registry — resolve children, list the active set,
//! evaluate other counters — without self-deadlocking, and concurrent
//! `add_active`/`remove_active` calls never serialize against a running
//! evaluation. Writers rebuild and atomically publish a new snapshot.
//!
//! Wildcard queries are *live*: the snapshot stores the originating queries
//! plus a registry **generation** stamp. Any topology change (a counter
//! type registered or unregistered late, a worker respawned by the runtime
//! watchdog — signalled through [`CounterRegistry::bump_generation`]) makes
//! the published snapshot stale, and the next evaluation re-expands the
//! queries against the current instance population. See DESIGN.md §12 for
//! the full protocol and its memory-ordering argument.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use crate::prim::{mutation_armed, AtomicU64, Mutex, Ordering, RwLock};

use crate::counter::{AverageCounter, ElapsedTimeCounter, MonotonicCounter, RawCounter};
use crate::counter::{Clock, Counter, PairFn, ValueCell, ValueFn};
use crate::error::CounterError;
use crate::name::{split_canonical, CounterInstance, CounterName, InstanceIndex};
use crate::value::{CounterInfo, CounterKind, CounterValue};

/// Factory creating a counter instance for a concrete (non-wildcard) name.
/// The registry is passed so derived counters can resolve their children;
/// no registry locks are held during the call.
pub type CounterFactory = Arc<
    dyn Fn(&CounterName, &Arc<CounterRegistry>) -> Result<Arc<dyn Counter>, CounterError>
        + Send
        + Sync,
>;

/// Discovery function enumerating the concrete instances of a counter type.
pub type CounterDiscoverer = Arc<dyn Fn(&mut dyn FnMut(CounterName)) + Send + Sync>;

/// A wildcard-expanded resolution result: concrete names with their live
/// counter instances.
pub type ResolvedCounters = Vec<(CounterName, Arc<dyn Counter>)>;

struct CounterTypeEntry {
    info: CounterInfo,
    factory: CounterFactory,
    discoverer: Option<CounterDiscoverer>,
}

/// One concrete counter produced by [`CounterRegistry::resolve`]: the
/// wildcard-free name, its canonical string (formatted once, at
/// resolution), and the live counter.
pub struct CounterHandle {
    /// The concrete (wildcard-expanded) counter name.
    pub name: CounterName,
    /// `name.canonical()`, cached because consumers key state off it.
    pub canonical: String,
    /// The resolved counter instance.
    pub counter: Arc<dyn Counter>,
}

/// What [`CounterRegistry::resolve`] does with a concrete name whose
/// counter cannot be created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnFailure {
    /// Return the first error: eager validation of a new query.
    Fail,
    /// Leave the name out: live re-expansion of a stored query, which
    /// picks the name up again once the topology provides it.
    Skip,
}

/// An immutable, atomically published view of the resolved active set.
///
/// Evaluation paths clone the `Arc<ActiveSnapshot>` and drop every registry
/// lock before touching a counter; the `generation` stamp records which
/// registry topology the wildcard expansion saw, so readers can detect
/// staleness with one atomic load.
pub struct ActiveSnapshot {
    /// Registry generation the expansion was taken against.
    pub generation: u64,
    /// Resolved entries in query insertion order (deduplicated).
    pub entries: Vec<CounterHandle>,
}

impl ActiveSnapshot {
    fn empty() -> Arc<Self> {
        Arc::new(ActiveSnapshot {
            generation: 0,
            entries: Vec::new(),
        })
    }
}

/// Mutable active-set configuration: the originating queries (wildcards
/// preserved) and concrete names explicitly removed from underneath a
/// wildcard query. Guarded by one mutex that is **never** held across a
/// `Counter::get_value` call; it only serializes snapshot rebuilds.
#[derive(Default)]
struct ActiveConfig {
    queries: Vec<CounterName>,
    excluded: HashSet<String>,
}

/// Central registry of counter types and live counter instances.
///
/// One registry exists per runtime (per "locality"); every subsystem
/// registers its counter types here and every consumer resolves names here.
pub struct CounterRegistry {
    clock: Arc<Clock>,
    types: RwLock<BTreeMap<String, CounterTypeEntry>>,
    instances: RwLock<HashMap<String, Arc<dyn Counter>>>,
    /// Active-set configuration (queries + exclusions); serializes rebuilds.
    active: Mutex<ActiveConfig>,
    /// The published resolved active set. The lock guards only the pointer
    /// swap — readers clone the `Arc` and release immediately.
    snapshot: RwLock<Arc<ActiveSnapshot>>,
    /// Topology generation: bumped on type (un)registration and by the
    /// runtime on worker respawn; a snapshot whose stamp lags this value is
    /// re-expanded on the next evaluation.
    generation: AtomicU64,
    /// Self-measurement: cumulative wall time spent evaluating active /
    /// sampled batches, exposed as `/counters/overhead/time`.
    overhead_time_ns: AtomicU64,
    /// Self-measurement: number of batches evaluated
    /// (`/counters/overhead/count`).
    overhead_batches: AtomicU64,
}

impl CounterRegistry {
    /// An empty registry with a fresh clock. Builtin derived counter types
    /// (`/arithmetics/*`, `/statistics/*`) and the self-measurement
    /// counters (`/counters/overhead/*`) are registered automatically.
    pub fn new() -> Arc<Self> {
        let reg = Arc::new(CounterRegistry {
            clock: Arc::new(Clock::new()),
            types: RwLock::new(BTreeMap::new()),
            instances: RwLock::new(HashMap::new()),
            active: Mutex::new(ActiveConfig::default()),
            snapshot: RwLock::new(ActiveSnapshot::empty()),
            generation: AtomicU64::new(1),
            overhead_time_ns: AtomicU64::new(0),
            overhead_batches: AtomicU64::new(0),
        });
        crate::derived::register_arithmetics(&reg);
        crate::histogram::register_histogram(&reg);
        crate::statistics::register_statistics(&reg);
        register_overhead_counters(&reg);
        reg
    }

    /// The registry's monotonic clock (shared with its counters).
    pub fn clock(&self) -> Arc<Clock> {
        self.clock.clone()
    }

    // ------------------------------------------------------------------
    // Type registration & discovery
    // ------------------------------------------------------------------

    /// Register a counter type. `info.name` must be the type path
    /// (`/object/countername`). Re-registration replaces the entry.
    /// Registration bumps the topology [generation](Self::generation), so
    /// live wildcard queries pick the new type's instances up on their
    /// next evaluation.
    pub fn register_type(
        &self,
        info: CounterInfo,
        factory: CounterFactory,
        discoverer: Option<CounterDiscoverer>,
    ) {
        let key = info.name.clone();
        self.types.write().insert(
            key,
            CounterTypeEntry {
                info,
                factory,
                discoverer,
            },
        );
        self.bump_generation();
    }

    /// Remove a counter type and all cached instances of it. Bumps the
    /// topology [generation](Self::generation).
    pub fn unregister_type(&self, type_path: &str) {
        self.types.write().remove(type_path);
        self.instances
            .write()
            .retain(|name, _| !split_canonical(name).has_type_path(type_path));
        self.bump_generation();
    }

    /// The current topology generation. Snapshots and
    /// [`ResolvedQuery`](crate::query::ResolvedQuery) handles stamped with
    /// an older value re-expand their wildcards before the next use.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Advance the topology generation, invalidating every published
    /// snapshot and cached query resolution. Called internally on type
    /// (un)registration; the runtime calls it when the instance population
    /// behind a discoverer changes (e.g. a worker was respawned by the
    /// watchdog supervisor) so running samplers re-expand `worker-thread#*`
    /// wildcards.
    pub fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Metadata of every registered counter type, sorted by type path.
    pub fn counter_types(&self) -> Vec<CounterInfo> {
        self.types.read().values().map(|e| e.info.clone()).collect()
    }

    /// Metadata for one type path, if registered.
    pub fn type_info(&self, type_path: &str) -> Option<CounterInfo> {
        self.types.read().get(type_path).map(|e| e.info.clone())
    }

    /// Enumerate the concrete instances a type advertises via its
    /// discoverer (empty if the type has no discoverer).
    pub fn discover_instances(&self, type_path: &str) -> Vec<CounterName> {
        let types = self.types.read();
        let mut out = Vec::new();
        if let Some(entry) = types.get(type_path) {
            if let Some(d) = &entry.discoverer {
                d(&mut |n| out.push(n));
            }
        }
        out
    }

    /// Enumerate every discoverable concrete counter name in the registry.
    pub fn discover_all(&self) -> Vec<CounterName> {
        let discoverers: Vec<CounterDiscoverer> = self
            .types
            .read()
            .values()
            .filter_map(|e| e.discoverer.clone())
            .collect();
        let mut out = Vec::new();
        for d in discoverers {
            d(&mut |n| out.push(n));
        }
        out
    }

    // ------------------------------------------------------------------
    // Instance resolution
    // ------------------------------------------------------------------

    /// Expand a possibly-wildcard name into concrete names.
    ///
    /// Non-wildcard names pass through unchanged (as a single-element vec).
    /// Wildcards are matched against the type's discovered instances.
    pub fn expand(&self, name: &CounterName) -> Result<Vec<CounterName>, CounterError> {
        Ok(self
            .expand_keyed(name)?
            .into_iter()
            .map(|(_, n)| n)
            .collect())
    }

    /// [`expand`](Self::expand), each name paired with its canonical
    /// string. Wildcard expansions are sorted by that string (so `#10`
    /// precedes `#2`), which is formatted once per candidate.
    fn expand_keyed(&self, name: &CounterName) -> Result<Vec<(String, CounterName)>, CounterError> {
        if !name.has_wildcard() {
            return Ok(vec![(name.canonical(), name.clone())]);
        }
        let candidates = self.discover_instances(&name.type_path());
        if candidates.is_empty() {
            return Err(CounterError::UnknownInstance(format!(
                "no discoverable instances for wildcard name `{name}`"
            )));
        }
        let mut keyed: Vec<(String, CounterName)> = candidates
            .into_iter()
            .filter(|c| wildcard_matches(name, c))
            .map(|mut c| {
                c.parameters = name.parameters.clone();
                (c.canonical(), c)
            })
            .collect();
        if keyed.is_empty() {
            return Err(CounterError::UnknownInstance(format!(
                "wildcard name `{name}` matched no instances"
            )));
        }
        // Stable: ties keep discovery order.
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(keyed)
    }

    /// Resolve a spec (wildcards allowed) to its concrete names, their
    /// canonical strings and their live counters, creating and caching
    /// instances on first use. This is the one resolution routine: every
    /// name is formatted once, and the type's factory is looked up at most
    /// once per spec. Factories run with no registry lock held, because
    /// derived factories resolve their children through the registry.
    ///
    /// An expansion error (unknown type behind a wildcard, a wildcard
    /// matching nothing) is always returned; `on_failure` decides what a
    /// concrete name whose counter cannot be created does.
    pub fn resolve(
        self: &Arc<Self>,
        spec: &CounterName,
        on_failure: OnFailure,
    ) -> Result<Vec<CounterHandle>, CounterError> {
        self.resolve_kept(spec, on_failure, |_| true)
    }

    /// [`resolve`](Self::resolve), instantiating only the concrete names
    /// whose canonical string `keep` accepts; the rest are never created.
    fn resolve_kept(
        self: &Arc<Self>,
        spec: &CounterName,
        on_failure: OnFailure,
        mut keep: impl FnMut(&str) -> bool,
    ) -> Result<Vec<CounterHandle>, CounterError> {
        let names = self.expand_keyed(spec)?;
        let mut factory = None;
        let mut out = Vec::with_capacity(names.len());
        for (canonical, name) in names {
            if !keep(&canonical) {
                continue;
            }
            match self.instantiate(&name, &canonical, &mut factory) {
                Ok(counter) => out.push(CounterHandle {
                    name,
                    canonical,
                    counter,
                }),
                Err(e) if on_failure == OnFailure::Fail => return Err(e),
                Err(_) => {}
            }
        }
        Ok(out)
    }

    /// The cached counter under `canonical`, or a new one from the type's
    /// factory, which is looked up into `factory` on the first miss.
    fn instantiate(
        self: &Arc<Self>,
        name: &CounterName,
        canonical: &str,
        factory: &mut Option<CounterFactory>,
    ) -> Result<Arc<dyn Counter>, CounterError> {
        if let Some(c) = self.instances.read().get(canonical) {
            return Ok(c.clone());
        }
        let factory = match factory {
            Some(f) => f,
            None => {
                let types = self.types.read();
                let type_path = name.type_path();
                let entry = types
                    .get(&type_path)
                    .ok_or(CounterError::UnknownCounterType(type_path))?;
                factory.insert(entry.factory.clone())
            }
        };
        // No locks held while the factory runs: derived-counter factories
        // recurse into the registry for their children.
        let counter = factory(name, self)?;
        let mut instances = self.instances.write();
        let entry = instances
            .entry(canonical.to_owned())
            .or_insert_with(|| counter);
        Ok(entry.clone())
    }

    /// Resolve a concrete name to a live counter, creating and caching it on
    /// first use. Wildcard names are rejected — use
    /// [`resolve`](Self::resolve) for those.
    pub fn get_counter(
        self: &Arc<Self>,
        name: &CounterName,
    ) -> Result<Arc<dyn Counter>, CounterError> {
        if name.has_wildcard() {
            return Err(CounterError::InvalidName(format!(
                "cannot instantiate wildcard name `{name}`; expand it first"
            )));
        }
        self.instantiate(name, &name.canonical(), &mut None)
    }

    /// Resolve a name string (possibly wildcard) to all matching counters.
    pub fn get_counters(self: &Arc<Self>, name: &str) -> Result<ResolvedCounters, CounterError> {
        let parsed: CounterName = name.parse()?;
        Ok(self
            .resolve(&parsed, OnFailure::Fail)?
            .into_iter()
            .map(|h| (h.name, h.counter))
            .collect())
    }

    /// Evaluate one counter by name (convenience for one-shot queries).
    pub fn evaluate(
        self: &Arc<Self>,
        name: &str,
        reset: bool,
    ) -> Result<CounterValue, CounterError> {
        let parsed: CounterName = name.parse()?;
        Ok(self.get_counter(&parsed)?.get_value(reset))
    }

    /// Number of live (cached) counter instances.
    pub fn instance_count(&self) -> usize {
        self.instances.read().len()
    }

    // ------------------------------------------------------------------
    // Active set (the paper's measurement protocol)
    // ------------------------------------------------------------------

    /// Add counters (wildcards allowed) to the active set and `start` them.
    ///
    /// Resolution errors surface eagerly (an unknown type or a wildcard
    /// matching nothing is an error *now*), but the query itself stays
    /// live afterwards: instances appearing later under the same wildcard
    /// join the set on the evaluation after the next generation bump.
    /// Returns the number of concrete counters the call added.
    pub fn add_active(self: &Arc<Self>, name: &str) -> Result<usize, CounterError> {
        let parsed: CounterName = name.parse()?;
        // Validate eagerly, before mutating the configuration.
        let resolved = self.resolve(&parsed, OnFailure::Fail)?;
        let mut config = self.active.lock();
        let previous: HashSet<String> = self
            .snapshot
            .read()
            .entries
            .iter()
            .map(|e| e.canonical.clone())
            .collect();
        // Re-adding un-excludes: the freshest intent wins.
        for h in &resolved {
            config.excluded.remove(&h.canonical);
        }
        if !config.queries.contains(&parsed) {
            config.queries.push(parsed);
        }
        let snap = self.rebuild_locked(&config);
        Ok(snap
            .entries
            .iter()
            .filter(|e| !previous.contains(&e.canonical))
            .count())
    }

    /// Remove counters from the active set and `stop` them.
    ///
    /// The name is parsed and canonicalized before matching, so any
    /// spelling that parses to the same structured name (`worker-thread#07`
    /// vs `worker-thread#7`, …) removes the counter it added. A name that
    /// matches a stored query (including a wildcard query) removes the
    /// whole query; a concrete name that was expanded *from* a wildcard
    /// query is excluded individually while the query stays live.
    pub fn remove_active(self: &Arc<Self>, name: &str) -> bool {
        // Unparseable input can still name a stored raw query string.
        let canonical = name
            .parse::<CounterName>()
            .map(|p| p.canonical())
            .unwrap_or_else(|_| name.to_owned());
        let mut config = self.active.lock();
        let before = config.queries.len();
        config.queries.retain(|q| q.canonical() != canonical);
        let mut removed = config.queries.len() != before;
        if !removed {
            // Not a stored query — maybe a concrete expansion of one.
            let covered = self
                .snapshot
                .read()
                .entries
                .iter()
                .any(|e| e.canonical == canonical);
            if covered {
                removed = config.excluded.insert(canonical);
            }
        }
        if removed {
            self.rebuild_locked(&config);
        }
        removed
    }

    /// Canonical names currently in the active set, in query insertion
    /// order. Holds no lock while returning — safe to call from inside a
    /// counter's `get_value`.
    pub fn active_names(self: &Arc<Self>) -> Vec<String> {
        self.active_snapshot()
            .entries
            .iter()
            .map(|e| e.canonical.clone())
            .collect()
    }

    /// The current resolved active set, re-expanded first if the registry
    /// topology moved since it was published. The returned snapshot is
    /// immutable; callers iterate it without any registry lock.
    pub fn active_snapshot(self: &Arc<Self>) -> Arc<ActiveSnapshot> {
        let snap = self.snapshot.read().clone();
        if snap.generation == self.generation() {
            return snap;
        }
        let config = self.active.lock();
        self.rebuild_locked(&config)
    }

    /// Re-expand the active queries and publish a fresh snapshot. The
    /// `active` mutex (held by the caller) serializes rebuilds; expansion
    /// and instantiation take only the short-lived `types`/`instances`
    /// locks, never across a counter call. Queries that currently match
    /// nothing stay stored and contribute no entries.
    fn rebuild_locked(self: &Arc<Self>, config: &ActiveConfig) -> Arc<ActiveSnapshot> {
        // Stamp before expanding: a concurrent bump mid-expansion leaves
        // the published snapshot stale, so the next reader re-expands —
        // changes are never lost, at worst re-observed once more.
        let mut generation = self.generation();
        let mut entries = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        for query in &config.queries {
            // Excluded and already-seen names are dropped before their
            // counters are created.
            let keep = |c: &str| !config.excluded.contains(c) && seen.insert(c.to_owned());
            if let Ok(handles) = self.resolve_kept(query, OnFailure::Skip, keep) {
                entries.extend(handles);
            }
        }
        if mutation_armed("registry-stamp-after-expand") {
            // Mutant: stamping *after* expansion lets a concurrent bump
            // land mid-expansion and mark a stale expansion as fresh —
            // the lost-topology-change the model-checked registry spec
            // must catch.
            generation = self.generation();
        }
        let snap = Arc::new(ActiveSnapshot {
            generation,
            entries,
        });
        let previous = {
            let mut w = self.snapshot.write();
            std::mem::replace(&mut *w, snap.clone())
        };
        // Lifecycle diff: start counters entering the set, stop leavers.
        let old: HashSet<&str> = previous
            .entries
            .iter()
            .map(|e| e.canonical.as_str())
            .collect();
        let new: HashSet<&str> = snap.entries.iter().map(|e| e.canonical.as_str()).collect();
        for e in snap
            .entries
            .iter()
            .filter(|e| !old.contains(e.canonical.as_str()))
        {
            e.counter.start();
        }
        for e in previous
            .entries
            .iter()
            .filter(|e| !new.contains(e.canonical.as_str()))
        {
            e.counter.stop();
        }
        snap
    }

    /// Evaluate every active counter (the paper's
    /// `hpx::evaluate_active_counters`). With `reset`, accumulation restarts
    /// atomically with the read.
    ///
    /// No registry lock is held across any `get_value` call: the resolved
    /// set is an immutable snapshot, so counters may re-enter the registry
    /// and concurrent `add_active`/`remove_active` calls never block the
    /// evaluation (they publish a new snapshot for the *next* batch). The
    /// batch's wall time is accumulated into `/counters/overhead/time`.
    pub fn evaluate_active_counters(self: &Arc<Self>, reset: bool) -> Vec<(String, CounterValue)> {
        let t0 = self.clock.now_ns();
        let snap = self.active_snapshot();
        let out: Vec<(String, CounterValue)> = snap
            .entries
            .iter()
            .map(|e| (e.canonical.clone(), e.counter.get_value(reset)))
            .collect();
        self.record_query_overhead(self.clock.now_ns().saturating_sub(t0), 1);
        out
    }

    /// Reset every active counter without reading
    /// (`hpx::reset_active_counters`). Lock-free against evaluations, like
    /// [`evaluate_active_counters`](Self::evaluate_active_counters).
    pub fn reset_active_counters(self: &Arc<Self>) {
        let snap = self.active_snapshot();
        for e in snap.entries.iter() {
            e.counter.reset();
        }
    }

    /// Fold one evaluated batch into the self-measurement counters
    /// (`/counters/overhead/time`, `/counters/overhead/count`). Called by
    /// the active-set evaluation and by the
    /// [`Sampler`](crate::sampler::Sampler) tick.
    pub fn record_query_overhead(&self, elapsed_ns: u64, batches: u64) {
        self.overhead_time_ns
            .fetch_add(elapsed_ns, Ordering::Relaxed);
        self.overhead_batches.fetch_add(batches, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Scoped registration
    // ------------------------------------------------------------------

    /// Register a counter type whose instances are laid out by `scope` and
    /// read through `source`. This is the one place a subsystem's counter
    /// type turns into a factory and a discoverer: the scope decides which
    /// instance names are advertised and accepted, the source fixes the
    /// counter kind and builds the reader of each accepted instance.
    pub fn register_scoped(
        &self,
        type_path: &str,
        help: &str,
        unit: &str,
        scope: Scope,
        source: Source,
    ) {
        let info = CounterInfo::new(type_path, source.kind(), help, unit);
        let discoverer = scope.discoverer(type_path);
        let template = info.clone();
        let clock = self.clock();
        self.register_type(
            info,
            Arc::new(move |name, _reg| {
                let selected = scope.select(name)?;
                let mut info = template.clone();
                info.name = name.canonical();
                let clock = clock.clone();
                let counter: Arc<dyn Counter> = match &source {
                    Source::Raw(read) => Arc::new(RawCounter::new(info, clock, read(selected))),
                    Source::Monotonic(read) => {
                        Arc::new(MonotonicCounter::new(info, clock, read(selected)))
                    }
                    Source::Average(read) => {
                        Arc::new(AverageCounter::new(info, clock, read(selected)))
                    }
                    Source::Elapsed => Arc::new(ElapsedTimeCounter::new(info, clock)),
                };
                Ok(counter)
            }),
            discoverer,
        );
    }

    /// Register a pull-based raw gauge under `type_path`, instantiable with
    /// any (or no) instance name.
    pub fn register_raw(self: &Arc<Self>, type_path: &str, help: &str, unit: &str, read: ValueFn) {
        let source = Source::Raw(fixed(read));
        self.register_scoped(type_path, help, unit, Scope::Any(None), source);
    }

    /// Register a pull-based monotonic counter under `type_path`.
    pub fn register_monotonic(
        self: &Arc<Self>,
        type_path: &str,
        help: &str,
        unit: &str,
        read: ValueFn,
    ) {
        let source = Source::Monotonic(fixed(read));
        self.register_scoped(type_path, help, unit, Scope::Any(None), source);
    }

    /// Register a (sum, count) average counter under `type_path`.
    pub fn register_average(
        self: &Arc<Self>,
        type_path: &str,
        help: &str,
        unit: &str,
        read: PairFn,
    ) {
        let source = Source::Average(fixed(read));
        self.register_scoped(type_path, help, unit, Scope::Any(None), source);
    }

    /// Register an elapsed-time counter under `type_path`.
    pub fn register_elapsed(self: &Arc<Self>, type_path: &str, help: &str) {
        self.register_scoped(type_path, help, "ns", Scope::Any(None), Source::Elapsed);
    }

    /// Register an application-owned settable value; returns the cell the
    /// application writes through. The counter is immediately instantiable
    /// under `type_path`.
    pub fn register_value(
        self: &Arc<Self>,
        type_path: &str,
        help: &str,
        unit: &str,
    ) -> Arc<ValueCell> {
        let info = CounterInfo::new(type_path, CounterKind::Raw, help, unit);
        let cell = Arc::new(ValueCell::new(info.clone(), self.clock()));
        let c2 = cell.clone();
        self.register_type(
            info,
            Arc::new(move |name, _reg| {
                // All instances of an app value share the one cell.
                let _ = name;
                Ok(c2.clone() as Arc<dyn Counter>)
            }),
            Scope::Any(None).discoverer(type_path),
        );
        cell
    }
}

impl std::fmt::Debug for CounterRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CounterRegistry")
            .field("types", &self.types.read().len())
            .field("instances", &self.instances.read().len())
            .field("active", &self.snapshot.read().entries.len())
            .field("generation", &self.generation())
            .finish()
    }
}

/// Register the self-measurement counters:
/// `/counters{locality#0/total}/overhead/time` (cumulative evaluation wall
/// time, ns), `/counters{locality#0/total}/overhead/count` (batches
/// evaluated), and `/counters{locality#0/total}/health/average-underflows`
/// (average-counter sources observed going backwards). Factories hold only
/// a `Weak` back-reference so the registry is not kept alive by its own
/// counters.
fn register_overhead_counters(reg: &Arc<CounterRegistry>) {
    type OverheadRead = fn(&CounterRegistry) -> i64;
    let specs: [(&str, &str, &str, OverheadRead); 4] = [
        (
            "/counters/overhead/time",
            "cumulative wall time spent evaluating counter batches",
            "ns",
            |r| r.overhead_time_ns.load(Ordering::Relaxed) as i64,
        ),
        (
            "/counters/overhead/count",
            "number of counter batches evaluated",
            "1",
            |r| r.overhead_batches.load(Ordering::Relaxed) as i64,
        ),
        (
            "/counters/health/average-underflows",
            "times an average counter's (sum, count) source went backwards \
             past its baseline (nonzero means a broken source)",
            "1",
            |_| crate::counter::average_underflows() as i64,
        ),
        (
            "/counters/clock/recalibrations",
            "times the TSC clock multiplier was re-derived by the periodic \
             drift cross-check against Instant",
            "1",
            |r| r.clock.recalibrations() as i64,
        ),
    ];
    for (path, help, unit, read) in specs {
        let weak = Arc::downgrade(reg);
        let value: ValueFn = Arc::new(move || weak.upgrade().map_or(0, |r| read(&r)));
        let scope = Scope::Any(Some(CounterInstance::total(0)));
        reg.register_scoped(path, help, unit, scope, Source::Monotonic(fixed(value)));
    }
    // Signed gauge: the last TSC−Instant error a completed drift check
    // observed (ppm). Raw, not monotonic — it moves both ways.
    let weak = Arc::downgrade(reg);
    reg.register_raw(
        "/counters/clock/drift-ppm",
        "last signed TSC-vs-Instant relative error observed by the drift \
         cross-check (ppm; 0 on Instant-backed clocks)",
        "ppm",
        Arc::new(move || weak.upgrade().map_or(0, |r| r.clock.last_drift_ppm())),
    );
}

/// Builds the reader of one selected instance: `None` is the total,
/// `Some(w)` is worker `w`. It runs once, when the instance is created; the
/// closure it returns is what every read of that instance calls.
pub type InstanceFn<F> = Arc<dyn Fn(Option<usize>) -> F + Send + Sync>;

/// What a [scoped](CounterRegistry::register_scoped) counter type reads.
/// The variant fixes the counter kind, so a kind is never paired with the
/// wrong reader.
pub enum Source {
    /// An instantaneous sample ([`CounterKind::Raw`]).
    Raw(InstanceFn<ValueFn>),
    /// A value that only grows ([`CounterKind::MonotonicallyIncreasing`]).
    Monotonic(InstanceFn<ValueFn>),
    /// A mean over a (sum, count) pair ([`CounterKind::Average`]).
    Average(InstanceFn<PairFn>),
    /// Time since the instance was created ([`CounterKind::ElapsedTime`]).
    Elapsed,
}

impl Source {
    fn kind(&self) -> CounterKind {
        match self {
            Source::Raw(_) => CounterKind::Raw,
            Source::Monotonic(_) => CounterKind::MonotonicallyIncreasing,
            Source::Average(_) => CounterKind::Average,
            Source::Elapsed => CounterKind::ElapsedTime,
        }
    }
}

/// Which instances of a [scoped](CounterRegistry::register_scoped) counter
/// type are advertised to discovery and accepted by the factory.
#[derive(Clone, Debug)]
pub enum Scope {
    /// Every instance name (or none) is accepted and reads the total; only
    /// the given instance is advertised (`None`: the bare type path).
    Any(Option<CounterInstance>),
    /// Only the bare name or `{locality#L/total}` is accepted; the total is
    /// advertised.
    Total(u32),
    /// The total plus `{locality#L/worker-thread#N}` for `N < workers` are
    /// accepted and advertised.
    Workers {
        /// Locality the instances are advertised under.
        locality: u32,
        /// Number of `worker-thread#N` instances.
        workers: usize,
    },
}

impl Scope {
    /// The instance `name` selects: `None` for the total, `Some(w)` for
    /// worker `w`, or `UnknownInstance` if this scope does not accept it.
    fn select(&self, name: &CounterName) -> Result<Option<usize>, CounterError> {
        let inst = match (&name.instance, self) {
            (None, _) | (_, Scope::Any(_)) => return Ok(None),
            (Some(inst), _) if inst.is_total() => return Ok(None),
            (Some(inst), _) => inst,
        };
        let Scope::Workers { workers, .. } = *self else {
            return Err(CounterError::UnknownInstance(format!(
                "`{name}` exists only as the total instance"
            )));
        };
        let worker = inst
            .children
            .iter()
            .find(|c| c.name == "worker-thread")
            .and_then(|c| match c.index {
                Some(InstanceIndex::At(i)) => Some(i as usize),
                _ => None,
            })
            .ok_or_else(|| {
                CounterError::UnknownInstance(format!(
                    "`{name}`: expected total or worker-thread#N"
                ))
            })?;
        if worker >= workers {
            return Err(CounterError::UnknownInstance(format!(
                "`{name}`: only {workers} worker-thread instances"
            )));
        }
        Ok(Some(worker))
    }

    /// The discoverer listing the instances this scope advertises for
    /// `type_path` (`None` if the path does not parse).
    fn discoverer(&self, type_path: &str) -> Option<CounterDiscoverer> {
        let base: CounterName = type_path.parse().ok()?;
        let scope = self.clone();
        Some(Arc::new(
            move |f: &mut dyn FnMut(CounterName)| match &scope {
                Scope::Any(None) => f(base.clone()),
                Scope::Any(Some(inst)) => f(base.reinstantiate(inst.clone())),
                Scope::Total(locality) => f(base.reinstantiate(CounterInstance::total(*locality))),
                Scope::Workers { locality, workers } => {
                    f(base.reinstantiate(CounterInstance::total(*locality)));
                    for w in 0..*workers as u32 {
                        f(base.reinstantiate(CounterInstance::worker(*locality, w)));
                    }
                }
            },
        ))
    }
}

/// An instance reader that ignores the selection: every instance reads
/// `read`.
fn fixed<F: Clone + Send + Sync + 'static>(read: F) -> InstanceFn<F> {
    Arc::new(move |_| read.clone())
}

/// Whether concrete name `c` is matched by wildcard pattern `p`.
/// Object and counter must be equal; instance parts match per-component,
/// `#*` matching any concrete index.
fn wildcard_matches(p: &CounterName, c: &CounterName) -> bool {
    if p.object != c.object || p.counter != c.counter {
        return false;
    }
    let (pi, ci) = match (&p.instance, &c.instance) {
        (Some(pi), Some(ci)) => (pi, ci),
        (None, None) => return true,
        _ => return false,
    };
    if pi.children.len() != ci.children.len() {
        return false;
    }
    let part_matches = |pp: &crate::name::InstancePart, cp: &crate::name::InstancePart| -> bool {
        if pp.name != cp.name {
            return false;
        }
        match (&pp.index, &cp.index) {
            (Some(InstanceIndex::All), Some(InstanceIndex::At(_))) => true,
            (a, b) => a == b,
        }
    };
    part_matches(&pi.parent, &ci.parent)
        && pi
            .children
            .iter()
            .zip(&ci.children)
            .all(|(a, b)| part_matches(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::CounterInstance;
    use std::sync::atomic::{AtomicI64, Ordering};

    #[test]
    fn register_and_evaluate_raw() {
        let reg = CounterRegistry::new();
        let v = Arc::new(AtomicI64::new(3));
        let v2 = v.clone();
        reg.register_raw(
            "/test/value",
            "a test value",
            "1",
            Arc::new(move || v2.load(Ordering::Relaxed)),
        );
        assert_eq!(reg.evaluate("/test/value", false).unwrap().value, 3);
        v.store(8, Ordering::Relaxed);
        assert_eq!(reg.evaluate("/test/value", false).unwrap().value, 8);
    }

    #[test]
    fn unknown_type_is_an_error() {
        let reg = CounterRegistry::new();
        let e = reg.evaluate("/no/such", false).unwrap_err();
        assert!(matches!(e, CounterError::UnknownCounterType(_)));
    }

    #[test]
    fn instances_are_cached() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/value", "h", "1", Arc::new(|| 1));
        let n: CounterName = "/test/value".parse().unwrap();
        let a = reg.get_counter(&n).unwrap();
        let b = reg.get_counter(&n).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(reg.instance_count(), 1);
    }

    #[test]
    fn wildcard_rejected_without_expand() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/value", "h", "1", Arc::new(|| 1));
        let n: CounterName = "/test{locality#0/worker-thread#*}/value".parse().unwrap();
        assert!(reg.get_counter(&n).is_err());
    }

    #[test]
    fn wildcard_expansion_uses_discoverer() {
        let reg = CounterRegistry::new();
        let info = CounterInfo::new("/threads/count", CounterKind::Raw, "h", "1");
        let clock = reg.clock();
        reg.register_type(
            info.clone(),
            Arc::new(move |name, _| {
                let mut i = CounterInfo::new("/threads/count", CounterKind::Raw, "h", "1");
                i.name = name.canonical();
                // Value = worker index, to check instance routing.
                let idx = match &name.instance {
                    Some(inst) => match inst.children.first().and_then(|c| c.index.as_ref()) {
                        Some(InstanceIndex::At(i)) => *i as i64,
                        _ => -1,
                    },
                    None => -1,
                };
                Ok(
                    Arc::new(RawCounter::new(i, clock.clone(), Arc::new(move || idx)))
                        as Arc<dyn Counter>,
                )
            }),
            Some(Arc::new(|f: &mut dyn FnMut(CounterName)| {
                for w in 0..4 {
                    f(CounterName::new("threads", "count")
                        .with_instance(CounterInstance::worker(0, w)));
                }
                f(CounterName::new("threads", "count").with_instance(CounterInstance::total(0)));
            })),
        );

        let resolved = reg
            .get_counters("/threads{locality#0/worker-thread#*}/count")
            .unwrap();
        assert_eq!(resolved.len(), 4);
        let values: Vec<i64> = resolved
            .iter()
            .map(|(_, c)| c.get_value(false).value)
            .collect();
        assert_eq!(values, vec![0, 1, 2, 3]);
    }

    #[test]
    fn expansion_error_when_nothing_matches() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/value", "h", "1", Arc::new(|| 1));
        // The single-instance discoverer advertises only the bare path, so
        // a worker wildcard matches nothing.
        let err = match reg.get_counters("/test{locality#0/worker-thread#*}/value") {
            Ok(_) => panic!("expected wildcard expansion to fail"),
            Err(e) => e,
        };
        assert!(matches!(err, CounterError::UnknownInstance(_)));
    }

    #[test]
    fn active_set_protocol() {
        let reg = CounterRegistry::new();
        let v = Arc::new(AtomicI64::new(0));
        let v2 = v.clone();
        reg.register_monotonic(
            "/test/mono",
            "h",
            "1",
            Arc::new(move || v2.load(Ordering::Relaxed)),
        );
        assert_eq!(reg.add_active("/test/mono").unwrap(), 1);
        // Duplicate adds are ignored.
        assert_eq!(reg.add_active("/test/mono").unwrap(), 0);
        assert_eq!(reg.active_names(), vec!["/test/mono".to_string()]);

        v.store(5, Ordering::Relaxed);
        let vals = reg.evaluate_active_counters(true);
        assert_eq!(vals.len(), 1);
        assert_eq!(vals[0].1.value, 5);

        v.store(7, Ordering::Relaxed);
        let vals = reg.evaluate_active_counters(false);
        assert_eq!(vals[0].1.value, 2, "evaluate(reset) must rebaseline");

        reg.reset_active_counters();
        let vals = reg.evaluate_active_counters(false);
        assert_eq!(vals[0].1.value, 0);

        assert!(reg.remove_active("/test/mono"));
        assert!(!reg.remove_active("/test/mono"));
        assert!(reg.evaluate_active_counters(false).is_empty());
    }

    #[test]
    fn value_cell_round_trip() {
        let reg = CounterRegistry::new();
        let cell = reg.register_value("/app/progress", "app progress", "%");
        cell.set(42);
        assert_eq!(reg.evaluate("/app/progress", false).unwrap().value, 42);
    }

    #[test]
    fn counter_types_lists_builtins_and_registered() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/value", "h", "1", Arc::new(|| 1));
        let types = reg.counter_types();
        let names: Vec<&str> = types.iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"/test/value"));
        assert!(names.contains(&"/arithmetics/add"));
        assert!(names.contains(&"/statistics/average"));
    }

    #[test]
    fn unregister_removes_type_and_instances() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/value", "h", "1", Arc::new(|| 1));
        let _ = reg.evaluate("/test/value", false).unwrap();
        assert_eq!(reg.instance_count(), 1);
        reg.unregister_type("/test/value");
        assert!(reg.evaluate("/test/value", false).is_err());
        assert_eq!(reg.instance_count(), 0);
    }

    #[test]
    fn unregister_type_removes_only_that_types_instances() {
        let reg = CounterRegistry::new();
        for path in ["/a/x", "/a/xy", "/ab/x", "/a/y", "/b/x", "/b/y/x"] {
            reg.register_raw(path, "h", "1", Arc::new(|| 1));
        }
        let gone = ["/a/x", "/a{locality#0/total}/x", "/a/x@{p}/ab/x"];
        let kept = [
            "/a/xy",
            "/a{locality#0/total}/xy",
            "/ab/x",
            "/ab{locality#0/total}/x@/a/x",
            "/arithmetics/add@/a/x,/ab/x",
            "/a{locality#0/total}/y",
            "/b{locality#0/total}/x",
        ];
        let live: Vec<_> = gone
            .iter()
            .chain(&kept)
            .map(|n| reg.get_counter(&n.parse().unwrap()).unwrap())
            .collect();
        let before = reg.instance_count();
        reg.unregister_type("/a/x");
        assert_eq!(reg.instance_count(), before - gone.len());
        for (n, c) in kept.iter().zip(&live[gone.len()..]) {
            let again = reg.get_counter(&n.parse().unwrap()).unwrap();
            assert!(Arc::ptr_eq(c, &again), "`{n}` must stay cached");
        }
        for n in gone {
            assert!(reg.get_counter(&n.parse().unwrap()).is_err(), "`{n}`");
        }
        // `/b/y/x` starts with `/b` and ends with `/x`, yet is not the
        // type path of `/b{…}/x`.
        let outer = reg.get_counter(&"/b/y/x".parse().unwrap()).unwrap();
        reg.unregister_type("/b/y/x");
        let n = "/b{locality#0/total}/x";
        let again = reg.get_counter(&n.parse().unwrap()).unwrap();
        assert!(Arc::ptr_eq(&live[live.len() - 1], &again), "`{n}`");
        assert!(!Arc::ptr_eq(&outer, &again));
    }

    #[test]
    fn type_info_round_trip() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/value", "the help", "µs", Arc::new(|| 1));
        let info = reg.type_info("/test/value").unwrap();
        assert_eq!(info.help, "the help");
        assert_eq!(info.unit, "µs");
        assert!(reg.type_info("/nope/x").is_none());
    }

    /// Register a worker-style type whose discoverer advertises however
    /// many workers `count` currently says exist — a stand-in for the
    /// runtime's live topology.
    fn register_growable(reg: &Arc<CounterRegistry>, count: Arc<AtomicI64>) {
        let info = CounterInfo::new("/threads/count", CounterKind::Raw, "h", "1");
        let clock = reg.clock();
        reg.register_type(
            info,
            Arc::new(move |name, _| {
                let mut i = CounterInfo::new("/threads/count", CounterKind::Raw, "h", "1");
                i.name = name.canonical();
                Ok(Arc::new(RawCounter::new(i, clock.clone(), Arc::new(|| 1))) as Arc<dyn Counter>)
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
    fn wildcard_active_query_tracks_topology_changes() {
        let reg = CounterRegistry::new();
        let workers = Arc::new(AtomicI64::new(2));
        register_growable(&reg, workers.clone());

        let added = reg
            .add_active("/threads{locality#0/worker-thread#*}/count")
            .unwrap();
        assert_eq!(added, 2);
        assert_eq!(reg.evaluate_active_counters(false).len(), 2);

        // Topology grows (e.g. a worker respawned with a new slot); the
        // query is live, so one generation bump re-expands it.
        workers.store(3, Ordering::Relaxed);
        reg.bump_generation();
        let vals = reg.evaluate_active_counters(false);
        assert_eq!(vals.len(), 3, "new instance joins within one evaluation");
        assert!(vals
            .iter()
            .any(|(n, _)| n == "/threads{locality#0/worker-thread#2}/count"));

        workers.store(1, Ordering::Relaxed);
        reg.bump_generation();
        assert_eq!(reg.evaluate_active_counters(false).len(), 1);
    }

    #[test]
    fn reentrant_counter_in_active_set_does_not_deadlock() {
        let reg = CounterRegistry::new();
        reg.register_raw("/src/child", "h", "1", Arc::new(|| 21));
        // A derived counter whose read path re-enters the registry: it
        // resolves and evaluates another counter *and* inspects the active
        // set while itself being evaluated from the active set.
        let weak = Arc::downgrade(&reg);
        reg.register_raw(
            "/derived/reentrant",
            "h",
            "1",
            Arc::new(move || {
                let Some(r) = weak.upgrade() else { return -1 };
                let names = r.active_names();
                assert!(names.iter().any(|n| n == "/derived/reentrant"));
                r.evaluate("/src/child", false).map_or(-1, |v| v.value * 2)
            }),
        );
        reg.add_active("/derived/reentrant").unwrap();
        let vals = reg.evaluate_active_counters(false);
        assert_eq!(vals.len(), 1);
        assert_eq!(vals[0].1.value, 42);
    }

    #[test]
    fn statistics_over_active_child_does_not_deadlock() {
        let reg = CounterRegistry::new();
        let v = Arc::new(AtomicI64::new(10));
        let v2 = v.clone();
        reg.register_raw(
            "/src/child",
            "h",
            "1",
            Arc::new(move || v2.load(Ordering::Relaxed)),
        );
        reg.add_active("/src/child").unwrap();
        reg.add_active("/statistics/average@/src/child").unwrap();
        let mut last = CounterValue::empty(0);
        for x in [10, 20, 30] {
            v.store(x, Ordering::Relaxed);
            let vals = reg.evaluate_active_counters(false);
            assert_eq!(vals.len(), 2);
            last = vals
                .iter()
                .find(|(n, _)| n == "/statistics/average@/src/child")
                .unwrap()
                .1;
        }
        assert_eq!(last.scaled(), 20.0);
    }

    #[test]
    fn remove_active_canonicalizes_spelling() {
        let reg = CounterRegistry::new();
        let workers = Arc::new(AtomicI64::new(3));
        register_growable(&reg, workers);
        assert_eq!(
            reg.add_active("/threads{locality#0/worker-thread#2}/count")
                .unwrap(),
            1
        );
        // Leading-zero spelling parses to the same structured name.
        assert!(reg.remove_active("/threads{locality#00/worker-thread#02}/count"));
        assert!(reg.evaluate_active_counters(false).is_empty());
        assert!(!reg.remove_active("/threads{locality#0/worker-thread#2}/count"));
    }

    #[test]
    fn excluded_expansion_is_not_instantiated_again() {
        let reg = CounterRegistry::new();
        let made = Arc::new(AtomicI64::new(0));
        let register = |reg: &Arc<CounterRegistry>| {
            let made = made.clone();
            let clock = reg.clock();
            reg.register_type(
                CounterInfo::new("/threads/count", CounterKind::Raw, "h", "1"),
                Arc::new(move |name, _| {
                    made.fetch_add(1, Ordering::Relaxed);
                    let mut i = CounterInfo::new("/threads/count", CounterKind::Raw, "h", "1");
                    i.name = name.canonical();
                    Ok(Arc::new(RawCounter::new(i, clock.clone(), Arc::new(|| 1)))
                        as Arc<dyn Counter>)
                }),
                Some(Arc::new(|f: &mut dyn FnMut(CounterName)| {
                    for w in 0..3 {
                        f(CounterName::new("threads", "count")
                            .with_instance(CounterInstance::worker(0, w)));
                    }
                })),
            );
        };
        register(&reg);
        reg.add_active("/threads{locality#0/worker-thread#*}/count")
            .unwrap();
        assert!(reg.remove_active("/threads{locality#0/worker-thread#1}/count"));
        // Drop every cached instance; the live query re-expands on the
        // next read and must create only the two names it keeps.
        reg.unregister_type("/threads/count");
        register(&reg);
        let before = made.load(Ordering::Relaxed);
        assert_eq!(reg.active_names().len(), 2);
        assert_eq!(made.load(Ordering::Relaxed) - before, 2);
        assert_eq!(reg.instance_count(), 2);
    }

    #[test]
    fn remove_one_expansion_keeps_wildcard_live() {
        let reg = CounterRegistry::new();
        let workers = Arc::new(AtomicI64::new(2));
        register_growable(&reg, workers.clone());
        reg.add_active("/threads{locality#0/worker-thread#*}/count")
            .unwrap();
        // Excluding one concrete expansion keeps the query itself live.
        assert!(reg.remove_active("/threads{locality#0/worker-thread#1}/count"));
        assert_eq!(
            reg.active_names(),
            vec!["/threads{locality#0/worker-thread#0}/count".to_string()]
        );
        // New instances still join; the exclusion sticks.
        workers.store(3, Ordering::Relaxed);
        reg.bump_generation();
        let names = reg.active_names();
        assert_eq!(names.len(), 2);
        assert!(!names
            .iter()
            .any(|n| n == "/threads{locality#0/worker-thread#1}/count"));
        // Re-adding clears the exclusion.
        reg.add_active("/threads{locality#0/worker-thread#*}/count")
            .unwrap();
        assert_eq!(reg.active_names().len(), 3);
    }

    #[test]
    fn overhead_counters_account_for_evaluations() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/value", "h", "1", Arc::new(|| 1));
        reg.add_active("/test/value").unwrap();
        for _ in 0..64 {
            let _ = reg.evaluate_active_counters(false);
        }
        let count = reg
            .evaluate("/counters{locality#0/total}/overhead/count", false)
            .unwrap();
        assert!(count.value >= 64, "batch count tracks evaluations");
        let time = reg
            .evaluate("/counters{locality#0/total}/overhead/time", false)
            .unwrap();
        assert!(time.value > 0, "evaluation wall time accumulates");
        // The overhead counters are discoverable like any other type.
        let names = reg.discover_all();
        assert!(names
            .iter()
            .any(|n| n.canonical() == "/counters{locality#0/total}/overhead/time"));
    }

    #[test]
    fn evaluation_holds_no_registry_lock() {
        // A counter that mutates the registry *during* evaluation: with a
        // lock held across get_value this would deadlock; with snapshots it
        // must merely take effect on the next batch.
        let reg = CounterRegistry::new();
        let weak = Arc::downgrade(&reg);
        reg.register_raw(
            "/test/mutator",
            "h",
            "1",
            Arc::new(move || {
                if let Some(r) = weak.upgrade() {
                    r.register_raw("/late/arrival", "h", "1", Arc::new(|| 9));
                    let _ = r.add_active("/late/arrival");
                }
                1
            }),
        );
        reg.add_active("/test/mutator").unwrap();
        let vals = reg.evaluate_active_counters(false);
        assert_eq!(vals.len(), 1, "current batch uses its own snapshot");
        let vals = reg.evaluate_active_counters(false);
        assert_eq!(vals.len(), 2, "mutation lands on the next batch");
    }
}
