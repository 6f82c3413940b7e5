//! The export surface, pinned: a wildcard over twelve seeded cells plus
//! parameterised counters, resolved by the registry and rendered as one
//! Prometheus payload. The golden file records the wildcard's expansion
//! order (string order, so `#10` sorts before `#2`), the resolved query's
//! names, and the full `text::render` payload byte for byte.

use std::sync::Arc;

use rpx_counters::registry::{Scope, Source};
use rpx_counters::{Counter, CounterInfo, CounterKind, CounterName, CounterRegistry};
use rpx_counters::{CounterValue, ResolvedQuery};
use rpx_serve::{text, ScrapeEngine};

const CELLS: usize = 12;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A gauge reading 7/2.
struct Ratio(CounterInfo);

impl Counter for Ratio {
    fn info(&self) -> CounterInfo {
        self.0.clone()
    }

    fn get_value(&self, _reset: bool) -> CounterValue {
        CounterValue::scaled_by(7, 2, 0)
    }

    fn reset(&self) {}
}

/// Twelve cells reading seeded values, an average that yields a fraction,
/// and a gauge large enough to leave the integral formatting path.
fn registry() -> Arc<CounterRegistry> {
    let reg = CounterRegistry::new();
    let base: Arc<Vec<i64>> = Arc::new(
        (0..CELLS as u64)
            .map(|i| (splitmix(0x5eed ^ splitmix(i)) % 1_000_000) as i64)
            .collect(),
    );
    reg.register_scoped(
        "/app/cell",
        "per-object probe",
        "1",
        Scope::Workers {
            locality: 0,
            workers: CELLS,
        },
        Source::Monotonic(Arc::new(move |w| {
            let base = base.clone();
            let v = w.map_or_else(|| base.iter().sum(), |w| base[w]);
            Arc::new(move || v)
        })),
    );
    let info = CounterInfo::new(
        "/app/ratio",
        CounterKind::Raw,
        "a \"quoted\" help line\\with a backslash",
        "1",
    );
    reg.register_type(
        info.clone(),
        Arc::new(move |_, _| Ok(Arc::new(Ratio(info.clone())) as Arc<dyn Counter>)),
        None,
    );
    reg.register_raw("/app/big", "a large gauge", "1", Arc::new(|| 1 << 60));
    reg
}

const SPECS: &[&str] = &[
    "/app{locality#0/worker-thread#*}/cell",
    "/app/ratio@tag=\"a\\b\"\nnext",
    "/arithmetics/add@/app{locality#0/worker-thread#*}/cell,/app{locality#0/total}/cell",
    "/app{locality#0/total}/big",
];

fn surface() -> String {
    let reg = registry();
    let mut out = String::new();

    out.push_str("# expand\n");
    let wildcard: CounterName = SPECS[0].parse().unwrap();
    for n in reg.expand(&wildcard).unwrap() {
        out.push_str(&n.canonical().escape_debug().to_string());
        out.push('\n');
    }

    let specs: Vec<String> = SPECS.iter().map(|s| s.to_string()).collect();
    out.push_str("# names\n");
    let query = ResolvedQuery::resolve(&reg, &specs).unwrap();
    for n in query.names() {
        out.push_str(&n.escape_debug().to_string());
        out.push('\n');
    }

    out.push_str("# render\n");
    let engine = ScrapeEngine::new(&reg, &specs, 4, 8).unwrap();
    let mut batch = engine.collect();
    // A failed evaluation is left out of the payload, but its family's
    // HELP and TYPE lines stay.
    let failed = batch
        .iter()
        .position(|(e, _)| e.canonical == "/app{locality#0/worker-thread#7}/cell")
        .unwrap();
    batch[failed].1.ok = false;
    out.push_str(&text::render(&batch));
    out
}

#[test]
fn export_surface_is_unchanged() {
    let surface = surface();
    let golden = include_str!("golden/export_surface.txt");
    for (i, (got, want)) in surface.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "export surface differs at line {}", i + 1);
    }
    assert_eq!(surface, golden, "export surface differs:\n{surface}");
}
