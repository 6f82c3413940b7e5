//! The benchmark's own checks: seeded inputs, the metric lists every run
//! prints, and agreement with `BENCHMARK.json`.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::time::Duration;

use perfbench::{dag_spec, run, Plan, Workload, END_TO_END, PER_LAYER};
use rpx_taskbench::graph_hash;

#[test]
fn the_seed_alone_decides_the_dag() {
    let a = graph_hash(&dag_spec(7).build());
    assert_eq!(a, graph_hash(&dag_spec(7).build()), "same seed, same graph");
    assert_ne!(a, graph_hash(&dag_spec(8).build()), "new seed, new graph");
    assert_eq!(dag_spec(7).build().len(), 4_096);
}

fn smoke_plan() -> Plan {
    Plan {
        seed: 3,
        window: Duration::from_millis(400),
        rounds: 2,
        warmup: Duration::from_millis(20),
    }
}

/// One short run of every workload, untraced and traced, in sequence so
/// the runs do not compete for cores.
#[test]
fn every_workload_prints_every_metric_with_unit_and_samples() {
    for w in Workload::ALL {
        for (traced, spec) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let out = run(w, &smoke_plan(), traced);
            let names: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(names, spec, "{} traced={traced}", w.name());
            for m in &out.metrics {
                assert!(
                    m.value.is_finite(),
                    "{}: {} is not finite",
                    w.name(),
                    m.name
                );
            }
            let samples = |name: &str| {
                out.metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.samples)
                    .expect("metric present")
            };
            if traced {
                assert!(samples("runtime.spawn.ns_p50") > 0, "{}", w.name());
                assert!(samples("runtime.body.self_ns_p50") > 0, "{}", w.name());
                assert!(samples("iter_ms_p50") > 0, "{}", w.name());
                if w == Workload::Scrape10k {
                    assert!(samples("serve.collect.ms_p50") > 0);
                    assert!(samples("scrape_ms_p50") > 0);
                }
            } else {
                for m in &out.metrics {
                    assert!(m.samples > 0, "{}: {} has no samples", w.name(), m.name);
                    assert!(m.value > 0.0, "{}: {} is 0", w.name(), m.name);
                }
            }
            assert!(out.attempted > 0);
            // A slow test build may run a scrape past its deadline; every
            // other failure is a wrong result.
            assert_eq!(
                out.failed,
                out.late,
                "{} traced={traced}: {}",
                w.name(),
                out.failures
            );
            assert!(out.fingerprint.contains("\"nproc\""));
        }
    }
}

#[test]
fn benchmark_json_lists_these_workloads_and_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let list = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(|v| v.as_array())
            .expect("array")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |spec: &[(&str, &str)]| -> Vec<(String, String)> {
        spec.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(list("end_to_end"), own(&END_TO_END));
    assert_eq!(list("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
