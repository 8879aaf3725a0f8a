//! Self-test of the benchmark: every workload, run tiny, prints every
//! metric `BENCHMARK.json` names with its unit, passes its checks, and
//! repeats its digest for the same seed.

use diners_perfbench::{run, workload, Outcome, Scale, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(name: &str, seed: u64, trace: bool) -> Outcome {
    let w = workload(name, seed, Scale::Tiny).expect("known workload");
    let out = run(w.as_ref(), 0.0, trace, 2);
    assert!(
        out.checks.failures.is_empty(),
        "{name}: {:?}",
        out.checks.failures
    );
    assert!(out.checks.attempted > 0, "{name}: no checks made");
    out
}

fn names_and_units(out: &Outcome) -> Vec<(&str, &str)> {
    out.metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect()
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for name in WORKLOADS {
        let out = tiny(name, 7, false);
        assert_eq!(names_and_units(&out), END_TO_END.to_vec(), "{name}");
        for m in &out.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{name}: {} = {}",
                m.name,
                m.value
            );
        }
        assert!(!out.details.is_empty(), "{name}: no detail figures");
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for name in WORKLOADS {
        let out = tiny(name, 7, true);
        assert_eq!(names_and_units(&out), PER_LAYER.to_vec(), "{name}");
        for m in &out.metrics {
            assert!(
                m.value.is_finite() && m.value >= 0.0,
                "{name}: {} = {}",
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn one_seed_run_twice_gives_identical_digests() {
    for name in WORKLOADS {
        let a = tiny(name, 11, false);
        let b = tiny(name, 11, false);
        assert_eq!(a.digest, b.digest, "{name}");
    }
}

#[test]
fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let listed = |key: &str| text.matches(&format!("\"{key}\"")).count();
    assert_eq!(
        listed("name"),
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
    for name in WORKLOADS {
        assert!(
            text.contains(&format!("\"name\": \"{name}\"")),
            "workload {name}"
        );
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "metric {name} [{unit}]");
    }
}

#[test]
fn simnet_grid_counts_pairs_with_the_crashed_process_without_failing() {
    // On this seed a neighbour of the crashed process eats beside it
    // after the settle point, so the untimed replay runs and classifies.
    for trace in [false, true] {
        let out = tiny("simnet-grid", 45, trace);
        let crashed = out
            .details
            .iter()
            .find(|m| m.name == "crashed_pair_events")
            .expect("crashed_pair_events detail");
        assert!(crashed.value > 0.0, "trace {trace}: {}", crashed.value);
    }
}
