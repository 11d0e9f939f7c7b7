//! Self-tests of the benchmark at tiny scale: the result digest is stable
//! and independent of the worker count, every traced replica reproduces
//! its harness exactly, and every metric is well named, has a unit and is
//! listed in `BENCHMARK.json`. Run them with `cargo test --release`, the
//! build the benchmark measures.

use dtl_perfbench::{
    fifo_idle_s, replica, run_registry, valid_metric_name, Metric, Scale, Workload, END_TO_END,
};
use serde::Value;

#[test]
fn digest_is_stable_across_two_runs() {
    for w in Workload::ALL {
        let a = run_registry(w, 3, Scale::Tiny, 1).unwrap();
        let b = run_registry(w, 3, Scale::Tiny, 1).unwrap();
        assert_eq!(a.outcome, b.outcome, "{}", w.name());
        assert!(a.outcome.work > 0.0);
        assert!(a.outcome.failure.is_none(), "{}: {:?}", w.name(), a.outcome.failure);
    }
}

#[test]
fn digest_is_equal_at_jobs_1_and_2() {
    for w in Workload::ALL {
        let one = run_registry(w, 5, Scale::Tiny, 1).unwrap();
        let two = run_registry(w, 5, Scale::Tiny, 2).unwrap();
        assert_eq!(one.outcome, two.outcome, "{}", w.name());
    }
}

#[test]
fn a_different_seed_changes_the_digest() {
    let a = run_registry(Workload::FleetChurn, 3, Scale::Tiny, 1).unwrap();
    let b = run_registry(Workload::FleetChurn, 4, Scale::Tiny, 1).unwrap();
    assert_ne!(a.outcome.digest, b.outcome.digest);
}

/// Top-level field `key` of a JSON object.
fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(entries) => &entries.iter().find(|(k, _)| k == key).unwrap().1,
        _ => panic!("not an object"),
    }
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        _ => panic!("not a string"),
    }
}

/// `(name, unit)` of every metric listed under `key` in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    match field(&doc, key) {
        Value::Seq(items) => items
            .iter()
            .map(|m| (str_of(field(m, "name")).to_string(), str_of(field(m, "unit")).to_string()))
            .collect(),
        _ => panic!("{key} is not a list"),
    }
}

#[test]
fn replicas_reproduce_their_harness_and_report_every_listed_metric() {
    let mut reported: Vec<Metric> = Vec::new();
    for w in Workload::ALL {
        let harness = run_registry(w, 7, Scale::Tiny, 2).unwrap();
        let traced = replica(w, 7, Scale::Tiny).unwrap();
        assert_eq!(traced.outcome, harness.outcome, "{}: replica fidelity", w.name());
        assert!(traced.wall_s > 0.0);
        assert!(traced.spans_json.contains("\"name\": \"exec.unit\""));
        reported.extend(traced.metrics);
    }
    for m in &reported {
        assert!(valid_metric_name(&m.name), "{}", m.name);
        assert!(!m.unit.is_empty(), "{} has a unit", m.name);
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    // The traced run reports the overhead beside the replica's own metrics.
    let mut names: Vec<(String, String)> =
        reported.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
    for w in Workload::ALL {
        names.push((format!("{}.trace_overhead_s", w.name()), "s".to_string()));
    }
    names.sort();
    let mut per_layer = listed("per_layer");
    per_layer.sort();
    assert_eq!(names, per_layer, "BENCHMARK.json lists exactly the traced metrics");
}

#[test]
fn end_to_end_metrics_match_benchmark_json() {
    let ours: Vec<(String, String)> =
        END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
    for (name, unit) in &ours {
        assert!(valid_metric_name(name) && !unit.is_empty(), "{name}");
    }
    assert_eq!(ours, listed("end_to_end"));
}

#[test]
fn metric_names_are_checked() {
    assert!(valid_metric_name("fleet_churn.core.alloc_s"));
    assert!(!valid_metric_name(""));
    assert!(!valid_metric_name("_leading"));
    assert!(!valid_metric_name("has space"));
    assert!(!valid_metric_name(&"x".repeat(65)));
}

#[test]
fn idle_time_replays_the_fifo_queue() {
    // One worker is never idle.
    assert_eq!(fifo_idle_s(&[1.0, 2.0, 3.0], 1), 0.0);
    // 3 | 1 then 2 on the second worker: makespan 3, busy 6, idle 0.
    assert_eq!(fifo_idle_s(&[3.0, 1.0, 2.0], 2), 0.0);
    // 1 | 1 then 4 on the first free worker: makespan 5, busy 6, idle 4.
    assert_eq!(fifo_idle_s(&[1.0, 1.0, 4.0], 2), 4.0);
    // Workers beyond the unit count are not started.
    assert_eq!(fifo_idle_s(&[2.0], 4), 0.0);
}
