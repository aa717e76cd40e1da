//! The `telemetry_smoke` binary's scenario, checked in-process: the
//! registry must tell the same story as the run report, and every
//! node's trace-ring dump must be usable.
//!
//! The scenario is the binary's default run (5,000 ms, seed 1), so the
//! artifacts it writes are the ones these checks cover.

use std::collections::BTreeSet;

use zugchain_sim::{Mode, ScenarioConfig, Simulation, Workload};
use zugchain_telemetry::{parse_jsonl, parse_prometheus};

#[test]
fn registry_agrees_with_the_run_report_and_every_dump_parses() {
    let config = ScenarioConfig {
        mode: Mode::Zugchain,
        duration_ms: 5_000,
        bus_cycle_ms: 64,
        workload: Workload::SyntheticPayload { bytes: 256 },
        ..ScenarioConfig::default()
    };
    let (metrics, capture) = Simulation::new(&config, 1).run_instrumented();
    let samples =
        parse_prometheus(&capture.registry.render_prometheus()).expect("exposition round-trips");
    let named = |name: &'static str| samples.iter().filter(move |s| s.name == name);

    // The simulator's RunMetrics are read from the registry, so the max
    // per-node decides counter equals the reported consensus_decided.
    let decided = named("zugchain_pbft_decided_total")
        .map(|s| s.value)
        .fold(0.0, f64::max);
    assert_eq!(decided, metrics.consensus_decided as f64);

    // Every node's view gauge is present and non-negative.
    let nodes = capture.traces.len();
    let with_view: BTreeSet<String> = named("zugchain_pbft_view")
        .inspect(|s| assert!(s.value >= 0.0, "negative view gauge: {s:?}"))
        .filter_map(|s| s.labels.iter().find(|(k, _)| k == "node"))
        .map(|(_, node)| node.clone())
        .collect();
    let expected: BTreeSet<String> = (0..nodes).map(|node| node.to_string()).collect();
    assert_eq!(with_view, expected, "one view gauge per node");

    // Every per-node dump is non-empty and parses with the one parser.
    assert!(nodes > 0);
    for (node, trace) in capture.traces.iter().enumerate() {
        let records = parse_jsonl(trace)
            .unwrap_or_else(|e| panic!("node {node} trace is not valid JSONL: {e}"));
        assert!(!records.is_empty(), "node {node} trace is empty");
    }
}
