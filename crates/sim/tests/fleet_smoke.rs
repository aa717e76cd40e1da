//! The `fleet_smoke` binary's scenario, checked in-process: the
//! registry's per-train archive series must agree with the run report.
//!
//! The scenario is the binary's default run (16 trains, 2 segments per
//! train, seed `0xF1EE7`), so the exposition it writes is the one these
//! checks cover.

use zugchain_sim::fleet::{run_fleet_instrumented, FleetConfig};
use zugchain_telemetry::parse_prometheus;

#[test]
fn registry_agrees_with_the_run_report_per_train() {
    let config = FleetConfig {
        n_trains: 16,
        segments_per_train: 2,
        seed: 0xF1EE7,
        ..FleetConfig::default()
    };
    let (outcome, registry) = run_fleet_instrumented(&config);
    assert_eq!(outcome.trains.len(), 16);
    for report in &outcome.trains {
        assert!(report.fully_archived, "train {}: {report:?}", report.train);
    }

    // Exactly one `{node="0",train}` segments series per train, each
    // equal to the report's archived segment count.
    let samples = parse_prometheus(&registry.render_prometheus()).expect("exposition round-trips");
    let series: Vec<(String, f64)> = samples
        .iter()
        .filter(|s| s.name == "zugchain_archive_segments_total")
        .filter_map(|s| match s.labels.as_slice() {
            [(node, id), (train, t)] if node == "node" && id == "0" && train == "train" => {
                Some((t.clone(), s.value))
            }
            _ => None,
        })
        .collect();
    assert_eq!(series.len(), 16, "{series:?}");
    for report in &outcome.trains {
        let train = report.train.to_string();
        let values: Vec<f64> = series
            .iter()
            .filter(|(t, _)| *t == train)
            .map(|&(_, value)| value)
            .collect();
        assert_eq!(
            values,
            [report.archived_segments as f64],
            "train {train}: metric vs report"
        );
    }
}
