//! Bounded tracing state on the threaded runtime: a cluster that orders
//! far more requests than its trace rings hold keeps at most
//! `trace_capacity` spans per node in the shared `TraceStore`, counts
//! every span it evicts, and still assembles its newest trace.

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use zugchain::NodeConfig;
use zugchain_crypto::Digest;
use zugchain_sim::runtime::{ClusterEvent, ThreadedCluster};
use zugchain_telemetry::{parse_jsonl, ParsedRecord, Stage, STAGES};

const NODES: usize = 4;
const CAPACITY: usize = 64;
const PAYLOADS: u64 = 500;
const IN_FLIGHT: usize = 8;

#[test]
fn threaded_span_rings_stay_bounded_and_count_their_drops() {
    let config = NodeConfig::evaluation_default().with_trace_capacity(CAPACITY);
    let cluster = ThreadedCluster::start(NODES, config);
    let everyone = (1u8 << NODES) - 1;

    // Closed loop: keep IN_FLIGHT payloads open until every node logged
    // all of them.
    let mut logged_by: HashMap<Digest, u8> = HashMap::new();
    let mut open = 0usize;
    let mut issued = 0u64;
    let mut newest_sn = 0u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    while (issued < PAYLOADS || open > 0) && Instant::now() < deadline {
        while issued < PAYLOADS && open < IN_FLIGHT {
            let mut payload = vec![0u8; 64];
            payload[..8].copy_from_slice(&issued.to_le_bytes());
            logged_by.insert(Digest::of(&payload), 0);
            cluster.feed_bus_payload_all(payload);
            issued += 1;
            open += 1;
        }
        let Ok(ClusterEvent::Logged {
            node, sn, digest, ..
        }) = cluster.events().recv_timeout(Duration::from_millis(100))
        else {
            continue;
        };
        let mask = logged_by
            .get_mut(&digest)
            .expect("only issued payloads are logged");
        *mask |= 1 << node.0;
        if *mask == everyone {
            open -= 1;
        }
        newest_sn = newest_sn.max(sn);
    }
    assert_eq!(open, 0, "every payload must be logged by every node");
    assert_eq!(issued, PAYLOADS);

    // Freeze the rings: crashed nodes record nothing more.
    for node in 0..NODES {
        cluster.crash(node);
    }
    std::thread::sleep(Duration::from_millis(300));

    let store = cluster.trace_store();
    let registry = cluster.registry();
    let reachable = store.dump_jsonl().lines().count();
    assert!(
        reachable <= NODES * CAPACITY,
        "{reachable} spans reachable through the store, bound {}",
        NODES * CAPACITY
    );
    for node in 0..NODES {
        let id = node.to_string();
        let retained = parse_jsonl(&cluster.trace_jsonl(node))
            .expect("ring dump parses")
            .iter()
            .filter_map(ParsedRecord::span)
            .count() as u64;
        assert!(retained <= CAPACITY as u64);
        let dropped = registry
            .counter_value(
                "zugchain_telemetry_dropped_total",
                &[("node", &id), ("ring", "span")],
            )
            .unwrap_or(0);
        assert!(dropped > 0, "node {node}: the run must overflow the ring");
        let observed: u64 = STAGES
            .iter()
            .filter_map(|stage| {
                registry.histogram_snapshot(
                    "zugchain_stage_latency_ms",
                    &[("node", &id), ("stage", stage.as_str())],
                )
            })
            .map(|snapshot| snapshot.count)
            .sum();
        assert_eq!(
            observed,
            retained + dropped,
            "node {node}: every observed span is either retained or counted as dropped"
        );
    }

    // The newest decided request is still fully traceable.
    let traces = store.traces_for_sn(newest_sn);
    assert_eq!(traces.len(), 1, "sn {newest_sn}: traces {traces:?}");
    let deciders: BTreeSet<u64> = store
        .assemble(traces[0])
        .iter()
        .filter(|span| span.stage == Stage::Decide)
        .map(|span| span.node)
        .collect();
    assert_eq!(deciders, (0..NODES as u64).collect::<BTreeSet<_>>());

    cluster.shutdown();
}
