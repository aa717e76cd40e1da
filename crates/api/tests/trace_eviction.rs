//! The trace endpoint over a bounded trace store: once a node's span
//! ring has evicted a trace, `/v1/trains/<id>/trace/<sn>` answers 404,
//! and a trace that lost only its oldest spans is served with a verdict
//! other than `Complete`.

use std::sync::Arc;

use zugchain_api::http::{Request, Response};
use zugchain_api::{ApiConfig, ApiService, Backend};
use zugchain_archive::{Archive, QueryEngine};
use zugchain_crypto::Keystore;
use zugchain_telemetry::{Registry, Span, Telemetry, TraceStore, STAGES};
use zugchain_wire::TrainId;

const TRAIN: TrainId = TrainId(7);

fn get_trace(service: &ApiService, sn: u64) -> Response {
    let request = Request {
        method: "GET".into(),
        path: format!("/v1/trains/{}/trace/{sn}", TRAIN.0),
        query: Vec::new(),
        http11: true,
        headers: Vec::new(),
        body: Vec::new(),
    };
    service.respond(&request, "test")
}

/// Stage `stage` of trace `trace_id` on node 0 at sn `sn`, parented on
/// the previous stage (span ids are `trace_id * 100 + stage order + 1`).
fn span(trace_id: u64, stage: usize, sn: u64) -> Span {
    let id = |stage: usize| trace_id * 100 + stage as u64 + 1;
    Span {
        trace_id,
        stage: STAGES[stage],
        node: 0,
        start_ms: trace_id * 100 + stage as u64,
        end_ms: trace_id * 100 + stage as u64,
        span_id: id(stage),
        parent_span: if stage == 0 { 0 } else { id(stage - 1) },
        train: TRAIN.0,
        sn,
    }
}

fn verdict(response: Response) -> String {
    assert_eq!(response.status, 200);
    let body = String::from_utf8(response.body).unwrap();
    let at = body.find("\"chain\":\"").expect("a chain verdict") + 9;
    body[at..at + body[at..].find('"').unwrap()].to_string()
}

#[test]
fn evicted_traces_are_served_as_404_or_as_broken_chains() {
    let (_, keystore) = Keystore::generate(4, 1);
    let registry = Arc::new(Registry::new());
    let store = Arc::new(TraceStore::new());
    let service = ApiService::with_traces(
        ApiConfig::open(),
        Backend::Single(QueryEngine::new(Archive::in_memory_for_train(
            TRAIN, keystore, 3,
        ))),
        Arc::clone(&registry),
        Some(Arc::clone(&store)),
    );
    // One ring with room for exactly one whole lifecycle.
    let node = Telemetry::new_with_store(0, registry, STAGES.len(), Some(store));
    (0..STAGES.len()).for_each(|stage| node.record_span(|| span(1, stage, 1)));
    assert_eq!(verdict(get_trace(&service, 1)), "Complete");

    // The next trace's record span evicts the oldest span, trace 1's
    // record: its submit span now names a parent the store lost.
    node.record_span(|| span(2, 0, 2));
    assert_eq!(verdict(get_trace(&service, 1)), "OrphanSpan(Submit)");

    // Once the rest of trace 2 is recorded, trace 1 is gone entirely.
    (1..STAGES.len()).for_each(|stage| node.record_span(|| span(2, stage, 2)));
    assert_eq!(get_trace(&service, 1).status, 404);
    assert_eq!(verdict(get_trace(&service, 2)), "Complete");
}
