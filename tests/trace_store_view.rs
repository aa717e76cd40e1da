//! Reference-model tests for the cluster-shared `TraceStore`, which is a
//! read-time view over the spans in the per-node trace rings.
//!
//! The oracle below is a store that keeps everything. It records a second
//! copy of every span into a `BTreeMap` by trace id plus a `by_sn` index,
//! and its read methods are the ones the view replaced. Random spans are
//! recorded through two node handles, a third node handle and one
//! `for_train`-derived handle. The view must answer exactly as the oracle
//! does over the spans the rings still hold.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;
use proptest::TestCaseError;
use zugchain_telemetry::{
    parse_jsonl, parse_prometheus, ParsedRecord, Registry, Span, Stage, Telemetry, TraceEvent,
    TraceStore, STAGES,
};

/// The node id each handle records under; the last handle is derived
/// from node 0's with `for_train`, so it is a second ring for node 0.
const HANDLE_NODES: [u64; 4] = [0, 1, 2, 0];
const TRAIN: u64 = 7;

/// The keep-everything store the view replaced.
#[derive(Default)]
struct Oracle {
    by_trace: BTreeMap<u64, Vec<Span>>,
    by_sn: BTreeMap<u64, BTreeSet<u64>>,
}

impl Oracle {
    fn record(&mut self, span: Span) {
        if span.sn != 0 {
            self.by_sn.entry(span.sn).or_default().insert(span.trace_id);
        }
        self.by_trace.entry(span.trace_id).or_default().push(span);
    }

    fn trace_ids(&self) -> Vec<u64> {
        self.by_trace.keys().copied().collect()
    }

    fn traces_for_sn(&self, sn: u64) -> Vec<u64> {
        self.by_sn
            .get(&sn)
            .map(|ids| ids.iter().copied().collect())
            .unwrap_or_default()
    }

    fn assemble(&self, trace_id: u64) -> Vec<Span> {
        let mut spans = self.by_trace.get(&trace_id).cloned().unwrap_or_default();
        spans.sort_by_key(|s| (s.stage.order(), s.node, s.start_ms, s.end_ms));
        spans.dedup();
        spans
    }

    fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for trace_id in self.trace_ids() {
            for span in self.assemble(trace_id) {
                out.push_str(&span.to_json());
                out.push('\n');
            }
        }
        out
    }
}

/// The recording handles, wired to `store` in the order `first` rotates
/// them to: node 0 and its train handle as one group, then nodes 1 and
/// 2. A derived handle registers after its parent, so the group stays
/// together; the rotation moves it against the other rings.
fn wire(
    store: &Arc<TraceStore>,
    registry: &Arc<Registry>,
    capacity: usize,
    first: usize,
) -> Vec<Telemetry> {
    let mut handles: Vec<Option<Telemetry>> = vec![None; HANDLE_NODES.len()];
    for group in (0..3).map(|g| (g + first) % 3) {
        let handle = Telemetry::new_with_store(
            group as u64,
            Arc::clone(registry),
            capacity,
            Some(Arc::clone(store)),
        );
        if group == 0 {
            handles[3] = Some(handle.for_train(TRAIN));
        }
        handles[group] = Some(handle);
    }
    handles.into_iter().map(Option::unwrap).collect()
}

/// A span fully determined by its canonical sort key (trace, stage, node,
/// start, end). The old store broke exact key ties by global arrival
/// order, which no per-ring view can see; with this generator a key tie
/// is an exact duplicate, so both orders agree byte for byte.
/// `view_does_not_depend_on_ring_registration_order` covers real ties.
fn keyed_span(handle: usize, trace_id: u64, stage: usize, start_ms: u64, len_ms: u64) -> Span {
    let node = HANDLE_NODES[handle];
    let span_id = |stage: usize, node: u64| trace_id * 1000 + stage as u64 * 10 + node + 1;
    Span {
        trace_id,
        stage: STAGES[stage],
        node,
        start_ms,
        end_ms: start_ms + len_ms,
        span_id: span_id(stage, node),
        // The previous stage on the next node: sometimes recorded,
        // sometimes not, so trees get children and orphans.
        parent_span: if stage == 0 {
            0
        } else {
            span_id(stage - 1, (node + 1) % 3)
        },
        train: trace_id % 2 * TRAIN,
        // Shared sns across traces model equivocation evidence; sn 0 is
        // a not-yet-ordered span.
        sn: (trace_id + stage as u64) % 4,
    }
}

/// Asserts every read of `store` equals `oracle`'s, byte for byte.
fn assert_view_matches(store: &TraceStore, oracle: &Oracle) -> Result<(), TestCaseError> {
    prop_assert_eq!(store.trace_ids(), oracle.trace_ids());
    prop_assert_eq!(store.trace_count(), oracle.trace_ids().len());
    for sn in 0..5 {
        prop_assert_eq!(store.traces_for_sn(sn), oracle.traces_for_sn(sn));
    }
    for trace_id in 0..8 {
        prop_assert_eq!(store.assemble(trace_id), oracle.assemble(trace_id));
    }
    prop_assert_eq!(store.dump_jsonl(), oracle.dump_jsonl());
    Ok(())
}

type Draw = (usize, u64, usize, u64, u64);

fn draws(max: usize) -> impl Strategy<Value = Vec<Draw>> {
    proptest::collection::vec(
        (
            0..HANDLE_NODES.len(),
            1u64..=6,
            0..STAGES.len(),
            0u64..20,
            0u64..4,
        ),
        0..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// With room for every span, the view answers exactly as the
    /// keep-everything store.
    #[test]
    fn view_matches_the_keep_everything_oracle_under_capacity(draws in draws(120), first in 0usize..3) {
        let store = Arc::new(TraceStore::new());
        let handles = wire(&store, &Arc::new(Registry::new()), 128, first);
        let mut oracle = Oracle::default();
        for (handle, trace_id, stage, start, len) in draws {
            let span = keyed_span(handle, trace_id, stage, start, len);
            oracle.record(span.clone());
            handles[handle].record_span(|| span);
        }
        assert_view_matches(&store, &oracle)?;
    }

    /// Over capacity, each ring holds exactly its newest `capacity`
    /// spans and counts the rest as dropped, and the view answers as
    /// the oracle fed only the retained spans.
    #[test]
    fn rings_keep_their_newest_spans_and_the_view_matches_the_oracle_over_them(
        draws in draws(160),
        capacity in 1usize..24,
        first in 0usize..3,
    ) {
        let store = Arc::new(TraceStore::new());
        let registry = Arc::new(Registry::new());
        let handles = wire(&store, &registry, capacity, first);
        let mut recorded: Vec<Vec<(usize, Span)>> = vec![Vec::new(); handles.len()];
        for (at, (handle, trace_id, stage, start, len)) in draws.into_iter().enumerate() {
            let span = keyed_span(handle, trace_id, stage, start, len);
            recorded[handle].push((at, span.clone()));
            handles[handle].record_span(|| span);
        }
        let mut retained = Vec::new();
        for (handle, spans) in recorded.iter().enumerate() {
            let newest = &spans[spans.len().saturating_sub(capacity)..];
            let ring = parse_jsonl(&handles[handle].dump_jsonl()).expect("ring dump parses");
            let expected: Vec<ParsedRecord> =
                newest.iter().map(|(_, span)| ParsedRecord::Span(span.clone())).collect();
            prop_assert_eq!(ring, expected, "handle {} ring", handle);
            let node = HANDLE_NODES[handle].to_string();
            let mut labels = vec![("node", node.as_str()), ("ring", "span")];
            if handle == 3 {
                labels.push(("train", "7"));
            }
            let dropped = registry.counter_value("zugchain_telemetry_dropped_total", &labels);
            let evicted = (spans.len() - newest.len()) as u64;
            prop_assert_eq!(dropped.unwrap_or(0), evicted, "handle {} drops", handle);
            retained.extend_from_slice(newest);
        }
        // The oracle sees the retained spans in their original global
        // recording order.
        retained.sort_by_key(|(at, _)| *at);
        let mut oracle = Oracle::default();
        for (_, span) in retained {
            oracle.record(span);
        }
        assert_view_matches(&store, &oracle)?;
    }

    /// Arbitrary spans, exact key ties included: the answers do not
    /// depend on the order in which the rings were registered.
    #[test]
    fn view_does_not_depend_on_ring_registration_order(
        draws in proptest::collection::vec(
            ((0..HANDLE_NODES.len(), 1u64..=4, 0..STAGES.len()), (0u64..6, 0u64..3, 0u64..4, 0u64..40)),
            0..100,
        ),
        first in 1usize..3,
    ) {
        let stores = [Arc::new(TraceStore::new()), Arc::new(TraceStore::new())];
        let wired = [
            wire(&stores[0], &Arc::new(Registry::new()), 64, 0),
            wire(&stores[1], &Arc::new(Registry::new()), 64, first),
        ];
        for ((handle, trace_id, stage), (start, len, sn, span_id)) in draws {
            let span = Span {
                trace_id,
                stage: STAGES[stage],
                node: HANDLE_NODES[handle],
                start_ms: start,
                end_ms: start + len,
                span_id,
                parent_span: span_id / 2,
                train: if handle == 3 { TRAIN } else { 0 },
                sn,
            };
            for handles in &wired {
                let span = span.clone();
                handles[handle].record_span(|| span);
            }
        }
        let [a, b] = &stores;
        prop_assert_eq!(a.trace_ids(), b.trace_ids());
        for sn in 0..5 {
            prop_assert_eq!(a.traces_for_sn(sn), b.traces_for_sn(sn));
        }
        for trace_id in 0..6 {
            prop_assert_eq!(a.assemble(trace_id), b.assemble(trace_id));
        }
        prop_assert_eq!(a.dump_jsonl(), b.dump_jsonl());
    }
}

/// A ring of capacity c that records c + k entries drops exactly k, and
/// `zugchain_telemetry_dropped_total` reports it per node, train and kind
/// of entry evicted (`ring="span"|"event"`) through the exposition
/// parser.
#[test]
fn ring_evictions_are_counted_and_exposed() {
    let registry = Arc::new(Registry::new());
    let t = Telemetry::new(4, Arc::clone(&registry), 3).for_train(6);
    // Capacity 3, one ring for both kinds: the five spans fill it and
    // overflow by two, then the seven events evict the three remaining
    // spans and four of their own. Five spans and four events dropped.
    let span = Span {
        trace_id: 1,
        stage: Stage::Decide,
        node: 4,
        start_ms: 0,
        end_ms: 0,
        span_id: 1,
        parent_span: 0,
        train: 6,
        sn: 1,
    };
    (0..5).for_each(|_| t.record_span(|| span.clone()));
    (0..7).for_each(|sn| t.record_with(|| TraceEvent::Checkpoint { sn }));
    let parsed = parse_prometheus(&registry.render_prometheus()).expect("exposition parses");
    for (ring, dropped) in [("span", 5.0), ("event", 4.0)] {
        let labels =
            [("node", "4"), ("ring", ring), ("train", "6")].map(|(k, v)| (k.into(), v.into()));
        let sample = parsed
            .iter()
            .find(|s| s.name == "zugchain_telemetry_dropped_total" && s.labels == labels)
            .expect("drop counter exposed");
        assert_eq!(sample.value, dropped, "ring {ring}");
    }
}
