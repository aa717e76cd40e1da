//! Causal spans: the distributed-tracing half of the telemetry crate
//! (DESIGN.md §17).
//!
//! A [`Span`] is one pipeline stage of one request's lifecycle on one
//! node, timestamped from the runtime-driven trace clock — virtual
//! milliseconds under the simulator, so a seeded run dumps
//! byte-identical spans. Each span is stored once, in its node's trace
//! ring next to the node's point events; when the runtime wires one up,
//! a cluster-shared [`TraceStore`] reads every node's ring and joins
//! spans by trace id so the serving layer can assemble a whole
//! lifecycle.

use std::collections::BTreeSet;
use std::sync::Mutex;

use crate::json::JsonObject;
use crate::recorder::SharedRing;

/// The pipeline stages of a request's life, in causal order. The
/// vocabulary is closed: stage names appear in metric labels, JSONL
/// dumps, and the trace API, and the assembly order below is the
/// canonical chain order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// MVB bus read: the payload came into existence on the origin node.
    Record,
    /// The origin submitted the request into ordering (propose or
    /// broadcast/forward toward the primary).
    Submit,
    /// The primary flushed the batch containing the request into a
    /// preprepare.
    BatchFlush,
    /// A replica accepted the preprepare carrying the request.
    PrePrepare,
    /// A replica completed the prepare phase for the request's slot.
    Prepare,
    /// A replica completed the commit phase for the request's slot.
    Commit,
    /// The request entered the totally ordered log.
    Decide,
    /// An export round moved the request's block to a data center.
    Export,
    /// A juridical archive ingested the certified segment holding it.
    Ingest,
    /// The request became servable through the archive's query surface.
    Servable,
}

/// Every stage, in canonical chain order.
pub const STAGES: [Stage; 10] = [
    Stage::Record,
    Stage::Submit,
    Stage::BatchFlush,
    Stage::PrePrepare,
    Stage::Prepare,
    Stage::Commit,
    Stage::Decide,
    Stage::Export,
    Stage::Ingest,
    Stage::Servable,
];

impl Stage {
    /// The stable string form used in labels, dumps, and span-id
    /// derivation.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Record => "record",
            Stage::Submit => "submit",
            Stage::BatchFlush => "batch_flush",
            Stage::PrePrepare => "preprepare",
            Stage::Prepare => "prepare",
            Stage::Commit => "commit",
            Stage::Decide => "decide",
            Stage::Export => "export",
            Stage::Ingest => "ingest",
            Stage::Servable => "servable",
        }
    }

    /// Position in the canonical chain order (the declaration order,
    /// so `STAGES[stage.order()] == stage`).
    pub fn order(self) -> usize {
        self as usize
    }

    /// Parses the string form written by [`as_str`](Self::as_str).
    pub fn parse(s: &str) -> Option<Self> {
        STAGES.iter().copied().find(|stage| stage.as_str() == s)
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One stage of one request's lifecycle on one node.
///
/// The derived `Ord` is the canonical order, so field order matters:
/// by trace, then stage order, node, and start and end time; the
/// remaining fields only break exact ties.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    /// Trace this span belongs to
    /// ([`zugchain_wire::derive_trace_id`]-compatible; never 0 for a
    /// real span).
    pub trace_id: u64,
    /// Pipeline stage.
    pub stage: Stage,
    /// Recording node.
    pub node: u64,
    /// Stage start on the trace clock.
    pub start_ms: u64,
    /// Stage end on the trace clock (`>= start_ms`).
    pub end_ms: u64,
    /// This span's id ([`zugchain_wire::derive_span_id`]-compatible).
    pub span_id: u64,
    /// The causal parent's span id (0 for the root `record` span).
    pub parent_span: u64,
    /// Train the trace belongs to (0 for the default train).
    pub train: u64,
    /// Consensus sequence number, once assigned (0 before ordering).
    pub sn: u64,
}

impl Span {
    /// Stage duration in milliseconds.
    pub fn latency_ms(&self) -> u64 {
        self.end_ms.saturating_sub(self.start_ms)
    }

    /// Renders this span as one flat JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .field_u64("trace_id", self.trace_id)
            .field_u64("span_id", self.span_id)
            .field_u64("parent_span", self.parent_span)
            .field_str("stage", self.stage.as_str())
            .field_u64("node", self.node)
            .field_u64("train", self.train)
            .field_u64("sn", self.sn)
            .field_u64("start_ms", self.start_ms)
            .field_u64("end_ms", self.end_ms)
            .finish()
    }
}

/// The cluster-shared join point: a read-time view over every
/// registered trace ring, reading only the spans in it. A span is stored
/// once, in its recording handle's ring, so recording takes no shared
/// lock and retention is the ring capacity (newest entries win). Rings
/// are held by `Arc`: a crashed or dropped node's spans stay readable
/// while the store lives. One store per cluster/simulation, shared by
/// `Arc` with every node.
#[derive(Debug, Default)]
pub struct TraceStore {
    rings: Mutex<Vec<SharedRing>>,
}

impl TraceStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a recording handle's ring to the view.
    pub(crate) fn register(&self, ring: SharedRing) {
        self.rings.lock().expect("trace store poisoned").push(ring);
    }

    /// What `pick` maps the retained spans to, sorted and deduplicated:
    /// the one scan behind every read, locking one ring at a time.
    fn select<T: Ord>(&self, pick: impl Fn(&Span) -> Option<T>) -> Vec<T> {
        let mut out = Vec::new();
        for ring in self.rings.lock().expect("trace store poisoned").iter() {
            let ring = ring.lock().expect("trace ring poisoned");
            out.extend(ring.spans().filter_map(&pick));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of distinct traces retained.
    pub fn trace_count(&self) -> usize {
        self.trace_ids().len()
    }

    /// Every retained trace id, ascending.
    pub fn trace_ids(&self) -> Vec<u64> {
        self.select(|span| Some(span.trace_id))
    }

    /// Trace ids that have a retained span carrying consensus sequence
    /// number `sn` (never 0, the sn of a not-yet-ordered span),
    /// ascending: what `/v1/trains/<id>/trace/<sn>` serves. More than
    /// one id at one sn is itself evidence: honest replicas decide
    /// exactly one request per sn.
    pub fn traces_for_sn(&self, sn: u64) -> Vec<u64> {
        self.select(|span| (sn != 0 && span.sn == sn).then_some(span.trace_id))
    }

    /// Assembles one trace: every node's retained spans for `trace_id`
    /// in canonical order (stage, then node, then start time; see
    /// [`Span`]) without duplicates, so the result depends neither on
    /// arrival interleaving nor on the order rings were registered in.
    pub fn assemble(&self, trace_id: u64) -> Vec<Span> {
        self.select(|span| (span.trace_id == trace_id).then(|| span.clone()))
    }

    /// Dumps every retained span as JSONL in canonical order (trace id,
    /// then each trace's assembly order), from one scan.
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for span in self.select(|span| Some(span.clone())) {
            out.push_str(&span.to_json());
            out.push('\n');
        }
        out
    }
}

/// The result of validating one assembled trace as a lifecycle chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainCheck {
    /// The chain covers every required stage with monotone timestamps.
    Complete,
    /// A required stage is missing.
    MissingStage(Stage),
    /// Two consecutive spans (canonical order) go backwards in time.
    NonMonotone {
        /// The earlier stage (whose end is after the later start).
        from: Stage,
        /// The later stage.
        to: Stage,
    },
    /// A span names a parent that is neither 0 nor a span in the trace.
    OrphanSpan(Stage),
}

/// Validates an assembled span chain: every stage in `required` must be
/// present, timestamps must be monotone along the canonical stage
/// order, and no span may dangle off a parent outside the trace.
pub fn check_chain(spans: &[Span], required: &[Stage]) -> ChainCheck {
    let ids: BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
    for span in spans {
        if span.parent_span != 0 && !ids.contains(&span.parent_span) {
            return ChainCheck::OrphanSpan(span.stage);
        }
    }
    for stage in required {
        if !spans.iter().any(|s| s.stage == *stage) {
            return ChainCheck::MissingStage(*stage);
        }
    }
    // Monotonicity across stages: the earliest start of each present
    // stage must not precede the earliest start of any earlier stage.
    let mut last: Option<(Stage, u64)> = None;
    for stage in STAGES {
        let Some(start) = spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.start_ms)
            .min()
        else {
            continue;
        };
        if let Some((prev, prev_start)) = last {
            if start < prev_start {
                return ChainCheck::NonMonotone {
                    from: prev,
                    to: stage,
                };
            }
        }
        last = Some((stage, start));
    }
    for span in spans {
        if span.end_ms < span.start_ms {
            return ChainCheck::NonMonotone {
                from: span.stage,
                to: span.stage,
            };
        }
    }
    ChainCheck::Complete
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    fn span(stage: Stage, node: u64, start: u64, end: u64) -> Span {
        Span {
            trace_id: 7,
            span_id: zugchain_span_id(7, stage, node),
            parent_span: 0,
            stage,
            node,
            train: 1,
            sn: 4,
            start_ms: start,
            end_ms: end,
        }
    }

    // Local stand-in for the wire crate's derivation (telemetry must
    // not depend on wire); only uniqueness matters here.
    fn zugchain_span_id(trace: u64, stage: Stage, node: u64) -> u64 {
        trace
            .wrapping_mul(1000)
            .wrapping_add(stage.order() as u64 * 10)
            .wrapping_add(node)
    }

    #[test]
    fn stage_vocabulary_round_trips() {
        for stage in STAGES {
            assert_eq!(Stage::parse(stage.as_str()), Some(stage));
        }
        assert_eq!(Stage::parse("warp"), None);
        for (i, stage) in STAGES.iter().enumerate() {
            assert_eq!(stage.order(), i, "{stage}");
        }
    }

    #[test]
    fn span_json_round_trips() {
        let s = span(Stage::Decide, 2, 10, 12);
        let parsed = crate::parse_jsonl(&format!("{}\n", s.to_json())).unwrap();
        assert_eq!(parsed, vec![crate::ParsedRecord::Span(s)]);
    }

    #[test]
    fn buffer_keeps_the_newest_spans() {
        let mut ring = crate::recorder::TraceRing::new(2);
        for i in 0..5u64 {
            ring.record(crate::recorder::Entry::Span(span(Stage::Record, i, i, i)));
        }
        let kept: Vec<u64> = ring.spans().map(|s| s.node).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    /// A store holding `spans`, each recorded through its node's handle
    /// (nodes 0 and 1). The handles are dropped; their rings stay
    /// readable through the store.
    fn store_of(spans: impl IntoIterator<Item = Span>) -> Arc<TraceStore> {
        let (store, registry) = (
            Arc::new(TraceStore::new()),
            Arc::new(crate::Registry::new()),
        );
        let handle =
            |node| crate::Telemetry::new_with_store(node, registry.clone(), 8, Some(store.clone()));
        let handles = [handle(0), handle(1)];
        for s in spans {
            handles[s.node as usize].record_span(|| s);
        }
        store
    }

    #[test]
    fn store_joins_across_nodes_and_sorts_canonically() {
        // Recorded out of order, across nodes.
        let store = store_of([
            span(Stage::Commit, 1, 20, 21),
            span(Stage::Record, 0, 1, 2),
            span(Stage::Commit, 0, 19, 22),
        ]);
        let spans = store.assemble(7);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].stage, Stage::Record);
        assert_eq!(spans[1].node, 0);
        assert_eq!(spans[2].node, 1);
        assert_eq!(store.traces_for_sn(4), vec![7]);
        assert!(store.traces_for_sn(5).is_empty());
    }

    #[test]
    fn chain_check_flags_gaps_and_time_travel() {
        let required = [Stage::Record, Stage::Decide];
        let mut spans = vec![span(Stage::Record, 0, 1, 2)];
        assert_eq!(
            check_chain(&spans, &required),
            ChainCheck::MissingStage(Stage::Decide)
        );
        spans.push(span(Stage::Decide, 0, 10, 11));
        assert_eq!(check_chain(&spans, &required), ChainCheck::Complete);
        // A decide that starts before the record is time travel.
        spans[1].start_ms = 0;
        assert!(matches!(
            check_chain(&spans, &required),
            ChainCheck::NonMonotone { .. }
        ));
        spans[1].start_ms = 10;
        spans[1].parent_span = 999;
        assert_eq!(
            check_chain(&spans, &required),
            ChainCheck::OrphanSpan(Stage::Decide)
        );
    }
}
