//! The per-node trace ring: one fixed-capacity buffer holding a node's
//! causal spans and its point events in recording order, dumped as one
//! flat JSON object per line (JSONL) and read back by [`parse_jsonl`].
//!
//! A point event is a zero-duration entry: its line carries the event
//! `kind`, the recording `node`, `start_ms == end_ms`, and the event's
//! attributes. A span's line is exactly [`Span::to_json`]. Timestamps
//! come from the runtime-driven [`crate::Telemetry`] clock, so a
//! simulated run dumps byte-identical traces for the same seed.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::json::{parse_flat_object, JsonObject, JsonValue};
use crate::span::{Span, Stage};

/// One point event in a node's trace ring. The vocabulary covers the observable life of a replica: bus/peer inputs,
/// driver effects, timers (with the [`zugchain-machine`] generation
/// discipline), and the protocol milestones every runtime shares.
///
/// [`zugchain-machine`]: https://docs.rs/zugchain-machine
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A peer or bus message was delivered to the node.
    MessageDelivered {
        /// Short message-kind label (e.g. `preprepare`).
        kind: &'static str,
    },
    /// The state machine emitted an effect.
    EffectEmitted {
        /// The effect discriminant (`send`, `broadcast`, `set-timer`,
        /// `cancel-timer`, `output`).
        kind: &'static str,
    },
    /// A timer was armed.
    TimerSet {
        /// Timer label (e.g. `view-change(3)`).
        timer: String,
        /// Arming generation from the driver's timer table.
        generation: u64,
        /// Requested duration.
        duration_ms: u64,
    },
    /// A timer was cancelled.
    TimerCancelled {
        /// Timer label.
        timer: String,
    },
    /// A timer expiry was delivered to the driver.
    TimerFired {
        /// Timer label.
        timer: String,
        /// Expiry generation.
        generation: u64,
        /// Whether the expiry was stale (superseded by a re-arm or
        /// cancel) and therefore dropped.
        stale: bool,
    },
    /// A request was decided (entered the totally ordered log).
    Decide {
        /// Assigned sequence number.
        sn: u64,
        /// Node that received the request from the bus.
        origin: u64,
    },
    /// A view change completed.
    ViewChange {
        /// The new view.
        view: u64,
        /// Primary of the new view.
        primary: u64,
    },
    /// A checkpoint became stable.
    Checkpoint {
        /// Sequence number covered by the checkpoint certificate.
        sn: u64,
    },
    /// The node fell behind and requested a state transfer.
    StateTransfer {
        /// The stable sequence number to catch up to.
        target_sn: u64,
    },
    /// An export round completed at a data center.
    ExportRound {
        /// Blocks moved in the round.
        blocks: u64,
    },
    /// A certified segment was ingested by a juridical archive.
    ArchiveIngest {
        /// Segment sequence number.
        seq: u64,
        /// Blocks in the segment.
        blocks: u64,
    },
    /// A free-form annotation (e.g. an invariant-violation note).
    Mark {
        /// The annotation text.
        label: String,
    },
}

impl TraceEvent {
    /// The stable `kind` discriminant written to JSONL.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::MessageDelivered { .. } => "message",
            TraceEvent::EffectEmitted { .. } => "effect",
            TraceEvent::TimerSet { .. } => "timer-set",
            TraceEvent::TimerCancelled { .. } => "timer-cancel",
            TraceEvent::TimerFired { .. } => "timer-fire",
            TraceEvent::Decide { .. } => "decide",
            TraceEvent::ViewChange { .. } => "view-change",
            TraceEvent::Checkpoint { .. } => "checkpoint",
            TraceEvent::StateTransfer { .. } => "state-transfer",
            TraceEvent::ExportRound { .. } => "export-round",
            TraceEvent::ArchiveIngest { .. } => "archive-ingest",
            TraceEvent::Mark { .. } => "mark",
        }
    }

    /// Adds the event's attributes to `line`.
    fn write_attributes(&self, line: JsonObject) -> JsonObject {
        match self {
            TraceEvent::MessageDelivered { kind } => line.field_str("msg", kind),
            TraceEvent::EffectEmitted { kind } => line.field_str("effect", kind),
            TraceEvent::TimerSet {
                timer,
                generation,
                duration_ms,
            } => line
                .field_str("timer", timer)
                .field_u64("gen", *generation)
                .field_u64("duration_ms", *duration_ms),
            TraceEvent::TimerCancelled { timer } => line.field_str("timer", timer),
            TraceEvent::TimerFired {
                timer,
                generation,
                stale,
            } => line
                .field_str("timer", timer)
                .field_u64("gen", *generation)
                .field_bool("stale", *stale),
            TraceEvent::Decide { sn, origin } => {
                line.field_u64("sn", *sn).field_u64("origin", *origin)
            }
            TraceEvent::ViewChange { view, primary } => {
                line.field_u64("view", *view).field_u64("primary", *primary)
            }
            TraceEvent::Checkpoint { sn } => line.field_u64("sn", *sn),
            TraceEvent::StateTransfer { target_sn } => line.field_u64("target_sn", *target_sn),
            TraceEvent::ExportRound { blocks } => line.field_u64("blocks", *blocks),
            TraceEvent::ArchiveIngest { seq, blocks } => {
                line.field_u64("seq", *seq).field_u64("blocks", *blocks)
            }
            TraceEvent::Mark { label } => line.field_str("label", label),
        }
    }
}

/// One entry of a trace ring.
#[derive(Debug)]
pub(crate) enum Entry {
    /// A causal span.
    Span(Span),
    /// A point event recorded by `node` at `at_ms` on the trace clock.
    Event {
        at_ms: u64,
        node: u64,
        event: TraceEvent,
    },
}

impl Entry {
    /// The `ring` label its eviction is counted under in
    /// `zugchain_telemetry_dropped_total`.
    pub(crate) fn ring_label(&self) -> &'static str {
        match self {
            Entry::Span(_) => "span",
            Entry::Event { .. } => "event",
        }
    }

    /// Renders this entry as one flat JSON object (no trailing newline).
    pub(crate) fn to_json(&self) -> String {
        match self {
            Entry::Span(span) => span.to_json(),
            Entry::Event { at_ms, node, event } => event
                .write_attributes(
                    JsonObject::new()
                        .field_str("kind", event.kind())
                        .field_u64("node", *node)
                        .field_u64("start_ms", *at_ms)
                        .field_u64("end_ms", *at_ms),
                )
                .finish(),
        }
    }
}

/// A fixed-capacity ring of [`Entry`]s, one per recording handle:
/// constant memory, newest entries win, and the only copy of each span,
/// which a [`crate::TraceStore`] reads in place.
#[derive(Debug)]
pub(crate) struct TraceRing {
    capacity: usize,
    entries: VecDeque<Entry>,
}

impl TraceRing {
    /// An empty ring retaining at most `capacity` entries (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: VecDeque::new(),
        }
    }

    /// Appends an entry, evicting the oldest when full. Returns the
    /// evicted entry.
    pub(crate) fn record(&mut self, entry: Entry) -> Option<Entry> {
        let evicted = if self.entries.len() == self.capacity {
            self.entries.pop_front()
        } else {
            None
        };
        self.entries.push_back(entry);
        evicted
    }

    /// Retained spans, oldest first.
    pub(crate) fn spans(&self) -> impl Iterator<Item = &Span> {
        self.entries.iter().filter_map(|entry| match entry {
            Entry::Span(span) => Some(span),
            Entry::Event { .. } => None,
        })
    }

    /// Dumps the retained entries as JSONL, oldest first (one JSON
    /// object per line, trailing newline after each).
    pub(crate) fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            out.push_str(&entry.to_json());
            out.push('\n');
        }
        out
    }
}

/// A trace ring shared between the recording [`crate::Telemetry`]
/// handle, its only writer, and the [`crate::TraceStore`] and panic
/// hook that read it.
pub(crate) type SharedRing = Arc<Mutex<TraceRing>>;

/// One trace-ring entry read back from a JSONL dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsedRecord {
    /// A causal span, exactly as recorded.
    Span(Span),
    /// A point event.
    Event {
        /// Trace-clock milliseconds (the line's `start_ms == end_ms`).
        at_ms: u64,
        /// Recording node.
        node: u64,
        /// The event-kind discriminant (see [`TraceEvent::kind`]).
        kind: String,
        /// The event's attributes, in written order.
        fields: Vec<(String, JsonValue)>,
    },
}

impl ParsedRecord {
    /// The span, if this record is one.
    pub fn span(&self) -> Option<&Span> {
        match self {
            ParsedRecord::Span(span) => Some(span),
            ParsedRecord::Event { .. } => None,
        }
    }

    /// The event kind ([`TraceEvent::kind`]), or `None` for a span.
    pub fn kind(&self) -> Option<&str> {
        match self {
            ParsedRecord::Span(_) => None,
            ParsedRecord::Event { kind, .. } => Some(kind),
        }
    }

    /// Looks up an event attribute by name (`None` for a span).
    pub fn field(&self, name: &str) -> Option<&JsonValue> {
        match self {
            ParsedRecord::Span(_) => None,
            ParsedRecord::Event { fields, .. } => {
                fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
            }
        }
    }
}

/// Parses a trace-ring JSONL dump back into records: a line with a
/// `kind` field is a point event, any other line a span.
///
/// # Errors
///
/// A message naming the first offending line.
pub fn parse_jsonl(text: &str) -> Result<Vec<ParsedRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(idx, line)| {
            parse_flat_object(line)
                .and_then(parse_record)
                .map_err(|e| format!("line {}: {e}", idx + 1))
        })
        .collect()
}

/// One parsed line's fields as a record.
fn parse_record(mut fields: Vec<(String, JsonValue)>) -> Result<ParsedRecord, String> {
    fn take(fields: &mut Vec<(String, JsonValue)>, name: &str) -> Result<JsonValue, String> {
        let pos = fields.iter().position(|(k, _)| k == name);
        pos.map(|pos| fields.remove(pos).1)
            .ok_or_else(|| format!("missing {name}"))
    }
    let take_u64 = |fields: &mut Vec<_>, name: &str| {
        take(fields, name)?
            .as_u64()
            .ok_or_else(|| format!("{name} is not a number"))
    };
    let take_str = |fields: &mut Vec<_>, name: &str| match take(fields, name)? {
        JsonValue::Str(s) => Ok(s),
        _ => Err(format!("{name} is not a string")),
    };
    if fields.iter().any(|(k, _)| k == "kind") {
        let kind = take_str(&mut fields, "kind")?;
        let node = take_u64(&mut fields, "node")?;
        let at_ms = take_u64(&mut fields, "start_ms")?;
        if take_u64(&mut fields, "end_ms")? != at_ms {
            return Err("an event must have start_ms == end_ms".into());
        }
        return Ok(ParsedRecord::Event {
            at_ms,
            node,
            kind,
            fields,
        });
    }
    let stage = take_str(&mut fields, "stage")?;
    let stage = Stage::parse(&stage).ok_or_else(|| format!("unknown stage {stage:?}"))?;
    let mut u64_field = |name| take_u64(&mut fields, name);
    Ok(ParsedRecord::Span(Span {
        trace_id: u64_field("trace_id")?,
        span_id: u64_field("span_id")?,
        parent_span: u64_field("parent_span")?,
        stage,
        node: u64_field("node")?,
        train: u64_field("train")?,
        sn: u64_field("sn")?,
        start_ms: u64_field("start_ms")?,
        end_ms: u64_field("end_ms")?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(at_ms: u64, event: TraceEvent) -> Entry {
        Entry::Event {
            at_ms,
            node: 0,
            event,
        }
    }

    fn span(sn: u64) -> Span {
        Span {
            trace_id: 5,
            stage: Stage::Commit,
            node: 0,
            start_ms: 2,
            end_ms: 4,
            span_id: 6,
            parent_span: 7,
            train: 1,
            sn,
        }
    }

    #[test]
    fn dump_round_trips_through_the_parser() {
        let mut ring = TraceRing::new(8);
        ring.record(event(
            1,
            TraceEvent::MessageDelivered { kind: "preprepare" },
        ));
        ring.record(Entry::Span(span(1)));
        ring.record(event(2, TraceEvent::Decide { sn: 1, origin: 3 }));
        ring.record(event(
            3,
            TraceEvent::TimerFired {
                timer: "view-change(1)".into(),
                generation: 2,
                stale: true,
            },
        ));
        let dump = ring.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines[1], span(1).to_json());
        assert_eq!(
            lines[2],
            r#"{"kind":"decide","node":0,"start_ms":2,"end_ms":2,"sn":1,"origin":3}"#
        );
        let parsed = parse_jsonl(&dump).expect("dump parses");
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed[0].kind(), Some("message"));
        assert_eq!(parsed[1], ParsedRecord::Span(span(1)));
        assert_eq!(parsed[2].kind(), Some("decide"));
        assert_eq!(parsed[2].field("sn"), Some(&JsonValue::U64(1)));
        assert_eq!(
            parsed[3],
            ParsedRecord::Event {
                at_ms: 3,
                node: 0,
                kind: "timer-fire".into(),
                fields: vec![
                    ("timer".into(), JsonValue::Str("view-change(1)".into())),
                    ("gen".into(), JsonValue::U64(2)),
                    ("stale".into(), JsonValue::Bool(true)),
                ],
            }
        );
    }

    #[test]
    fn eviction_returns_the_oldest_entry_of_either_kind() {
        let mut ring = TraceRing::new(2);
        assert!(ring.record(Entry::Span(span(1))).is_none());
        assert!(ring
            .record(event(1, TraceEvent::Checkpoint { sn: 1 }))
            .is_none());
        let evicted = ring.record(event(2, TraceEvent::Checkpoint { sn: 2 }));
        assert_eq!(evicted.map(|e| e.ring_label()), Some("span"));
        let evicted = ring.record(Entry::Span(span(3)));
        assert_eq!(evicted.map(|e| e.ring_label()), Some("event"));
        let kept: Vec<_> = parse_jsonl(&ring.dump_jsonl()).unwrap();
        assert_eq!(kept[0].field("sn"), Some(&JsonValue::U64(2)));
        assert_eq!(kept[1], ParsedRecord::Span(span(3)));
    }

    #[test]
    fn malformed_lines_are_rejected_with_their_line_number() {
        let bad_event = "{\"kind\":\"mark\",\"node\":0,\"start_ms\":1,\"end_ms\":2}";
        let err = parse_jsonl(&format!("\n{bad_event}\n")).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let bad_stage = span(1).to_json().replace("commit", "warp");
        assert!(parse_jsonl(&bad_stage)
            .unwrap_err()
            .contains("unknown stage"));
    }
}
