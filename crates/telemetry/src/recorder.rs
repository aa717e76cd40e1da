//! The flight recorder: a fixed-capacity ring buffer of structured
//! trace events, dumped as one flat JSON object per line (JSONL).
//! Timestamps come from the runtime-driven [`crate::Telemetry`] clock,
//! so a simulated run dumps byte-identical traces for the same seed.

use std::collections::VecDeque;

use crate::json::{parse_flat_object, push_field, JsonValue};

/// One structured event in a node's flight-recorder trace. The
/// vocabulary covers the observable life of a replica: bus/peer inputs,
/// driver effects, timers (with the [`zugchain-machine`] generation
/// discipline), and the protocol milestones every runtime shares.
///
/// [`zugchain-machine`]: https://docs.rs/zugchain-machine
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A peer or bus message was delivered to the node.
    MessageDelivered {
        /// Short message-kind label (e.g. `preprepare`).
        kind: String,
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

    fn fields(&self) -> Vec<(&'static str, JsonValue)> {
        match self {
            TraceEvent::MessageDelivered { kind } => {
                vec![("msg", JsonValue::Str(kind.clone()))]
            }
            TraceEvent::EffectEmitted { kind } => {
                vec![("effect", JsonValue::Str((*kind).to_string()))]
            }
            TraceEvent::TimerSet {
                timer,
                generation,
                duration_ms,
            } => vec![
                ("timer", JsonValue::Str(timer.clone())),
                ("gen", JsonValue::U64(*generation)),
                ("duration_ms", JsonValue::U64(*duration_ms)),
            ],
            TraceEvent::TimerCancelled { timer } => {
                vec![("timer", JsonValue::Str(timer.clone()))]
            }
            TraceEvent::TimerFired {
                timer,
                generation,
                stale,
            } => vec![
                ("timer", JsonValue::Str(timer.clone())),
                ("gen", JsonValue::U64(*generation)),
                ("stale", JsonValue::Bool(*stale)),
            ],
            TraceEvent::Decide { sn, origin } => vec![
                ("sn", JsonValue::U64(*sn)),
                ("origin", JsonValue::U64(*origin)),
            ],
            TraceEvent::ViewChange { view, primary } => vec![
                ("view", JsonValue::U64(*view)),
                ("primary", JsonValue::U64(*primary)),
            ],
            TraceEvent::Checkpoint { sn } => vec![("sn", JsonValue::U64(*sn))],
            TraceEvent::StateTransfer { target_sn } => {
                vec![("target_sn", JsonValue::U64(*target_sn))]
            }
            TraceEvent::ExportRound { blocks } => vec![("blocks", JsonValue::U64(*blocks))],
            TraceEvent::ArchiveIngest { seq, blocks } => vec![
                ("seq", JsonValue::U64(*seq)),
                ("blocks", JsonValue::U64(*blocks)),
            ],
            TraceEvent::Mark { label } => vec![("label", JsonValue::Str(label.clone()))],
        }
    }
}

/// One timestamped entry in the ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Trace-clock milliseconds at record time.
    pub time_ms: u64,
    /// Recording node.
    pub node: u64,
    /// Monotone per-recorder sequence number (survives ring eviction,
    /// so gaps reveal how much history was dropped).
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Renders this record as one flat JSON object (no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        push_field(&mut out, &mut first, "t_ms", &JsonValue::U64(self.time_ms));
        push_field(&mut out, &mut first, "node", &JsonValue::U64(self.node));
        push_field(&mut out, &mut first, "seq", &JsonValue::U64(self.seq));
        push_field(
            &mut out,
            &mut first,
            "kind",
            &JsonValue::Str(self.event.kind().to_string()),
        );
        for (key, value) in self.event.fields() {
            push_field(&mut out, &mut first, key, &value);
        }
        out.push('}');
        out
    }
}

/// A fixed-capacity ring buffer of [`TraceRecord`]s: constant memory,
/// newest events win.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    next_seq: u64,
    events: VecDeque<TraceRecord>,
}

impl FlightRecorder {
    /// An empty recorder retaining at most `capacity` events (minimum
    /// 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            next_seq: 0,
            events: VecDeque::new(),
        }
    }

    /// Appends an event, evicting the oldest when full. Returns whether
    /// an event was evicted.
    pub fn record(&mut self, time_ms: u64, node: u64, event: TraceEvent) -> bool {
        let evicted = self.events.len() == self.capacity;
        if evicted {
            self.events.pop_front();
        }
        self.events.push_back(TraceRecord {
            time_ms,
            node,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
        evicted
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The most recent `n` records, oldest first.
    pub fn tail(&self, n: usize) -> Vec<TraceRecord> {
        let skip = self.events.len().saturating_sub(n);
        self.events.iter().skip(skip).cloned().collect()
    }

    /// Dumps the retained events as JSONL, oldest first (one JSON
    /// object per line, trailing newline after each).
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for record in &self.events {
            out.push_str(&record.to_json());
            out.push('\n');
        }
        out
    }
}

/// One record parsed back out of a JSONL dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRecord {
    /// Trace-clock milliseconds.
    pub time_ms: u64,
    /// Recording node.
    pub node: u64,
    /// Recorder sequence number.
    pub seq: u64,
    /// The event-kind discriminant (see [`TraceEvent::kind`]).
    pub kind: String,
    /// The event's remaining fields, in written order.
    pub fields: Vec<(String, JsonValue)>,
}

impl ParsedRecord {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

/// Parses a flight-recorder JSONL dump back into records. Every line
/// must be a flat JSON object with the `t_ms`/`node`/`seq`/`kind`
/// header fields.
pub fn parse_jsonl(text: &str) -> Result<Vec<ParsedRecord>, String> {
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields = parse_flat_object(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        let mut time_ms = None;
        let mut node = None;
        let mut seq = None;
        let mut kind = None;
        let mut rest = Vec::new();
        for (key, value) in fields {
            match key.as_str() {
                "t_ms" => time_ms = value.as_u64(),
                "node" => node = value.as_u64(),
                "seq" => seq = value.as_u64(),
                "kind" => kind = value.as_str().map(str::to_string),
                _ => rest.push((key, value)),
            }
        }
        records.push(ParsedRecord {
            time_ms: time_ms.ok_or_else(|| format!("line {}: missing t_ms", idx + 1))?,
            node: node.ok_or_else(|| format!("line {}: missing node", idx + 1))?,
            seq: seq.ok_or_else(|| format!("line {}: missing seq", idx + 1))?,
            kind: kind.ok_or_else(|| format!("line {}: missing kind", idx + 1))?,
            fields: rest,
        });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_round_trips_through_the_parser() {
        let mut recorder = FlightRecorder::new(8);
        recorder.record(
            1,
            0,
            TraceEvent::MessageDelivered {
                kind: "preprepare".into(),
            },
        );
        recorder.record(2, 0, TraceEvent::Decide { sn: 1, origin: 3 });
        recorder.record(
            3,
            0,
            TraceEvent::TimerFired {
                timer: "view-change(1)".into(),
                generation: 2,
                stale: true,
            },
        );
        let dump = recorder.dump_jsonl();
        let parsed = parse_jsonl(&dump).expect("dump parses");
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].kind, "message");
        assert_eq!(parsed[1].kind, "decide");
        assert_eq!(parsed[1].field("sn"), Some(&JsonValue::U64(1)));
        assert_eq!(parsed[2].field("stale"), Some(&JsonValue::Bool(true)));
        assert_eq!(parsed[2].seq, 2);
    }

    #[test]
    fn eviction_preserves_sequence_numbers() {
        let mut recorder = FlightRecorder::new(2);
        for sn in 0..4 {
            recorder.record(sn, 1, TraceEvent::Checkpoint { sn });
        }
        let tail = recorder.tail(2);
        assert_eq!(tail[0].seq, 2);
        assert_eq!(tail[1].seq, 3);
        assert_eq!(recorder.len(), 2);
    }
}
