//! The node-level [`Observer`]: maps the typed traffic at the
//! [`Driver`](zugchain_machine::Driver) seam — inputs, effects and the
//! timer lifecycle of a [`TrainMachine`] — into the structured
//! [`TraceEvent`] vocabulary of the trace ring. Every runtime that
//! drives nodes through the shared driver (simulator, threaded, TCP,
//! chaos) gets identical traces by attaching this one observer.

use zugchain_machine::{Effect, MachineEffect, Observer};
use zugchain_telemetry::{Telemetry, TraceEvent};

use crate::messages::TimerId;
use crate::node::{NodeEvent, NodeInput, TrainMachine, TrainNode};

/// Renders a [`TimerId`] as the short label used in traces.
pub fn timer_label(id: &TimerId) -> String {
    match id {
        TimerId::Soft(digest) => format!("soft({})", digest.short()),
        TimerId::Hard(digest) => format!("hard({})", digest.short()),
        TimerId::ViewChange(view) => format!("view-change({view})"),
        TimerId::BatchFlush => "batch-flush".to_string(),
        TimerId::CollectorPrepare(sn) => format!("collector-prepare({sn})"),
        TimerId::CollectorCommit(sn) => format!("collector-commit({sn})"),
    }
}

/// Observer wiring one node's [`Telemetry`] handle into its driver.
///
/// Message deliveries, protocol milestones (decide, view change,
/// checkpoint, state transfer — read off the machine's
/// [`NodeEvent`] outputs), send/broadcast effects, and the timer
/// lifecycle (with generations) all land in the node's trace ring,
/// timestamped from the telemetry clock.
#[derive(Debug, Clone)]
pub struct NodeObserver {
    telemetry: Telemetry,
}

impl NodeObserver {
    /// Wraps a telemetry handle. A disabled handle yields an observer
    /// whose every hook is a no-op branch.
    pub fn new(telemetry: Telemetry) -> Self {
        Self { telemetry }
    }

    /// The wrapped telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

impl<N: TrainNode> Observer<TrainMachine<N>> for NodeObserver {
    fn input(&mut self, input: &NodeInput) {
        if let NodeInput::Message(message) = input {
            self.telemetry.record_with(|| TraceEvent::MessageDelivered {
                kind: message.kind(),
            });
        }
    }

    fn effect(&mut self, effect: &MachineEffect<TrainMachine<N>>) {
        match effect {
            Effect::Output(event) => {
                self.telemetry.record_with(|| match event {
                    NodeEvent::Logged { sn, origin, .. } => TraceEvent::Decide {
                        sn: *sn,
                        origin: origin.0,
                    },
                    NodeEvent::NewPrimary { view, primary } => TraceEvent::ViewChange {
                        view: *view,
                        primary: primary.0,
                    },
                    NodeEvent::CheckpointStable { proof } => TraceEvent::Checkpoint {
                        sn: proof.checkpoint.sn,
                    },
                    NodeEvent::StateTransferNeeded { to_sn, .. } => {
                        TraceEvent::StateTransfer { target_sn: *to_sn }
                    }
                    NodeEvent::BlockCreated { .. } => TraceEvent::EffectEmitted {
                        kind: "block-created",
                    },
                });
            }
            Effect::Send { .. } | Effect::Broadcast { .. } => {
                let kind = effect.kind().as_str();
                self.telemetry
                    .record_with(|| TraceEvent::EffectEmitted { kind });
            }
            // Timer effects are traced via the dedicated hooks below,
            // which carry the assigned generation.
            Effect::SetTimer { .. } | Effect::CancelTimer { .. } => {}
        }
    }

    fn timer_set(&mut self, id: &TimerId, gen: u64, duration_ms: u64) {
        self.telemetry.record_with(|| TraceEvent::TimerSet {
            timer: timer_label(id),
            generation: gen,
            duration_ms,
        });
    }

    fn timer_cancelled(&mut self, id: &TimerId) {
        self.telemetry.record_with(|| TraceEvent::TimerCancelled {
            timer: timer_label(id),
        });
    }

    fn timer_fired(&mut self, id: &TimerId, gen: u64, stale: bool) {
        self.telemetry.record_with(|| TraceEvent::TimerFired {
            timer: timer_label(id),
            generation: gen,
            stale,
        });
    }
}
