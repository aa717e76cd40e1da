//! The one threaded node event loop.
//!
//! The channel runtime ([`runtime`](crate::runtime)) and the TCP mesh
//! ([`tcp`](crate::tcp)) used to carry two near-identical copies of the
//! same loop: receive with a timeout, fire due timers, match over node
//! actions. Both now share this module — a `zugchain_machine::Driver`
//! over [`TrainMachine<ZugchainNode>`] plus a [`PeerLink`] that captures
//! the only real difference between them: how a [`Frame`] reaches a peer.
//!
//! Channels deliver by cloning the message out of the frame (never
//! encoding); TCP writes [`Frame::bytes`] — computed once per broadcast —
//! to every socket.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use zugchain::{
    NodeEvent, NodeInput, NodeMessage, NodeObserver, TimerId, TrainMachine, TrainNode as _,
    ZugchainNode,
};
use zugchain_blockchain::DiskStore;
use zugchain_machine::{Driver, Frame, Host};
use zugchain_mvb::Telegram;
use zugchain_pbft::NodeId;
use zugchain_telemetry::Telemetry;

use crate::runtime::{ClusterEvent, NodeSummary};

/// Input to a threaded node loop, shared by both transports.
#[derive(Debug)]
pub(crate) enum LoopInput {
    /// A consolidated bus payload delivered to this node.
    RawPayload(Vec<u8>),
    /// Telegrams of one bus cycle.
    Telegrams {
        cycle: u64,
        time_ms: u64,
        telegrams: Vec<Telegram>,
    },
    /// A network message from a peer.
    Message(NodeMessage),
    /// Crash the node (stop processing, keep the thread for state
    /// collection).
    Crash,
    /// Stop and report state.
    Shutdown,
}

/// How outbound frames leave a node — the only transport-specific part of
/// the loop.
pub(crate) trait PeerLink {
    /// Cluster size (including this node).
    fn peer_count(&self) -> usize;

    /// Delivers `frame` to peer `to` (never called with `to == self`).
    fn deliver(&mut self, to: usize, frame: &Frame<NodeMessage>);
}

/// A crossbeam-channel link: in-process delivery clones the message out
/// of the frame; nothing is ever wire-encoded.
pub(crate) struct ChannelLink {
    pub(crate) peers: Vec<Sender<LoopInput>>,
}

impl PeerLink for ChannelLink {
    fn peer_count(&self) -> usize {
        self.peers.len()
    }

    fn deliver(&mut self, to: usize, frame: &Frame<NodeMessage>) {
        if let Some(sender) = self.peers.get(to) {
            let _ = sender.send(LoopInput::Message(frame.to_message()));
        }
    }
}

/// The runtime-mechanics side of the driver: frames go through the link,
/// timers into a deadline map served by `recv_timeout`, outputs onto the
/// cluster event stream (with blocks persisted *before* being reported).
struct ThreadHost<'a, T: PeerLink> {
    id: NodeId,
    link: &'a mut T,
    deadlines: &'a mut BTreeMap<TimerId, (Instant, u64)>,
    events: &'a Sender<ClusterEvent>,
    disk: Option<&'a DiskStore>,
}

impl<T: PeerLink> Host<TrainMachine<ZugchainNode>> for ThreadHost<'_, T> {
    fn send(&mut self, to: NodeId, frame: &Frame<NodeMessage>) {
        if to != self.id && (to.0 as usize) < self.link.peer_count() {
            self.link.deliver(to.0 as usize, frame);
        }
    }

    fn broadcast(&mut self, frame: &Frame<NodeMessage>) {
        for peer in 0..self.link.peer_count() {
            if peer as u64 != self.id.0 {
                self.link.deliver(peer, frame);
            }
        }
    }

    fn set_timer(&mut self, id: TimerId, gen: u64, duration_ms: u64) {
        self.deadlines.insert(
            id,
            (Instant::now() + Duration::from_millis(duration_ms), gen),
        );
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.deadlines.remove(&id);
    }

    fn output(&mut self, output: NodeEvent) {
        match output {
            NodeEvent::Logged {
                sn,
                origin,
                payload,
                digest,
            } => {
                let _ = self.events.send(ClusterEvent::Logged {
                    node: self.id,
                    sn,
                    origin,
                    payload_len: payload.len(),
                    digest,
                });
            }
            NodeEvent::BlockCreated { block } => {
                if let Some(disk) = self.disk {
                    // Durable before reported: a block is only announced
                    // once it would survive power loss.
                    disk.write_block(&block).expect("persist block");
                }
                let _ = self.events.send(ClusterEvent::BlockCreated {
                    node: self.id,
                    height: block.height(),
                    hash: block.hash(),
                });
            }
            NodeEvent::CheckpointStable { proof } => {
                if let Some(disk) = self.disk {
                    disk.write_proof(proof.checkpoint.sn, &zugchain_wire::to_bytes(&proof))
                        .expect("persist checkpoint proof");
                }
                let _ = self.events.send(ClusterEvent::CheckpointStable {
                    node: self.id,
                    sn: proof.checkpoint.sn,
                });
            }
            NodeEvent::NewPrimary { view, primary } => {
                let _ = self.events.send(ClusterEvent::ViewChange {
                    node: self.id,
                    view,
                    primary,
                });
            }
            NodeEvent::StateTransferNeeded { .. } => {}
        }
    }
}

/// The per-node event loop: inputs in, effects routed by the driver,
/// timers via `recv_timeout` against the earliest deadline.
pub(crate) fn node_loop<T: PeerLink>(
    mut node: ZugchainNode,
    inbox: Receiver<LoopInput>,
    mut link: T,
    events: Sender<ClusterEvent>,
    disk: Option<DiskStore>,
    telemetry: Telemetry,
) -> NodeSummary {
    let id = node.id();
    let start = Instant::now();
    node.set_telemetry(&telemetry);
    // A node thread that dies mid-run leaves its last events on stderr.
    telemetry.dump_on_panic();
    let mut driver = Driver::with_observer(
        TrainMachine(node),
        Box::new(NodeObserver::new(telemetry.clone())),
    );
    let mut deadlines: BTreeMap<TimerId, (Instant, u64)> = BTreeMap::new();
    let mut crashed = false;

    loop {
        // Live runtimes stamp traces with wall time since cluster start.
        telemetry.set_time_ms(start.elapsed().as_millis() as u64);
        let now = Instant::now();
        let timeout = deadlines
            .values()
            .map(|(deadline, _)| deadline.saturating_duration_since(now))
            .min()
            .unwrap_or(Duration::from_millis(100));

        let input = match inbox.recv_timeout(timeout) {
            Ok(LoopInput::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
            Ok(LoopInput::Crash) => {
                crashed = true;
                deadlines.clear();
                driver.clear_timers();
                None
            }
            Ok(input) if crashed => {
                drop(input);
                None
            }
            Ok(LoopInput::RawPayload(payload)) => Some(NodeInput::RawPayload {
                payload,
                time_ms: start.elapsed().as_millis() as u64,
            }),
            Ok(LoopInput::Telegrams {
                cycle,
                time_ms,
                telegrams,
            }) => Some(NodeInput::BusCycle {
                source: 0,
                cycle,
                time_ms,
                telegrams,
            }),
            Ok(LoopInput::Message(message)) => Some(NodeInput::Message(message)),
            Err(RecvTimeoutError::Timeout) => None,
        };

        if let Some(input) = input {
            let mut host = ThreadHost {
                id,
                link: &mut link,
                deadlines: &mut deadlines,
                events: &events,
                disk: disk.as_ref(),
            };
            driver.on_input(input, &mut host);
        }

        // Fire due timers.
        if !crashed {
            let now = Instant::now();
            let due: Vec<(TimerId, u64)> = deadlines
                .iter()
                .filter(|(_, (deadline, _))| *deadline <= now)
                .map(|(timer, (_, gen))| (*timer, *gen))
                .collect();
            for (timer, gen) in due {
                // A previously fired timer may have re-armed this one: only
                // consume the deadline if it still belongs to `gen`.
                match deadlines.get(&timer) {
                    Some((_, current)) if *current == gen => deadlines.remove(&timer),
                    _ => continue,
                };
                let mut host = ThreadHost {
                    id,
                    link: &mut link,
                    deadlines: &mut deadlines,
                    events: &events,
                    disk: disk.as_ref(),
                };
                driver.on_timer_fired(timer, gen, &mut host);
            }
        }
    }

    let mut node = driver.into_machine().0;
    NodeSummary {
        id,
        stats: node.stats(),
        stable_proofs: node.stable_proofs().to_vec(),
        chain: std::mem::take(node.chain_mut()),
    }
}
