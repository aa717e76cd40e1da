//! A deterministic, virtual-time cluster harness for unit tests.
//!
//! The real runtimes live in `zugchain-sim`; this harness is the minimum
//! needed to drive [`TrainNode`] implementations through messages and
//! timers inside unit tests.

#![allow(dead_code)] // helpers are used unevenly across the test modules

use std::collections::{BTreeMap, VecDeque};

use zugchain_crypto::{Digest, KeyPair, Keystore};
use zugchain_machine::Effect;
use zugchain_mvb::Nsdb;
use zugchain_pbft::NodeId;

use crate::node::{NodeEvent, TrainNode, ZugchainNode};
use crate::{BaselineNode, NodeConfig, NodeMessage, TimerId};

/// One logged entry observed on a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedEntry {
    /// Sequence number.
    pub sn: u64,
    /// Origin node id.
    pub origin: NodeId,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// The payload digest the log event carried.
    pub digest: Digest,
}

/// A synchronous router with virtual time for a group of train nodes.
pub struct Cluster {
    nodes: Vec<Box<dyn TrainNode>>,
    /// Key pairs, index = node id (for crafting Byzantine messages).
    pub pairs: Vec<KeyPair>,
    /// The group keystore.
    pub keystore: Keystore,
    queue: VecDeque<(usize, NodeMessage)>,
    /// Armed timers: (deadline, node, id). BTreeMap gives deadline order.
    timers: BTreeMap<(u64, usize, TimerId), ()>,
    now_ms: u64,
    silenced: Vec<bool>,
    logged: Vec<Vec<LoggedEntry>>,
    new_primaries: Vec<(usize, u64, NodeId)>,
}

impl Cluster {
    /// Builds a ZugChain cluster of `n` nodes with the testing config.
    pub fn zugchain(n: usize) -> Self {
        Self::zugchain_with_config(n, NodeConfig::default_for_testing())
    }

    /// Builds a ZugChain cluster with an explicit config.
    pub fn zugchain_with_config(n: usize, config: NodeConfig) -> Self {
        let (pairs, keystore) = Keystore::generate(n, 7);
        let nodes: Vec<Box<dyn TrainNode>> = pairs
            .iter()
            .enumerate()
            .map(|(id, key)| {
                Box::new(ZugchainNode::new(
                    id as u64,
                    config.clone(),
                    Nsdb::jru_default(),
                    key.clone(),
                    keystore.clone(),
                )) as Box<dyn TrainNode>
            })
            .collect();
        Self::wrap(nodes, pairs, keystore)
    }

    /// Builds a baseline cluster of `n` nodes with the testing config.
    pub fn baseline(n: usize) -> Self {
        let config = NodeConfig::default_for_testing();
        let (pairs, keystore) = Keystore::generate(n, 7);
        let nodes: Vec<Box<dyn TrainNode>> = pairs
            .iter()
            .enumerate()
            .map(|(id, key)| {
                Box::new(BaselineNode::new(
                    id as u64,
                    config.clone(),
                    Nsdb::jru_default(),
                    key.clone(),
                    keystore.clone(),
                )) as Box<dyn TrainNode>
            })
            .collect();
        Self::wrap(nodes, pairs, keystore)
    }

    fn wrap(nodes: Vec<Box<dyn TrainNode>>, pairs: Vec<KeyPair>, keystore: Keystore) -> Self {
        let n = nodes.len();
        Self {
            nodes,
            pairs,
            keystore,
            queue: VecDeque::new(),
            timers: BTreeMap::new(),
            now_ms: 0,
            silenced: vec![false; n],
            logged: vec![Vec::new(); n],
            new_primaries: Vec::new(),
        }
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Read access to a node.
    pub fn node(&self, index: usize) -> &dyn TrainNode {
        self.nodes[index].as_ref()
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, index: usize) -> &mut dyn TrainNode {
        self.nodes[index].as_mut()
    }

    /// Drops all traffic to and from a node (crash / isolation).
    pub fn silence_node(&mut self, index: usize) {
        self.silenced[index] = true;
    }

    /// Restores a silenced node's connectivity.
    pub fn unsilence_node(&mut self, index: usize) {
        self.silenced[index] = false;
    }

    /// Entries logged on a node, in log order.
    pub fn logged_entries(&self, index: usize) -> &[LoggedEntry] {
        &self.logged[index]
    }

    /// Number of entries logged on a node.
    pub fn logged_payload_count(&self, index: usize) -> usize {
        self.logged[index].len()
    }

    /// Completed view changes observed: `(node index, view, primary)`.
    pub fn new_primaries(&self) -> &[(usize, u64, NodeId)] {
        &self.new_primaries
    }

    /// Number of timers currently armed for a node.
    pub fn armed_timers(&self, index: usize) -> usize {
        self.timers
            .keys()
            .filter(|(_, node, _)| *node == index)
            .count()
    }

    /// Feeds the same raw payload to every node, as if all read it from
    /// the same bus cycle.
    pub fn bus_payload_everywhere(&mut self, payload: Vec<u8>) {
        let now = self.now_ms;
        for index in 0..self.nodes.len() {
            self.nodes[index].on_raw_bus_payload(payload.clone(), now);
        }
    }

    /// Feeds a payload to a subset of nodes (diverging bus reception).
    pub fn bus_payload_at(&mut self, indices: &[usize], payload: Vec<u8>) {
        let now = self.now_ms;
        for &index in indices {
            self.nodes[index].on_raw_bus_payload(payload.clone(), now);
        }
    }

    /// Collects a node's effects into the queue / records.
    fn pump(&mut self, index: usize) {
        let effects = self.nodes[index].drain_effects();
        for effect in effects {
            match effect {
                Effect::Broadcast { message } => {
                    if self.silenced[index] {
                        continue;
                    }
                    for dest in 0..self.nodes.len() {
                        if dest != index && !self.silenced[dest] {
                            self.queue.push_back((dest, message.clone()));
                        }
                    }
                }
                Effect::Send { to, message } => {
                    let dest = to.0 as usize;
                    if !self.silenced[index] && dest != index && !self.silenced[dest] {
                        self.queue.push_back((dest, message));
                    }
                }
                Effect::SetTimer { id, duration_ms } => {
                    // Re-arming replaces the previous deadline.
                    self.timers
                        .retain(|(_, node, timer), ()| !(*node == index && *timer == id));
                    self.timers
                        .insert((self.now_ms + duration_ms, index, id), ());
                }
                Effect::CancelTimer { id } => {
                    self.timers
                        .retain(|(_, node, timer), ()| !(*node == index && *timer == id));
                }
                Effect::Output(NodeEvent::Logged {
                    sn,
                    origin,
                    payload,
                    digest,
                }) => {
                    self.logged[index].push(LoggedEntry {
                        sn,
                        origin,
                        payload,
                        digest,
                    });
                }
                Effect::Output(NodeEvent::NewPrimary { view, primary }) => {
                    self.new_primaries.push((index, view, primary));
                }
                Effect::Output(
                    NodeEvent::BlockCreated { .. }
                    | NodeEvent::CheckpointStable { .. }
                    | NodeEvent::StateTransferNeeded { .. },
                ) => {}
            }
        }
    }

    /// Pumps every node's pending effects (arming timers, queueing
    /// messages) without delivering any queued message.
    pub fn collect_effects(&mut self) {
        for index in 0..self.nodes.len() {
            self.pump(index);
        }
    }

    /// Delivers all queued messages (and any they trigger) without
    /// advancing time.
    pub fn run_until_quiet(&mut self) {
        for index in 0..self.nodes.len() {
            self.pump(index);
        }
        while let Some((dest, message)) = self.queue.pop_front() {
            self.nodes[dest].on_message(message);
            self.pump(dest);
        }
    }

    /// Advances virtual time by `ms`, firing timers in deadline order and
    /// processing all resulting traffic.
    pub fn advance_time(&mut self, ms: u64) {
        // Flush buffered actions first so freshly-armed timers are seen.
        self.run_until_quiet();
        let deadline = self.now_ms + ms;
        while let Some((&(when, index, id), ())) = self.timers.iter().next() {
            if when > deadline {
                break;
            }
            self.timers.remove(&(when, index, id));
            self.now_ms = when;
            self.nodes[index].on_timer(id);
            self.pump(index);
            self.run_until_quiet();
        }
        self.now_ms = deadline;
    }

    /// Advances time to the earliest armed deadline and fires everything
    /// due at that instant. No-op if nothing is armed.
    pub fn fire_due_timers(&mut self) {
        let Some((&(when, _, _), ())) = self.timers.iter().next() else {
            return;
        };
        let delta = when.saturating_sub(self.now_ms);
        self.advance_time(delta);
    }
}

/// Every scenario driven through this harness ends by checking that the
/// digest each log event carried is its payload's. The check runs at
/// drop, not per event, so tests that count bytes hashed while the
/// cluster runs see only the nodes' own hashing.
impl Drop for Cluster {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        for (index, entries) in self.logged.iter().enumerate() {
            for entry in entries {
                assert_eq!(
                    entry.digest,
                    Digest::of(&entry.payload),
                    "node {index} logged sn {} with a digest that is not its payload's",
                    entry.sn
                );
            }
        }
    }
}
