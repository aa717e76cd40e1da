use std::collections::{BTreeMap, HashMap, HashSet};

use zugchain_blockchain::{Block, BlockBuilder, ChainStore, LoggedRequest};
use zugchain_crypto::{Digest, KeyPair, Keystore};
use zugchain_machine::{Effect, Machine};
use zugchain_mvb::{Nsdb, Telegram};
use zugchain_pbft::{
    CheckpointProof, DigestedRequest, NodeId, ProposedRequest, Replica, ReplicaEvent, ReplicaTimer,
};
use zugchain_signals::CycleConsolidator;
use zugchain_telemetry::{Span, Stage};
use zugchain_wire::{derive_span_id, derive_trace_id, TrainId};

use crate::dedup::DedupLog;
use crate::{LayerMessage, NodeConfig, NodeMessage, SignedRequest, TimerId};

/// An application event of a ZugChain node (the `Output` of its
/// [`Machine`] contract): the juridical-recording up-calls a runtime
/// reacts to, as opposed to the mechanical send/timer effects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeEvent {
    /// `LOG(req, id, sn)` of Table I: a request entered the totally
    /// ordered log.
    Logged {
        /// Assigned sequence number.
        sn: u64,
        /// Node that received the request from the bus.
        origin: NodeId,
        /// The request payload.
        payload: Vec<u8>,
        /// Digest of `payload`, carried from where the node first hashed
        /// it (bus ingress or wire decode) — never recomputed.
        digest: Digest,
    },
    /// A block was bundled and appended to the local chain.
    BlockCreated {
        /// The new block.
        block: Block,
    },
    /// A per-block checkpoint became stable (2f+1 signatures).
    CheckpointStable {
        /// The verifiable proof.
        proof: CheckpointProof,
    },
    /// A view change completed.
    NewPrimary {
        /// New view number.
        view: u64,
        /// Primary of the new view.
        primary: NodeId,
    },
    /// The node fell behind a stable checkpoint and must fetch blocks
    /// from peers (§III-D scenario (ii)).
    StateTransferNeeded {
        /// First missing sequence number.
        from_sn: u64,
        /// Target sequence number.
        to_sn: u64,
    },
}

/// An effect of a ZugChain node, to be executed by its runtime: the
/// shared [`Effect`] vocabulary over [`NodeMessage`], [`TimerId`] and
/// [`NodeEvent`].
pub type NodeEffect = Effect<NodeId, NodeMessage, TimerId, NodeEvent>;

/// An input to a train node when driven through the [`Machine`] trait —
/// the union of everything the three runtimes feed a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeInput {
    /// An already-consolidated request payload (benchmarks, fault
    /// injectors).
    RawPayload {
        /// The consolidated payload.
        payload: Vec<u8>,
        /// Bus time of the observation in milliseconds.
        time_ms: u64,
    },
    /// One bus cycle's observed telegrams from one input source.
    BusCycle {
        /// Input source (bus link) index.
        source: usize,
        /// Bus cycle counter.
        cycle: u64,
        /// Bus time in milliseconds.
        time_ms: u64,
        /// The telegrams observed in this cycle.
        telegrams: Vec<Telegram>,
    },
    /// A message from a peer node.
    Message(NodeMessage),
}

/// Counters for evaluation and debugging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Consolidated requests read from the bus.
    pub bus_requests: u64,
    /// Requests this node proposed to consensus (as primary).
    pub proposed: u64,
    /// Requests appended to the log.
    pub logged: u64,
    /// Incoming layer requests ignored because their payload was already
    /// logged (the filter working as intended).
    pub duplicates_filtered: u64,
    /// Duplicates found *after* ordering — evidence of a faulty primary.
    pub primary_duplicates_detected: u64,
    /// Soft timeouts that fired (request broadcast).
    pub soft_timeouts: u64,
    /// Hard timeouts that fired (primary suspected).
    pub hard_timeouts: u64,
    /// Layer messages dropped by the per-node rate limit.
    pub rate_limited: u64,
    /// Layer messages dropped for invalid origin signatures.
    pub invalid_signatures: u64,
    /// Blocks created.
    pub blocks_created: u64,
}

/// A request known to this node but not yet decided.
#[derive(Debug, Clone)]
struct Pending {
    /// The request with its payload digest, so re-proposals never
    /// re-hash it.
    request: DigestedRequest,
    /// `true` if this node read the request from the bus itself (it is in
    /// the node's own queue R of Alg. 1).
    mine: bool,
}

/// Behaviour shared by [`ZugchainNode`] and
/// [`BaselineNode`](crate::BaselineNode), so runtimes can drive either.
pub trait TrainNode {
    /// This node's replica id.
    fn id(&self) -> NodeId;

    /// The current view number of the underlying replica.
    fn view(&self) -> u64;

    /// Returns `true` if this node hosts the current primary replica.
    fn is_primary(&self) -> bool;

    /// Injects an already-consolidated request payload, bypassing telegram
    /// parsing — used by benchmarks (payload-size sweeps) and fault
    /// injectors (fabricated requests).
    fn on_raw_bus_payload(&mut self, payload: Vec<u8>, time_ms: u64);

    /// Feeds one bus cycle's observed telegrams from input `source`
    /// (nodes may be connected to several buses; §III-C "Multiple Input
    /// Sources").
    fn on_bus_cycle(&mut self, source: usize, cycle: u64, time_ms: u64, telegrams: &[Telegram]);

    /// Delivers a network message.
    fn on_message(&mut self, message: NodeMessage);

    /// Fires an armed timer.
    fn on_timer(&mut self, timer: TimerId);

    /// Drains the effects produced since the last call.
    fn drain_effects(&mut self) -> Vec<NodeEffect>;

    /// The node's blockchain store.
    fn chain(&self) -> &ChainStore;

    /// Mutable access to the blockchain store (used by the export
    /// protocol handler).
    fn chain_mut(&mut self) -> &mut ChainStore;

    /// Stable checkpoint proofs collected so far, oldest first.
    fn stable_proofs(&self) -> &[CheckpointProof];

    /// Evaluation counters.
    fn stats(&self) -> NodeStats;

    /// Approximate resident memory in bytes.
    fn approx_memory_bytes(&self) -> usize;

    /// Number of open (undecided) requests this node is tracking.
    fn open_requests(&self) -> usize;

    /// Number of origins currently holding an open-request rate-limit
    /// slot; returns to zero once every request decides. The baseline
    /// has no rate limiter and always reports zero.
    fn open_origins(&self) -> usize {
        0
    }

    /// The underlying PBFT replica's counters.
    fn consensus_stats(&self) -> zugchain_pbft::ReplicaStats;

    /// Diagnostic snapshot of undecided consensus slots.
    fn slot_snapshot(&self) -> Vec<(u64, bool, usize, usize, bool, bool)>;

    /// Diagnostic `(view, low watermark, decided_up_to, next_sn, buffered)`.
    fn progress_snapshot(&self) -> (u64, u64, u64, u64, usize);

    /// Attaches a telemetry handle: resolves this node's registry
    /// metrics (consensus and communication layer) once. The default is
    /// a no-op so node types without instrument points stay valid.
    fn set_telemetry(&mut self, _telemetry: &zugchain_telemetry::Telemetry) {}
}

/// Boxed nodes are nodes, so a runtime can drive a heterogeneous
/// [`TrainMachine<Box<dyn TrainNode>>`] (the simulator switches between
/// ZugChain and the baseline this way).
impl<N: TrainNode + ?Sized> TrainNode for Box<N> {
    fn id(&self) -> NodeId {
        (**self).id()
    }
    fn view(&self) -> u64 {
        (**self).view()
    }
    fn is_primary(&self) -> bool {
        (**self).is_primary()
    }
    fn on_raw_bus_payload(&mut self, payload: Vec<u8>, time_ms: u64) {
        (**self).on_raw_bus_payload(payload, time_ms);
    }
    fn on_bus_cycle(&mut self, source: usize, cycle: u64, time_ms: u64, telegrams: &[Telegram]) {
        (**self).on_bus_cycle(source, cycle, time_ms, telegrams);
    }
    fn on_message(&mut self, message: NodeMessage) {
        (**self).on_message(message);
    }
    fn on_timer(&mut self, timer: TimerId) {
        (**self).on_timer(timer);
    }
    fn drain_effects(&mut self) -> Vec<NodeEffect> {
        (**self).drain_effects()
    }
    fn chain(&self) -> &ChainStore {
        (**self).chain()
    }
    fn chain_mut(&mut self) -> &mut ChainStore {
        (**self).chain_mut()
    }
    fn stable_proofs(&self) -> &[CheckpointProof] {
        (**self).stable_proofs()
    }
    fn stats(&self) -> NodeStats {
        (**self).stats()
    }
    fn approx_memory_bytes(&self) -> usize {
        (**self).approx_memory_bytes()
    }
    fn open_requests(&self) -> usize {
        (**self).open_requests()
    }
    fn open_origins(&self) -> usize {
        (**self).open_origins()
    }
    fn consensus_stats(&self) -> zugchain_pbft::ReplicaStats {
        (**self).consensus_stats()
    }
    fn slot_snapshot(&self) -> Vec<(u64, bool, usize, usize, bool, bool)> {
        (**self).slot_snapshot()
    }
    fn progress_snapshot(&self) -> (u64, u64, u64, u64, usize) {
        (**self).progress_snapshot()
    }
    fn set_telemetry(&mut self, telemetry: &zugchain_telemetry::Telemetry) {
        (**self).set_telemetry(telemetry);
    }
}

/// A ZugChain node: the communication layer of Algorithm 1 wired to a
/// PBFT replica and the blockchain application.
///
/// See the crate docs for an overview and the paper mapping; the
/// [`TrainNode`] trait lists the runtime interface.
#[derive(Debug)]
pub struct ZugchainNode {
    id: NodeId,
    config: NodeConfig,
    key: KeyPair,
    replica: Replica,
    /// One consolidator per input source (bus link).
    sources: Vec<CycleConsolidator>,
    nsdb: Nsdb,
    /// Open requests by payload digest: R plus foreign requests received
    /// via broadcast/forward. Ordered map: iteration order (e.g. the new
    /// primary re-proposing after a view change) must be deterministic.
    pending: BTreeMap<Digest, Pending>,
    /// Open foreign requests per origin, for the DoS rate limit.
    open_by_origin: HashMap<NodeId, HashSet<Digest>>,
    dedup: DedupLog,
    builder: BlockBuilder,
    store: ChainStore,
    stable_proofs: Vec<CheckpointProof>,
    /// Latest bus time observed, stamped into blocks.
    last_time_ms: u64,
    effects: Vec<NodeEffect>,
    stats: NodeStats,
    /// Registry handles for the layer's instrument points, resolved by
    /// [`TrainNode::set_telemetry`]; disabled (free) by default.
    metrics: NodeMetrics,
    /// Span-emission handle (train-scoped when the node belongs to a
    /// fleet train); disabled by default.
    telemetry: zugchain_telemetry::Telemetry,
}

/// Cached registry handles for the communication layer's instrument
/// points (the consensus-level points live in `zugchain-pbft`).
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeMetrics {
    pub(crate) logged: zugchain_telemetry::Counter,
    pub(crate) blocks: zugchain_telemetry::Counter,
    pub(crate) dedup_hits: zugchain_telemetry::Counter,
    pub(crate) rate_limited: zugchain_telemetry::Counter,
    pub(crate) state_transfers: zugchain_telemetry::Counter,
    pub(crate) open_requests: zugchain_telemetry::Gauge,
    pub(crate) open_origins: zugchain_telemetry::Gauge,
}

impl NodeMetrics {
    pub(crate) fn resolve(telemetry: &zugchain_telemetry::Telemetry) -> Self {
        Self {
            logged: telemetry.counter("zugchain_node_logged_total"),
            blocks: telemetry.counter("zugchain_node_blocks_total"),
            dedup_hits: telemetry.counter("zugchain_node_dedup_hits_total"),
            rate_limited: telemetry.counter("zugchain_node_rate_limited_total"),
            state_transfers: telemetry.counter("zugchain_node_state_transfers_total"),
            open_requests: telemetry.gauge("zugchain_node_open_requests"),
            open_origins: telemetry.gauge("zugchain_node_open_origins"),
        }
    }
}

impl ZugchainNode {
    /// Creates a node with a single bus input source.
    pub fn new(id: u64, config: NodeConfig, nsdb: Nsdb, key: KeyPair, keystore: Keystore) -> Self {
        let pbft_config = config
            .pbft
            .clone()
            .with_view_change_timeout(config.view_change_timeout_ms);
        let replica = Replica::new(NodeId(id), pbft_config, key.clone(), keystore);
        Self {
            id: NodeId(id),
            sources: vec![CycleConsolidator::new(nsdb.clone())],
            nsdb,
            pending: BTreeMap::new(),
            open_by_origin: HashMap::new(),
            dedup: DedupLog::new(config.dedup_window_checkpoints),
            builder: BlockBuilder::new(config.block_size),
            store: ChainStore::new(),
            stable_proofs: Vec::new(),
            last_time_ms: 0,
            effects: Vec::new(),
            stats: NodeStats::default(),
            metrics: NodeMetrics::default(),
            telemetry: zugchain_telemetry::Telemetry::disabled(),
            config,
            key,
            replica,
        }
    }

    /// Recovers a node from durable state after a power loss: the
    /// reloaded (verified) chain plus its stable checkpoint proofs. The
    /// block builder resumes at the chain head, consensus resumes after
    /// the last stable checkpoint, and the duplicate filter is re-seeded
    /// from the resident blocks so pre-restart payloads are not logged
    /// twice.
    ///
    /// # Panics
    ///
    /// Panics if `proofs` is empty or its last entry does not match the
    /// chain head (the caller must have verified the reloaded chain).
    pub fn recover(
        id: u64,
        config: NodeConfig,
        nsdb: Nsdb,
        key: KeyPair,
        keystore: Keystore,
        store: zugchain_blockchain::ChainStore,
        proofs: Vec<CheckpointProof>,
    ) -> Self {
        let last = proofs
            .last()
            .expect("recovery requires a stable checkpoint");
        assert_eq!(
            last.checkpoint.state_digest,
            store.head_hash(),
            "checkpoint proof must cover the reloaded chain head"
        );
        let pbft_config = config
            .pbft
            .clone()
            .with_view_change_timeout(config.view_change_timeout_ms);
        let replica = Replica::resume(NodeId(id), pbft_config, key.clone(), keystore, last.clone());
        let mut dedup = DedupLog::new(config.dedup_window_checkpoints);
        for block in store.blocks() {
            for request in &block.requests {
                dedup.record(request.payload_digest(), request.sn);
            }
            dedup.on_checkpoint();
        }
        let builder = BlockBuilder::resume(config.block_size, store.height(), store.head_hash());
        Self {
            id: NodeId(id),
            sources: vec![CycleConsolidator::new(nsdb.clone())],
            nsdb,
            pending: BTreeMap::new(),
            open_by_origin: HashMap::new(),
            dedup,
            builder,
            store,
            stable_proofs: proofs,
            last_time_ms: 0,
            effects: Vec::new(),
            stats: NodeStats::default(),
            metrics: NodeMetrics::default(),
            telemetry: zugchain_telemetry::Telemetry::disabled(),
            config,
            key,
            replica,
        }
    }

    /// Mutation hook (chaos harness only): makes this node's replica
    /// equivocate while primary — see
    /// [`Replica::enable_equivocation_bug`].
    #[cfg(feature = "mutation-hooks")]
    pub fn enable_equivocation_bug(&mut self) {
        self.replica.enable_equivocation_bug();
    }

    /// Installs a state-transfer package fetched from a peer: a chain
    /// whose head is covered by `proofs.last()`, replacing this node's
    /// (lagging) chain, stable proofs, dedup log, and block builder.
    ///
    /// The consensus replica is deliberately untouched. A node requests
    /// a transfer when a stable checkpoint overtakes its decide stream
    /// (`NodeEvent::StateTransferNeeded`); at that point the replica has
    /// already advanced its watermark and decide cursor past the gap and
    /// kept its view — only the logging layer is behind. Rebuilding the
    /// replica instead (as crash recovery does) would reset its view and
    /// strand the node if it can no longer learn the cluster's current
    /// view.
    ///
    /// Pending requests bundled in the transferred blocks are cleared
    /// and their timers cancelled, exactly as if their decides had been
    /// observed locally.
    pub fn install_transfer(
        &mut self,
        store: zugchain_blockchain::ChainStore,
        proofs: Vec<CheckpointProof>,
    ) {
        let last = proofs
            .last()
            .expect("a state transfer carries a stable checkpoint");
        assert_eq!(
            last.checkpoint.state_digest,
            store.head_hash(),
            "checkpoint proof must cover the transferred chain head"
        );
        let mut dedup = DedupLog::new(self.config.dedup_window_checkpoints);
        for block in store.blocks() {
            for request in &block.requests {
                let digest = request.payload_digest();
                dedup.record(digest, request.sn);
                if let Some(pending) = self.pending.remove(&digest) {
                    self.release_open_slot(pending.request.request().origin, &digest);
                    self.effects.push(Effect::CancelTimer {
                        id: TimerId::Soft(digest),
                    });
                    self.effects.push(Effect::CancelTimer {
                        id: TimerId::Hard(digest),
                    });
                }
            }
            dedup.on_checkpoint();
        }
        self.dedup = dedup;
        self.builder =
            BlockBuilder::resume(self.config.block_size, store.height(), store.head_hash());
        self.store = store;
        self.stable_proofs = proofs;
    }

    /// Attaches an additional bus input source, returning its index.
    pub fn add_input_source(&mut self) -> usize {
        self.sources.push(CycleConsolidator::new(self.nsdb.clone()));
        self.sources.len() - 1
    }

    /// The train this node's consensus group belongs to.
    pub fn train_id(&self) -> TrainId {
        self.config.train
    }

    /// Returns `true` if this node is co-located with the current BFT
    /// primary.
    pub fn is_primary(&self) -> bool {
        self.replica.is_primary()
    }

    /// The current view number of the underlying replica.
    pub fn view(&self) -> u64 {
        self.replica.view()
    }

    /// The underlying PBFT replica (read-only).
    pub fn replica(&self) -> &Replica {
        &self.replica
    }

    /// Number of requests currently open (undecided).
    pub fn open_requests(&self) -> usize {
        self.pending.len()
    }

    /// Number of origins currently holding a rate-limit slot. Bounded by
    /// the group size when slots are released correctly.
    pub fn open_origins(&self) -> usize {
        self.open_by_origin.len()
    }

    /// Releases `digest`'s per-origin rate-limit slot, dropping the
    /// origin's entry entirely once it empties — otherwise the map keeps
    /// one `HashSet` per origin ever seen and grows forever.
    fn release_open_slot(&mut self, origin: NodeId, digest: &Digest) {
        if let std::collections::hash_map::Entry::Occupied(mut open) =
            self.open_by_origin.entry(origin)
        {
            open.get_mut().remove(digest);
            if open.get().is_empty() {
                open.remove();
            }
        }
    }

    /// Algorithm 1, `upon RECEIVE(req)` (ln. 5–11).
    ///
    /// The payload is hashed here, once; the digest travels with the
    /// request through propose, decide and log.
    fn handle_local_request(&mut self, payload: Vec<u8>) {
        let request = DigestedRequest::new(
            ProposedRequest::application(payload, self.id).with_time(self.last_time_ms),
        );
        let digest = request.payload_digest();
        if self.dedup.contains(&digest) || self.pending.contains_key(&digest) {
            // Already logged or already in flight: a delayed duplicate
            // delivery from the bus.
            self.stats.duplicates_filtered += 1;
            self.metrics.dedup_hits.inc();
            return;
        }
        if self.telemetry.is_enabled() {
            self.trace_origin_spans(&digest);
        }
        self.pending.insert(
            digest,
            Pending {
                request: request.clone(),
                mine: true,
            },
        );
        if self.is_primary() {
            // ln. 7–9: the primary proposes directly.
            self.stats.proposed += 1;
            self.replica.propose(request);
            self.pump_replica();
        } else {
            // ln. 11: backups arm the soft timeout.
            self.effects.push(Effect::SetTimer {
                id: TimerId::Soft(digest),
                duration_ms: self.config.soft_timeout_ms,
            });
        }
        self.update_open_gauges();
    }

    /// Emits the origin-side spans of a freshly accepted bus payload:
    /// `record` — the MVB read itself, a point in time at the agreed bus
    /// timestamp (the root of the request's trace) — and `submit`, the
    /// hand-off from reception to consensus. Every later stage re-derives
    /// the same trace id from `(train, origin, payload digest)`.
    fn trace_origin_spans(&self, digest: &Digest) {
        let train = self.telemetry.train_id();
        let node = self.id.0;
        let recorded = self.last_time_ms;
        let now = self.telemetry.now_ms().max(recorded);
        let trace_id = derive_trace_id(train, node, digest.as_bytes());
        let record_span = derive_span_id(trace_id, Stage::Record.as_str(), node);
        self.telemetry.record_span(|| Span {
            trace_id,
            span_id: record_span,
            parent_span: 0,
            stage: Stage::Record,
            node,
            train,
            sn: 0,
            start_ms: recorded,
            end_ms: recorded,
        });
        self.telemetry.record_span(|| Span {
            trace_id,
            span_id: derive_span_id(trace_id, Stage::Submit.as_str(), node),
            parent_span: record_span,
            stage: Stage::Submit,
            node,
            train,
            sn: 0,
            start_ms: recorded,
            end_ms: now,
        });
    }

    /// Publishes the open-request and rate-limit occupancy gauges.
    fn update_open_gauges(&self) {
        self.metrics.open_requests.set(self.pending.len() as i64);
        self.metrics
            .open_origins
            .set(self.open_by_origin.len() as i64);
    }

    /// Algorithm 1, `upon DECIDE(r, sn)` (ln. 12–20). `digest` is the
    /// payload digest the decide carries.
    fn on_decide(&mut self, sn: u64, request: ProposedRequest, digest: Digest) {
        if request.is_noop() {
            return; // view-change gap filler, nothing to log
        }

        // ln. 13–16: clear queue entry and any timers.
        if let Some(pending) = self.pending.remove(&digest) {
            self.release_open_slot(pending.request.request().origin, &digest);
            self.effects.push(Effect::CancelTimer {
                id: TimerId::Soft(digest),
            });
            self.effects.push(Effect::CancelTimer {
                id: TimerId::Hard(digest),
            });
        }

        // ln. 17–18: a payload already in the log means the primary
        // proposed a duplicate — suspect it.
        if self.dedup.contains(&digest) {
            self.stats.primary_duplicates_detected += 1;
            let primary = self.replica.primary();
            self.replica.suspect(primary);
            self.pump_replica();
            return;
        }

        // ln. 20: append to the log with the origin's id.
        self.dedup.record(digest, sn);
        self.stats.logged += 1;
        self.metrics.logged.inc();
        self.update_open_gauges();
        self.effects.push(Effect::Output(NodeEvent::Logged {
            sn,
            origin: request.origin,
            payload: request.payload.clone(),
            digest,
        }));
        let logged = LoggedRequest {
            sn,
            origin: request.origin.0,
            payload: request.payload,
        };
        // Stamp the block with the *agreed* request time, never a local
        // clock: all replicas must bundle bit-identical blocks.
        let sealed = self
            .builder
            .push_onto(&mut self.store, logged, request.time_ms)
            .expect("builder output always extends the local chain")
            .cloned();
        if let Some(block) = sealed {
            let block_hash = block.hash();
            let last_sn = block.header.last_sn;
            self.stats.blocks_created += 1;
            self.metrics.blocks.inc();
            self.effects
                .push(Effect::Output(NodeEvent::BlockCreated { block }));
            // One checkpoint per block (§III-C): the checkpoint digest is
            // the block hash, backing the block with replica signatures.
            self.replica.record_checkpoint(last_sn, block_hash);
            self.pump_replica();
        }
    }

    /// Algorithm 1, `upon NEWPRIMARY(pid)` (ln. 36–43).
    ///
    /// Open requests are those "without a corresponding DECIDE or running
    /// consensus instance" (§III-C): requests the `NewView` already
    /// re-preprepared must not be proposed (or timed) again — ordering
    /// them twice would make honest nodes suspect the new primary.
    fn on_new_primary(&mut self, view: u64, primary: NodeId) {
        self.effects
            .push(Effect::Output(NodeEvent::NewPrimary { view, primary }));
        let pending: Vec<(Digest, Pending)> =
            self.pending.iter().map(|(d, p)| (*d, p.clone())).collect();
        if primary == self.id {
            // ln. 39–41: the new primary proposes all open requests. Its
            // own timers from when it was a backup are void — it cannot
            // censor itself, and a stale hard timer must not push the
            // fresh primary into suspecting itself.
            for (digest, entry) in pending {
                self.effects.push(Effect::CancelTimer {
                    id: TimerId::Soft(digest),
                });
                self.effects.push(Effect::CancelTimer {
                    id: TimerId::Hard(digest),
                });
                if !self.dedup.contains(&digest) && !self.replica.has_in_flight_payload(&digest) {
                    self.stats.proposed += 1;
                    self.replica.propose(entry.request);
                }
            }
            self.pump_replica();
        } else {
            // ln. 43: backups restart timers for open requests — soft for
            // requests they read themselves, hard for foreign requests
            // they already broadcast or received.
            for (digest, entry) in pending {
                if self.replica.has_in_flight_payload(&digest) {
                    // Its re-preprepare is already running: disarm any
                    // timer left over from the old view so the about-to-
                    // arrive decide is not mistaken for censorship.
                    self.effects.push(Effect::CancelTimer {
                        id: TimerId::Soft(digest),
                    });
                    self.effects.push(Effect::CancelTimer {
                        id: TimerId::Hard(digest),
                    });
                    continue;
                }
                // A fresh primary gets a fresh accusation window: void
                // timers armed against the deposed primary before
                // re-arming (ln. 43 "restart their SOFT_TIMEOUTs").
                self.effects.push(Effect::CancelTimer {
                    id: TimerId::Soft(digest),
                });
                self.effects.push(Effect::CancelTimer {
                    id: TimerId::Hard(digest),
                });
                let (id, duration_ms) = if entry.mine {
                    (TimerId::Soft(digest), self.config.soft_timeout_ms)
                } else {
                    (TimerId::Hard(digest), self.config.hard_timeout_ms)
                };
                self.effects.push(Effect::SetTimer { id, duration_ms });
            }
        }
    }

    /// Algorithm 1, `upon BROADCAST(r)` receiver side (ln. 25–32), plus
    /// forwarded requests reaching the primary.
    fn on_layer_message(&mut self, message: LayerMessage) {
        let keystore_ok = message.request().verify(self.keystore());
        if !keystore_ok {
            self.stats.invalid_signatures += 1;
            return;
        }
        let request = DigestedRequest::new(message.request().request.clone());
        let digest = request.payload_digest();
        let origin = request.request().origin;

        // ln. 26–27: ignore duplicates already in the log.
        if self.dedup.contains(&digest) {
            self.stats.duplicates_filtered += 1;
            self.metrics.dedup_hits.inc();
            return;
        }

        // DoS containment (§III-C, fault (iii)): cap open requests per
        // origin; drop the excess.
        if origin != self.id && !self.pending.contains_key(&digest) {
            let open = self.open_by_origin.entry(origin).or_default();
            if open.len() >= self.config.open_request_limit {
                self.stats.rate_limited += 1;
                self.metrics.rate_limited.inc();
                return;
            }
            open.insert(digest);
            self.update_open_gauges();
        }

        let already_pending = self.pending.contains_key(&digest);
        if !already_pending {
            self.pending.insert(
                digest,
                Pending {
                    request: request.clone(),
                    mine: false,
                },
            );
        }

        match message {
            LayerMessage::BroadcastRequest(signed) => {
                if self.is_primary() {
                    // ln. 28–29: propose with the id of the broadcasting
                    // node, unless it is already in flight.
                    if !already_pending {
                        self.stats.proposed += 1;
                        self.replica.propose(request);
                        self.pump_replica();
                    }
                } else {
                    // ln. 31–32: arm the hard timeout and make sure the
                    // primary receives the request even if the (possibly
                    // faulty) broadcaster omitted it.
                    self.effects.push(Effect::SetTimer {
                        id: TimerId::Hard(digest),
                        duration_ms: self.config.hard_timeout_ms,
                    });
                    let primary = self.replica.primary();
                    self.effects.push(Effect::Send {
                        to: primary,
                        message: NodeMessage::Layer(LayerMessage::ForwardRequest(signed)),
                    });
                }
            }
            LayerMessage::ForwardRequest(_) => {
                if self.is_primary() && !already_pending {
                    self.stats.proposed += 1;
                    self.replica.propose(request);
                    self.pump_replica();
                }
            }
            LayerMessage::ClientRequest(_) => {
                // Baseline-mode message; a ZugChain node never orders it.
            }
        }
    }

    fn keystore(&self) -> &Keystore {
        // The replica owns the keystore; reuse it rather than carrying a
        // second copy.
        self.replica.keystore()
    }

    /// Translates buffered PBFT effects into node effects. The replica
    /// owns its view-change timer; this layer only relabels the timer id
    /// into the node's [`TimerId`] vocabulary.
    fn pump_replica(&mut self) {
        let effects = self.replica.drain_effects();
        for effect in effects {
            match effect {
                Effect::Broadcast { message } => self.effects.push(Effect::Broadcast {
                    message: NodeMessage::Consensus(message),
                }),
                Effect::Send { to, message } => self.effects.push(Effect::Send {
                    to,
                    message: NodeMessage::Consensus(message),
                }),
                Effect::SetTimer {
                    id: ReplicaTimer::ViewChange(view),
                    duration_ms,
                } => {
                    self.effects.push(Effect::SetTimer {
                        id: TimerId::ViewChange(view),
                        duration_ms,
                    });
                }
                Effect::CancelTimer {
                    id: ReplicaTimer::ViewChange(view),
                } => {
                    self.effects.push(Effect::CancelTimer {
                        id: TimerId::ViewChange(view),
                    });
                }
                Effect::SetTimer {
                    id: ReplicaTimer::BatchFlush,
                    duration_ms,
                } => {
                    self.effects.push(Effect::SetTimer {
                        id: TimerId::BatchFlush,
                        duration_ms,
                    });
                }
                Effect::CancelTimer {
                    id: ReplicaTimer::BatchFlush,
                } => {
                    self.effects.push(Effect::CancelTimer {
                        id: TimerId::BatchFlush,
                    });
                }
                Effect::SetTimer {
                    id: ReplicaTimer::CollectorPrepare(sn),
                    duration_ms,
                } => {
                    self.effects.push(Effect::SetTimer {
                        id: TimerId::CollectorPrepare(sn),
                        duration_ms,
                    });
                }
                Effect::CancelTimer {
                    id: ReplicaTimer::CollectorPrepare(sn),
                } => {
                    self.effects.push(Effect::CancelTimer {
                        id: TimerId::CollectorPrepare(sn),
                    });
                }
                Effect::SetTimer {
                    id: ReplicaTimer::CollectorCommit(sn),
                    duration_ms,
                } => {
                    self.effects.push(Effect::SetTimer {
                        id: TimerId::CollectorCommit(sn),
                        duration_ms,
                    });
                }
                Effect::CancelTimer {
                    id: ReplicaTimer::CollectorCommit(sn),
                } => {
                    self.effects.push(Effect::CancelTimer {
                        id: TimerId::CollectorCommit(sn),
                    });
                }
                Effect::Output(ReplicaEvent::Decide {
                    sn,
                    request,
                    payload_digest,
                }) => {
                    self.on_decide(sn, request, payload_digest);
                }
                Effect::Output(ReplicaEvent::NewPrimary { view, primary }) => {
                    self.on_new_primary(view, primary);
                }
                Effect::Output(ReplicaEvent::PrePrepareSeen { payload_digest, .. }) => {
                    // §III-C optimization: the preprepare is a reliable
                    // enough signal to cancel the soft timeout early.
                    if self.pending.contains_key(&payload_digest) {
                        self.effects.push(Effect::CancelTimer {
                            id: TimerId::Soft(payload_digest),
                        });
                    }
                }
                Effect::Output(ReplicaEvent::StableCheckpoint { proof }) => {
                    self.dedup.on_checkpoint();
                    self.stable_proofs.push(proof.clone());
                    self.effects
                        .push(Effect::Output(NodeEvent::CheckpointStable { proof }));
                }
                Effect::Output(ReplicaEvent::NeedStateTransfer { from_sn, to_sn }) => {
                    self.metrics.state_transfers.inc();
                    self.effects
                        .push(Effect::Output(NodeEvent::StateTransferNeeded {
                            from_sn,
                            to_sn,
                        }));
                }
            }
        }
    }
}

impl TrainNode for ZugchainNode {
    fn id(&self) -> NodeId {
        self.id
    }

    fn view(&self) -> u64 {
        ZugchainNode::view(self)
    }

    fn is_primary(&self) -> bool {
        ZugchainNode::is_primary(self)
    }

    fn on_raw_bus_payload(&mut self, payload: Vec<u8>, time_ms: u64) {
        self.last_time_ms = self.last_time_ms.max(time_ms);
        self.stats.bus_requests += 1;
        self.handle_local_request(payload);
    }

    fn on_bus_cycle(&mut self, source: usize, cycle: u64, time_ms: u64, telegrams: &[Telegram]) {
        self.last_time_ms = self.last_time_ms.max(time_ms);
        assert!(source < self.sources.len(), "unknown input source {source}");
        if let Some(request) = self.sources[source].consolidate(cycle, time_ms, telegrams) {
            self.stats.bus_requests += 1;
            let payload = zugchain_wire::to_bytes(&request);
            self.handle_local_request(payload);
        }
    }

    fn on_message(&mut self, message: NodeMessage) {
        match message {
            NodeMessage::Consensus(signed) => {
                self.replica.on_message(signed);
                self.pump_replica();
            }
            NodeMessage::Layer(layer) => self.on_layer_message(layer),
        }
    }

    fn on_timer(&mut self, timer: TimerId) {
        match timer {
            TimerId::Soft(digest) => {
                // ln. 21–24: broadcast the request and arm the hard
                // timeout.
                let Some(pending) = self.pending.get(&digest) else {
                    return;
                };
                if self.dedup.contains(&digest) || self.replica.has_in_flight_payload(&digest) {
                    return;
                }
                if self.is_primary() {
                    // A timer that survived into our own primaryship just
                    // means the request is ours to order.
                    let request = pending.request.clone();
                    self.stats.proposed += 1;
                    self.replica.propose(request);
                    self.pump_replica();
                    return;
                }
                self.stats.soft_timeouts += 1;
                let signed = SignedRequest::sign(pending.request.request().clone(), &self.key);
                self.effects.push(Effect::SetTimer {
                    id: TimerId::Hard(digest),
                    duration_ms: self.config.hard_timeout_ms,
                });
                self.effects.push(Effect::Broadcast {
                    message: NodeMessage::Layer(LayerMessage::BroadcastRequest(signed)),
                });
            }
            TimerId::Hard(digest) => {
                // ln. 33–35: the primary failed to order the request.
                if self.pending.contains_key(&digest) && !self.dedup.contains(&digest) {
                    if self.is_primary() {
                        // We became the primary since arming this timer:
                        // order the request instead of suspecting
                        // ourselves.
                        if !self.replica.has_in_flight_payload(&digest) {
                            let request = self.pending[&digest].request.clone();
                            self.stats.proposed += 1;
                            self.replica.propose(request);
                            self.pump_replica();
                        }
                        return;
                    }
                    self.stats.hard_timeouts += 1;
                    let primary = self.replica.primary();
                    self.replica.suspect(primary);
                    self.pump_replica();
                }
            }
            TimerId::ViewChange(view) => {
                self.replica.on_timer(ReplicaTimer::ViewChange(view));
                self.pump_replica();
            }
            TimerId::BatchFlush => {
                self.replica.on_timer(ReplicaTimer::BatchFlush);
                self.pump_replica();
            }
            TimerId::CollectorPrepare(sn) => {
                self.replica.on_timer(ReplicaTimer::CollectorPrepare(sn));
                self.pump_replica();
            }
            TimerId::CollectorCommit(sn) => {
                self.replica.on_timer(ReplicaTimer::CollectorCommit(sn));
                self.pump_replica();
            }
        }
    }

    fn drain_effects(&mut self) -> Vec<NodeEffect> {
        std::mem::take(&mut self.effects)
    }

    fn chain(&self) -> &ChainStore {
        &self.store
    }

    fn chain_mut(&mut self) -> &mut ChainStore {
        &mut self.store
    }

    fn stable_proofs(&self) -> &[CheckpointProof] {
        &self.stable_proofs
    }

    fn stats(&self) -> NodeStats {
        self.stats
    }

    fn open_requests(&self) -> usize {
        self.pending.len()
    }

    fn open_origins(&self) -> usize {
        self.open_by_origin.len()
    }

    fn consensus_stats(&self) -> zugchain_pbft::ReplicaStats {
        self.replica.stats()
    }

    fn slot_snapshot(&self) -> Vec<(u64, bool, usize, usize, bool, bool)> {
        self.replica.slot_snapshot()
    }

    fn progress_snapshot(&self) -> (u64, u64, u64, u64, usize) {
        self.replica.progress_snapshot()
    }

    fn approx_memory_bytes(&self) -> usize {
        let pending_bytes: usize = self
            .pending
            .values()
            .map(|p| p.request.request().payload.len() + 96)
            .sum();
        self.replica.approx_memory_bytes()
            + self.store.resident_bytes()
            + self.dedup.approx_memory_bytes()
            + pending_bytes
            + self.stable_proofs.len() * 512
    }

    fn set_telemetry(&mut self, telemetry: &zugchain_telemetry::Telemetry) {
        // A fleet node publishes under `train="<id>"` next to the node
        // label; the default train keeps the legacy single-train label
        // set so existing dashboards and smoke checks are unchanged.
        let telemetry = if self.config.train == TrainId::DEFAULT || telemetry.train().is_some() {
            telemetry.clone()
        } else {
            telemetry.for_train(self.config.train.0)
        };
        self.metrics = NodeMetrics::resolve(&telemetry);
        self.replica.set_telemetry(&telemetry);
        self.telemetry = telemetry;
        self.update_open_gauges();
    }
}

/// Adapter implementing the shared [`Machine`] contract for any
/// [`TrainNode`] — the glue that lets one generic driver run
/// [`ZugchainNode`] and [`BaselineNode`](crate::BaselineNode) under the
/// simulator, the threaded runtime, and the TCP runtime alike.
///
/// (A blanket `impl Machine for N: TrainNode` would be a foreign-trait
/// blanket impl, which coherence forbids; the newtype keeps both traits
/// usable.)
#[derive(Debug)]
pub struct TrainMachine<N>(pub N);

impl<N: TrainNode> Machine for TrainMachine<N> {
    type Addr = NodeId;
    type Message = NodeMessage;
    type Timer = TimerId;
    type Output = NodeEvent;
    type Input = NodeInput;

    fn on_input(&mut self, input: NodeInput) -> Vec<NodeEffect> {
        match input {
            NodeInput::RawPayload { payload, time_ms } => {
                self.0.on_raw_bus_payload(payload, time_ms);
            }
            NodeInput::BusCycle {
                source,
                cycle,
                time_ms,
                telegrams,
            } => {
                self.0.on_bus_cycle(source, cycle, time_ms, &telegrams);
            }
            NodeInput::Message(message) => self.0.on_message(message),
        }
        self.0.drain_effects()
    }

    fn on_timer(&mut self, timer: TimerId) -> Vec<NodeEffect> {
        self.0.on_timer(timer);
        self.0.drain_effects()
    }
}

#[cfg(test)]
mod tests;
#[cfg(test)]
pub(crate) mod testutil;
