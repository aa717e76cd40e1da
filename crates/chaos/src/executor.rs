//! Deterministic plan execution with invariant checking.
//!
//! Runs a [`ChaosPlan`] as a discrete-event simulation over the unified
//! [`Driver`]: one driver per [`ZugchainNode`] (wrapped in a
//! [`ByzNode`]), two ground-side [`DataCenter`]s with per-node
//! [`ExportReplica`] handlers, and a seeded network model. Safety
//! invariants are checked after every event; liveness invariants at
//! quiescence (when the event heap drains). The first violation aborts
//! the run and is returned in the [`ChaosOutcome`].

use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;

use rand::{rngs::StdRng, RngExt as _, SeedableRng as _};
use zugchain::{
    NodeConfig, NodeEvent, NodeInput, NodeMessage, NodeObserver, TimerId, TrainMachine, TrainNode,
    ZugchainNode,
};
use zugchain_archive::FleetArchive;
use zugchain_blockchain::{verify_chain, Block, BlockBuilder, ChainStore, LoggedRequest};
use zugchain_crypto::{Digest, KeyPair, Keystore};
use zugchain_export::{
    CertifiedSegment, DataCenter, DcAddr, DcConfig, DcEffect, DcId, ExportMessage, ExportReplica,
    ReplicaExportConfig,
};
use zugchain_machine::{Driver, Effect, Frame, Host};
use zugchain_mvb::Nsdb;
use zugchain_pbft::{Checkpoint, CheckpointProof, Config, Message, NodeId};
use zugchain_telemetry::{Registry, Telemetry, TraceEvent, DEFAULT_TRACE_CAPACITY};
use zugchain_wire::TrainId;

use crate::byzantine::ByzNode;
use crate::plan::{ByzBehavior, ChaosPlan};

const NS_PER_MS: u64 = 1_000_000;
const NS_PER_US: u64 = 1_000;

/// The bystander train sharing the fleet archives with the chaos
/// cluster. Its shard is populated before the plan runs and must come
/// out of the run untouched (I8, fleet mode).
const BYSTANDER: TrainId = TrainId(0xB);

/// A small honest chain for the bystander train, genuinely certified by
/// its own (distinct) replica keyset.
fn bystander_chain(pairs: &[KeyPair]) -> Vec<CertifiedSegment> {
    let mut builder = BlockBuilder::new(2);
    let mut base = Block::genesis();
    let mut segments = Vec::new();
    let mut sn = 0u64;
    for _ in 0..2 {
        let mut blocks = Vec::new();
        while blocks.len() < 2 {
            sn += 1;
            if let Some(block) = builder.push(
                LoggedRequest {
                    sn,
                    origin: sn % 4,
                    payload: sn.to_le_bytes().to_vec(),
                },
                sn * 100,
            ) {
                blocks.push(block);
            }
        }
        let head = blocks.last().expect("nonempty").clone();
        let checkpoint = Checkpoint {
            sn,
            state_digest: head.hash(),
        };
        let message = zugchain_wire::to_bytes(&Message::Checkpoint(checkpoint));
        segments.push(CertifiedSegment {
            train: BYSTANDER,
            base_height: base.height(),
            base_hash: base.hash(),
            blocks,
            proof: CheckpointProof {
                checkpoint,
                signatures: pairs
                    .iter()
                    .enumerate()
                    .map(|(id, pair)| (NodeId(id as u64), pair.sign(&message)))
                    .collect(),
            },
        });
        base = head;
    }
    segments
}

/// Classes of invariant violations the harness detects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two nodes decided different request digests for one sequence
    /// number (PBFT agreement broken).
    DecideConflict,
    /// Two nodes created different blocks at one height (fork).
    BlockFork,
    /// A node's resident chain failed hash-link/height/sn verification.
    ChainInvalid,
    /// A node not configured as Byzantine emitted two different
    /// preprepares for one `(view, sn)` slot — the tripwire for the
    /// injected `mutation-hooks` equivocation bug.
    Equivocation,
    /// A data center's archive failed verification or disagreed with
    /// the blocks the cluster created.
    ExportMismatch,
    /// The juridical archive refused a certified segment, archived a
    /// block the cluster never decided, or emitted an audit bundle that
    /// failed offline verification (I8).
    ArchiveAudit,
    /// An untouched correct node failed to decide a planned operation by
    /// quiescence, or the run never quiesced.
    LivenessLoss,
    /// The view number exceeded the per-plan bound (view-change storm).
    ViewBound,
}

impl ViolationKind {
    /// Stable string form, used in repro files.
    pub fn as_str(self) -> &'static str {
        match self {
            ViolationKind::DecideConflict => "decide-conflict",
            ViolationKind::BlockFork => "block-fork",
            ViolationKind::ChainInvalid => "chain-invalid",
            ViolationKind::Equivocation => "equivocation",
            ViolationKind::ExportMismatch => "export-mismatch",
            ViolationKind::ArchiveAudit => "archive-audit",
            ViolationKind::LivenessLoss => "liveness-loss",
            ViolationKind::ViewBound => "view-bound",
        }
    }

    /// Parses the string form written by [`as_str`](Self::as_str).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "decide-conflict" => ViolationKind::DecideConflict,
            "block-fork" => ViolationKind::BlockFork,
            "chain-invalid" => ViolationKind::ChainInvalid,
            "equivocation" => ViolationKind::Equivocation,
            "export-mismatch" => ViolationKind::ExportMismatch,
            "archive-audit" => ViolationKind::ArchiveAudit,
            "liveness-loss" => ViolationKind::LivenessLoss,
            "view-bound" => ViolationKind::ViewBound,
            _ => return None,
        })
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// What class of invariant broke.
    pub kind: ViolationKind,
    /// Human-readable specifics.
    pub detail: String,
    /// Simulated time of detection (ms).
    pub at_ms: u64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} @ {}ms] {}", self.kind, self.at_ms, self.detail)
    }
}

/// The result of executing a plan.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The first violation, if any.
    pub violation: Option<Violation>,
    /// Per-node decided `(sn, payload digest)` logs, in decide order —
    /// also the determinism witness (two runs of one plan must match).
    pub decided: Vec<Vec<(u64, Digest)>>,
    /// Highest view observed on any node.
    pub max_view: u64,
    /// Blocks created across all nodes (counting re-creations).
    pub blocks_created: u64,
    /// Blocks adopted into data-center archives.
    pub exported_blocks: u64,
    /// Certified segments ingested into the juridical archives (I8).
    pub archived_segments: u64,
    /// State transfers requested by lagging nodes.
    pub state_transfers: u64,
    /// Point-to-point messages delivered.
    pub delivered_messages: u64,
    /// `false` if the run was cut off at the quiescence deadline with
    /// events still pending. Not a violation by itself: a single stalled
    /// replica legitimately escalates view changes into a quiet network
    /// forever (nobody joins, so the cluster view never moves) — actual
    /// liveness loss shows up as undecided operations or a blown view
    /// bound.
    pub quiesced: bool,
    /// Per-node trace-ring dumps (JSONL, virtual-time stamped —
    /// byte-identical across replays of one plan), spans and events in
    /// recording order. On a violation, every node's trace ends with a
    /// `mark` event carrying the violation, so the tail shows what each
    /// replica did right before the failure, and the spans show each
    /// request's causal lifecycle (including the Byzantine sender's own
    /// spans).
    pub traces: Vec<String>,
}

// ---------------------------------------------------------------------
// Event queue
// ---------------------------------------------------------------------

#[derive(Debug)]
enum Work {
    /// A network frame addressed to this node.
    Message(Frame<NodeMessage>),
    /// A timer wakeup `(id, generation)`.
    Timer(TimerId, u64),
}

#[derive(Debug)]
enum EventKind {
    /// Planned operation `ops[i]` hits every live node's bus input.
    Op(usize),
    /// Deliver `work` to one node.
    Deliver { node: usize, work: Work },
    /// `crashes[i]` takes its node down.
    Crash(usize),
    /// `crashes[i]`'s node restarts from (damaged) durable state.
    Recover(usize),
    /// `exports[i]` starts an export round.
    Export(usize),
}

struct Event {
    at_ns: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at_ns == other.at_ns && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    /// Reversed so the `BinaryHeap` max-heap pops the earliest event;
    /// `seq` breaks ties deterministically (FIFO at equal times).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at_ns.cmp(&self.at_ns).then(other.seq.cmp(&self.seq))
    }
}

// ---------------------------------------------------------------------
// World (everything the host may touch while a driver is borrowed)
// ---------------------------------------------------------------------

struct World {
    plan: ChaosPlan,
    crashed: Vec<bool>,
    /// Nodes with a configured Byzantine wrapper, exempt from the
    /// honest-equivocation tripwire (their lies are planned).
    byz: Vec<bool>,
    events: BinaryHeap<Event>,
    seq: u64,
    now_ns: u64,
    net_rng: StdRng,
    // Invariant state.
    /// I1: global sequence number → decided payload digest.
    decided_sn: HashMap<u64, Digest>,
    /// I2: global block height → block hash.
    block_at: HashMap<u64, Digest>,
    /// I4: `(node, view, sn)` → proposed batch digest.
    preprepares: HashMap<(usize, u64, u64), Digest>,
    /// Per-node set of decided payload digests (liveness check).
    decided_by: Vec<HashSet<Digest>>,
    /// Per-node decided `(sn, digest)` log (determinism witness).
    decided_log: Vec<Vec<(u64, Digest)>>,
    max_view: u64,
    blocks_created: u64,
    state_transfers: u64,
    delivered: u64,
    /// Nodes that appended a block during the current dispatch; the
    /// executor notifies their export handler once the driver borrow
    /// ends.
    pending_appended: Vec<usize>,
    /// Nodes that requested a state transfer (fell behind a stable
    /// checkpoint); the executor services them once the driver borrow
    /// ends.
    pending_transfers: Vec<usize>,
    violation: Option<Violation>,
}

impl World {
    fn fail(&mut self, kind: ViolationKind, detail: String) {
        if self.violation.is_none() {
            self.violation = Some(Violation {
                kind,
                detail,
                at_ms: self.now_ns / NS_PER_MS,
            });
        }
    }

    fn schedule(&mut self, at_ns: u64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Event { at_ns, seq, kind });
    }

    /// `true` if the partition separates `a` from `b` at time `at_ns`.
    fn partitioned(&self, a: usize, b: usize, at_ns: u64) -> bool {
        match &self.plan.partition {
            Some(p) => {
                let active = at_ns >= p.start_ms * NS_PER_MS && at_ns < p.heal_ms * NS_PER_MS;
                active && (p.island.contains(&a) != p.island.contains(&b))
            }
            None => false,
        }
    }

    /// Queues delivery of `frame` from `src` to `dst` under the network
    /// model: seeded latency jitter, occasional retransmit delay, and
    /// occasional duplication. Messages across an active partition are
    /// dropped at send time (the link is down; by the time TCP
    /// reconnects after healing, the protocol state has moved on).
    fn unicast(&mut self, src: usize, dst: usize, frame: Frame<NodeMessage>) {
        if self.partitioned(src, dst, self.now_ns) {
            return;
        }
        if self.prepare_lost(src, &frame) {
            return;
        }
        let net = self.plan.net.clone();
        let jitter = self
            .net_rng
            .random_range(net.min_latency_us..=net.max_latency_us)
            * NS_PER_US;
        let mut delay = jitter;
        if net.retransmit_probability > 0.0 && self.net_rng.random_bool(net.retransmit_probability)
        {
            delay += net.retransmit_delay_ms * NS_PER_MS;
        }
        let duplicate =
            net.duplicate_probability > 0.0 && self.net_rng.random_bool(net.duplicate_probability);
        let at_ns = self.now_ns + delay;
        self.schedule(
            at_ns,
            EventKind::Deliver {
                node: dst,
                work: Work::Message(frame.clone()),
            },
        );
        if duplicate {
            self.schedule(
                at_ns + NS_PER_MS,
                EventKind::Deliver {
                    node: dst,
                    work: Work::Message(frame),
                },
            );
        }
    }

    /// `true` if `frame` is a `Prepare` sent by the planned prepare-loss
    /// node inside its loss window — the link eats it.
    fn prepare_lost(&self, src: usize, frame: &Frame<NodeMessage>) -> bool {
        let Some(pl) = &self.plan.prepare_loss else {
            return false;
        };
        if pl.node != src
            || self.now_ns < pl.start_ms * NS_PER_MS
            || self.now_ns >= pl.end_ms * NS_PER_MS
        {
            return false;
        }
        matches!(
            frame.message(),
            NodeMessage::Consensus(signed) if matches!(signed.message, Message::Prepare(_))
        )
    }

    /// I4: an honest node must never emit two different preprepares for
    /// one `(view, sn)` slot — including batches differing in a single
    /// request, which the batch digest binds. Observing *outbound*
    /// frames catches an equivocating sender directly, before any victim
    /// even processes the conflicting proposal.
    fn observe_outbound(&mut self, src: usize, frame: &Frame<NodeMessage>) {
        if self.byz[src] {
            return;
        }
        let NodeMessage::Consensus(signed) = frame.message() else {
            return;
        };
        if signed.from != NodeId(src as u64) {
            return;
        }
        let Message::PrePrepare(pp) = &signed.message else {
            return;
        };
        let digest = pp.batch.digest();
        match self.preprepares.insert((src, pp.view, pp.sn), digest) {
            Some(previous) if previous != digest => {
                self.fail(
                    ViolationKind::Equivocation,
                    format!(
                        "node {src} proposed two batches for (view {}, sn {}): {previous} then {digest}",
                        pp.view, pp.sn
                    ),
                );
            }
            _ => {}
        }
    }

    fn on_node_event(&mut self, node: usize, event: NodeEvent) {
        match event {
            NodeEvent::Logged { sn, payload, .. } => {
                let digest = Digest::of(&payload);
                match self.decided_sn.get(&sn) {
                    Some(&previous) if previous != digest => {
                        self.fail(
                            ViolationKind::DecideConflict,
                            format!(
                                "sn {sn}: node {node} decided {digest}, another node decided {previous}"
                            ),
                        );
                    }
                    Some(_) => {}
                    None => {
                        self.decided_sn.insert(sn, digest);
                    }
                }
                self.decided_by[node].insert(digest);
                self.decided_log[node].push((sn, digest));
            }
            NodeEvent::BlockCreated { block } => {
                let height = block.height();
                let hash = block.hash();
                match self.block_at.get(&height) {
                    Some(&previous) if previous != hash => {
                        self.fail(
                            ViolationKind::BlockFork,
                            format!(
                                "height {height}: node {node} built {hash}, another node built {previous}"
                            ),
                        );
                    }
                    Some(_) => {}
                    None => {
                        self.block_at.insert(height, hash);
                    }
                }
                self.blocks_created += 1;
                self.pending_appended.push(node);
            }
            NodeEvent::NewPrimary { view, .. } => {
                self.max_view = self.max_view.max(view);
            }
            NodeEvent::StateTransferNeeded { .. } => {
                self.state_transfers += 1;
                self.pending_transfers.push(node);
            }
            NodeEvent::CheckpointStable { .. } => {}
        }
    }
}

// ---------------------------------------------------------------------
// Host
// ---------------------------------------------------------------------

struct ChaosHost<'a> {
    world: &'a mut World,
    node: usize,
}

impl Host<TrainMachine<ByzNode>> for ChaosHost<'_> {
    fn send(&mut self, to: NodeId, frame: &Frame<NodeMessage>) {
        self.world.observe_outbound(self.node, frame);
        let dst = to.0 as usize;
        if dst != self.node && dst < self.world.plan.n_nodes {
            self.world.unicast(self.node, dst, frame.clone());
        }
    }

    fn broadcast(&mut self, frame: &Frame<NodeMessage>) {
        self.world.observe_outbound(self.node, frame);
        for dst in 0..self.world.plan.n_nodes {
            if dst != self.node {
                self.world.unicast(self.node, dst, frame.clone());
            }
        }
    }

    fn set_timer(&mut self, id: TimerId, gen: u64, duration_ms: u64) {
        let at_ns = self.world.now_ns + duration_ms * NS_PER_MS;
        let node = self.node;
        self.world.schedule(
            at_ns,
            EventKind::Deliver {
                node,
                work: Work::Timer(id, gen),
            },
        );
    }

    /// Queued wakeups cannot be unscheduled; the driver's generation
    /// check drops them at fire time.
    fn cancel_timer(&mut self, _id: TimerId) {}

    fn output(&mut self, event: NodeEvent) {
        self.world.on_node_event(self.node, event);
    }
}

// ---------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------

struct Chaos {
    drivers: Vec<Driver<TrainMachine<ByzNode>>>,
    /// Per-node trace rings sharing one registry; the trace clock
    /// follows virtual time, so dumps are deterministic per plan.
    telemetry: Vec<Telemetry>,
    world: World,
    dcs: Vec<DataCenter>,
    /// One in-memory fleet archive per data center: the chaos cluster's
    /// shard (the default train) is fed from the certified segments the
    /// export protocol finalizes (I8), next to a pre-populated bystander
    /// train's shard that no amount of chaos may touch (I8, fleet mode).
    archives: Vec<FleetArchive>,
    /// The bystander train's replica keys and pre-chaos shard state:
    /// head `(height, hash)` and request count.
    bystander_keystore: Keystore,
    bystander_head: (u64, Digest),
    bystander_requests: usize,
    export_replicas: Vec<ExportReplica>,
    exported_blocks: u64,
    archived_segments: u64,
    // Materials needed to rebuild a node on recovery.
    config: NodeConfig,
    nsdb: Nsdb,
    pairs: Vec<KeyPair>,
    keystore: Keystore,
}

/// Executes `plan` to quiescence (or first violation) and reports.
pub fn execute(plan: &ChaosPlan) -> ChaosOutcome {
    Chaos::new(plan.clone()).run()
}

impl Chaos {
    fn new(plan: ChaosPlan) -> Self {
        let n = plan.n_nodes;
        let (pairs, keystore) =
            Keystore::generate(n, plan.seed.wrapping_mul(0x9E37_79B9).wrapping_add(17));
        let config = NodeConfig {
            train: TrainId::DEFAULT,
            pbft: Config::new(n)
                .expect("plan sizes are valid")
                .with_max_batch_size(plan.max_batch_size)
                .with_batch_delay(plan.batch_delay_ms)
                .with_auth_mode(plan.auth_mode)
                .with_comm_mode(plan.comm_mode),
            block_size: plan.block_size,
            soft_timeout_ms: 100,
            hard_timeout_ms: 100,
            view_change_timeout_ms: 300,
            open_request_limit: 256,
            dedup_window_checkpoints: 8,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
        };
        let nsdb = Nsdb::new();

        let registry = Arc::new(Registry::new());
        let telemetry: Vec<Telemetry> = (0..n)
            .map(|i| Telemetry::new(i as u64, Arc::clone(&registry), config.trace_capacity))
            .collect();
        let mut drivers: Vec<Driver<TrainMachine<ByzNode>>> = (0..n)
            .map(|i| {
                let behavior = plan
                    .byzantine
                    .iter()
                    .find(|b| b.node == i)
                    .map(|b| b.behavior);
                let node = ZugchainNode::new(
                    i as u64,
                    config.clone(),
                    nsdb.clone(),
                    pairs[i].clone(),
                    keystore.clone(),
                );
                let mut byz = ByzNode::new(node, behavior, pairs[i].clone(), n);
                byz.set_telemetry(&telemetry[i]);
                Driver::with_observer(
                    TrainMachine(byz),
                    Box::new(NodeObserver::new(telemetry[i].clone())),
                )
            })
            .collect();
        if plan.mutation {
            drivers[0]
                .machine_mut()
                .0
                .inner_mut()
                .enable_equivocation_bug();
        }

        let quorum = 2 * plan.f() + 1;
        let (dc_pairs, dc_keystore) = Keystore::generate(2, plan.seed ^ 0xDC00_DC00);
        let dcs = (0..2u64)
            .map(|i| {
                DataCenter::new(
                    DcConfig {
                        id: DcId(i),
                        train: TrainId::DEFAULT,
                        n_replicas: n,
                        replica_quorum: quorum,
                        peers: vec![DcId(1 - i)],
                    },
                    dc_pairs[i as usize].clone(),
                    keystore.clone(),
                    quorum,
                )
            })
            .collect();
        // Fleet archives: the chaos cluster's shard lives next to a
        // bystander train's shard keyed to a different replica set, so
        // every run also witnesses cross-train isolation under faults.
        // Same group size as the chaos cluster, so its checkpoint
        // certificates meet the same quorum.
        let (bystander_pairs, bystander_keystore) = Keystore::generate(n, plan.seed ^ 0xB5A4_B5A4);
        let bystander_segments = bystander_chain(&bystander_pairs);
        let archives: Vec<FleetArchive> = (0..2)
            .map(|_| {
                let fleet = FleetArchive::in_memory(quorum);
                fleet
                    .register_train(TrainId::DEFAULT, keystore.clone())
                    .expect("fresh fleet");
                fleet
                    .register_train(BYSTANDER, bystander_keystore.clone())
                    .expect("fresh fleet");
                for certified in &bystander_segments {
                    fleet
                        .ingest(certified)
                        .expect("honest bystander chain ingests");
                }
                fleet
            })
            .collect();
        let bystander_head = archives[0].head_of(BYSTANDER).expect("bystander archived");
        let bystander_requests = archives[0]
            .with_shard(BYSTANDER, |shard| shard.request_count())
            .expect("bystander shard exists");
        let export_replicas = (0..n)
            .map(|i| {
                ExportReplica::new(
                    NodeId(i as u64),
                    pairs[i].clone(),
                    dc_keystore.clone(),
                    ReplicaExportConfig::default(),
                )
            })
            .collect();

        let byz = (0..n)
            .map(|i| plan.byzantine.iter().any(|b| b.node == i))
            .collect();
        let mut world = World {
            crashed: vec![false; n],
            byz,
            events: BinaryHeap::new(),
            seq: 0,
            now_ns: 0,
            net_rng: StdRng::seed_from_u64(plan.seed.rotate_left(17) ^ 0xC4A05),
            decided_sn: HashMap::new(),
            block_at: HashMap::new(),
            preprepares: HashMap::new(),
            decided_by: vec![HashSet::new(); n],
            decided_log: vec![Vec::new(); n],
            max_view: 0,
            blocks_created: 0,
            state_transfers: 0,
            delivered: 0,
            pending_appended: Vec::new(),
            pending_transfers: Vec::new(),
            violation: None,
            plan,
        };

        for (i, op) in world.plan.ops.clone().iter().enumerate() {
            world.schedule(op.at_ms * NS_PER_MS, EventKind::Op(i));
        }
        for (i, crash) in world.plan.crashes.clone().iter().enumerate() {
            world.schedule(crash.at_ms * NS_PER_MS, EventKind::Crash(i));
            if let Some(recover_at) = crash.recover_at_ms {
                world.schedule(recover_at * NS_PER_MS, EventKind::Recover(i));
            }
        }
        for (i, export) in world.plan.exports.clone().iter().enumerate() {
            world.schedule(export.at_ms * NS_PER_MS, EventKind::Export(i));
        }

        Self {
            drivers,
            telemetry,
            world,
            dcs,
            archives,
            bystander_keystore,
            bystander_head,
            bystander_requests,
            export_replicas,
            exported_blocks: 0,
            archived_segments: 0,
            config,
            nsdb,
            pairs,
            keystore,
        }
    }

    fn run(mut self) -> ChaosOutcome {
        // Quiescence cutoff: generously past the last planned event.
        // Residual traffic beyond it (a stalled replica's unjoined
        // view-change escalations) is tolerated — the liveness checks
        // below decide whether anything real was lost.
        let deadline_ns = (self.world.plan.last_event_ms() + 30_000) * NS_PER_MS;
        // Backstop against genuine event explosions (broadcast
        // amplification loops): far above any legitimate run, which
        // stays in the tens of thousands of events.
        const EVENT_CAP: u64 = 2_000_000;
        let mut processed: u64 = 0;
        let mut quiesced = true;
        while let Some(event) = self.world.events.pop() {
            if self.world.violation.is_some() {
                break;
            }
            if event.at_ns > deadline_ns {
                quiesced = false;
                break;
            }
            processed += 1;
            if processed > EVENT_CAP {
                let detail = self.progress_report();
                self.world.fail(
                    ViolationKind::LivenessLoss,
                    format!(
                        "event explosion: {EVENT_CAP}+ events before the quiescence deadline; {detail}"
                    ),
                );
                break;
            }
            self.world.now_ns = event.at_ns;
            // Trace clock follows virtual time (monotonic fetch_max, so
            // the heap's equal-time reordering can never rewind it).
            let now_ms = event.at_ns / NS_PER_MS;
            for telemetry in &self.telemetry {
                telemetry.set_time_ms(now_ms);
            }
            match event.kind {
                EventKind::Op(i) => self.run_op(i),
                EventKind::Deliver { node, work } => self.deliver(node, work),
                EventKind::Crash(i) => {
                    let node = self.world.plan.crashes[i].node;
                    self.world.crashed[node] = true;
                    self.drivers[node].clear_timers();
                    // A crash loses the volatile proposal log, so the
                    // recovered node may honestly propose a different
                    // request at a slot it proposed before the crash —
                    // only a *within-lifetime* double proposal is
                    // equivocation (I4).
                    self.world.preprepares.retain(|key, _| key.0 != node);
                }
                EventKind::Recover(i) => self.recover(i),
                EventKind::Export(i) => self.run_export(i),
            }
            self.flush_appended();
            self.flush_transfers();
        }
        if self.world.violation.is_none() {
            self.check_quiescence();
        }
        // Stamp the violation into every node's trace so a dumped tail
        // is self-describing: the last record names what broke and when.
        if let Some(violation) = &self.world.violation {
            let label = format!("violation: {violation}");
            for telemetry in &self.telemetry {
                telemetry.record_with(|| TraceEvent::Mark {
                    label: label.clone(),
                });
            }
        }
        ChaosOutcome {
            violation: self.world.violation,
            decided: self.world.decided_log,
            max_view: self.world.max_view,
            blocks_created: self.world.blocks_created,
            exported_blocks: self.exported_blocks,
            archived_segments: self.archived_segments,
            state_transfers: self.world.state_transfers,
            delivered_messages: self.world.delivered,
            quiesced,
            traces: self.telemetry.iter().map(Telemetry::dump_jsonl).collect(),
        }
    }

    /// One-line per-node progress summary for liveness diagnostics.
    fn progress_report(&self) -> String {
        let nodes: Vec<String> = self
            .drivers
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let n = &d.machine().0;
                let (view, low, decided, next, buffered) = n.progress_snapshot();
                format!(
                    "node {i}{}: view {view} low {low} decided {decided} next {next} buffered {buffered} open {}",
                    if self.world.crashed[i] { " (down)" } else { "" },
                    n.open_requests()
                )
            })
            .collect();
        nodes.join("; ")
    }

    fn run_op(&mut self, index: usize) {
        let payload = self.world.plan.op_payload(index);
        let time_ms = self.world.now_ns / NS_PER_MS;
        for node in 0..self.world.plan.n_nodes {
            if self.world.crashed[node] {
                continue;
            }
            let mut host = ChaosHost {
                world: &mut self.world,
                node,
            };
            self.drivers[node].on_input(
                NodeInput::RawPayload {
                    payload: payload.clone(),
                    time_ms,
                },
                &mut host,
            );
            // A bus fabricator rides every op with junk no other node saw.
            if self.drivers[node].machine().0.behavior() == Some(ByzBehavior::FabricateBus) {
                let mut junk =
                    format!("CHAOSJUNK:{}:{}:{}", self.world.plan.seed, node, index).into_bytes();
                junk.resize(48, 0x5A);
                let mut host = ChaosHost {
                    world: &mut self.world,
                    node,
                };
                self.drivers[node].on_input(
                    NodeInput::RawPayload {
                        payload: junk,
                        time_ms,
                    },
                    &mut host,
                );
            }
        }
    }

    fn deliver(&mut self, node: usize, work: Work) {
        if self.world.crashed[node] {
            return;
        }
        let mut host = ChaosHost {
            world: &mut self.world,
            node,
        };
        match work {
            Work::Message(frame) => {
                host.world.delivered += 1;
                self.drivers[node].on_input(NodeInput::Message(frame.to_message()), &mut host);
            }
            Work::Timer(id, gen) => {
                self.drivers[node].on_timer_fired(id, gen, &mut host);
            }
        }
    }

    /// I3, checked whenever a node's chain changed: the resident suffix
    /// must verify against its base.
    fn check_chain(&mut self, node: usize) {
        let store = self.drivers[node].machine().0.chain();
        if store.blocks().is_empty() {
            return;
        }
        let (_, base_hash) = store.base();
        if let Err(violation) = verify_chain(store.blocks(), Some(base_hash)) {
            self.world.fail(
                ViolationKind::ChainInvalid,
                format!("node {node} chain invalid: {violation:?}"),
            );
        }
    }

    /// Post-dispatch work that needs the driver borrow released: chain
    /// verification and export-replica notification for nodes that just
    /// appended a block.
    fn flush_appended(&mut self) {
        while let Some(node) = self.world.pending_appended.pop() {
            self.check_chain(node);
            let messages = self.export_replicas[node]
                .on_block_appended(self.drivers[node].machine_mut().0.chain_mut());
            if !messages.is_empty() {
                let mut queue = VecDeque::new();
                for message in messages {
                    self.route_replica_reply(0, node, message, &mut queue);
                }
                self.pump(queue);
            }
        }
    }

    // -- crash recovery ------------------------------------------------

    /// Restarts `crashes[i]`'s node from simulated durable state: its
    /// chain with `truncate_blocks` tail blocks torn off, and its stable
    /// checkpoint proofs (all of them lost when `drop_proofs`). Recovery
    /// truncates to the newest proof-covered prefix — exactly what a
    /// real restart does after `DiskStore::recover_chain` — and falls
    /// back to a from-genesis restart when nothing verifiable survives.
    fn recover(&mut self, i: usize) {
        let crash = self.world.plan.crashes[i].clone();
        let node = crash.node;
        if !self.world.crashed[node] {
            return;
        }
        let behavior = self.drivers[node].machine().0.behavior();
        let (surviving_blocks, base, proofs) = {
            let old = self.drivers[node].machine().0.inner();
            let store = old.chain();
            let keep = store.blocks().len().saturating_sub(crash.truncate_blocks);
            let proofs = if crash.drop_proofs {
                Vec::new()
            } else {
                old.stable_proofs().to_vec()
            };
            (
                store.blocks()[..keep].to_vec(),
                store.pruned_base().cloned(),
                proofs,
            )
        };

        let rebuilt = rebuild_recovered_state(&surviving_blocks, base, &proofs);
        let inner = match rebuilt {
            Some((store, proofs)) => ZugchainNode::recover(
                node as u64,
                self.config.clone(),
                self.nsdb.clone(),
                self.pairs[node].clone(),
                self.keystore.clone(),
                store,
                proofs,
            ),
            // Nothing verifiable survived the disk damage: restart from
            // genesis and catch up through the protocol.
            None => ZugchainNode::new(
                node as u64,
                self.config.clone(),
                self.nsdb.clone(),
                self.pairs[node].clone(),
                self.keystore.clone(),
            ),
        };
        self.replace_node(node, inner, behavior);
        self.world.crashed[node] = false;
        self.check_chain(node);
    }

    /// Swaps in a rebuilt inner node, preserving the Byzantine wrapper
    /// and re-arming the injected bug on the mutated node.
    fn replace_node(
        &mut self,
        node: usize,
        mut inner: ZugchainNode,
        behavior: Option<ByzBehavior>,
    ) {
        if self.world.plan.mutation && node == 0 {
            inner.enable_equivocation_bug();
        }
        let mut byz = ByzNode::new(
            inner,
            behavior,
            self.pairs[node].clone(),
            self.world.plan.n_nodes,
        );
        // The recorder handle survives the restart: the rebuilt node
        // appends to the same ring buffer, so one trace spans crashes.
        byz.set_telemetry(&self.telemetry[node]);
        self.drivers[node] = Driver::with_observer(
            TrainMachine(byz),
            Box::new(NodeObserver::new(self.telemetry[node].clone())),
        );
    }

    // -- state transfer ------------------------------------------------

    /// Services pending state-transfer requests. A node that fell behind
    /// a stable cluster checkpoint (its replica jumped its watermark past
    /// blocks it never built — e.g. after a from-genesis restart) must
    /// not keep bundling decided requests onto its stale chain, or it
    /// would fabricate blocks at heights the cluster already filled. The
    /// runtime answers `StateTransferNeeded` by installing a donor's
    /// proof-covered chain prefix, the service the paper assumes for
    /// recovery scenario (ii).
    fn flush_transfers(&mut self) {
        while let Some(node) = self.world.pending_transfers.pop() {
            if !self.world.crashed[node] {
                self.state_transfer(node);
            }
        }
    }

    fn state_transfer(&mut self, node: usize) {
        let my_height = self.drivers[node].machine().0.chain().height();
        let my_proofs = self.drivers[node].machine().0.stable_proofs().to_vec();
        // Deterministic donor: the live peer whose *proof-covered* chain
        // prefix is tallest (lowest id breaks ties) — only what a proof
        // vouches for can be installed on the lagging node. The
        // requester's own proofs are tried first: right after a watermark
        // jump it holds the quorum proof for the state it jumped to,
        // while the donors' local proof stabilization may still lag the
        // blocks they built.
        let mut best: Option<(u64, ChainStore, Vec<CheckpointProof>)> = None;
        for peer in 0..self.world.plan.n_nodes {
            if peer == node || self.world.crashed[peer] {
                continue;
            }
            let donor = self.drivers[peer].machine().0.inner();
            let blocks = donor.chain().blocks();
            let base = donor.chain().pruned_base().cloned();
            let rebuilt = [&my_proofs[..], donor.stable_proofs()]
                .into_iter()
                .filter_map(|proofs| rebuild_recovered_state(blocks, base.clone(), proofs))
                .max_by_key(|(store, _)| store.height());
            if let Some((store, proofs)) = rebuilt {
                let height = store.height();
                if height > my_height && best.as_ref().map_or(true, |(h, _, _)| height > *h) {
                    best = Some((height, store, proofs));
                }
            }
        }
        let Some((_, store, proofs)) = best else {
            return;
        };
        // The node skipped the Decide up-calls for everything at or
        // below the installed checkpoint when its watermark jumped;
        // the transfer delivers their effects, so credit them for the
        // liveness check (they are quorum-certified by the proof).
        let covered_sn = proofs.last().map_or(0, |p| p.checkpoint.sn);
        let credited: Vec<Digest> = self
            .world
            .decided_sn
            .iter()
            .filter(|(sn, _)| **sn <= covered_sn)
            .map(|(_, digest)| *digest)
            .collect();
        self.world.decided_by[node].extend(credited);
        // Install without rebuilding the node: the replica already
        // advanced past the gap (and kept its view) when it adopted the
        // stable checkpoint; only the logging layer lags. Rebuilding
        // would reset the replica to view 0 and strand it.
        self.drivers[node]
            .machine_mut()
            .0
            .inner_mut()
            .install_transfer(store, proofs);
        self.check_chain(node);
    }

    // -- export --------------------------------------------------------

    fn run_export(&mut self, i: usize) {
        let export = self.world.plan.exports[i].clone();
        let effects = self.dcs[export.dc].begin_export(NodeId(export.blocks_from as u64));
        let queue = effects
            .into_iter()
            .map(|e| (export.dc, e))
            .collect::<VecDeque<_>>();
        self.pump(queue);
    }

    /// Drains data-center effects synchronously: the ground-side
    /// protocol runs over a separate (assumed reliable) link and its
    /// interleaving with train-side consensus is not what this harness
    /// explores — crashes still matter, because a crashed replica
    /// silently ignores export traffic.
    fn pump(&mut self, mut queue: VecDeque<(usize, DcEffect)>) {
        let n = self.world.plan.n_nodes;
        while let Some((dc, effect)) = queue.pop_front() {
            match effect {
                Effect::Broadcast { message } => {
                    for node in 0..n {
                        if self.world.crashed[node] {
                            continue;
                        }
                        let replies = self.handle_export_at(node, message.clone());
                        for reply in replies {
                            self.route_replica_reply(dc, node, reply, &mut queue);
                        }
                    }
                }
                Effect::Send {
                    to: DcAddr::Replica(id),
                    message,
                } => {
                    let node = id.0 as usize;
                    if self.world.crashed[node] {
                        continue;
                    }
                    let replies = self.handle_export_at(node, message);
                    for reply in replies {
                        self.route_replica_reply(dc, node, reply, &mut queue);
                    }
                }
                Effect::Send {
                    to: DcAddr::DataCenter(peer),
                    message,
                } => {
                    let peer = peer.0 as usize;
                    let effects = self.dcs[peer].on_dc_sync(message);
                    queue.extend(effects.into_iter().map(|e| (peer, e)));
                }
                Effect::SetTimer { .. } | Effect::CancelTimer { .. } => {}
                Effect::Output(outcome) => {
                    self.exported_blocks += outcome.exported_blocks as u64;
                }
            }
        }
        self.ingest_archives();
        self.check_archives();
    }

    /// Runs one export message through a node's replica-side handler.
    fn handle_export_at(&mut self, node: usize, message: ExportMessage) -> Vec<ExportMessage> {
        let proofs = self.drivers[node].machine().0.stable_proofs().to_vec();
        let replies = self.export_replicas[node].handle(
            message,
            self.drivers[node].machine_mut().0.chain_mut(),
            &proofs,
        );
        // The handler may have pruned the chain; re-verify what is left.
        self.check_chain(node);
        replies
    }

    /// Replica replies go back to the requesting data center — except
    /// acks, which every data center counts (step ⑦).
    fn route_replica_reply(
        &mut self,
        dc: usize,
        node: usize,
        reply: ExportMessage,
        queue: &mut VecDeque<(usize, DcEffect)>,
    ) {
        match reply {
            ExportMessage::Ack(_) => {
                for target in 0..self.dcs.len() {
                    let effects =
                        self.dcs[target].on_replica_message(NodeId(node as u64), reply.clone());
                    queue.extend(effects.into_iter().map(|e| (target, e)));
                }
            }
            other => {
                let effects = self.dcs[dc].on_replica_message(NodeId(node as u64), other);
                queue.extend(effects.into_iter().map(|e| (dc, e)));
            }
        }
    }

    /// I5: every data center's shard of the chaos train must verify as
    /// one hash chain from genesis and agree with the blocks the cluster
    /// actually created.
    fn check_archives(&mut self) {
        for (i, fleet) in self.archives.iter().enumerate() {
            let mut chain = vec![Block::genesis()];
            fleet.with_shard(TrainId::DEFAULT, |shard| {
                chain.extend(shard.blocks().cloned());
            });
            if verify_chain(&chain, None).is_err() {
                self.world.fail(
                    ViolationKind::ExportMismatch,
                    format!("data center {i} archive failed verification"),
                );
                return;
            }
            for block in chain.iter().skip(1) {
                if let Some(&expected) = self.world.block_at.get(&block.height()) {
                    if expected != block.hash() {
                        self.world.fail(
                            ViolationKind::ExportMismatch,
                            format!(
                                "data center {i} archived {} at height {} but the cluster built {expected}",
                                block.hash(),
                                block.height()
                            ),
                        );
                        return;
                    }
                }
            }
        }
    }

    /// I8: the juridical archive path. Every certified segment a data
    /// center finalizes must (a) pass the archive's full re-verification
    /// (chain linkage, pruned-base continuity, 2f+1 certificate) and
    /// (b) yield audit bundles that verify *offline*, after a wire
    /// roundtrip, against the replica public keys alone; that the
    /// archived blocks are the ones the cluster decided is I5, checked
    /// right after over the same shard. In fleet mode, (c): the
    /// chaos cluster's segments land only in its own shard — the
    /// bystander train's shard (different keyset, pre-populated chain)
    /// stays byte-for-byte untouched no matter what equivocation,
    /// crashes, or data-center faults the plan injects.
    fn ingest_archives(&mut self) {
        let quorum = 2 * self.world.plan.f() + 1;
        for dc in 0..self.dcs.len() {
            for certified in self.dcs[dc].drain_certified_segments() {
                if certified.train != TrainId::DEFAULT {
                    self.world.fail(
                        ViolationKind::ArchiveAudit,
                        format!(
                            "data center {dc} certified a segment for train {}, not its own",
                            certified.train
                        ),
                    );
                    return;
                }
                if let Err(e) = self.archives[dc].ingest(&certified) {
                    self.world.fail(
                        ViolationKind::ArchiveAudit,
                        format!("data center {dc} archive refused a certified segment: {e}"),
                    );
                    return;
                }
                self.archived_segments += 1;
                // Sample the segment's endpoints: the first block has the
                // longest link-header run, the head has an empty one.
                let sample = [
                    certified.blocks.first().map(|b| b.height()),
                    certified.blocks.last().map(|b| b.height()),
                ];
                for height in sample.into_iter().flatten() {
                    let Some(bundle) = self.archives[dc].audit_bundle(TrainId::DEFAULT, height)
                    else {
                        self.world.fail(
                            ViolationKind::ArchiveAudit,
                            format!(
                                "data center {dc} has no audit bundle for archived height {height}"
                            ),
                        );
                        return;
                    };
                    let offline = zugchain_wire::from_bytes::<zugchain_archive::AuditBundle>(
                        &zugchain_wire::to_bytes(&bundle),
                    );
                    let verdict = match offline {
                        Ok(bundle) => bundle
                            .verify(&self.keystore, quorum)
                            .map(|_| ())
                            .map_err(|e| e.to_string()),
                        Err(e) => Err(format!("bundle codec roundtrip failed: {e}")),
                    };
                    if let Err(reason) = verdict {
                        self.world.fail(
                            ViolationKind::ArchiveAudit,
                            format!(
                                "data center {dc} audit bundle for height {height} failed offline verification: {reason}"
                            ),
                        );
                        return;
                    }
                }
            }
        }
        self.check_bystander_shards();
    }

    /// I8, fleet mode: the bystander train's shard must still hold
    /// exactly its pre-chaos chain — same head, same request count — and
    /// its head audit bundle must still verify offline against the
    /// bystander keyset alone (and never against the chaos cluster's).
    fn check_bystander_shards(&mut self) {
        let quorum = 2 * self.world.plan.f() + 1;
        for (dc, fleet) in self.archives.iter().enumerate() {
            let head = fleet.head_of(BYSTANDER);
            if head != Some(self.bystander_head) {
                self.world.fail(
                    ViolationKind::ArchiveAudit,
                    format!(
                        "data center {dc} bystander shard head changed under chaos: \
                         {head:?} != {:?}",
                        Some(self.bystander_head)
                    ),
                );
                return;
            }
            let requests = fleet.with_shard(BYSTANDER, |shard| shard.request_count());
            if requests != Some(self.bystander_requests) {
                self.world.fail(
                    ViolationKind::ArchiveAudit,
                    format!(
                        "data center {dc} bystander shard request count changed under \
                         chaos: {requests:?} != {:?}",
                        Some(self.bystander_requests)
                    ),
                );
                return;
            }
            let Some(bundle) = fleet.audit_bundle(BYSTANDER, self.bystander_head.0) else {
                self.world.fail(
                    ViolationKind::ArchiveAudit,
                    format!("data center {dc} lost the bystander head audit bundle"),
                );
                return;
            };
            if let Err(e) = bundle.verify(&self.bystander_keystore, quorum) {
                self.world.fail(
                    ViolationKind::ArchiveAudit,
                    format!("data center {dc} bystander head bundle no longer verifies: {e}"),
                );
                return;
            }
            if bundle.verify(&self.keystore, quorum).is_ok() {
                self.world.fail(
                    ViolationKind::ArchiveAudit,
                    format!(
                        "data center {dc} bystander bundle verifies under the chaos \
                         cluster's keys: keysets are not isolating trains"
                    ),
                );
                return;
            }
        }
    }

    // -- quiescence ----------------------------------------------------

    /// Liveness (I6) and view-bound (I7) checks once the heap drained.
    fn check_quiescence(&mut self) {
        let plan = self.world.plan.clone();
        let touched = plan.touched_nodes();
        for node in 0..plan.n_nodes {
            if self.world.crashed[node] {
                continue;
            }
            self.check_chain(node);
            if self.world.violation.is_some() {
                return;
            }
        }
        // I6, tiered. The strong form — every node decides every op —
        // only holds for fault-free plans: under faults the protocol has
        // no commit retransmission, so a node that misses a decide can
        // stay behind until the next stable checkpoint, and the run may
        // end before one forms (a lone straggler cannot rally an f+1
        // view change either). What must always hold is that each op is
        // decided durably (by at least f+1 nodes, so an honest copy
        // survives any f faults) and by at least one untouched node
        // (no censorship of the correct core).
        let fault_free = plan.crashes.is_empty()
            && plan.byzantine.is_empty()
            && plan.partition.is_none()
            && !plan.mutation;
        for index in 0..plan.ops.len() {
            let digest = Digest::of(&plan.op_payload(index));
            let deciders: Vec<usize> = (0..plan.n_nodes)
                .filter(|&node| self.world.decided_by[node].contains(&digest))
                .collect();
            let untouched_decided = deciders.iter().any(|node| !touched.contains(node));
            let problem = if fault_free && deciders.len() < plan.n_nodes {
                Some("a node in a fault-free run")
            } else if deciders.len() < plan.f() + 1 {
                Some("f+1 nodes (not durable)")
            } else if !untouched_decided {
                Some("any untouched node")
            } else {
                None
            };
            if let Some(problem) = problem {
                let detail = self.progress_report();
                self.world.fail(
                    ViolationKind::LivenessLoss,
                    format!(
                        "op {index} (injected at {}ms) was never decided by {problem}: deciders {deciders:?}; {detail}",
                        plan.ops[index].at_ms
                    ),
                );
                return;
            }
        }
        // Every fault episode may legitimately cost a few views (crash
        // of a primary, partition hiding a primary, Byzantine silence);
        // anything far beyond that is a view-change storm.
        let fault_units = plan.crashes.len()
            + plan.byzantine.len()
            + plan.partition.iter().len()
            + plan.prepare_loss.iter().len()
            + usize::from(plan.mutation);
        let bound = 4 + 4 * plan.n_nodes as u64 * (fault_units as u64 + 1);
        if self.world.max_view > bound {
            self.world.fail(
                ViolationKind::ViewBound,
                format!(
                    "view reached {} (bound {bound} for {fault_units} fault units)",
                    self.world.max_view
                ),
            );
        }
    }
}

/// Finds the newest verifiable prefix of a damaged disk image: the
/// longest chain prefix whose head is covered by a surviving stable
/// checkpoint proof. Returns the rebuilt store plus the proofs up to
/// that head, or `None` if no prefix is proof-covered.
fn rebuild_recovered_state(
    blocks: &[zugchain_blockchain::Block],
    base: Option<zugchain_blockchain::PrunedBase>,
    proofs: &[CheckpointProof],
) -> Option<(ChainStore, Vec<CheckpointProof>)> {
    let base_hash = match &base {
        Some(b) => b.hash,
        None => zugchain_blockchain::Block::genesis().hash(),
    };
    for cut in (0..=blocks.len()).rev() {
        let head_hash = if cut == 0 {
            base_hash
        } else {
            blocks[cut - 1].hash()
        };
        let Some(covered) = proofs
            .iter()
            .rposition(|p| p.checkpoint.state_digest == head_hash)
        else {
            continue;
        };
        let mut store = match &base {
            Some(b) => ChainStore::resume(b.clone()),
            None => ChainStore::new(),
        };
        for block in &blocks[..cut] {
            store
                .append(block.clone())
                .expect("surviving prefix extends its own base");
        }
        return Some((store, proofs[..=covered].to_vec()));
    }
    None
}
