use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

use rand::{Rng as _, RngExt as _, SeedableRng as _};
use zugchain::NodeObserver;
use zugchain::{
    BaselineNode, LayerMessage, NodeEvent, NodeInput, NodeMessage, SignedRequest, TimerId,
    TrainMachine, TrainNode, ZugchainNode,
};
use zugchain_crypto::{Digest, KeyPair, Keystore};
use zugchain_machine::{Driver, Frame, Host};
use zugchain_mvb::{
    Bus, BusConfig, BusFaultPlan, Nsdb, PortAddress, SignalDescriptor, SignalGenerator, SignalKind,
    TapFaults, Telegram,
};
use zugchain_pbft::{Message, NodeId, ProposedRequest};
use zugchain_signals::CycleConsolidator;
use zugchain_telemetry::{Registry, Telemetry, TraceStore};

use crate::{LatencyStats, Mode, RunMetrics, ScenarioConfig, Workload};

const NS_PER_MS: u64 = 1_000_000;

/// The driver type the simulator runs: either node flavour behind the
/// same generic dispatch loop the threaded and TCP runtimes use.
type SimDriver = Driver<TrainMachine<Box<dyn TrainNode>>>;

/// Work delivered to a node.
#[derive(Debug)]
enum Work {
    /// A synthetic consolidated bus payload (sweep workloads).
    RawPayload(Vec<u8>),
    /// Observed telegrams of one bus cycle (JRU workload).
    Telegrams {
        cycle: u64,
        time_ms: u64,
        telegrams: Vec<Telegram>,
    },
    /// A network message, shared by reference: all recipients of a
    /// broadcast hold the same frame, and in-process delivery never
    /// wire-encodes it.
    Message(Frame<NodeMessage>),
    /// A timer expiry `(id, generation)`; stale generations are dropped
    /// without cost.
    Timer(TimerId, u64),
}

#[derive(Debug)]
enum EventKind {
    BusCycle(u64),
    Deliver { node: usize, work: Work },
    MemorySample,
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
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap: earlier time (then lower seq) is "greater".
        other.at_ns.cmp(&self.at_ns).then(other.seq.cmp(&self.seq))
    }
}

/// The discrete-event simulation of one evaluation run.
///
/// Use [`run_scenario`] unless you need step-level control.
pub struct Simulation {
    /// One [`Driver`] per node; the driver owns timer generations and
    /// routes effects into a [`SimHost`].
    drivers: Vec<SimDriver>,
    world: World,
    /// JRU-signal workload state.
    jru: Option<JruWorkload>,
    /// Shared metrics registry all per-node telemetry handles publish
    /// into; [`RunMetrics`] consensus counters are read from here.
    registry: Arc<Registry>,
    /// Per-node telemetry handles (trace ring + virtual clock).
    telemetry: Vec<Telemetry>,
    /// Cluster-shared causal-span store: every node's telemetry handle
    /// records spans here, so traces can be joined across nodes by id.
    traces: Arc<TraceStore>,
}

/// Telemetry captured by [`Simulation::run_instrumented`]: the shared
/// registry (for Prometheus exposition / snapshot queries) and each
/// node's trace-ring dump. Deterministic for a fixed
/// `(config, seed)`: trace timestamps come from the virtual clock.
#[derive(Debug, Clone)]
pub struct TelemetryCapture {
    /// The run's metrics registry.
    pub registry: Arc<Registry>,
    /// Per-node JSONL trace-ring dumps (spans and events), indexed by
    /// node id.
    pub traces: Vec<String>,
    /// The cluster-shared span store, for cross-node trace assembly.
    pub trace_store: Arc<TraceStore>,
}

/// Everything in the simulation that is not a node: the event heap, cost
/// accounting, fault state, and metrics. Split from the drivers so a
/// [`SimHost`] can borrow the world while its driver is borrowed mutably.
struct World {
    config: ScenarioConfig,
    pairs: Vec<KeyPair>,
    crashed: Vec<bool>,
    /// Busy-until per node and lane (0 = consensus loop, 1 = bus I/O).
    lane_busy: Vec<[u64; 2]>,
    cpu_busy_ns: Vec<u64>,
    events: BinaryHeap<Event>,
    seq: u64,
    net: crate::NetworkModel,
    /// Birth time per payload digest.
    births: HashMap<Digest, u64>,
    /// Digests already counted in the latency series.
    first_logged: HashSet<Digest>,
    latency: LatencyStats,
    /// Per-node decided log for the conformance suite.
    decided: Vec<Vec<(u64, Digest)>>,
    memory_samples: Vec<usize>,
    rng: rand::rngs::StdRng,
    fabricate_counter: u64,
    /// Next undelivered index into a scripted workload.
    scripted_next: usize,
}

struct JruWorkload {
    bus: Bus,
    reference: CycleConsolidator,
}

impl World {
    fn n(&self) -> usize {
        self.crashed.len()
    }

    fn push(&mut self, at_ns: u64, kind: EventKind) {
        self.seq += 1;
        self.events.push(Event {
            at_ns,
            seq: self.seq,
            kind,
        });
    }

    fn work_cost(&self, work: &Work) -> u64 {
        let cost = &self.config.cost;
        match work {
            Work::RawPayload(payload) => cost.bus_cycle_ns(1, payload.len()),
            Work::Telegrams { telegrams, .. } => {
                let bytes: usize = telegrams.iter().map(|t| t.payload.len()).sum();
                cost.bus_cycle_ns(telegrams.len(), bytes)
            }
            Work::Message(frame) => {
                let signatures = match frame.message() {
                    // Layer requests carry the origin signature.
                    NodeMessage::Layer(_) => 1,
                    NodeMessage::Consensus(_) => 1,
                };
                cost.receive_message_ns(frame.message().wire_size(), signatures)
            }
            Work::Timer(..) => 10_000,
        }
    }

    /// A faulty node broadcasts a fabricated request (never on the bus).
    fn inject_fabricated(&mut self, faulty: usize, at_ns: u64) {
        self.fabricate_counter += 1;
        let size = match self.config.workload {
            Workload::SyntheticPayload { bytes } => bytes.max(16),
            Workload::JruSignals { .. } | Workload::Scripted { .. } => 256,
        };
        let mut payload = vec![0u8; size];
        payload[..8].copy_from_slice(&self.fabricate_counter.to_le_bytes());
        payload[8..16].copy_from_slice(b"FABRICAT");
        self.births.insert(Digest::of(&payload), at_ns);
        let request = ProposedRequest::application(payload, NodeId(faulty as u64));
        let signed = SignedRequest::sign(request, &self.pairs[faulty]);
        let frame = Frame::new(NodeMessage::Layer(LayerMessage::BroadcastRequest(signed)));
        let bytes = frame.message().wire_size();
        for dst in 0..self.n() {
            if dst == faulty || self.crashed[dst] {
                continue;
            }
            let arrival = self.net.send(faulty, dst, bytes, at_ns);
            self.push(
                arrival,
                EventKind::Deliver {
                    node: dst,
                    work: Work::Message(frame.clone()),
                },
            );
        }
    }

    /// Returns `true` if the partition fault currently separates the two
    /// nodes.
    fn partitioned(&self, a: usize, b: usize, at_ns: u64) -> bool {
        let Some(partition) = &self.config.faults.partition else {
            return false;
        };
        let at_ms = at_ns / NS_PER_MS;
        if at_ms < partition.start_ms || at_ms >= partition.heal_ms {
            return false;
        }
        partition.island.contains(&a) != partition.island.contains(&b)
    }

    /// The Fig. 9 primary attack: node 0 (the initial primary) delays its
    /// outbound preprepares.
    fn attack_delay_ns(&self, src: usize, message: &NodeMessage) -> u64 {
        let Some(delay_ms) = self.config.faults.primary_preprepare_delay_ms else {
            return 0;
        };
        if src != 0 {
            return 0;
        }
        match message {
            NodeMessage::Consensus(signed) if matches!(signed.message, Message::PrePrepare(_)) => {
                delay_ms * NS_PER_MS
            }
            _ => 0,
        }
    }

    /// Maps a logged payload back to its bus-payload digest: ZugChain
    /// logs the bus payload itself, so the digest the log event carries
    /// is already its identity; the baseline logs client-framed payloads.
    fn payload_identity(&self, logged: &[u8], digest: Digest) -> Digest {
        match self.config.mode {
            Mode::Zugchain => digest,
            Mode::Baseline => {
                // Framing: client id (u64) + client seq (u64) + bytes.
                let mut reader = zugchain_wire::Reader::new(logged);
                let inner = (|| -> Result<Vec<u8>, zugchain_wire::WireError> {
                    let _client = reader.read_u64()?;
                    let _seq = reader.read_u64()?;
                    Ok(reader.read_bytes()?.to_vec())
                })();
                match inner {
                    Ok(inner) if reader.is_empty() => Digest::of(&inner),
                    _ => digest,
                }
            }
        }
    }

    /// Reads a per-node counter from the registry (0 if never touched).
    fn node_counter(registry: &Registry, name: &str, node: usize) -> u64 {
        let label = node.to_string();
        registry
            .counter_value(name, &[("node", label.as_str())])
            .unwrap_or(0)
    }

    fn finish(self, end_ns: u64, registry: &Registry) -> RunMetrics {
        let duration_ms = end_ns as f64 / 1e6;
        let duration_s = duration_ms / 1e3;
        let n = self.n();

        let busiest = (0..n)
            .max_by_key(|&i| self.cpu_busy_ns[i])
            .expect("at least one node");
        let cpu_percent_of_total = self.cpu_busy_ns[busiest] as f64
            / (end_ns as f64 * f64::from(self.config.cost.cores))
            * 100.0;

        let network_mbps = (0..n)
            .map(|i| {
                (self.net.bytes_sent_by(i) + self.net.bytes_received_by(i)) as f64
                    / duration_s
                    / 1e6
            })
            .fold(0.0, f64::max);

        let memory_mb_mean = if self.memory_samples.is_empty() {
            0.0
        } else {
            self.memory_samples.iter().sum::<usize>() as f64
                / self.memory_samples.len() as f64
                / 1e6
        };
        let memory_mb_max = self.memory_samples.iter().copied().max().unwrap_or(0) as f64 / 1e6;

        // Evaluation counters read back from the shared registry — the
        // same source of truth live runtimes expose — preserving the
        // original aggregation rules: per-request/block counts are the
        // max over nodes (all honest nodes converge), view changes are
        // counted once per completed change on fixed reference node 1,
        // and state transfers are summed across nodes.
        let logged_requests = (0..n)
            .map(|i| Self::node_counter(registry, "zugchain_node_logged_total", i))
            .max()
            .unwrap_or(0);
        let blocks_created = (0..n)
            .map(|i| Self::node_counter(registry, "zugchain_node_blocks_total", i))
            .max()
            .unwrap_or(0);
        let view_changes = Self::node_counter(registry, "zugchain_pbft_view_changes_total", 1);
        let state_transfers = (0..n)
            .map(|i| Self::node_counter(registry, "zugchain_node_state_transfers_total", i))
            .sum();
        let unlogged = self.births.len().saturating_sub(self.first_logged.len()) as u64;

        RunMetrics {
            duration_ms,
            logged_requests,
            blocks_created,
            latency: self.latency,
            network_mbps,
            cpu_percent_of_total,
            memory_mb_mean,
            memory_mb_max,
            consensus_decided: 0, // filled by `Simulation::run`
            batches_decided: 0,   // filled by `Simulation::run`
            view_changes,
            state_transfers,
            unlogged_requests: unlogged,
            decided: self.decided,
        }
    }
}

/// The cost-modelling [`Host`] the drivers route effects into. A send or
/// broadcast charges consensus-lane CPU **once per effect** — a broadcast
/// is one encode/sign regardless of fan-out, the same serialize-once
/// behaviour the wire transports get from [`Frame`] — then schedules
/// per-recipient deliveries through the network model. Timers go into the
/// event heap carrying their generation; outputs feed the metrics.
struct SimHost<'a> {
    world: &'a mut World,
    node: usize,
    /// Consensus-lane time cursor, advanced by outbound work.
    t: u64,
}

impl SimHost<'_> {
    fn dispatch(&mut self, frame: &Frame<NodeMessage>, dst: usize, bytes: usize) {
        let node = self.node;
        if dst < self.world.n()
            && dst != node
            && !self.world.crashed[dst]
            && !self.world.partitioned(node, dst, self.t)
        {
            let ready = self.t + self.world.attack_delay_ns(node, frame.message());
            let arrival = self.world.net.send(node, dst, bytes, ready);
            self.world.push(
                arrival,
                EventKind::Deliver {
                    node: dst,
                    work: Work::Message(frame.clone()),
                },
            );
        }
    }
}

impl Host<TrainMachine<Box<dyn TrainNode>>> for SimHost<'_> {
    fn send(&mut self, to: NodeId, frame: &Frame<NodeMessage>) {
        let bytes = frame.message().wire_size();
        let cost = self.world.config.cost.send_message_ns(bytes);
        self.t += cost;
        self.world.cpu_busy_ns[self.node] += cost;
        self.dispatch(frame, to.0 as usize, bytes);
    }

    fn broadcast(&mut self, frame: &Frame<NodeMessage>) {
        let bytes = frame.message().wire_size();
        let cost = self.world.config.cost.send_message_ns(bytes);
        self.t += cost;
        self.world.cpu_busy_ns[self.node] += cost;
        for dst in 0..self.world.n() {
            self.dispatch(frame, dst, bytes);
        }
    }

    fn set_timer(&mut self, id: TimerId, generation: u64, duration_ms: u64) {
        let node = self.node;
        self.world.push(
            self.t + duration_ms * NS_PER_MS,
            EventKind::Deliver {
                node,
                work: Work::Timer(id, generation),
            },
        );
    }

    fn cancel_timer(&mut self, _id: TimerId) {
        // The queued expiry stays in the heap; its generation is stale and
        // it is dropped cost-free on arrival.
    }

    fn output(&mut self, event: NodeEvent) {
        let node = self.node;
        match event {
            NodeEvent::Logged {
                sn,
                payload,
                digest,
                ..
            } => {
                let digest = self.world.payload_identity(&payload, digest);
                self.world.decided[node].push((sn, digest));
                if let Some(birth) = self.world.births.get(&digest).copied() {
                    if self.world.first_logged.insert(digest) {
                        let latency_ms = (self.t.saturating_sub(birth)) as f64 / 1e6;
                        self.world.latency.record(birth as f64 / 1e6, latency_ms);
                    }
                }
            }
            NodeEvent::BlockCreated { block } => {
                let cost = self.world.config.cost.hash_ns(block.encoded_size());
                self.t += cost;
                self.world.cpu_busy_ns[node] += cost;
            }
            // View changes and state transfers are counted in the
            // registry at their instrument points (`zugchain-pbft`,
            // `zugchain`); `World::finish` reads them back from there.
            NodeEvent::NewPrimary { .. }
            | NodeEvent::StateTransferNeeded { .. }
            | NodeEvent::CheckpointStable { .. } => {}
        }
    }
}

impl Simulation {
    /// Builds a simulation for `config`, seeding all randomness with
    /// `seed`.
    pub fn new(config: &ScenarioConfig, seed: u64) -> Self {
        let n = config.n_nodes;
        let (pairs, keystore) = Keystore::generate(n, seed);
        let nsdb = sweep_nsdb(&config.workload);
        let registry = Arc::new(Registry::new());
        let traces = Arc::new(TraceStore::new());
        let telemetry: Vec<Telemetry> = (0..n)
            .map(|id| {
                Telemetry::new_with_store(
                    id as u64,
                    Arc::clone(&registry),
                    config.node_config.trace_capacity,
                    Some(Arc::clone(&traces)),
                )
            })
            .collect();
        let drivers: Vec<SimDriver> = pairs
            .iter()
            .enumerate()
            .map(|(id, key)| {
                let mut node = match config.mode {
                    Mode::Zugchain => Box::new(ZugchainNode::new(
                        id as u64,
                        config.node_config.clone(),
                        nsdb.clone(),
                        key.clone(),
                        keystore.clone(),
                    )) as Box<dyn TrainNode>,
                    Mode::Baseline => Box::new(BaselineNode::new(
                        id as u64,
                        config.node_config.clone(),
                        nsdb.clone(),
                        key.clone(),
                        keystore.clone(),
                    )) as Box<dyn TrainNode>,
                };
                node.set_telemetry(&telemetry[id]);
                Driver::with_observer(
                    TrainMachine(node),
                    Box::new(NodeObserver::new(telemetry[id].clone())),
                )
            })
            .collect();

        let jru = match &config.workload {
            Workload::SyntheticPayload { .. } | Workload::Scripted { .. } => None,
            Workload::JruSignals {
                generator_seed,
                background_faults,
            } => {
                let bus_config = BusConfig::jru_default(config.bus_cycle_ms);
                let mut bus = Bus::new(bus_config.clone(), n, seed ^ 0xB05);
                bus.attach_device(Box::new(SignalGenerator::new(*generator_seed)));
                if *background_faults {
                    let plan = BusFaultPlan::new(vec![TapFaults::BACKGROUND; n], seed ^ 0xFA01);
                    bus.set_fault_plan(plan);
                }
                Some(JruWorkload {
                    bus,
                    reference: CycleConsolidator::new(bus_config.nsdb),
                })
            }
        };

        let mut world = World {
            pairs,
            crashed: vec![false; n],
            lane_busy: vec![[0, 0]; n],
            cpu_busy_ns: vec![0; n],
            events: BinaryHeap::new(),
            seq: 0,
            net: config.network.clone(),
            births: HashMap::new(),
            first_logged: HashSet::new(),
            latency: LatencyStats::default(),
            decided: vec![Vec::new(); n],
            memory_samples: Vec::new(),
            rng: rand::rngs::StdRng::seed_from_u64(seed ^ 0x51A1),
            fabricate_counter: 0,
            scripted_next: 0,
            config: config.clone(),
        };
        world.push(0, EventKind::BusCycle(0));
        world.push(500 * NS_PER_MS, EventKind::MemorySample);
        Self {
            drivers,
            world,
            jru,
            registry,
            telemetry,
            traces,
        }
    }

    /// The run's cluster-shared causal-span store. Clone the `Arc` before
    /// [`run`](Self::run) to keep assembling traces after the run
    /// completes.
    pub fn trace_store(&self) -> Arc<TraceStore> {
        Arc::clone(&self.traces)
    }

    /// The run's shared metrics registry. Clone the `Arc` before
    /// [`run`](Self::run) to keep reading after the run completes.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Runs the scenario to completion and returns the metrics.
    pub fn run(self) -> RunMetrics {
        self.run_instrumented().0
    }

    /// Runs the scenario and additionally returns the telemetry capture:
    /// the metrics registry and every node's trace-ring JSONL dump.
    pub fn run_instrumented(mut self) -> (RunMetrics, TelemetryCapture) {
        self.run_to_end();
        self.collect()
    }

    /// Like [`run_instrumented`](Self::run_instrumented), but also
    /// returns the decided chain of the most advanced surviving node —
    /// the blocks a traced ground pipeline (export → archive → serve)
    /// continues from, carrying the same `(origin, payload)` pairs the
    /// consensus spans derived their trace ids from.
    pub fn run_traced(
        mut self,
    ) -> (
        RunMetrics,
        TelemetryCapture,
        Vec<zugchain_blockchain::Block>,
    ) {
        self.run_to_end();
        let chain = self.decided_chain();
        let (metrics, capture) = self.collect();
        (metrics, capture, chain)
    }

    /// The decided chain blocks of the tallest surviving node.
    fn decided_chain(&self) -> Vec<zugchain_blockchain::Block> {
        (0..self.drivers.len())
            .filter(|&i| !self.world.crashed[i])
            .map(|i| self.drivers[i].machine().0.chain().blocks().to_vec())
            .max_by_key(Vec::len)
            .unwrap_or_default()
    }

    /// Drains the event heap until the drain horizon.
    fn run_to_end(&mut self) {
        let end_ns = self.world.config.duration_ms * NS_PER_MS;
        // Grace period lets in-flight requests finish ordering.
        let drain_ns = end_ns + 2_000 * NS_PER_MS;
        while let Some(event) = self.world.events.pop() {
            if event.at_ns > drain_ns {
                break;
            }
            match event.kind {
                EventKind::BusCycle(cycle) => self.on_bus_cycle(cycle, event.at_ns, end_ns),
                EventKind::Deliver { node, work } => self.deliver(node, work, event.at_ns),
                EventKind::MemorySample => {
                    if event.at_ns <= end_ns {
                        let peak = (0..self.drivers.len())
                            .filter(|&i| !self.world.crashed[i])
                            .map(|i| self.drivers[i].machine().0.approx_memory_bytes())
                            .max()
                            .unwrap_or(0)
                            + self.world.config.cost.process_base_bytes;
                        self.world.memory_samples.push(peak);
                        self.world
                            .push(event.at_ns + 500 * NS_PER_MS, EventKind::MemorySample);
                    }
                }
            }
        }
    }

    /// Reads the run's metrics and telemetry out of the finished world.
    fn collect(self) -> (RunMetrics, TelemetryCapture) {
        let end_ns = self.world.config.duration_ms * NS_PER_MS;
        // Consensus counters come from the registry snapshot of the most
        // advanced surviving node (same rule the bespoke counters used).
        let (consensus_decided, batches_decided) = (0..self.drivers.len())
            .filter(|&i| !self.world.crashed[i])
            .map(|i| {
                (
                    World::node_counter(&self.registry, "zugchain_pbft_decided_total", i),
                    World::node_counter(&self.registry, "zugchain_pbft_batches_decided_total", i),
                )
            })
            .max()
            .unwrap_or((0, 0));
        let registry = Arc::clone(&self.registry);
        let traces: Vec<String> = self.telemetry.iter().map(Telemetry::dump_jsonl).collect();
        let trace_store = Arc::clone(&self.traces);
        let mut metrics = self.world.finish(end_ns, &registry);
        metrics.consensus_decided = consensus_decided;
        metrics.batches_decided = batches_decided;
        (
            metrics,
            TelemetryCapture {
                registry,
                traces,
                trace_store,
            },
        )
    }

    fn on_bus_cycle(&mut self, cycle: u64, at_ns: u64, end_ns: u64) {
        if at_ns >= end_ns {
            return; // stop generating load at the end of the run
        }
        let time_ms = at_ns / NS_PER_MS;
        match &mut self.jru {
            None => {
                let payloads: Vec<Vec<u8>> = match &self.world.config.workload {
                    Workload::SyntheticPayload { bytes } => {
                        // Unique payload per cycle: cycle stamp + seeded
                        // noise.
                        let bytes = *bytes;
                        let mut payload = vec![0u8; bytes.max(8)];
                        payload[..8].copy_from_slice(&cycle.to_le_bytes());
                        if payload.len() > 8 {
                            self.world.rng.fill_bytes(&mut payload[8..]);
                        }
                        vec![payload]
                    }
                    Workload::Scripted { payloads } => {
                        let due: Vec<Vec<u8>> = payloads
                            .iter()
                            .skip(self.world.scripted_next)
                            .take_while(|(at_ms, _)| *at_ms <= time_ms)
                            .map(|(_, payload)| payload.clone())
                            .collect();
                        self.world.scripted_next += due.len();
                        due
                    }
                    Workload::JruSignals { .. } => {
                        unreachable!("jru workload carries its own bus")
                    }
                };
                for payload in payloads {
                    self.world.births.insert(Digest::of(&payload), at_ns);
                    for node in 0..self.drivers.len() {
                        if self.world.config.faults.primary_censors && node == 0 {
                            continue; // the censor pretends it saw nothing
                        }
                        if !self.world.crashed[node] {
                            self.world.push(
                                at_ns,
                                EventKind::Deliver {
                                    node,
                                    work: Work::RawPayload(payload.clone()),
                                },
                            );
                        }
                    }
                }
            }
            Some(jru) => {
                let out = jru.bus.run_cycle();
                // Ground truth: what an ideal node would consolidate.
                if let Some(request) =
                    jru.reference
                        .consolidate(out.cycle, out.time_ms, &out.on_wire)
                {
                    self.world
                        .births
                        .insert(Digest::of(&zugchain_wire::to_bytes(&request)), at_ns);
                }
                for obs in out.observations {
                    if !self.world.crashed[obs.tap] {
                        self.world.push(
                            at_ns,
                            EventKind::Deliver {
                                node: obs.tap,
                                work: Work::Telegrams {
                                    cycle: out.cycle,
                                    time_ms: out.time_ms,
                                    telegrams: obs.telegrams,
                                },
                            },
                        );
                    }
                }
            }
        }

        // Fig. 9 fault: a faulty backup injects a fabricated request for a
        // fraction of cycles.
        if let Some((faulty, fraction)) = self.world.config.faults.fabricate {
            if !self.world.crashed[faulty] && self.world.rng.random_bool(fraction.clamp(0.0, 1.0)) {
                self.world.inject_fabricated(faulty, at_ns);
            }
        }

        // Crash fault.
        if let Some((node, when_ms)) = self.world.config.faults.crash {
            if !self.world.crashed[node] && time_ms >= when_ms {
                self.world.crashed[node] = true;
            }
        }

        self.world.push(
            at_ns + self.world.config.bus_cycle_ms * NS_PER_MS,
            EventKind::BusCycle(cycle + 1),
        );
    }

    /// Delivers one unit of work through the node's driver, charging lane
    /// CPU; the driver routes the resulting effects into a [`SimHost`].
    fn deliver(&mut self, node: usize, work: Work, arrival_ns: u64) {
        // Trace timestamps advance with virtual time, so sim dumps are
        // deterministic for a fixed (config, seed).
        self.telemetry[node].set_time_ms(arrival_ns / NS_PER_MS);
        let world = &mut self.world;
        if world.crashed[node] {
            return;
        }
        // A censoring primary drops layer requests so it never proposes.
        if world.config.faults.primary_censors
            && node == 0
            && matches!(&work, Work::Message(frame)
                if matches!(frame.message(), NodeMessage::Layer(_)))
        {
            return;
        }
        // Stale timers are dropped without cost.
        if let Work::Timer(id, generation) = &work {
            if !self.drivers[node].timer_is_current(*id, *generation) {
                return;
            }
        }
        let lane = match work {
            Work::RawPayload(_) | Work::Telegrams { .. } => 1,
            _ => 0,
        };
        let start = arrival_ns.max(world.lane_busy[node][lane]);
        let cost = world.work_cost(&work);
        let finish = start + cost;
        world.lane_busy[node][lane] = finish;
        world.cpu_busy_ns[node] += cost;

        // Effects run on the consensus lane, after any work queued there.
        let effects_start = finish.max(world.lane_busy[node][0]);
        let driver = &mut self.drivers[node];
        let mut host = SimHost {
            world,
            node,
            t: effects_start,
        };
        match work {
            Work::RawPayload(payload) => driver.on_input(
                NodeInput::RawPayload {
                    payload,
                    time_ms: finish / NS_PER_MS,
                },
                &mut host,
            ),
            Work::Telegrams {
                cycle,
                time_ms,
                telegrams,
            } => driver.on_input(
                NodeInput::BusCycle {
                    source: 0,
                    cycle,
                    time_ms,
                    telegrams,
                },
                &mut host,
            ),
            Work::Message(frame) => {
                driver.on_input(NodeInput::Message(frame.to_message()), &mut host)
            }
            Work::Timer(id, generation) => {
                driver.on_timer_fired(id, generation, &mut host);
            }
        }
        let t = host.t;
        self.world.lane_busy[node][0] = self.world.lane_busy[node][0].max(t);
    }
}

/// An NSDB for synthetic sweep workloads (unused ports; nodes receive raw
/// payloads directly), or the JRU default otherwise.
fn sweep_nsdb(workload: &Workload) -> Nsdb {
    match workload {
        Workload::SyntheticPayload { bytes } => {
            let mut nsdb = Nsdb::new();
            nsdb.add(SignalDescriptor {
                name: "sweep_payload".into(),
                port: PortAddress(0x200),
                kind: SignalKind::Opaque {
                    width: (*bytes).min(u16::MAX as usize) as u16,
                },
                period_cycles: 1,
            });
            nsdb
        }
        Workload::Scripted { .. } => {
            let mut nsdb = Nsdb::new();
            nsdb.add(SignalDescriptor {
                name: "scripted_payload".into(),
                port: PortAddress(0x200),
                kind: SignalKind::Opaque { width: 256 },
                period_cycles: 1,
            });
            nsdb
        }
        Workload::JruSignals { .. } => Nsdb::jru_default(),
    }
}

/// Runs one evaluation scenario to completion.
///
/// Deterministic: the same `(config, seed)` always produces the same
/// [`RunMetrics`].
pub fn run_scenario(config: &ScenarioConfig, seed: u64) -> RunMetrics {
    Simulation::new(config, seed).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mode: Mode, bus_cycle_ms: u64, bytes: usize) -> ScenarioConfig {
        ScenarioConfig {
            mode,
            bus_cycle_ms,
            duration_ms: 10_000,
            workload: Workload::SyntheticPayload { bytes },
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn zugchain_normal_case_orders_everything() {
        let metrics = run_scenario(&quick(Mode::Zugchain, 64, 1024), 1);
        let expected = 10_000 / 64;
        assert!(
            metrics.logged_requests >= expected - 2,
            "logged {} of ~{expected}",
            metrics.logged_requests
        );
        assert_eq!(metrics.unlogged_requests, 0);
        assert_eq!(metrics.view_changes, 0);
        // The paper's headline: ~14 ms ordering latency at 64 ms cycles.
        let mean = metrics.latency.mean_ms();
        assert!((8.0..25.0).contains(&mean), "mean latency {mean} ms");
    }

    #[test]
    fn tiny_trace_ring_keeps_the_newest_events() {
        // Same deterministic run twice: once with a ring big enough to
        // hold everything, once with a tiny one. Overflow must evict
        // the oldest entries only — the tiny dump is exactly the tail
        // of the full dump on every node, spans and events alike.
        let mut config = quick(Mode::Zugchain, 64, 256);
        config.duration_ms = 2_000;
        let full_config = ScenarioConfig {
            node_config: config.node_config.clone().with_trace_capacity(65_536),
            ..config.clone()
        };
        let tiny_config = ScenarioConfig {
            node_config: config.node_config.clone().with_trace_capacity(4),
            ..config.clone()
        };
        let (_, full) = Simulation::new(&full_config, 5).run_instrumented();
        let (_, tiny) = Simulation::new(&tiny_config, 5).run_instrumented();
        for (node, (full_dump, tiny_dump)) in full.traces.iter().zip(&tiny.traces).enumerate() {
            let records = zugchain_telemetry::parse_jsonl(full_dump).expect("dump parses");
            assert!(
                records.iter().any(|r| r.span().is_some())
                    && records.iter().any(|r| r.span().is_none()),
                "node {node}: the one dump must hold spans and events"
            );
            let full_lines: Vec<&str> = full_dump.lines().collect();
            let tiny_lines: Vec<&str> = tiny_dump.lines().collect();
            assert!(
                tiny_lines.len() <= 4,
                "node {node}: tiny ring holds {} > 4 entries",
                tiny_lines.len()
            );
            assert!(
                full_lines.len() > tiny_lines.len(),
                "node {node}: the run must overflow the tiny ring"
            );
            assert_eq!(
                tiny_lines.as_slice(),
                &full_lines[full_lines.len() - tiny_lines.len()..],
                "node {node}: overflow must keep the newest entries"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let config = quick(Mode::Zugchain, 64, 256);
        let a = run_scenario(&config, 7);
        let b = run_scenario(&config, 7);
        assert_eq!(a.logged_requests, b.logged_requests);
        assert_eq!(a.latency.samples, b.latency.samples);
        assert_eq!(a.network_mbps, b.network_mbps);
        assert_eq!(a.decided, b.decided);
    }

    #[test]
    fn batching_raises_occupancy_and_keeps_per_request_latency() {
        let unbatched = run_scenario(&quick(Mode::Zugchain, 32, 256), 9);
        assert!(unbatched.batches_decided > 0);
        assert!(
            (unbatched.mean_batch_occupancy() - 1.0).abs() < 1e-9,
            "singleton batches expected, got occupancy {}",
            unbatched.mean_batch_occupancy()
        );

        let mut config = quick(Mode::Zugchain, 32, 256);
        config.node_config.pbft = config
            .node_config
            .pbft
            .with_max_batch_size(16)
            .with_batch_delay(96);
        let batched = run_scenario(&config, 9);
        assert_eq!(batched.unlogged_requests, 0);
        assert!(
            batched.mean_batch_occupancy() >= 2.0,
            "occupancy {}",
            batched.mean_batch_occupancy()
        );
        // Latency stays a per-request series: same sample count as the
        // unbatched run over the identical workload, despite far fewer
        // consensus exchanges.
        assert_eq!(batched.latency.len(), unbatched.latency.len());
        assert!(batched.batches_decided < unbatched.batches_decided);
    }

    #[test]
    fn baseline_uses_roughly_4x_network() {
        let zc = run_scenario(&quick(Mode::Zugchain, 64, 1024), 3);
        let bl = run_scenario(&quick(Mode::Baseline, 64, 1024), 3);
        let ratio = bl.network_mbps / zc.network_mbps;
        assert!(
            (2.5..6.0).contains(&ratio),
            "network ratio {ratio} (zc {} bl {})",
            zc.network_mbps,
            bl.network_mbps
        );
    }

    #[test]
    fn baseline_latency_is_higher() {
        let zc = run_scenario(&quick(Mode::Zugchain, 64, 1024), 3);
        let bl = run_scenario(&quick(Mode::Baseline, 64, 1024), 3);
        assert!(
            bl.latency.mean_ms() > zc.latency.mean_ms() * 1.2,
            "zc {} bl {}",
            zc.latency.mean_ms(),
            bl.latency.mean_ms()
        );
    }

    #[test]
    fn baseline_collapses_at_fast_cycles() {
        let bl = run_scenario(&quick(Mode::Baseline, 32, 1024), 3);
        let zc = run_scenario(&quick(Mode::Zugchain, 32, 1024), 3);
        assert!(
            bl.latency.mean_ms() > 20.0 * zc.latency.mean_ms(),
            "baseline must collapse: zc {} bl {}",
            zc.latency.mean_ms(),
            bl.latency.mean_ms()
        );
    }

    #[test]
    fn crash_of_primary_triggers_view_change_and_recovers() {
        let mut config = quick(Mode::Zugchain, 64, 512);
        config.faults.crash = Some((0, 3_000));
        let metrics = run_scenario(&config, 5);
        assert!(metrics.view_changes >= 1);
        // Requests keep being logged after the view change.
        let after = metrics
            .latency
            .samples
            .iter()
            .filter(|(birth, _)| *birth > 5_000.0)
            .count();
        assert!(after > 20, "requests logged after recovery: {after}");
    }

    #[test]
    fn fabricated_requests_increase_load() {
        let clean = run_scenario(&quick(Mode::Zugchain, 64, 512), 9);
        let mut config = quick(Mode::Zugchain, 64, 512);
        config.faults.fabricate = Some((3, 1.0));
        let attacked = run_scenario(&config, 9);
        assert!(attacked.cpu_percent_of_total > clean.cpu_percent_of_total);
        assert!(attacked.logged_requests > clean.logged_requests);
        assert!(attacked.latency.mean_ms() > clean.latency.mean_ms());
    }

    #[test]
    fn delayed_preprepares_inflate_latency_without_view_change() {
        let mut config = quick(Mode::Zugchain, 64, 512);
        config.faults.primary_preprepare_delay_ms = Some(100);
        // Soft timeout (250 ms) stays above the delay: no view change.
        let metrics = run_scenario(&config, 11);
        assert_eq!(metrics.view_changes, 0);
        assert!(
            metrics.latency.mean_ms() > 90.0,
            "latency {} must reflect the delay",
            metrics.latency.mean_ms()
        );
    }

    #[test]
    fn jru_signal_workload_runs() {
        let config = ScenarioConfig {
            mode: Mode::Zugchain,
            duration_ms: 10_000,
            workload: Workload::JruSignals {
                generator_seed: 2,
                background_faults: true,
            },
            ..ScenarioConfig::default()
        };
        let metrics = run_scenario(&config, 2);
        assert!(
            metrics.logged_requests > 50,
            "logged {}",
            metrics.logged_requests
        );
        assert!(metrics.latency.mean_ms() < 300.0);
    }

    #[test]
    fn seven_node_group_tolerates_two_crashes() {
        let mut config = quick(Mode::Zugchain, 64, 512);
        config.n_nodes = 7;
        config.node_config.pbft = zugchain_pbft::Config::new(7).unwrap();
        config.faults.crash = Some((0, 3_000));
        let metrics = run_scenario(&config, 12);
        assert!(metrics.view_changes >= 1);
        let after = metrics
            .latency
            .samples
            .iter()
            .filter(|(birth, _)| *birth > 6_000.0)
            .count();
        assert!(
            after > 30,
            "f=2 group keeps ordering after a crash: {after}"
        );
    }

    #[test]
    fn censoring_primary_is_deposed_and_nothing_is_lost() {
        let mut config = quick(Mode::Zugchain, 64, 512);
        config.faults.primary_censors = true;
        let metrics = run_scenario(&config, 13);
        assert!(metrics.view_changes >= 1, "censor deposed");
        assert_eq!(metrics.unlogged_requests, 0, "completeness holds");
        // The worst-cast latency is bounded by soft+hard+view change.
        assert!(metrics.latency.max_ms() < 1_500.0);
    }

    #[test]
    fn minority_partition_stalls_and_heals() {
        use crate::PartitionFault;
        let mut config = quick(Mode::Zugchain, 64, 512);
        config.duration_ms = 16_000;
        // Cut nodes {0,1} from {2,3}: neither side has 2f+1 = 3 nodes, so
        // ordering must stall entirely during the partition.
        config.faults.partition = Some(PartitionFault {
            island: vec![0, 1],
            start_ms: 5_000,
            heal_ms: 9_000,
        });
        let metrics = run_scenario(&config, 31);

        let logged_during = metrics
            .latency
            .samples
            .iter()
            .filter(|(birth, latency)| {
                let done = birth + latency;
                (5_200.0..8_800.0).contains(&done)
            })
            .count();
        assert_eq!(logged_during, 0, "no quorum, no progress");

        // After healing, everything buffered during the cut is ordered:
        // nothing is lost.
        assert_eq!(metrics.unlogged_requests, 0);
        let healed: Vec<f64> = metrics
            .latency
            .samples
            .iter()
            .filter(|(birth, _)| *birth > 10_000.0)
            .map(|(_, l)| *l)
            .collect();
        assert!(!healed.is_empty());
        let mean = healed.iter().sum::<f64>() / healed.len() as f64;
        assert!(mean < 60.0, "post-heal latency {mean}");
    }

    #[test]
    fn memory_grows_with_chain() {
        let short = run_scenario(&quick(Mode::Zugchain, 64, 1024), 4);
        let mut long_config = quick(Mode::Zugchain, 64, 1024);
        long_config.duration_ms = 20_000;
        let long = run_scenario(&long_config, 4);
        assert!(long.memory_mb_max > short.memory_mb_max);
    }

    #[test]
    fn scripted_workload_decides_identically_on_all_nodes() {
        let config = ScenarioConfig {
            mode: Mode::Zugchain,
            duration_ms: 8_000,
            workload: Workload::Scripted {
                payloads: (0..5u8)
                    .map(|i| (500 + 500 * u64::from(i), vec![i; 64]))
                    .collect(),
            },
            ..ScenarioConfig::default()
        };
        let metrics = run_scenario(&config, 21);
        assert_eq!(metrics.logged_requests, 5);
        assert_eq!(metrics.unlogged_requests, 0);
        // All nodes decided the identical (sn, digest) sequence.
        assert!(!metrics.decided[0].is_empty());
        assert!(metrics.decided.iter().all(|d| *d == metrics.decided[0]));
    }
}

#[cfg(test)]
mod regression_tests {
    use super::*;
    use crate::{Mode, ScenarioConfig, Workload};

    /// Regression for the view-change storm fixed during Fig. 8 bring-up:
    /// a primary crash must cost exactly ONE view change — not a cascade
    /// from re-proposing in-flight requests or stale self-accusing
    /// timers — and the paper-profile latency must return to steady state
    /// within ~250 ms of the new view.
    #[test]
    fn primary_crash_costs_exactly_one_view_change() {
        let mut config = ScenarioConfig::evaluation(Mode::Zugchain, 64, 1024);
        config.duration_ms = 25_000;
        config.workload = Workload::SyntheticPayload { bytes: 1024 };
        config.faults.crash = Some((0, 10_000));
        let metrics = run_scenario(&config, 42);
        assert_eq!(metrics.view_changes, 1, "exactly one view change");
        assert_eq!(metrics.unlogged_requests, 0);
        let late: Vec<f64> = metrics
            .latency
            .samples
            .iter()
            .filter(|(birth, _)| *birth > 11_000.0)
            .map(|(_, l)| *l)
            .collect();
        let mean = late.iter().sum::<f64>() / late.len().max(1) as f64;
        assert!(mean < 20.0, "stabilized at {mean} ms");
    }
}
