//! `record`: on-train recording.
//!
//! Untraced: a `ThreadedCluster` of n = 4 with the paper's evaluation
//! configuration (block size 10, signatures, all-to-all). One generator
//! thread keeps 8 distinct seeded 1 KiB payloads in flight (closed loop)
//! through `feed_bus_payload_all`; a payload is done at its third
//! `ClusterEvent::Logged` (2f + 1 nodes). The cluster keeps its chains in
//! memory: four nodes fsyncing into one shared virtual disk measure that
//! disk's contention rather than the program (throughput swung 2x between
//! identical runs), so block persistence is timed per write in the traced
//! run instead, where each node writes through its own `DiskStore`.
//!
//! Traced: the same seeded payloads through four `ZugchainNode`s behind
//! `zugchain_machine::Driver` on one thread, frames routed in memory by
//! a benchmark-side `Host` that persists through `DiskStore`.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zugchain::{
    NodeConfig, NodeEvent, NodeInput, NodeMessage, NodeObserver, TimerId, TrainMachine,
    TrainNode as _, ZugchainNode,
};
use zugchain_blockchain::DiskStore;
use zugchain_crypto::{Digest, Keystore};
use zugchain_machine::{Driver, Effect, Frame, Host};
use zugchain_mvb::Nsdb;
use zugchain_pbft::{NodeId, ProposedRequest, Replica, ReplicaEvent};
use zugchain_sim::runtime::{ClusterEvent, ThreadedCluster};
use zugchain_telemetry::{Registry, Telemetry};

use crate::procfs;
use crate::report::{Outcome, Timed};
use crate::rng::Rng;
use crate::stats::{self, Sample};
use crate::trace::{layer_totals, Tracer, RECONCILE_TOLERANCE};
use crate::ScratchDir;

/// Cluster size (f = 1).
pub const NODES: usize = 4;
/// Logged copies that complete a payload (2f + 1).
const QUORUM: u32 = 3;
/// Payloads kept in flight by the generator (below the nodes'
/// `open_request_limit` of 16, so the rate limiter never refuses one).
pub const IN_FLIGHT: usize = 8;
/// Payload size: the paper's default synthetic request.
pub const PAYLOAD_BYTES: usize = 1024;
/// Completions before timing starts (part of set-up).
const WARMUP_OPS: u64 = 2000;
/// Completed payloads after which `peak_rss_mb` is read (a 10 s run
/// completes 30k to 50k on a 2-core machine).
const RSS_AT_OPS: u64 = 15_000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// An issued payload that sees no progress for this long has failed.
const STALL_TIMEOUT: Duration = Duration::from_secs(10);
/// Payloads driven through each single-threaded traced pump.
const TRACED_OPS: usize = 1600;
/// Payloads per pump of the tracing- and observer-overhead pairs.
const OVERHEAD_OPS: usize = 2000;
/// Interleaved rounds of those pairs; each variant's fastest round counts,
/// since interference from the host only ever adds time.
const OVERHEAD_ROUNDS: usize = 7;
/// Length of the threaded run the traced mode pairs with its pumps.
const TRACED_THREADED: Duration = Duration::from_secs(2);

/// Distinct seeded payloads: 1 KiB windows of a seeded pool, each
/// stamped with a running counter so no two are equal.
pub struct PayloadSource {
    pool: Vec<u8>,
    rng: Rng,
    counter: u64,
}

impl PayloadSource {
    /// The payload stream for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 0x9A71_0AD5);
        let pool = (0..64 * 1024 / 8)
            .flat_map(|_| rng.next_u64().to_le_bytes())
            .collect();
        PayloadSource {
            pool,
            rng,
            counter: 0,
        }
    }

    /// The next payload.
    pub fn next_payload(&mut self) -> Vec<u8> {
        let offset = self.rng.below((self.pool.len() - PAYLOAD_BYTES) as u64) as usize;
        let mut payload = self.pool[offset..offset + PAYLOAD_BYTES].to_vec();
        payload[..8].copy_from_slice(&self.counter.to_le_bytes());
        self.counter += 1;
        payload
    }
}

/// Closed-loop generator over a running cluster: tracks which node
/// logged which payload and completes a payload at its third log.
struct Generator {
    cluster: ThreadedCluster,
    payloads: PayloadSource,
    /// Issued payloads not yet logged by a quorum → issue time.
    open: HashMap<Digest, Instant>,
    /// Every issued payload → bitmask of nodes that logged it.
    logged_by: HashMap<Digest, u8>,
    issued: u64,
    last_progress: Instant,
    violations: Vec<String>,
}

impl Generator {
    fn new(cluster: ThreadedCluster, payloads: PayloadSource) -> Self {
        Generator {
            cluster,
            payloads,
            open: HashMap::new(),
            logged_by: HashMap::new(),
            issued: 0,
            last_progress: Instant::now(),
            violations: Vec::new(),
        }
    }

    /// Issues payloads until `IN_FLIGHT` are open; returns how many.
    fn fill(&mut self) -> u64 {
        let mut n = 0;
        while self.open.len() < IN_FLIGHT {
            let payload = self.payloads.next_payload();
            let digest = Digest::of(&payload);
            self.logged_by.insert(digest, 0);
            self.open.insert(digest, Instant::now());
            self.cluster.feed_bus_payload_all(payload);
            self.issued += 1;
            n += 1;
        }
        n
    }

    /// Handles one cluster event; returns the latency of a payload that
    /// just reached its quorum.
    fn poll(&mut self, timeout: Duration) -> Option<Duration> {
        let event = self.cluster.events().recv_timeout(timeout).ok()?;
        let ClusterEvent::Logged { node, digest, .. } = event else {
            return None;
        };
        self.last_progress = Instant::now();
        let Some(mask) = self.logged_by.get_mut(&digest) else {
            self.violations
                .push(format!("node {} logged a payload never issued", node.0));
            return None;
        };
        let bit = 1u8 << node.0;
        if *mask & bit != 0 {
            self.violations.push(format!(
                "node {} logged payload {} twice",
                node.0,
                digest.short()
            ));
            return None;
        }
        *mask |= bit;
        if mask.count_ones() == QUORUM {
            return self.open.remove(&digest).map(|issued| issued.elapsed());
        }
        None
    }

    fn stalled(&self) -> bool {
        self.last_progress.elapsed() > STALL_TIMEOUT
    }

    /// Runs the closed loop until `ops` more payloads completed.
    fn complete(&mut self, ops: u64) {
        let mut done = 0;
        while done < ops && !self.stalled() {
            self.fill();
            if self.poll(Duration::from_millis(50)).is_some() {
                done += 1;
            }
        }
    }

    /// Polls until every issued payload is logged by every node (or
    /// progress stalls).
    fn drain(&mut self) {
        let everyone = (1u8 << NODES) - 1;
        self.last_progress = Instant::now();
        while self.logged_by.values().any(|m| *m != everyone) && !self.stalled() {
            self.poll(Duration::from_millis(50));
        }
    }
}

/// Set-up: a fresh cluster, warmed to steady state.
fn start_cluster(seed: u64) -> Generator {
    let cluster = ThreadedCluster::start(NODES, NodeConfig::evaluation_default());
    let mut gen = Generator::new(cluster, PayloadSource::new(seed));
    gen.complete(WARMUP_OPS);
    gen
}

/// The untraced `record` workload.
pub fn run(seed: u64, length: Duration) -> Outcome {
    let mut outcome = Outcome::default();
    outcome.note(format!(
        "record: ThreadedCluster n={NODES}, evaluation_default (block 10, Sig, all-to-all), \
         chains in memory, closed loop {IN_FLIGHT} in flight x {PAYLOAD_BYTES} B, \
         warm-up {WARMUP_OPS} ops, set-up x{SETUP_REPEATS}"
    ));

    // Set-up, repeated; the last cluster is the one measured.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = kept.take() {
            let old: Generator = old;
            old.cluster.shutdown();
        }
        let started = Instant::now();
        let gen = start_cluster(seed);
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some(gen);
    }
    let mut gen = kept.expect("at least one set-up");

    // Timed phase.
    let host_before = procfs::HostSnapshot::now();
    let cpu_before = procfs::process_cpu_s();
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut attempted = 0u64;
    let rss = procfs::RssProbe::new(RSS_AT_OPS);
    while started.elapsed() < length && !gen.stalled() {
        attempted += gen.fill();
        if let Some(latency) = gen.poll(Duration::from_millis(50)) {
            rss.add(1);
            samples.push(Sample {
                at_s: started.elapsed().as_secs_f64(),
                latency_ms: latency.as_secs_f64() * 1e3,
                ops: 1,
            });
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let cpu_s = procfs::process_cpu_s() - cpu_before;
    let host = procfs::HostSnapshot::now().since(&host_before);

    // Every issued payload must reach every node; those that never
    // reach a quorum have failed.
    gen.drain();
    let everyone = (1u8 << NODES) - 1;
    let failed = gen.open.len() as u64;
    let total_issued = gen.issued;
    let incomplete = gen.logged_by.values().filter(|m| **m != everyone).count();
    let violations = std::mem::take(&mut gen.violations);
    let summaries = gen.cluster.shutdown();

    outcome.attempted = attempted;
    outcome.failed = failed;
    outcome.violations = violations;
    outcome.check(incomplete == 0, || {
        format!("{incomplete} payloads were not logged by all {NODES} nodes")
    });
    check_cluster_state(&summaries, total_issued, &mut outcome);
    outcome.end_to_end(Timed {
        samples,
        elapsed_s: elapsed,
        cpu_s,
        rss,
        setup_s,
        host,
    });
    outcome
}

/// Same head on every node and each payload logged by every node.
fn check_cluster_state(
    summaries: &[zugchain_sim::runtime::NodeSummary],
    issued: u64,
    outcome: &mut Outcome,
) {
    let head = summaries[0].chain.head_hash();
    outcome.check(
        summaries.iter().all(|s| s.chain.head_hash() == head),
        || "nodes ended with different head hashes".into(),
    );
    for summary in summaries {
        outcome.check(summary.stats.logged == issued, || {
            format!(
                "node {} logged {} of {issued} payloads",
                summary.id.0, summary.stats.logged
            )
        });
    }
}

/// Each node's on-disk chain reloads through `DiskStore::load_chain`
/// and ends at the node's in-memory head.
fn check_disk_chains(dir: &Path, heads: &[(u64, Digest)], outcome: &mut Outcome) {
    for (id, (height, head)) in heads.iter().enumerate() {
        match DiskStore::open(dir.join(format!("node-{id}"))).and_then(|d| d.load_chain()) {
            Ok(blocks) => outcome.check(
                blocks.len() as u64 == *height && blocks.last().map(|b| b.hash()) == Some(*head),
                || {
                    format!(
                        "node {id}: on-disk chain ({} blocks) differs from memory",
                        blocks.len()
                    )
                },
            ),
            Err(e) => outcome.check(false, || format!("node {id}: load_chain failed: {e}")),
        }
    }
}

// ---------------------------------------------------------------------
// Traced mode
// ---------------------------------------------------------------------

/// Exact counts of one pump: two pumps over the same seed must agree on
/// every field.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Tally {
    consensus_msgs: u64,
    frames: u64,
    frame_bytes: u64,
    block_writes: u64,
    proof_writes: u64,
    logged: u64,
    sigs_verified: u64,
    /// `(height, head hash)` per node.
    heads: Vec<(u64, Digest)>,
}

/// In-memory routing for the single-threaded pump; every frame is
/// encoded once (what the TCP runtime pays) and blocks and proofs are
/// persisted through `DiskStore` before the pump moves on.
struct PumpHost<'a> {
    id: NodeId,
    queue: &'a mut VecDeque<(usize, NodeMessage)>,
    tracer: &'a mut Tracer,
    disk: Option<&'a DiskStore>,
    tally: &'a mut Tally,
    preimages: &'a mut Vec<Arc<[u8]>>,
}

impl PumpHost<'_> {
    fn encode(&mut self, frame: &Frame<NodeMessage>) {
        let bytes = self.tracer.span("wire.frame_encode", |_| frame.bytes());
        self.tally.frames += 1;
        self.tally.frame_bytes += bytes.len() as u64;
        if self.preimages.len() < 512 {
            self.preimages.push(bytes);
        }
    }

    fn enqueue(&mut self, to: usize, frame: &Frame<NodeMessage>) {
        if matches!(frame.message(), NodeMessage::Consensus(_)) {
            self.tally.consensus_msgs += 1;
        }
        self.queue.push_back((to, frame.to_message()));
    }
}

impl Host<TrainMachine<ZugchainNode>> for PumpHost<'_> {
    fn send(&mut self, to: NodeId, frame: &Frame<NodeMessage>) {
        if to != self.id && (to.0 as usize) < NODES {
            self.encode(frame);
            self.enqueue(to.0 as usize, frame);
        }
    }

    fn broadcast(&mut self, frame: &Frame<NodeMessage>) {
        self.encode(frame);
        let me = self.id.0 as usize;
        for peer in (0..NODES).filter(|p| *p != me) {
            self.enqueue(peer, frame);
        }
    }

    // Every payload decides without a timeout, so timers never fire.
    fn set_timer(&mut self, _id: TimerId, _gen: u64, _duration_ms: u64) {}

    fn cancel_timer(&mut self, _id: TimerId) {}

    fn output(&mut self, output: NodeEvent) {
        match output {
            NodeEvent::Logged { .. } => self.tally.logged += 1,
            NodeEvent::BlockCreated { block } => {
                self.tally.block_writes += 1;
                if let Some(disk) = self.disk {
                    self.tracer
                        .span("blockchain.write_block", |_| disk.write_block(&block))
                        .expect("persist block");
                }
            }
            NodeEvent::CheckpointStable { proof } => {
                self.tally.proof_writes += 1;
                if let Some(disk) = self.disk {
                    let encoded = zugchain_wire::to_bytes(&proof);
                    self.tracer
                        .span("blockchain.write_proof", |_| {
                            disk.write_proof(proof.checkpoint.sn, &encoded)
                        })
                        .expect("persist proof");
                }
            }
            NodeEvent::NewPrimary { .. } | NodeEvent::StateTransferNeeded { .. } => {}
        }
    }
}

/// Result of one single-threaded pump.
struct Pump {
    tally: Tally,
    tracer: Tracer,
    wall_s: f64,
    cpu_s: f64,
    refused: u64,
    disk_bytes: u64,
    preimages: Vec<Arc<[u8]>>,
    registry_msgs: Option<u64>,
}

/// Drives `ops` seeded payloads through four nodes on this thread,
/// `IN_FLIGHT` at a time. With `dir`, blocks and proofs persist there;
/// `spans` turns the benchmark's spans on; `observe` attaches the
/// program's `NodeObserver` and telemetry.
fn pump(seed: u64, ops: usize, dir: Option<&Path>, spans: bool, observe: bool) -> Pump {
    let (pairs, keystore) = Keystore::generate(NODES, 0xC10C);
    let registry = Arc::new(Registry::new());
    let config = NodeConfig::evaluation_default();
    let mut drivers: Vec<Driver<TrainMachine<ZugchainNode>>> = (0..NODES)
        .map(|id| {
            let mut node = ZugchainNode::new(
                id as u64,
                config.clone(),
                Nsdb::jru_default(),
                pairs[id].clone(),
                keystore.clone(),
            );
            if observe {
                let telemetry = Telemetry::new(id as u64, registry.clone(), config.trace_capacity);
                node.set_telemetry(&telemetry);
                Driver::with_observer(TrainMachine(node), Box::new(NodeObserver::new(telemetry)))
            } else {
                Driver::new(TrainMachine(node))
            }
        })
        .collect();
    let disks: Vec<DiskStore> = dir
        .into_iter()
        .flat_map(|dir| {
            (0..NODES).map(move |id| {
                DiskStore::open(dir.join(format!("node-{id}"))).expect("open node directory")
            })
        })
        .collect();

    let mut payloads = PayloadSource::new(seed);
    let mut tracer = Tracer::with_enabled(spans);
    let mut tally = Tally::default();
    let mut queue = VecDeque::new();
    let mut preimages = Vec::new();
    let cpu_before = procfs::thread_cpu_ns();
    let started = Instant::now();
    let mut issued = 0;
    while issued < ops {
        let window = IN_FLIGHT.min(ops - issued);
        for _ in 0..window {
            let payload = payloads.next_payload();
            let time_ms = issued as u64;
            issued += 1;
            for (id, driver) in drivers.iter_mut().enumerate() {
                let input = NodeInput::RawPayload {
                    payload: payload.clone(),
                    time_ms,
                };
                let mut host = PumpHost {
                    id: NodeId(id as u64),
                    queue: &mut queue,
                    tracer: &mut tracer,
                    disk: disks.get(id),
                    tally: &mut tally,
                    preimages: &mut preimages,
                };
                host.tracer.enter("core.bus_input");
                driver.on_input(input, &mut host);
                host.tracer.exit();
            }
        }
        while let Some((to, message)) = queue.pop_front() {
            let mut host = PumpHost {
                id: NodeId(to as u64),
                queue: &mut queue,
                tracer: &mut tracer,
                disk: disks.get(to),
                tally: &mut tally,
                preimages: &mut preimages,
            };
            host.tracer.enter("core.peer_message");
            drivers[to].on_input(NodeInput::Message(message), &mut host);
            host.tracer.exit();
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = (procfs::thread_cpu_ns() - cpu_before) as f64 / 1e9;

    let nodes: Vec<&ZugchainNode> = drivers.iter().map(|d| &d.machine().0).collect();
    let disk_bytes = dir.map_or(0, procfs::dir_bytes);
    tally.sigs_verified = nodes
        .iter()
        .map(|n| n.replica().stats().signatures_verified)
        .sum();
    tally.heads = nodes
        .iter()
        .map(|n| (n.chain().height(), n.chain().head_hash()))
        .collect();
    Pump {
        refused: nodes
            .iter()
            .map(|n| {
                let s = n.stats();
                s.rate_limited + s.duplicates_filtered
            })
            .sum(),
        registry_msgs: observe.then(|| {
            registry
                .snapshot()
                .iter()
                .filter(|s| s.name == "zugchain_pbft_messages_total")
                .map(|s| match s.value {
                    zugchain_telemetry::SampleValue::Counter(v) => v,
                    _ => 0,
                })
                .sum()
        }),
        tally,
        tracer,
        wall_s,
        cpu_s,
        disk_bytes,
        preimages,
    }
}

/// Agreement within a pump (one head, every payload logged by every
/// node) and exact counts equal to those of a same-seed pump.
fn check_pump(name: &str, pump: &Pump, ops: usize, reference: &Tally, outcome: &mut Outcome) {
    let heads = &pump.tally.heads;
    outcome.check(heads.iter().all(|h| *h == heads[0]), || {
        format!("record pump {name}: node heads differ")
    });
    outcome.check(pump.tally.logged == (ops * NODES) as u64, || {
        format!(
            "record pump {name}: {} logs for {ops} payloads",
            pump.tally.logged
        )
    });
    outcome.check(pump.tally == *reference, || {
        format!("record pump {name}: exact counts differ between same-seed pumps")
    });
}

/// Four bare `pbft::Replica`s ordering the same payload stream, with one
/// application checkpoint per 10 decided requests (as a block would).
/// Returns the wall seconds spent and the requests decided per replica.
fn bare_order(seed: u64, ops: usize) -> (f64, u64) {
    let config = NodeConfig::evaluation_default();
    let (pairs, keystore) = Keystore::generate(NODES, 0xC10C);
    let mut replicas: Vec<Replica> = (0..NODES)
        .map(|id| {
            Replica::new(
                NodeId(id as u64),
                config.pbft.clone(),
                pairs[id].clone(),
                keystore.clone(),
            )
        })
        .collect();
    let mut payloads = PayloadSource::new(seed);
    let mut decided = [0u64; NODES];
    let started = Instant::now();
    let mut issued = 0;
    while issued < ops {
        let window = IN_FLIGHT.min(ops - issued);
        for _ in 0..window {
            replicas[0].propose(ProposedRequest::application(
                payloads.next_payload(),
                NodeId(0),
            ));
            issued += 1;
        }
        loop {
            let mut traffic = Vec::new();
            for (id, replica) in replicas.iter_mut().enumerate() {
                let mut checkpoints = Vec::new();
                for effect in replica.drain_effects() {
                    match effect {
                        Effect::Broadcast { message } => traffic.push((None, id, message)),
                        Effect::Send { to, message } => traffic.push((Some(to), id, message)),
                        Effect::Output(ReplicaEvent::Decide { sn, .. }) => {
                            decided[id] += 1;
                            if sn % config.block_size as u64 == 0 {
                                checkpoints.push(sn);
                            }
                        }
                        _ => {}
                    }
                }
                for sn in checkpoints {
                    replica.record_checkpoint(sn, Digest::of(&sn.to_le_bytes()));
                }
            }
            if traffic.is_empty() {
                break;
            }
            for (to, from, message) in traffic {
                for (id, replica) in replicas.iter_mut().enumerate() {
                    let addressed = to.map_or(id != from, |to| to.0 as usize == id);
                    if addressed {
                        replica.on_message(message.clone());
                    }
                }
            }
        }
    }
    (started.elapsed().as_secs_f64(), decided[0])
}

/// Short threaded run paired with the pumps: process CPU and RSS growth
/// per completed payload.
fn threaded_cost(seed: u64) -> (f64, f64, u64) {
    let mut gen = start_cluster(seed);
    let rss_before = procfs::rss_kb();
    let cpu_before = procfs::process_cpu_s();
    let started = Instant::now();
    let mut ops = 0u64;
    while started.elapsed() < TRACED_THREADED && !gen.stalled() {
        gen.fill();
        if gen.poll(Duration::from_millis(50)).is_some() {
            ops += 1;
        }
    }
    let cpu_s = procfs::process_cpu_s() - cpu_before;
    let rss_kb = procfs::rss_kb().saturating_sub(rss_before);
    gen.drain();
    gen.cluster.shutdown();
    let ops_f = ops.max(1) as f64;
    (cpu_s * 1e6 / ops_f, rss_kb as f64 / ops_f, ops)
}

/// The traced `record` breakdown: per-layer metrics into `outcome`.
pub fn traced(seed: u64, scratch: &ScratchDir, outcome: &mut Outcome) {
    let ops = TRACED_OPS;
    // The breakdown pump: spans on, with the program's observer and
    // telemetry and durable storage, like the threaded runtime.
    let pump_dir = scratch.fresh("pump");
    let traced = pump(seed, ops, Some(&pump_dir), true, true);
    outcome.attempted += ops as u64;
    check_pump("traced", &traced, ops, &traced.tally, outcome);
    check_disk_chains(&pump_dir, &traced.tally.heads, outcome);
    if let Some(registry_msgs) = traced.registry_msgs {
        outcome.check(registry_msgs == traced.tally.consensus_msgs, || {
            format!(
                "registry counts {registry_msgs} pbft messages, the host routed {}",
                traced.tally.consensus_msgs
            )
        });
    }

    // Overhead pairs without storage (its fsync time would drown the
    // difference), interleaved: plain, plain + spans, plain + observer.
    let mut cpu = [Vec::new(), Vec::new(), Vec::new()];
    let mut reference = None;
    for _ in 0..OVERHEAD_ROUNDS {
        for (i, (spans, observe)) in [(false, false), (true, false), (false, true)]
            .into_iter()
            .enumerate()
        {
            let p = pump(seed, OVERHEAD_OPS, None, spans, observe);
            let reference = reference.get_or_insert_with(|| p.tally.clone());
            check_pump("overhead", &p, OVERHEAD_OPS, reference, outcome);
            cpu[i].push(p.cpu_s);
        }
    }
    outcome.note(format!(
        "record overhead pumps, thread CPU s per round: plain {:?}, spans {:?}, observer {:?}",
        cpu[0], cpu[1], cpu[2]
    ));
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let (plain_cpu, spans_cpu, observed_cpu) =
        (fastest(&cpu[0]), fastest(&cpu[1]), fastest(&cpu[2]));

    let n = ops as f64;
    let t = layer_totals(traced.tracer.spans());
    let us = |ns: u64| ns as f64 / 1e3;
    let per_op = |ns: u64| ns as f64 / 1e3 / n;

    let bus = t.self_ns("core.bus_input");
    let peer = t.self_ns("core.peer_message");
    let encode = t.total_ns("wire.frame_encode");
    let block = t.total_ns("blockchain.write_block");
    let proof = t.total_ns("blockchain.write_proof");
    outcome.metric("core.bus_input_us_per_op", "us", per_op(bus), ops as u64);
    outcome.metric(
        "core.peer_message_us_per_op",
        "us",
        per_op(peer),
        ops as u64,
    );
    outcome.metric(
        "core.refused_per_op",
        "count",
        traced.refused as f64 / n,
        ops as u64,
    );

    let (order_s, decided) = bare_order(seed, ops);
    outcome.check(decided == ops as u64, || {
        format!("bare pbft ordered {decided} of {ops} requests")
    });
    outcome.metric("pbft.order_us_per_op", "us", order_s * 1e6 / n, ops as u64);
    outcome.metric(
        "pbft.msgs_per_op",
        "count",
        traced.tally.consensus_msgs as f64 / n,
        ops as u64,
    );
    outcome.metric(
        "crypto.sigs_verified_per_op",
        "count",
        traced.tally.sigs_verified as f64 / n,
        ops as u64,
    );
    crypto_calibration(&traced.preimages, seed, outcome);

    outcome.metric(
        "wire.frame_bytes_per_op",
        "B",
        traced.tally.frame_bytes as f64 / n,
        traced.tally.frames,
    );
    outcome.metric(
        "wire.frame_encode_us_per_op",
        "us",
        per_op(encode),
        traced.tally.frames,
    );

    let blocks = t.count("blockchain.write_block");
    let proofs = t.count("blockchain.write_proof");
    outcome.metric(
        "blockchain.write_block_us",
        "us",
        us(block) / blocks.max(1) as f64,
        blocks,
    );
    outcome.metric(
        "blockchain.write_proof_us",
        "us",
        us(proof) / proofs.max(1) as f64,
        proofs,
    );
    // DiskStore::write_block and ::write_proof each fsync exactly once.
    outcome.metric(
        "blockchain.fsyncs_per_op",
        "count",
        (traced.tally.block_writes + traced.tally.proof_writes) as f64 / n,
        ops as u64,
    );
    outcome.metric(
        "blockchain.disk_bytes_per_payload_byte",
        "ratio",
        traced.disk_bytes as f64 / (n * (PAYLOAD_BYTES * NODES) as f64),
        ops as u64,
    );

    let overhead_samples = (OVERHEAD_OPS * OVERHEAD_ROUNDS) as u64;
    outcome.metric(
        "telemetry.observer_overhead_frac",
        "ratio",
        observed_cpu / plain_cpu - 1.0,
        overhead_samples,
    );
    // Threads, channel hops and wakeups: the threaded cluster's CPU per
    // payload minus the same nodes (observer and telemetry on) driven on
    // one thread.
    let (threaded_cpu_us, rss_kb_per_op, threaded_ops) = threaded_cost(seed);
    outcome.metric(
        "runtime.overhead_us_per_op",
        "us",
        threaded_cpu_us - observed_cpu * 1e6 / OVERHEAD_OPS as f64,
        threaded_ops,
    );
    outcome.metric("runtime.rss_kb_per_op", "kB", rss_kb_per_op, threaded_ops);

    // Reconciliation: the layers' self times must account for the
    // traced wall time per op, up to the stated tolerance.
    let layers = bus + peer + encode + block + proof;
    let total_ns = traced.wall_s * 1e9;
    let unaccounted = 1.0 - layers as f64 / total_ns;
    outcome.metric(
        "record.traced_us_per_op",
        "us",
        total_ns / 1e3 / n,
        ops as u64,
    );
    outcome.metric("record.unaccounted_frac", "ratio", unaccounted, ops as u64);
    outcome.check(unaccounted.abs() <= RECONCILE_TOLERANCE, || {
        format!(
            "record: layer self times leave {:.1}% of the traced total unaccounted \
             (tolerance {:.0}%)",
            unaccounted * 100.0,
            RECONCILE_TOLERANCE * 100.0
        )
    });
    outcome.metric(
        "trace.span_overhead_frac",
        "ratio",
        spans_cpu / plain_cpu - 1.0,
        overhead_samples,
    );
}

/// Sign, verify and digest timings over frames and payloads this
/// workload really produces.
fn crypto_calibration(preimages: &[Arc<[u8]>], seed: u64, outcome: &mut Outcome) {
    const ROUNDS: usize = 4;
    let (pairs, _) = Keystore::generate(1, seed);
    let key = &pairs[0];
    let public = key.public_key();
    let mut sign_ns = Vec::new();
    let mut verify_ns = Vec::new();
    for _ in 0..ROUNDS {
        let started = Instant::now();
        let signatures: Vec<_> = preimages.iter().map(|p| key.sign(p)).collect();
        sign_ns.push(started.elapsed().as_nanos() as f64 / preimages.len() as f64);
        let started = Instant::now();
        for (p, s) in preimages.iter().zip(&signatures) {
            public.verify(p, s).expect("own signature verifies");
        }
        verify_ns.push(started.elapsed().as_nanos() as f64 / preimages.len() as f64);
    }
    let mut payloads = PayloadSource::new(seed);
    let inputs: Vec<Vec<u8>> = (0..512).map(|_| payloads.next_payload()).collect();
    let mut digest_ns = Vec::new();
    for _ in 0..ROUNDS {
        let started = Instant::now();
        for input in &inputs {
            std::hint::black_box(Digest::of(input));
        }
        digest_ns.push(started.elapsed().as_nanos() as f64 / inputs.len() as f64);
    }
    let samples = (preimages.len() * ROUNDS) as u64;
    let median = |v: &[f64]| stats::median(v).expect("calibration ran");
    outcome.metric("crypto.sign_us", "us", median(&sign_ns) / 1e3, samples);
    outcome.metric("crypto.verify_us", "us", median(&verify_ns) / 1e3, samples);
    outcome.metric(
        "crypto.digest_us_per_kib",
        "us",
        median(&digest_ns) / 1e3 * 1024.0 / PAYLOAD_BYTES as f64,
        (inputs.len() * ROUNDS) as u64,
    );
}
