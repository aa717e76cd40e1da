//! Fleet simulation: many simulated trains driven through the full
//! record → export → sharded-archive pipeline against one shared
//! [`FleetArchive`].
//!
//! Each train is a self-contained consensus group with its own replica
//! keyset and its own chain: the "record" phase appends signal blocks
//! and stabilizes a genuine 2f+1 checkpoint certificate per segment, the
//! "export" phase drives the real [`DataCenter`]/[`ExportReplica`]
//! machines (paper Fig. 4) over an effects queue, and the "archive"
//! phase ingests every train's certified segments concurrently — one
//! thread per train — into the shared sharded archive. The run report
//! cross-checks, per train, that the decided chain head equals the
//! archived shard head, which is the fleet version of the juridical
//! claim: nothing decided was lost, nothing foreign was added.

use std::sync::Arc;

use zugchain_api::{ApiConfig, ApiServer, Backend};
use zugchain_archive::FleetArchive;
use zugchain_blockchain::{Block, BlockBuilder, ChainStore, LoggedRequest};
use zugchain_crypto::{Digest, KeyPair, Keystore};
use zugchain_export::{
    CertifiedSegment, DataCenter, DcAddr, DcConfig, DcEffect, DcId, ExportReplica,
    ReplicaExportConfig,
};
use zugchain_mvb::PortAddress;
use zugchain_pbft::{Checkpoint, CheckpointProof, Message, NodeId};
use zugchain_signals::{Request, SignalValue, TrainEvent};
use zugchain_wire::TrainId;

/// Replicas per train (n = 4, f = 1 — the paper's group size).
pub const REPLICAS_PER_TRAIN: usize = 4;
/// Checkpoint quorum (2f + 1).
pub const REPLICA_QUORUM: usize = 3;

/// Fleet simulation parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of simulated trains (ids 1..=n).
    pub n_trains: usize,
    /// Export rounds (= certified segments) per train.
    pub segments_per_train: usize,
    /// Blocks recorded between consecutive checkpoints.
    pub blocks_per_segment: usize,
    /// Requests bundled per block.
    pub block_size: usize,
    /// Deterministic seed for every train's key generation.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            n_trains: 100,
            segments_per_train: 3,
            blocks_per_segment: 4,
            block_size: 5,
            seed: 0xF1EE7,
        }
    }
}

/// Per-train outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// The train.
    pub train: TrainId,
    /// Height of the train's decided chain.
    pub decided_height: u64,
    /// Hash of the decided chain head.
    pub decided_head: Digest,
    /// Certified segments the export path produced.
    pub exported_segments: usize,
    /// Segments landed in the train's archive shard.
    pub archived_segments: usize,
    /// `(height, hash)` of the shard head after ingest.
    pub archived_head: Option<(u64, Digest)>,
    /// Whether the shard head equals the decided head — the train's
    /// chain is fully and exactly archived.
    pub fully_archived: bool,
}

/// Outcome of a fleet run: the shared archive (still queryable), the
/// per-train reports, and each train's replica keyset for offline
/// auditing.
#[derive(Debug)]
pub struct FleetOutcome {
    /// The shared sharded archive after ingest.
    pub archive: FleetArchive,
    /// One report per train, ascending by train id.
    pub trains: Vec<TrainReport>,
    /// Each train's replica public keys (for `zugchain-audit`).
    pub keystores: Vec<(TrainId, Keystore)>,
    /// Total archived requests fleet-wide.
    pub total_requests: usize,
}

impl FleetOutcome {
    /// Whether every train's decided chain is fully archived.
    pub fn all_archived(&self) -> bool {
        self.trains.iter().all(|t| t.fully_archived)
    }

    /// Starts the HTTP query front end over the fleet's shared archive —
    /// the full record → export → archive → **serve** pipeline in one
    /// process. The server shares `registry`, so its request counters
    /// and the archive's ingest metrics land in one `/metrics`
    /// exposition.
    ///
    /// # Errors
    ///
    /// Socket errors from binding the server.
    pub fn serve(
        &self,
        config: ApiConfig,
        registry: Arc<zugchain_telemetry::Registry>,
    ) -> std::io::Result<ApiServer> {
        ApiServer::start(config, Backend::Fleet(self.archive.clone()), registry)
    }
}

fn signal_payload(train: TrainId, sn: u64) -> Vec<u8> {
    let time_ms = sn * 100;
    zugchain_wire::to_bytes(&Request {
        cycle: sn,
        time_ms,
        events: vec![TrainEvent {
            name: "v_actual".to_string(),
            port: PortAddress(0x42),
            cycle: sn,
            time_ms,
            // Vary the reading per train so shards hold distinct data.
            value: SignalValue::U16(((train.0 * 31 + sn) % 4_000) as u16),
        }],
    })
}

pub(crate) fn certify(pairs: &[KeyPair], sn: u64, head: &Block) -> CheckpointProof {
    let checkpoint = Checkpoint {
        sn,
        state_digest: head.hash(),
    };
    let message = zugchain_wire::to_bytes(&Message::Checkpoint(checkpoint));
    CheckpointProof {
        checkpoint,
        signatures: pairs
            .iter()
            .enumerate()
            .map(|(id, pair)| (NodeId(id as u64), pair.sign(&message)))
            .collect(),
    }
}

/// One simulated train mid-run: its replica chain state and the export
/// machines attached to it.
struct SimTrain {
    train: TrainId,
    pairs: Vec<KeyPair>,
    keystore: Keystore,
    /// Per-replica chain copies (the export path mutates them on delete).
    chains: Vec<ChainStore>,
    proofs: Vec<CheckpointProof>,
    builder: BlockBuilder,
    next_sn: u64,
    dc: DataCenter,
    replicas: Vec<ExportReplica>,
}

impl SimTrain {
    fn new(train: TrainId, block_size: usize, seed: u64) -> Self {
        let (pairs, keystore) = Keystore::generate(
            REPLICAS_PER_TRAIN,
            seed ^ train.0.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let (dc_pairs, dc_keystore) = Keystore::generate(1, seed ^ train.0 ^ 0xDC00);
        let dc = DataCenter::new(
            DcConfig {
                id: DcId(0),
                train,
                n_replicas: REPLICAS_PER_TRAIN,
                replica_quorum: REPLICA_QUORUM,
                peers: vec![],
            },
            dc_pairs[0].clone(),
            keystore.clone(),
            REPLICA_QUORUM,
        );
        let replicas = (0..REPLICAS_PER_TRAIN)
            .map(|id| {
                ExportReplica::new(
                    NodeId(id as u64),
                    pairs[id].clone(),
                    dc_keystore.clone(),
                    ReplicaExportConfig { delete_quorum: 1 },
                )
                .with_train(train)
            })
            .collect();
        Self {
            train,
            pairs,
            keystore,
            chains: (0..REPLICAS_PER_TRAIN).map(|_| ChainStore::new()).collect(),
            proofs: Vec::new(),
            builder: BlockBuilder::new(block_size),
            next_sn: 0,
            dc,
            replicas,
        }
    }

    /// "Record": extends every replica's chain by `n_blocks` blocks of
    /// signal requests, then stabilizes a checkpoint certificate over
    /// the new head.
    fn record_segment(&mut self, n_blocks: usize, block_size: usize) {
        for _ in 0..n_blocks {
            let mut block = None;
            while block.is_none() {
                self.next_sn += 1;
                let sn = self.next_sn;
                block = self.builder.push(
                    LoggedRequest {
                        sn,
                        origin: sn % REPLICAS_PER_TRAIN as u64,
                        payload: signal_payload(self.train, sn),
                    },
                    sn * 100,
                );
            }
            let block = block.expect("push at block size returns a block");
            debug_assert_eq!(block.requests.len(), block_size);
            for chain in &mut self.chains {
                chain.append(block.clone()).expect("builder output chains");
            }
        }
        let head = self.chains[0].blocks().last().expect("recorded").clone();
        self.proofs.push(certify(&self.pairs, self.next_sn, &head));
    }

    /// "Export": one synchronous protocol round (paper Fig. 4) over an
    /// effects queue, exactly as the runtime would interleave it.
    fn export_round(&mut self) {
        let mut effects = self.dc.begin_export(NodeId(1));
        while let Some(effect) = effects.pop() {
            match effect {
                DcEffect::Broadcast { message } => {
                    for id in 0..REPLICAS_PER_TRAIN {
                        for reply in self.replicas[id].handle(
                            message.clone(),
                            &mut self.chains[id],
                            &self.proofs,
                        ) {
                            effects.extend(self.dc.on_replica_message(NodeId(id as u64), reply));
                        }
                    }
                }
                DcEffect::Send {
                    to: DcAddr::Replica(to),
                    message,
                } => {
                    let id = to.0 as usize;
                    for reply in
                        self.replicas[id].handle(message, &mut self.chains[id], &self.proofs)
                    {
                        effects.extend(self.dc.on_replica_message(NodeId(id as u64), reply));
                    }
                }
                DcEffect::Send {
                    to: DcAddr::DataCenter(_),
                    ..
                }
                | DcEffect::Output(_) => {}
                effect => panic!("unexpected export effect {effect:?}"),
            }
        }
    }
}

/// Runs the fleet simulation and ingests every certified segment into a
/// shared sharded archive. When `telemetry` is enabled, each shard
/// publishes `zugchain_archive_*` metrics under its `train="<id>"`
/// label.
///
/// # Panics
///
/// Panics if a train's export path emits nothing or a certified segment
/// fails ingestion — both indicate a bug, not an environment condition.
pub fn run_fleet(config: &FleetConfig, telemetry: &zugchain_telemetry::Telemetry) -> FleetOutcome {
    // --- Record + export, per train (independent, deterministic). ---
    let mut exported: Vec<(TrainId, Keystore, u64, Digest, Vec<CertifiedSegment>)> = Vec::new();
    for i in 1..=config.n_trains {
        let train = TrainId(i as u64);
        let mut sim = SimTrain::new(train, config.block_size, config.seed);
        let mut segments = Vec::new();
        for _ in 0..config.segments_per_train {
            sim.record_segment(config.blocks_per_segment, config.block_size);
            sim.export_round();
            segments.extend(sim.dc.drain_certified_segments());
        }
        assert!(
            !segments.is_empty(),
            "train {train}: export produced no certified segment"
        );
        let decided_height = sim.chains[0].height();
        let decided_head = sim.chains[0].head_hash();
        exported.push((train, sim.keystore, decided_height, decided_head, segments));
    }

    // --- Sharded archive: register every train, then ingest with one
    // thread per train against the shared archive. ---
    let archive = FleetArchive::in_memory(REPLICA_QUORUM);
    archive.set_telemetry(telemetry);
    for (train, keystore, ..) in &exported {
        archive
            .register_train(*train, keystore.clone())
            .expect("fresh registration");
    }
    std::thread::scope(|scope| {
        for (_, _, _, _, segments) in &exported {
            let archive = archive.clone();
            scope.spawn(move || {
                for segment in segments {
                    archive.ingest(segment).expect("certified segment ingests");
                }
            });
        }
    });

    // --- Cross-check decided chains against archived shards. ---
    let trains: Vec<TrainReport> = exported
        .iter()
        .map(|(train, _, decided_height, decided_head, segments)| {
            let archived_head = archive.head_of(*train);
            TrainReport {
                train: *train,
                decided_height: *decided_height,
                decided_head: *decided_head,
                exported_segments: segments.len(),
                archived_segments: archive.segment_count_of(*train),
                archived_head,
                fully_archived: archived_head == Some((*decided_height, *decided_head)),
            }
        })
        .collect();
    let total_requests = archive.request_count();
    FleetOutcome {
        archive,
        trains,
        keystores: exported
            .into_iter()
            .map(|(train, keystore, ..)| (train, keystore))
            .collect(),
        total_requests,
    }
}

/// Convenience wrapper used by tests and the smoke binary: runs the
/// fleet with a telemetry registry and returns the outcome together with
/// that registry for metric cross-checks.
pub fn run_fleet_instrumented(
    config: &FleetConfig,
) -> (FleetOutcome, Arc<zugchain_telemetry::Registry>) {
    let registry = Arc::new(zugchain_telemetry::Registry::new());
    let telemetry = zugchain_telemetry::Telemetry::new(
        0,
        Arc::clone(&registry),
        zugchain_telemetry::DEFAULT_TRACE_CAPACITY,
    );
    let outcome = run_fleet(config, &telemetry);
    (outcome, registry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_fully_archives() {
        let config = FleetConfig {
            n_trains: 5,
            segments_per_train: 2,
            blocks_per_segment: 2,
            block_size: 3,
            ..FleetConfig::default()
        };
        let (outcome, registry) = run_fleet_instrumented(&config);
        assert_eq!(outcome.trains.len(), 5);
        assert!(outcome.all_archived(), "reports: {:#?}", outcome.trains);
        for report in &outcome.trains {
            assert_eq!(report.archived_segments, 2);
            assert_eq!(report.decided_height, 4);
            // Per-train metric series exists and matches the shard.
            assert_eq!(
                registry.counter_value(
                    "zugchain_archive_segments_total",
                    &[("node", "0"), ("train", &report.train.to_string())],
                ),
                Some(report.archived_segments as u64)
            );
        }
        // Fleet-wide query sees every train's records.
        assert_eq!(
            outcome.archive.trains_in(0, u64::MAX).len(),
            5,
            "every train has records in the fleet window"
        );
        assert_eq!(outcome.total_requests, 5 * 2 * 2 * 3);
    }

    #[test]
    fn fleet_serves_over_http() {
        let config = FleetConfig {
            n_trains: 3,
            segments_per_train: 2,
            blocks_per_segment: 2,
            block_size: 3,
            ..FleetConfig::default()
        };
        let (outcome, registry) = run_fleet_instrumented(&config);
        let server = outcome
            .serve(ApiConfig::open(), Arc::clone(&registry))
            .expect("api server binds");
        let mut client = zugchain_api::HttpClient::new(server.address());

        let trains = client.get("/v1/trains", None).expect("GET /v1/trains");
        assert_eq!(trains.status, 200);
        assert!(trains.text().contains("\"count\":3"), "{}", trains.text());

        // A full cursor walk over train 1 sees exactly its blocks.
        let blocks = client
            .get("/v1/trains/1/blocks?limit=100", None)
            .expect("GET blocks");
        assert_eq!(blocks.status, 200);
        assert!(blocks.text().contains("\"count\":4"), "{}", blocks.text());

        // The exposition served over HTTP carries both archive ingest
        // and API request series — one registry, one scrape path.
        let metrics = client.get("/metrics", None).expect("GET /metrics");
        let exposition = metrics.text();
        assert!(exposition.contains("zugchain_archive_segments_total"));
        assert!(exposition.contains("zugchain_api_requests_total"));
    }

    #[test]
    fn fleet_is_deterministic() {
        let config = FleetConfig {
            n_trains: 3,
            segments_per_train: 1,
            blocks_per_segment: 2,
            block_size: 2,
            ..FleetConfig::default()
        };
        let a = run_fleet(&config, &zugchain_telemetry::Telemetry::disabled());
        let b = run_fleet(&config, &zugchain_telemetry::Telemetry::disabled());
        for (x, y) in a.trains.iter().zip(b.trains.iter()) {
            assert_eq!(x.decided_head, y.decided_head);
            assert_eq!(x.archived_head, y.archived_head);
        }
    }
}
