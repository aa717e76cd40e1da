//! A train as the data center sees it: a 4-replica chain that grows one
//! certified segment at a time, the real `DataCenter` and
//! `ExportReplica` machines that export it (paper Fig. 4), and a durable
//! `FleetArchive` that ingests the result. Mirrors `zugchain_sim::fleet`,
//! with seeded JRU signal payloads and optional spans around each layer.

use std::path::Path;

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

use crate::rng::Rng;
use crate::trace::Tracer;

/// Replicas per train (n = 4, f = 1).
pub const REPLICAS: usize = 4;
/// Checkpoint quorum (2f + 1).
pub const QUORUM: usize = 3;
/// Blocks per certified segment.
pub const BLOCKS_PER_SEGMENT: usize = 20;
/// Requests per block.
pub const BLOCK_SIZE: usize = 10;
/// Requests per certified segment.
pub const REQUESTS_PER_SEGMENT: u64 = (BLOCKS_PER_SEGMENT * BLOCK_SIZE) as u64;
/// Trains in the fleet.
pub const TRAINS: usize = 16;
/// Bus time between consecutive requests of one train.
pub const MS_PER_REQUEST: u64 = 100;

/// One train: replica chains, checkpoint proofs, export machines.
pub struct Train {
    /// The train id.
    pub id: TrainId,
    pairs: Vec<KeyPair>,
    /// The replicas' public keys (what an auditor verifies against).
    pub keystore: Keystore,
    chains: Vec<ChainStore>,
    proofs: Vec<CheckpointProof>,
    builder: BlockBuilder,
    next_sn: u64,
    dc: DataCenter,
    replicas: Vec<ExportReplica>,
    rng: Rng,
    /// Payload bytes recorded so far.
    pub payload_bytes: u64,
    /// Export messages exchanged so far (DC → replica deliveries plus
    /// replica replies).
    pub export_msgs: u64,
}

fn certify(pairs: &[KeyPair], sn: u64, head: &Block) -> CheckpointProof {
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

impl Train {
    /// Train `id` of the fleet built from `seed`.
    pub fn new(id: TrainId, seed: u64) -> Self {
        let (pairs, keystore) =
            Keystore::generate(REPLICAS, seed ^ id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (dc_pairs, dc_keystore) = Keystore::generate(1, seed ^ id.0 ^ 0xDC00);
        let dc = DataCenter::new(
            DcConfig {
                id: DcId(0),
                train: id,
                n_replicas: REPLICAS,
                replica_quorum: QUORUM,
                peers: vec![],
            },
            dc_pairs[0].clone(),
            keystore.clone(),
            QUORUM,
        );
        let replicas = (0..REPLICAS)
            .map(|r| {
                ExportReplica::new(
                    NodeId(r as u64),
                    pairs[r].clone(),
                    dc_keystore.clone(),
                    ReplicaExportConfig { delete_quorum: 1 },
                )
                .with_train(id)
            })
            .collect();
        Train {
            id,
            pairs,
            keystore,
            chains: (0..REPLICAS).map(|_| ChainStore::new()).collect(),
            proofs: Vec::new(),
            builder: BlockBuilder::new(BLOCK_SIZE),
            next_sn: 0,
            dc,
            replicas,
            rng: Rng::new(seed, 0x7EA1_0000 ^ id.0),
            payload_bytes: 0,
            export_msgs: 0,
        }
    }

    /// A JRU speed reading: small, like the real signal stream.
    fn signal_payload(&mut self, sn: u64) -> Vec<u8> {
        let time_ms = sn * MS_PER_REQUEST;
        zugchain_wire::to_bytes(&Request {
            cycle: sn,
            time_ms,
            events: vec![TrainEvent {
                name: "v_actual".to_string(),
                port: PortAddress(0x42),
                cycle: sn,
                time_ms,
                value: SignalValue::U16(self.rng.below(4_000) as u16),
            }],
        })
    }

    /// Train side: extends every replica chain by one segment of blocks
    /// and certifies its head with a 2f + 1 checkpoint certificate.
    pub fn grow_segment(&mut self) {
        for _ in 0..BLOCKS_PER_SEGMENT {
            let mut block = None;
            while block.is_none() {
                self.next_sn += 1;
                let sn = self.next_sn;
                let payload = self.signal_payload(sn);
                self.payload_bytes += payload.len() as u64;
                block = self.builder.push(
                    LoggedRequest {
                        sn,
                        origin: sn % REPLICAS as u64,
                        payload,
                    },
                    sn * MS_PER_REQUEST,
                );
            }
            let block = block.expect("a full block");
            for chain in &mut self.chains {
                chain.append(block.clone()).expect("builder output chains");
            }
        }
        let head = self.chains[0].blocks().last().expect("grown").clone();
        self.proofs.push(certify(&self.pairs, self.next_sn, &head));
    }

    fn deliver(
        &mut self,
        to: usize,
        message: zugchain_export::ExportMessage,
        tracer: &mut Tracer,
    ) -> Vec<DcEffect> {
        self.export_msgs += 1;
        let replies = tracer.span("export.replica", |_| {
            self.replicas[to].handle(message, &mut self.chains[to], &self.proofs)
        });
        let mut effects = Vec::new();
        for reply in replies {
            self.export_msgs += 1;
            let dc = &mut self.dc;
            effects.extend(tracer.span("export.dc", |_| {
                dc.on_replica_message(NodeId(to as u64), reply)
            }));
        }
        effects
    }

    /// Data-center side: one export round over an effects queue, exactly
    /// as a runtime would interleave it; returns the certified segments.
    pub fn export(&mut self, tracer: &mut Tracer) -> Vec<CertifiedSegment> {
        let dc = &mut self.dc;
        let mut effects = tracer.span("export.dc", |_| dc.begin_export(NodeId(1)));
        while let Some(effect) = effects.pop() {
            match effect {
                DcEffect::Broadcast { message } => {
                    for to in 0..REPLICAS {
                        let more = self.deliver(to, message.clone(), tracer);
                        effects.extend(more);
                    }
                }
                DcEffect::Send {
                    to: DcAddr::Replica(to),
                    message,
                } => {
                    let more = self.deliver(to.0 as usize, message, tracer);
                    effects.extend(more);
                }
                DcEffect::Send {
                    to: DcAddr::DataCenter(_),
                    ..
                }
                | DcEffect::Output(_) => {}
                effect => panic!("unexpected export effect {effect:?}"),
            }
        }
        let dc = &mut self.dc;
        tracer.span("export.dc", |_| dc.drain_certified_segments())
    }

    /// Hash of the decided chain head.
    pub fn decided_head(&self) -> Digest {
        self.chains[0].head_hash()
    }

    /// Height of the decided chain.
    pub fn decided_height(&self) -> u64 {
        self.chains[0].height()
    }

    /// Last recorded sequence number.
    pub fn head_sn(&self) -> u64 {
        self.next_sn
    }
}

/// The fleet for `seed`, registered in a durable archive at `dir`.
pub fn open_fleet(seed: u64, dir: &Path) -> (FleetArchive, Vec<Train>) {
    let archive = FleetArchive::open(dir, QUORUM).expect("open fleet archive");
    let trains: Vec<Train> = (1..=TRAINS as u64)
        .map(|id| Train::new(TrainId(id), seed))
        .collect();
    for train in &trains {
        archive
            .register_train(train.id, train.keystore.clone())
            .expect("fresh registration");
    }
    (archive, trains)
}

/// Grows, exports and archives `segments` more segments of `train`;
/// returns the requests archived.
pub fn advance(train: &mut Train, archive: &FleetArchive, segments: usize) -> u64 {
    let mut tracer = Tracer::with_enabled(false);
    let mut archived = 0;
    for _ in 0..segments {
        train.grow_segment();
        for segment in train.export(&mut tracer) {
            archive.ingest(&segment).expect("certified segment ingests");
            archived += segment
                .blocks
                .iter()
                .map(|b| b.requests.len() as u64)
                .sum::<u64>();
        }
    }
    archived
}

/// Every shard head equals its train's decided head.
pub fn heads_match(archive: &FleetArchive, trains: &[Train]) -> Vec<String> {
    trains
        .iter()
        .filter_map(|t| {
            let archived = archive.head_of(t.id);
            let decided = (t.decided_height(), t.decided_head());
            (archived != Some(decided)).then(|| {
                format!(
                    "train {}: shard head {archived:?} != decided head {decided:?}",
                    t.id
                )
            })
        })
        .collect()
}

/// Audit bundles for `samples` seeded `(train, sn)` picks, each verified
/// offline against the train's keystore.
pub fn bundles_verify(
    archive: &FleetArchive,
    trains: &[Train],
    seed: u64,
    samples: usize,
) -> Vec<String> {
    let mut rng = Rng::new(seed, 0xB0B);
    let mut violations = Vec::new();
    for _ in 0..samples {
        let train = &trains[rng.below(trains.len() as u64) as usize];
        let sn = 1 + rng.below(train.head_sn());
        let bundle = archive
            .with_shard(train.id, |a| a.bundle_by_sn(sn))
            .flatten();
        match bundle.map(|b| b.verify(&train.keystore, QUORUM)) {
            Some(Ok(block)) if block.header.first_sn <= sn && sn <= block.header.last_sn => {}
            other => violations.push(format!(
                "train {} sn {sn}: bundle did not verify ({other:?})",
                train.id
            )),
        }
    }
    violations
}
