//! The full juridical chain of custody, end to end: a live cluster logs
//! a scripted emergency-braking incident (with a backup crash mid-run),
//! an export round moves the checkpoint-certified blocks into a
//! data-center archive on disk, an indexed time-range query reconstructs
//! the incident timeline, and an audit bundle for the braking block
//! verifies offline against the replica public keys alone — and fails
//! against every single-byte mutation.
//!
//! When `ZUGCHAIN_AUDIT_OUT` is set, the test additionally writes the
//! bundle (`.zab`) and the replica key file so the CI `archive-smoke`
//! job can re-verify them with the standalone `zugchain-audit` binary.

use zugchain::NodeConfig;
use zugchain_archive::{keyfile, Archive, AuditBundle};
use zugchain_blockchain::{verify_chain, Block};
use zugchain_crypto::Keystore;
use zugchain_export::{
    DataCenter, DcAddr, DcConfig, DcEffect, DcId, ExportReplica, ReplicaExportConfig,
};
use zugchain_mvb::PortAddress;
use zugchain_pbft::NodeId;
use zugchain_signals::analysis::Finding;
use zugchain_signals::{Request, SignalValue, TrainEvent};
use zugchain_sim::runtime::{ClusterEvent, ThreadedCluster};
use zugchain_wire::TrainId;

/// Scripted incident time of the emergency braking (train-clock ms).
const BRAKE_MS: u64 = 5_500;
/// Last speed sample before the braking, in centi-km/h.
const SPEED_BEFORE_BRAKE: u16 = 2_500;
const REPLICA_QUORUM: usize = 3;

fn signal_payload(cycle: u64, time_ms: u64, name: &str, value: SignalValue) -> Vec<u8> {
    zugchain_wire::to_bytes(&Request {
        cycle,
        time_ms,
        events: vec![TrainEvent {
            name: name.to_string(),
            port: PortAddress(0x42),
            cycle,
            time_ms,
            value,
        }],
    })
}

/// The scripted journey: acceleration, an ATP intervention, emergency
/// braking at [`BRAKE_MS`], deceleration to standstill, doors released.
fn incident_script() -> Vec<(u64, &'static str, SignalValue)> {
    vec![
        (1_000, "v_actual", SignalValue::U16(2_200)),
        (2_000, "v_actual", SignalValue::U16(2_600)),
        (3_000, "v_actual", SignalValue::U16(3_000)),
        (4_000, "v_actual", SignalValue::U16(3_000)),
        (5_000, "v_actual", SignalValue::U16(2_800)),
        (5_300, "atp_intervention", SignalValue::Bool(true)),
        (5_400, "v_actual", SignalValue::U16(SPEED_BEFORE_BRAKE)),
        (BRAKE_MS, "emergency_brake", SignalValue::Bool(true)),
        (6_000, "v_actual", SignalValue::U16(1_200)),
        (7_000, "v_actual", SignalValue::U16(300)),
        (8_000, "v_actual", SignalValue::U16(0)),
        (9_000, "doors_released", SignalValue::Bool(true)),
    ]
}

/// Runs the cluster over the incident script (crashing backup 3 halfway
/// through) and returns the per-node chains, stable checkpoint proofs,
/// and replica keys.
fn record_incident() -> (
    Vec<zugchain_blockchain::ChainStore>,
    Vec<Vec<zugchain_pbft::CheckpointProof>>,
    Keystore,
    Vec<zugchain_crypto::KeyPair>,
) {
    let cluster = ThreadedCluster::start(4, NodeConfig::default_for_testing());
    let script = incident_script();
    let crash_after = script.len() / 2;
    for (i, (time_ms, name, value)) in script.into_iter().enumerate() {
        cluster.feed_bus_payload_all(signal_payload(i as u64 + 1, time_ms, name, value.clone()));
        std::thread::sleep(std::time::Duration::from_millis(20));
        if i + 1 == crash_after {
            // f = 1: losing one backup must not stop the record.
            cluster.crash(3);
        }
    }

    // Wait (bounded) until the surviving majority has ordered every
    // scripted request: 12 requests at block size 3 → height 4.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut done = [false, false, false, true];
    while !done.iter().all(|d| *d) && std::time::Instant::now() < deadline {
        match cluster
            .events()
            .recv_timeout(std::time::Duration::from_millis(200))
        {
            Ok(ClusterEvent::BlockCreated { node, height, .. }) if height >= 4 => {
                done[node.0 as usize] = true;
            }
            _ => {}
        }
    }
    // Let the checkpoint round for the final block stabilize.
    std::thread::sleep(std::time::Duration::from_millis(400));

    let keystore = cluster.keystore.clone();
    let pairs = cluster.pairs.clone();
    let summaries = cluster.shutdown();
    let mut chains = Vec::new();
    let mut proofs = Vec::new();
    for summary in summaries {
        chains.push(summary.chain);
        proofs.push(summary.stable_proofs);
    }
    (chains, proofs, keystore, pairs)
}

/// Drives one synchronous export round and returns the certified
/// segments the data center queued for its archive.
fn export_round(
    chains: &mut [zugchain_blockchain::ChainStore],
    proofs: &[Vec<zugchain_pbft::CheckpointProof>],
    replica_keystore: &Keystore,
    pairs: &[zugchain_crypto::KeyPair],
) -> Vec<zugchain_export::CertifiedSegment> {
    let (dc_pairs, dc_keystore) = Keystore::generate(1, 7_000);
    let mut replicas: Vec<ExportReplica> = (0..4)
        .map(|id| {
            ExportReplica::new(
                NodeId(id as u64),
                pairs[id].clone(),
                dc_keystore.clone(),
                ReplicaExportConfig { delete_quorum: 1 },
            )
        })
        .collect();
    let mut dc = DataCenter::new(
        DcConfig {
            id: DcId(0),
            train: TrainId::DEFAULT,
            n_replicas: 4,
            replica_quorum: REPLICA_QUORUM,
            peers: vec![],
        },
        dc_pairs[0].clone(),
        replica_keystore.clone(),
        REPLICA_QUORUM,
    );

    let mut effects = dc.begin_export(NodeId(1));
    let mut exported = 0;
    while let Some(effect) = effects.pop() {
        match effect {
            DcEffect::Broadcast { message } => {
                for id in 0..4usize {
                    for reply in replicas[id].handle(message.clone(), &mut chains[id], &proofs[id])
                    {
                        effects.extend(dc.on_replica_message(NodeId(id as u64), reply));
                    }
                }
            }
            DcEffect::Send {
                to: DcAddr::Replica(to),
                message,
            } => {
                let id = to.0 as usize;
                for reply in replicas[id].handle(message, &mut chains[id], &proofs[id]) {
                    effects.extend(dc.on_replica_message(NodeId(id as u64), reply));
                }
            }
            DcEffect::Send {
                to: DcAddr::DataCenter(_),
                ..
            } => {}
            DcEffect::Output(outcome) => exported = outcome.exported_blocks,
            effect => panic!("unexpected effect {effect:?}"),
        }
    }
    assert!(exported >= 4, "export moved only {exported} blocks");
    let segments = dc.drain_certified_segments();
    // The queued segments form one hash chain from genesis to the data
    // center's verified head.
    let blocks: Vec<Block> = segments.iter().flat_map(|s| s.blocks.clone()).collect();
    verify_chain(&blocks, Some(Block::genesis().hash())).expect("one chain from genesis");
    assert_eq!(blocks.last().map(Block::hash), Some(dc.archive_hash()));
    segments
}

#[test]
fn incident_is_archived_queried_and_court_verifiable() {
    let (mut chains, proofs, replica_keystore, pairs) = record_incident();
    assert!(
        chains[0].height() >= 4,
        "cluster stalled at height {}",
        chains[0].height()
    );
    let segments = export_round(&mut chains, &proofs, &replica_keystore, &pairs);
    assert!(!segments.is_empty(), "no certified segment was queued");

    // --- Ingest into a disk-backed archive. ---
    let dir = std::env::temp_dir().join(format!("zugchain-archive-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut archive, report) =
        Archive::open(&dir, replica_keystore.clone(), REPLICA_QUORUM).expect("open archive");
    assert_eq!(report.segments_recovered, 0);
    for segment in &segments {
        archive.ingest(segment).expect("certified segment ingests");
    }
    assert!(
        archive.request_count() >= incident_script().len(),
        "archive holds {} requests",
        archive.request_count()
    );

    // --- Indexed time-range query reconstructs the incident. ---
    let timeline = archive.timeline(4_900, 5_900);
    let brakings: Vec<&Finding> = timeline.emergency_brakings().collect();
    assert_eq!(brakings.len(), 1, "findings: {:?}", timeline.findings());
    assert_eq!(
        *brakings[0],
        Finding::EmergencyBraking {
            time_ms: BRAKE_MS,
            speed_ckmh: Some(SPEED_BEFORE_BRAKE),
        }
    );

    // --- The audit bundle for the braking block. ---
    let brake_height = archive
        .blocks()
        .find(|block| {
            block
                .requests
                .iter()
                .filter_map(|r| zugchain_wire::from_bytes::<Request>(&r.payload).ok())
                .any(|r| r.events.iter().any(|e| e.name == "emergency_brake"))
        })
        .map(zugchain_blockchain::Block::height)
        .expect("braking block is archived");
    let mut bundle = archive.audit_bundle(brake_height).expect("bundle built");

    // The court holds nothing but the replica public keys, rendered
    // through the plain-text key file a key ceremony would produce.
    let court_keystore =
        keyfile::parse_keys(&keyfile::keys_to_string(&replica_keystore)).expect("key file parses");
    let block = bundle
        .verify(&court_keystore, REPLICA_QUORUM)
        .expect("bundle verifies offline");
    assert_eq!(block.height(), brake_height);

    // A bare-quorum certificate (exactly 2f+1 signatures) must suffice —
    // and makes the mutation sweep below strict, because no signature is
    // spare.
    bundle.proof.signatures.truncate(REPLICA_QUORUM);
    bundle
        .verify(&court_keystore, REPLICA_QUORUM)
        .expect("bare-quorum bundle verifies");

    // --- Every single-byte mutation is rejected. ---
    let encoded = zugchain_wire::to_bytes(&bundle);
    for i in 0..encoded.len() {
        let mut tampered = encoded.clone();
        tampered[i] ^= 0x01;
        let verdict = zugchain_wire::from_bytes::<AuditBundle>(&tampered)
            .map_err(|_| ())
            .and_then(|b| b.verify(&court_keystore, REPLICA_QUORUM).map_err(|_| ()));
        assert!(
            verdict.is_err(),
            "flipping byte {i} of {} still verifies",
            encoded.len()
        );
    }

    // --- The archive survives a restart: same head, same answers. ---
    let head = archive.head();
    let count = archive.segment_count();
    drop(archive);
    let (reopened, report) =
        Archive::open(&dir, replica_keystore, REPLICA_QUORUM).expect("reopen archive");
    assert_eq!(report.segments_recovered, count);
    assert!(report.segments_discarded.is_empty());
    assert_eq!(reopened.head(), head);
    assert_eq!(
        reopened.timeline(4_900, 5_900).emergency_brakings().count(),
        1
    );

    // --- Export artifacts for the standalone auditor (CI smoke job). ---
    if let Ok(out) = std::env::var("ZUGCHAIN_AUDIT_OUT") {
        let out = std::path::PathBuf::from(out);
        std::fs::create_dir_all(&out).expect("create audit-out dir");
        bundle
            .write_to(&out.join("brake-block.zab"))
            .expect("write bundle");
        for extra in reopened.audit_bundles_in(0, 10_000) {
            let block = zugchain_wire::from_bytes::<zugchain_blockchain::Block>(&extra.block_bytes)
                .expect("archived block decodes");
            extra
                .write_to(&out.join(format!("block-{:04}.zab", block.height())))
                .expect("write bundle");
        }
        keyfile::write_keys(&out.join("replica-keys.txt"), &court_keystore)
            .expect("write key file");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
