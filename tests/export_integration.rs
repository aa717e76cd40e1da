//! Integration of ordering and export: blocks produced by a live cluster
//! are exported to multiple data centers, verified, synchronized, and
//! pruned from the nodes with signed acknowledgements.

use zugchain::NodeConfig;
use zugchain_blockchain::{verify_chain, Block};
use zugchain_crypto::Keystore;
use zugchain_export::{
    DataCenter, DcAddr, DcConfig, DcEffect, DcId, ExportMessage, ExportReplica, ReplicaExportConfig,
};
use zugchain_pbft::NodeId;
use zugchain_sim::runtime::ThreadedCluster;
use zugchain_wire::TrainId;

/// Drains the certified segments `dc` queued for its archive and checks
/// that their blocks form one hash chain from genesis ending at the data
/// center's verified head.
fn drained_chain(dc: &mut DataCenter) -> Vec<Block> {
    let blocks: Vec<Block> = dc
        .drain_certified_segments()
        .into_iter()
        .flat_map(|segment| segment.blocks)
        .collect();
    verify_chain(&blocks, Some(Block::genesis().hash())).expect("one chain from genesis");
    assert_eq!(blocks.len() as u64, dc.archive_height());
    assert_eq!(blocks.last().map(Block::hash), Some(dc.archive_hash()));
    blocks
}

/// Runs a small cluster, returns per-node `(chain, proofs)` plus the
/// replica keystore and key pairs.
fn produce_blocks() -> (
    Vec<zugchain_blockchain::ChainStore>,
    Vec<Vec<zugchain_pbft::CheckpointProof>>,
    Keystore,
    Vec<zugchain_crypto::KeyPair>,
) {
    let cluster = ThreadedCluster::start(4, NodeConfig::default_for_testing());
    for tag in 0..12u8 {
        cluster.feed_bus_payload_all(vec![tag; 100]);
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    std::thread::sleep(std::time::Duration::from_millis(500));
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

#[test]
fn full_export_round_against_live_chains() {
    let (mut chains, proofs, replica_keystore, pairs) = produce_blocks();
    assert!(chains[0].height() >= 3, "cluster produced blocks");

    // Two company data centers.
    let (dc_pairs, dc_keystore) = Keystore::generate(2, 7_000);
    let mut replicas: Vec<ExportReplica> = (0..4)
        .map(|id| {
            ExportReplica::new(
                NodeId(id as u64),
                pairs[id].clone(),
                dc_keystore.clone(),
                ReplicaExportConfig { delete_quorum: 2 },
            )
        })
        .collect();
    let mut dc0 = DataCenter::new(
        DcConfig {
            id: DcId(0),
            train: TrainId::DEFAULT,
            n_replicas: 4,
            replica_quorum: 3,
            peers: vec![DcId(1)],
        },
        dc_pairs[0].clone(),
        replica_keystore.clone(),
        3,
    );
    let mut dc1 = DataCenter::new(
        DcConfig {
            id: DcId(1),
            train: TrainId::DEFAULT,
            n_replicas: 4,
            replica_quorum: 3,
            peers: vec![DcId(0)],
        },
        dc_pairs[1].clone(),
        replica_keystore,
        3,
    );

    // Route DC effects against the replicas synchronously.
    let mut effects = dc0.begin_export(NodeId(2));
    let mut delete_acks = 0;
    while let Some(effect) = effects.pop() {
        match effect {
            DcEffect::Broadcast { message } => {
                for id in 0..4usize {
                    for reply in replicas[id].handle(message.clone(), &mut chains[id], &proofs[id])
                    {
                        if matches!(reply, ExportMessage::Ack(_)) {
                            delete_acks += 1;
                            dc0.on_replica_message(NodeId(id as u64), reply.clone());
                            dc1.on_replica_message(NodeId(id as u64), reply);
                        } else {
                            effects.extend(dc0.on_replica_message(NodeId(id as u64), reply));
                        }
                    }
                }
            }
            DcEffect::Send {
                to: DcAddr::Replica(to),
                message,
            } => {
                let id = to.0 as usize;
                for reply in replicas[id].handle(message, &mut chains[id], &proofs[id]) {
                    effects.extend(dc0.on_replica_message(NodeId(id as u64), reply));
                }
            }
            DcEffect::Send {
                to: DcAddr::DataCenter(to),
                message,
            } => {
                assert_eq!(to, DcId(1));
                // dc1 verifies the sync and contributes its own signed
                // delete — required for the replicas' quorum of 2.
                effects.extend(dc1.on_dc_sync(message));
            }
            DcEffect::Output(outcome) => {
                assert!(outcome.exported_blocks >= 3);
                assert!(outcome.delete_issued);
            }
            effect => panic!("unexpected effect {effect:?}"),
        }
    }

    // Every replica pruned and acknowledged; both DCs verified, and
    // queued for their archives, the identical chain from genesis.
    assert_eq!(delete_acks, 4);
    assert_eq!(drained_chain(&mut dc0), drained_chain(&mut dc1));
    assert_eq!(dc0.archive_height(), dc1.archive_height());
    for (id, chain) in chains.iter().enumerate() {
        assert!(
            chain.len() <= 1,
            "replica {id} kept {} blocks after pruning",
            chain.len()
        );
        assert!(
            chain.pruned_base().is_some(),
            "replica {id} has a prune proof"
        );
    }
    assert_eq!(dc0.acks_for(dc0.archive_height(), dc0.archive_hash()), 4);
}

#[test]
fn second_export_continues_from_pruned_chains() {
    let (mut chains, proofs, replica_keystore, pairs) = produce_blocks();
    let (dc_pairs, dc_keystore) = Keystore::generate(2, 7_000);
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
            replica_quorum: 3,
            peers: vec![],
        },
        dc_pairs[0].clone(),
        replica_keystore,
        3,
    );

    // Round 1.
    let round = |dc: &mut DataCenter,
                 replicas: &mut Vec<ExportReplica>,
                 chains: &mut Vec<zugchain_blockchain::ChainStore>| {
        let mut effects = dc.begin_export(NodeId(1));
        let mut exported = 0;
        while let Some(effect) = effects.pop() {
            match effect {
                DcEffect::Broadcast { message } => {
                    for id in 0..4usize {
                        for reply in
                            replicas[id].handle(message.clone(), &mut chains[id], &proofs[id])
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
        exported
    };

    let first = round(&mut dc, &mut replicas, &mut chains);
    assert!(first >= 3);
    let height_after_first = dc.archive_height();

    // Nothing new: the second export round is empty but must not fail or
    // re-export old blocks.
    let second = round(&mut dc, &mut replicas, &mut chains);
    assert_eq!(second, 0);
    assert_eq!(dc.archive_height(), height_after_first);
    drained_chain(&mut dc);
}
