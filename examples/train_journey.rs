//! A realistic train journey: the ATP signal generator drives the
//! simulated MVB; ZugChain nodes parse, filter, and order the JRU events;
//! blocks are exported to two company data centers and pruned on-train.
//!
//! This is the paper's Fig. 2 end to end: bus → blockchain → export.
//!
//! ```text
//! cargo run --example train_journey
//! ```

use std::time::Duration;

use zugchain::NodeConfig;
use zugchain_blockchain::{verify_chain, Block};
use zugchain_crypto::Keystore;
use zugchain_export::{
    DataCenter, DcAddr, DcConfig, DcEffect, DcId, ExportMessage, ExportReplica, ReplicaExportConfig,
};
use zugchain_mvb::{Bus, BusConfig, SignalGenerator};
use zugchain_pbft::NodeId;
use zugchain_sim::runtime::{ClusterEvent, ThreadedCluster};
use zugchain_wire::TrainId;

fn main() {
    // --- On the train -----------------------------------------------------
    println!("» Train departs: MVB at 64 ms cycles, ATP generator running");
    let config = NodeConfig::evaluation_default().with_block_size(5);
    let cluster = ThreadedCluster::start(4, config);

    let bus_config = BusConfig::jru_default(64);
    let mut bus = Bus::new(bus_config, 4, 7);
    bus.attach_device(Box::new(SignalGenerator::new(2026)));

    // Drive 120 bus cycles (~7.7 s of train time, accelerating phase).
    for _ in 0..120 {
        let out = bus.run_cycle();
        for obs in out.observations {
            cluster.feed_telegrams(obs.tap, out.cycle, out.time_ms, obs.telegrams);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(500));

    let mut speed_events = 0u32;
    let mut blocks = 0u32;
    while let Ok(event) = cluster.events().try_recv() {
        match event {
            ClusterEvent::Logged { node, .. } if node.0 == 0 => speed_events += 1,
            ClusterEvent::BlockCreated { node, .. } if node.0 == 0 => blocks += 1,
            _ => {}
        }
    }
    println!("  {speed_events} juridical events ordered into {blocks} blocks");

    let replica_keystore = cluster.keystore.clone();
    let pairs = cluster.pairs.clone();
    let summaries = cluster.shutdown();
    let mut chains: Vec<_> = summaries.iter().map(|s| s.chain.clone()).collect();
    let proofs: Vec<_> = summaries.iter().map(|s| s.stable_proofs.clone()).collect();
    println!(
        "  on-train chain height: {} ({} KiB resident)",
        chains[0].height(),
        chains[0].resident_bytes() / 1024
    );

    // --- In range of a cell tower ------------------------------------------
    println!("» LTE connectivity: two company data centers start the export");
    let (dc_pairs, dc_keystore) = Keystore::generate(2, 4_242);
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

    let mut effects = dc0.begin_export(NodeId(1));
    while let Some(effect) = effects.pop() {
        match effect {
            DcEffect::Broadcast { message } => {
                for id in 0..4usize {
                    for reply in replicas[id].handle(message.clone(), &mut chains[id], &proofs[id])
                    {
                        if matches!(reply, ExportMessage::Ack(_)) {
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
                to: DcAddr::DataCenter(_),
                message,
            } => {
                effects.extend(dc1.on_dc_sync(message));
            }
            DcEffect::Output(outcome) => {
                println!(
                    "  exported {} blocks (archive height {}), delete issued: {}",
                    outcome.exported_blocks, outcome.new_height, outcome.delete_issued
                );
            }
            effect => panic!("unexpected effect {effect:?}"),
        }
    }

    // Each data center hands its verified segments to its archive; both
    // hold the same chain from genesis.
    let archived: Vec<Vec<Block>> = [&mut dc0, &mut dc1]
        .into_iter()
        .map(|dc| {
            let blocks: Vec<Block> = dc
                .drain_certified_segments()
                .into_iter()
                .flat_map(|segment| segment.blocks)
                .collect();
            assert!(verify_chain(&blocks, Some(Block::genesis().hash())).is_ok());
            assert_eq!(blocks.last().map(Block::hash), Some(dc.archive_hash()));
            blocks
        })
        .collect();
    assert_eq!(archived[0], archived[1]);
    println!(
        "  both data centers verified the chain independently (heights {} / {})",
        dc0.archive_height(),
        dc1.archive_height()
    );
    println!(
        "  on-train store pruned to {} resident blocks ({} KiB)",
        chains[0].len(),
        chains[0].resident_bytes() / 1024
    );
    println!("» Journey complete: juridical record safe in two data centers ✓");
}
