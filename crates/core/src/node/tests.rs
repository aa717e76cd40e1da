use zugchain_crypto::Digest;
use zugchain_pbft::{Commit, Message, NodeId, PrePrepare, Prepare, ProposedRequest, SignedMessage};

use crate::node::testutil::Cluster;
use crate::node::TrainNode;
use crate::{LayerMessage, NodeMessage, SignedRequest};

#[test]
fn identical_bus_input_is_logged_exactly_once() {
    let mut cluster = Cluster::zugchain(4);
    cluster.bus_payload_everywhere(b"cycle-0".to_vec());
    cluster.run_until_quiet();
    for id in 0..4 {
        let entries = cluster.logged_entries(id);
        assert_eq!(entries.len(), 1, "node {id} logs the payload once");
        assert_eq!(entries[0].payload, b"cycle-0");
        assert_eq!(entries[0].origin, NodeId(0), "primary's id is recorded");
    }
    // Only the primary proposed; backups filtered their copies.
    assert_eq!(cluster.node(0).stats().proposed, 1);
    for id in 1..4 {
        assert_eq!(cluster.node(id).stats().proposed, 0, "node {id}");
    }
}

#[test]
fn soft_timers_are_cancelled_after_ordering() {
    let mut cluster = Cluster::zugchain(4);
    cluster.bus_payload_everywhere(b"cycle-0".to_vec());
    cluster.run_until_quiet();
    for id in 0..4 {
        assert_eq!(
            cluster.armed_timers(id),
            0,
            "node {id} has no leftover timers"
        );
    }
    // No soft timeout ever fired.
    for id in 0..4 {
        assert_eq!(cluster.node(id).stats().soft_timeouts, 0);
    }
}

#[test]
fn blocks_form_at_block_size_and_checkpoint_stabilizes() {
    let mut cluster = Cluster::zugchain(4); // block size 3 in test config
    for tag in 0..3u8 {
        cluster.bus_payload_everywhere(vec![tag; 8]);
    }
    cluster.run_until_quiet();
    for id in 0..4 {
        let chain = cluster.node(id).chain();
        assert_eq!(chain.height(), 1, "node {id} created one block");
        let proofs = cluster.node(id).stable_proofs();
        assert_eq!(proofs.len(), 1, "node {id} has a stable checkpoint");
        let proof = &proofs[0];
        assert!(proof.verify(&cluster.keystore, 3));
        assert_eq!(
            proof.checkpoint.state_digest,
            chain.blocks()[0].hash(),
            "checkpoint digest is the block hash"
        );
        assert_eq!(proof.checkpoint.sn, 3);
    }
    // All nodes built the identical block.
    let hash0 = cluster.node(0).chain().head_hash();
    for id in 1..4 {
        assert_eq!(cluster.node(id).chain().head_hash(), hash0);
    }
}

#[test]
fn input_received_by_single_backup_is_logged_via_soft_timeout() {
    let mut cluster = Cluster::zugchain(4);
    // Only node 2 reads the payload (diverging bus reception).
    cluster.bus_payload_at(&[2], b"only-node-2".to_vec());
    cluster.run_until_quiet();
    assert_eq!(cluster.logged_payload_count(0), 0, "not ordered yet");

    // The soft timeout fires: node 2 broadcasts, the primary proposes.
    cluster.fire_due_timers();
    for id in 0..4 {
        let entries = cluster.logged_entries(id);
        assert_eq!(entries.len(), 1, "node {id}");
        assert_eq!(entries[0].payload, b"only-node-2");
        assert_eq!(entries[0].origin, NodeId(2), "origin is the receiver");
    }
    assert_eq!(cluster.node(2).stats().soft_timeouts, 1);
}

#[test]
fn input_received_only_at_primary_is_logged_immediately() {
    let mut cluster = Cluster::zugchain(4);
    cluster.bus_payload_at(&[0], b"only-primary".to_vec());
    cluster.run_until_quiet();
    for id in 0..4 {
        let entries = cluster.logged_entries(id);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].origin, NodeId(0));
    }
}

#[test]
fn censoring_primary_is_replaced_and_request_survives() {
    let mut cluster = Cluster::zugchain(4);
    // The primary is isolated (crashed/censoring); backups read a payload.
    cluster.silence_node(0);
    cluster.bus_payload_at(&[1, 2, 3], b"censored".to_vec());
    cluster.run_until_quiet();
    assert_eq!(cluster.logged_payload_count(1), 0);

    // Soft timeouts fire → broadcasts reach only backups; hard timeouts
    // fire → suspicion → view change to node 1 → the request is ordered.
    cluster.advance_time(1_000);
    for id in 1..4 {
        let entries = cluster.logged_entries(id);
        assert_eq!(entries.len(), 1, "node {id} logs after view change");
        assert_eq!(entries[0].payload, b"censored");
    }
    assert!(cluster
        .new_primaries()
        .iter()
        .any(|(_, view, primary)| *view == 1 && *primary == NodeId(1)));
}

#[test]
fn fabricated_request_is_logged_with_its_originator_id() {
    let mut cluster = Cluster::zugchain(4);
    // Node 3 fabricates data never seen on the bus and broadcasts it
    // directly (skipping its soft timer — it is faulty and impatient).
    let fabricated = ProposedRequest::application(b"fabricated".to_vec(), NodeId(3));
    let signed = SignedRequest::sign(fabricated, &cluster.pairs[3]);
    let message = NodeMessage::Layer(LayerMessage::BroadcastRequest(signed));
    for dest in 0..3 {
        cluster.node_mut(dest).on_message(message.clone());
    }
    cluster.run_until_quiet();
    // §III-B: fabricated data is logged *with the node identifier* so
    // post-analysis can attribute it.
    for id in 0..3 {
        let entries = cluster.logged_entries(id);
        assert_eq!(entries.len(), 1, "node {id}");
        assert_eq!(entries[0].origin, NodeId(3));
    }
}

#[test]
fn misattributed_broadcast_is_dropped() {
    let mut cluster = Cluster::zugchain(4);
    // Node 3 signs a request but claims node 1 received it.
    let forged = ProposedRequest::application(b"forged".to_vec(), NodeId(1));
    let signed = SignedRequest::sign(forged, &cluster.pairs[3]);
    cluster
        .node_mut(0)
        .on_message(NodeMessage::Layer(LayerMessage::BroadcastRequest(signed)));
    cluster.run_until_quiet();
    assert_eq!(cluster.node(0).stats().invalid_signatures, 1);
    assert_eq!(cluster.logged_payload_count(0), 0);
}

#[test]
fn flooding_node_is_rate_limited() {
    let mut cluster = Cluster::zugchain(4);
    let limit = crate::NodeConfig::default_for_testing().open_request_limit;
    // Node 3 floods node 1 with distinct fabricated requests.
    for tag in 0..(limit as u32 + 10) {
        let request = ProposedRequest::application(tag.to_le_bytes().to_vec(), NodeId(3));
        let signed = SignedRequest::sign(request, &cluster.pairs[3]);
        cluster
            .node_mut(1)
            .on_message(NodeMessage::Layer(LayerMessage::BroadcastRequest(signed)));
    }
    let stats = cluster.node(1).stats();
    assert_eq!(stats.rate_limited, 10, "excess requests are dropped");
}

#[test]
fn broadcast_to_backup_arms_hard_timer_and_forwards_to_primary() {
    let mut cluster = Cluster::zugchain(4);
    let request = ProposedRequest::application(b"via-broadcast".to_vec(), NodeId(3));
    let signed = SignedRequest::sign(request, &cluster.pairs[3]);
    // Deliver only to backup node 1; it must forward to the primary so a
    // faulty broadcaster cannot cause a false suspicion (Alg. 1 ln. 32).
    cluster
        .node_mut(1)
        .on_message(NodeMessage::Layer(LayerMessage::BroadcastRequest(signed)));
    cluster.collect_effects();
    assert_eq!(cluster.armed_timers(1), 1, "hard timer armed");
    cluster.run_until_quiet();
    // Forwarding reached the primary, which proposed; all log it.
    for id in 0..4 {
        assert_eq!(cluster.logged_payload_count(id), 1, "node {id}");
    }
    assert_eq!(cluster.armed_timers(1), 0, "hard timer cancelled by decide");
}

#[test]
fn bus_duplicate_deliveries_are_filtered_locally() {
    let mut cluster = Cluster::zugchain(4);
    cluster.bus_payload_everywhere(b"dup".to_vec());
    cluster.run_until_quiet();
    // The same payload arrives again (delayed bus frame).
    cluster.bus_payload_everywhere(b"dup".to_vec());
    cluster.run_until_quiet();
    for id in 0..4 {
        assert_eq!(cluster.logged_payload_count(id), 1, "node {id}");
        assert!(cluster.node(id).stats().duplicates_filtered >= 1);
    }
}

#[test]
fn ordered_duplicate_from_faulty_primary_triggers_suspicion() {
    // Drive a single node with hand-crafted consensus traffic that orders
    // the same payload twice — the behaviour of a filtering-bypassing
    // faulty primary. The node must log it once and suspect the primary.
    let cluster = Cluster::zugchain(4);
    let pairs = cluster.pairs.clone();
    let keystore = cluster.keystore.clone();
    let config = crate::NodeConfig::default_for_testing();
    let mut node = crate::ZugchainNode::new(
        3,
        config,
        zugchain_mvb::Nsdb::jru_default(),
        pairs[3].clone(),
        keystore,
    );

    let payload = b"duplicated-by-primary".to_vec();
    let order_at = |sn: u64| {
        let request = ProposedRequest::application(payload.clone(), NodeId(0));
        let batch = zugchain_pbft::ProposedBatch::single(request);
        let digest = batch.digest();
        let mut messages = vec![SignedMessage::sign(
            NodeId(0),
            Message::PrePrepare(PrePrepare { view: 0, sn, batch }),
            &pairs[0],
        )];
        for id in [1u64, 2] {
            messages.push(SignedMessage::sign(
                NodeId(id),
                Message::Prepare(Prepare {
                    view: 0,
                    sn,
                    digest,
                }),
                &pairs[id as usize],
            ));
        }
        for id in [0u64, 1, 2] {
            messages.push(SignedMessage::sign(
                NodeId(id),
                Message::Commit(Commit {
                    view: 0,
                    sn,
                    digest,
                }),
                &pairs[id as usize],
            ));
        }
        messages
    };

    for message in order_at(1).into_iter().chain(order_at(2)) {
        node.on_message(NodeMessage::Consensus(message));
    }
    let effects = node.drain_effects();

    assert_eq!(node.stats().logged, 1, "payload logged exactly once");
    assert_eq!(node.stats().primary_duplicates_detected, 1);
    // The node must have initiated a view change (Alg. 1 ln. 17–18).
    assert!(effects.iter().any(|effect| matches!(
        effect,
        zugchain_machine::Effect::Broadcast {
            message: NodeMessage::Consensus(m)
        } if matches!(m.message, Message::ViewChange(_))
    )));
}

#[test]
fn multiple_input_sources_are_all_logged() {
    let mut cluster = Cluster::zugchain(4);
    // Give every node a second input source and feed diverging telegrams
    // through the real consolidation path of source 0 via raw payloads.
    cluster.bus_payload_everywhere(b"bus-A".to_vec());
    cluster.bus_payload_everywhere(b"bus-B".to_vec());
    cluster.run_until_quiet();
    for id in 0..4 {
        assert_eq!(cluster.logged_payload_count(id), 2, "node {id}");
    }
}

#[test]
fn telegram_pipeline_logs_changed_signals() {
    use zugchain_mvb::{Bus, BusConfig, SignalGenerator};
    let mut cluster = Cluster::zugchain(4);
    let config = BusConfig::jru_default(64);
    let mut bus = Bus::new(config, 4, 5);
    bus.attach_device(Box::new(SignalGenerator::new(11)));

    for _ in 0..6 {
        let out = bus.run_cycle();
        for obs in &out.observations {
            cluster
                .node_mut(obs.tap)
                .on_bus_cycle(0, out.cycle, out.time_ms, &obs.telegrams);
        }
        cluster.run_until_quiet();
    }
    // The accelerating train changes speed every cycle: several requests
    // must have been logged, identically on every node.
    let count = cluster.logged_payload_count(0);
    assert!(count >= 3, "expected several logged cycles, got {count}");
    for id in 1..4 {
        assert_eq!(cluster.logged_payload_count(id), count, "node {id}");
    }
    let digests: Vec<Digest> = cluster.logged_entries(0).iter().map(|e| e.digest).collect();
    for id in 1..4 {
        let other: Vec<Digest> = cluster
            .logged_entries(id)
            .iter()
            .map(|e| e.digest)
            .collect();
        assert_eq!(other, digests, "logs agree in content and order");
    }
}

#[test]
fn chain_survives_and_extends_across_view_changes() {
    let mut cluster = Cluster::zugchain(4);
    for tag in 0..3u8 {
        cluster.bus_payload_everywhere(vec![tag; 4]);
    }
    cluster.run_until_quiet();
    assert_eq!(cluster.node(1).chain().height(), 1);

    cluster.silence_node(0);
    cluster.bus_payload_at(&[1, 2, 3], b"during-fault".to_vec());
    cluster.advance_time(1_000);

    // Log two more on the new primary to complete the next block.
    cluster.bus_payload_at(&[1, 2, 3], b"after-1".to_vec());
    cluster.bus_payload_at(&[1, 2, 3], b"after-2".to_vec());
    cluster.advance_time(1_000);

    let chain = cluster.node(1).chain();
    assert_eq!(chain.height(), 2, "second block formed in the new view");
    assert!(zugchain_blockchain::verify_chain(chain.blocks(), None).is_ok());
}

#[test]
fn stats_expose_bus_and_log_counters() {
    let mut cluster = Cluster::zugchain(4);
    cluster.bus_payload_everywhere(b"x".to_vec());
    cluster.run_until_quiet();
    let stats = cluster.node(0).stats();
    assert_eq!(stats.bus_requests, 1);
    assert_eq!(stats.logged, 1);
    assert_eq!(stats.blocks_created, 0);
}

/// Regression for the `open_by_origin` leak: once every request from an
/// origin decides, the origin's rate-limit entry must disappear — not
/// linger as an empty `HashSet` — so the map stays bounded no matter how
/// many requests flow through.
#[test]
fn origin_rate_slots_drain_to_zero_over_ten_thousand_requests() {
    let mut config = crate::NodeConfig::default_for_testing().with_block_size(4);
    // Full batches of one rate-limit window flush without timers.
    config.pbft = config.pbft.with_max_batch_size(8);
    let limit = config.open_request_limit;
    assert_eq!(limit, 8, "waves below assume the testing limit");
    let mut cluster = Cluster::zugchain_with_config(4, config);

    let waves = 10_000 / limit;
    for wave in 0..waves {
        for i in 0..limit {
            let payload = ((wave * limit + i) as u32).to_le_bytes().to_vec();
            let request = ProposedRequest::application(payload, NodeId(3));
            let signed = SignedRequest::sign(request, &cluster.pairs[3]);
            for node in 0..3 {
                cluster.node_mut(node).on_message(NodeMessage::Layer(
                    LayerMessage::BroadcastRequest(signed.clone()),
                ));
            }
        }
        cluster.run_until_quiet();
        for node in 0..3 {
            assert_eq!(
                cluster.node(node).open_origins(),
                0,
                "node {node} still holds origin entries after wave {wave}"
            );
        }
    }
    for node in 0..4 {
        assert_eq!(cluster.logged_payload_count(node), waves * limit);
        assert_eq!(cluster.node(node).stats().rate_limited, 0);
    }
}

/// Regression for the `open_by_origin` leak on the state-transfer path:
/// a node that recovers via `install_transfer` must release the decided
/// requests' rate-limit slots, or the crashed-and-recovered origin stays
/// rate-limited forever.
#[test]
fn crash_recovered_origin_can_broadcast_again() {
    let config = crate::NodeConfig::default_for_testing().with_block_size(4);
    let limit = config.open_request_limit;
    let mut cluster = Cluster::zugchain_with_config(4, config.clone());

    // Origin 3 broadcasts one full rate-limit window of requests.
    let signed: Vec<SignedRequest> = (0..limit)
        .map(|i| {
            let request = ProposedRequest::application(vec![i as u8; 16], NodeId(3));
            SignedRequest::sign(request, &cluster.pairs[3])
        })
        .collect();
    for request in &signed {
        for node in 0..3 {
            cluster
                .node_mut(node)
                .on_message(NodeMessage::Layer(LayerMessage::BroadcastRequest(
                    request.clone(),
                )));
        }
    }
    cluster.run_until_quiet();
    assert_eq!(cluster.node(0).chain().height(), 2, "two blocks formed");

    // A standalone replica of node 1 saw the broadcasts but missed every
    // decide (crashed mid-run): its slots for origin 3 are all taken.
    let mut node = crate::ZugchainNode::new(
        1,
        config,
        zugchain_mvb::Nsdb::jru_default(),
        cluster.pairs[1].clone(),
        cluster.keystore.clone(),
    );
    for request in &signed {
        node.on_message(NodeMessage::Layer(LayerMessage::BroadcastRequest(
            request.clone(),
        )));
    }
    let _ = node.drain_effects();
    let extra = SignedRequest::sign(
        ProposedRequest::application(b"one-too-many".to_vec(), NodeId(3)),
        &cluster.pairs[3],
    );
    node.on_message(NodeMessage::Layer(LayerMessage::BroadcastRequest(extra)));
    assert_eq!(node.stats().rate_limited, 1, "window is full");

    // Recovery: install the chain + checkpoint proofs from a live node.
    node.install_transfer(
        cluster.node(0).chain().clone(),
        cluster.node(0).stable_proofs().to_vec(),
    );
    let _ = node.drain_effects();
    assert_eq!(
        TrainNode::open_origins(&node),
        0,
        "decided requests must release their origin's entry"
    );

    // The recovered origin can broadcast again.
    let fresh = SignedRequest::sign(
        ProposedRequest::application(b"after-recovery".to_vec(), NodeId(3)),
        &cluster.pairs[3],
    );
    node.on_message(NodeMessage::Layer(LayerMessage::BroadcastRequest(fresh)));
    assert_eq!(node.stats().rate_limited, 1, "no new drop after recovery");
    assert_eq!(TrainNode::open_origins(&node), 1);
}

#[test]
fn memory_accounting_grows_with_chain() {
    let mut cluster = Cluster::zugchain(4);
    let before = cluster.node(0).approx_memory_bytes();
    for tag in 0..6u8 {
        cluster.bus_payload_everywhere(vec![tag; 512]);
    }
    cluster.run_until_quiet();
    let after = cluster.node(0).approx_memory_bytes();
    assert!(after > before + 2 * 512, "chain blocks are accounted");
}

/// Bytes hashed on this thread while a 4-node cluster (telemetry off)
/// orders, logs and bundles `requests` distinct payloads of `size` bytes
/// fed to every node.
fn bytes_hashed_to_log(size: usize, requests: usize) -> u64 {
    let mut cluster = Cluster::zugchain(4);
    let before = zugchain_crypto::bytes_hashed();
    for tag in 0..requests as u64 {
        let mut payload = vec![0x5A; size];
        payload[..8].copy_from_slice(&tag.to_le_bytes());
        cluster.bus_payload_everywhere(payload);
        cluster.run_until_quiet();
    }
    let hashed = zugchain_crypto::bytes_hashed() - before;
    for id in 0..4 {
        assert_eq!(cluster.logged_payload_count(id), requests, "node {id}");
        assert_eq!(
            cluster.node(id).chain().height() as usize,
            requests / 3,
            "node {id} bundled every request (block size 3)"
        );
    }
    hashed
}

/// Each node hashes a payload's bytes once at bus ingress and once for
/// the block commitment; propose, batch, decide, log and the chain
/// append reuse what was already hashed. The slope of bytes hashed per
/// decided request per payload byte is therefore exactly 2n.
#[test]
fn payload_bytes_are_hashed_twice_per_node() {
    let n = 4u64;
    let requests = 6usize;
    let small = bytes_hashed_to_log(1024, requests);
    let large = bytes_hashed_to_log(4096, requests);
    let extra_bytes = requests as u64 * (4096 - 1024);
    assert_eq!(
        large - small,
        2 * n * extra_bytes,
        "slope {} bytes hashed per payload byte per request, expected {}",
        (large - small) as f64 / extra_bytes as f64,
        2 * n
    );
}
