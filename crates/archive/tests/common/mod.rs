//! Shared fixture: build genuinely-signed certified segments, so archive
//! tests exercise the same verification path as real export traffic.

use zugchain_blockchain::{Block, BlockBuilder, LoggedRequest};
use zugchain_crypto::{KeyPair, Keystore};
use zugchain_export::CertifiedSegment;
use zugchain_mvb::PortAddress;
use zugchain_pbft::{Checkpoint, CheckpointProof, Message, NodeId};
use zugchain_signals::{Request, SignalValue, TrainEvent};
use zugchain_wire::TrainId;

/// 4 replicas, f = 1 → quorum 3.
pub const QUORUM: usize = 3;

pub fn keys() -> (Vec<KeyPair>, Keystore) {
    Keystore::generate(4, 0xA0D1_7001)
}

/// A stable-checkpoint certificate all `pairs` sign — exactly the bytes
/// replicas sign when broadcasting `Message::Checkpoint`.
pub fn certify(pairs: &[KeyPair], sn: u64, head: &Block) -> CheckpointProof {
    let checkpoint = Checkpoint {
        sn,
        state_digest: head.hash(),
    };
    let message = zugchain_wire::to_bytes(&Message::Checkpoint(checkpoint));
    let signatures = pairs
        .iter()
        .enumerate()
        .map(|(id, pair)| (NodeId(id as u64), pair.sign(&message)))
        .collect();
    CheckpointProof {
        checkpoint,
        signatures,
    }
}

/// Canonical payload bytes for one decoded signal event.
pub fn signal_payload(cycle: u64, time_ms: u64, name: &str, value: SignalValue) -> Vec<u8> {
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

/// Builds `n_segments` contiguous certified segments of
/// `blocks_per_segment` blocks each (2 requests per block), chained off
/// genesis, each certified by every key in `pairs`. Request `sn` doubles
/// as the driver for a 100 ms-per-request synthetic clock.
#[allow(dead_code)] // not every test binary uses the default-train form
pub fn certified_chain(
    pairs: &[KeyPair],
    n_segments: usize,
    blocks_per_segment: usize,
) -> Vec<CertifiedSegment> {
    certified_chain_for_train(TrainId::DEFAULT, pairs, n_segments, blocks_per_segment)
}

/// As [`certified_chain`], tagged with an origin train.
pub fn certified_chain_for_train(
    train: TrainId,
    pairs: &[KeyPair],
    n_segments: usize,
    blocks_per_segment: usize,
) -> Vec<CertifiedSegment> {
    certified_chain_sized(train, pairs, &vec![blocks_per_segment; n_segments])
}

/// As [`certified_chain_for_train`], with one entry of `sizes` per
/// segment giving its block count.
pub fn certified_chain_sized(
    train: TrainId,
    pairs: &[KeyPair],
    sizes: &[usize],
) -> Vec<CertifiedSegment> {
    let mut builder = BlockBuilder::new(2);
    let mut base = Block::genesis();
    let mut segments = Vec::new();
    let mut sn = 0u64;
    for &blocks_per_segment in sizes {
        let mut blocks = Vec::new();
        while blocks.len() < blocks_per_segment {
            sn += 1;
            let time_ms = sn * 100;
            let payload = signal_payload(sn, time_ms, "v_actual", SignalValue::U16(sn as u16));
            if let Some(block) = builder.push(
                LoggedRequest {
                    sn,
                    origin: sn % 4,
                    payload,
                },
                time_ms,
            ) {
                blocks.push(block);
            }
        }
        let head = blocks.last().expect("nonempty").clone();
        segments.push(CertifiedSegment {
            train,
            base_height: base.height(),
            base_hash: base.hash(),
            blocks,
            proof: certify(pairs, sn, &head),
        });
        base = head;
    }
    segments
}
