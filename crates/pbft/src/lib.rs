//! A sans-io implementation of Practical Byzantine Fault Tolerance (PBFT),
//! the agreement substrate of ZugChain.
//!
//! The paper (§II-C, §IV) builds ZugChain on a full PBFT implementation
//! comprising the ordering, checkpointing, and view-change subprotocols,
//! and — unusually — *exposes* primary election to the layer above via the
//! `SUSPECT` and `NEWPRIMARY` interfaces (Table I ①):
//!
//! | direction | call | meaning |
//! |---|---|---|
//! | down | [`Replica::propose`] | propose request to consensus group |
//! | down | [`Replica::suspect`] | suspect node, initiate view change |
//! | up | [`ReplicaEvent::Decide`] | totally ordered request and seq. no. |
//! | up | [`ReplicaEvent::NewPrimary`] | new primary after view change |
//!
//! The replica is a **pure state machine** implementing the shared
//! [`Machine`](zugchain_machine::Machine) contract of `zugchain-machine`:
//! it consumes inputs (protocol messages, timer expirations, proposals)
//! and emits [`ReplicaEffect`]s (send, broadcast, timers, and
//! [`ReplicaEvent`] up-calls). It performs no I/O and reads no clock, so
//! the same code runs under the deterministic simulator and the threaded
//! runtime, and every protocol path is unit-testable.
//!
//! All messages are Ed25519-signed and verified against the permissioned
//! [`Keystore`](zugchain_crypto::Keystore); n ≥ 3f+1 replicas tolerate up
//! to f Byzantine faults.
//!
//! # Examples
//!
//! Drive a 4-replica cluster through one consensus instance by hand:
//!
//! ```
//! use zugchain_crypto::Keystore;
//! use zugchain_machine::Effect;
//! use zugchain_pbft::{Config, NodeId, ProposedRequest, Replica, ReplicaEvent};
//!
//! let config = Config::new(4).unwrap();
//! let (pairs, keystore) = Keystore::generate(4, 0);
//! let mut replicas: Vec<Replica> = pairs
//!     .into_iter()
//!     .enumerate()
//!     .map(|(id, key)| Replica::new(NodeId(id as u64), config.clone(), key, keystore.clone()))
//!     .collect();
//!
//! // The primary of view 0 is node 0; propose a request there.
//! let request = ProposedRequest::application(b"cycle 0 events".to_vec(), NodeId(0));
//! replicas[0].propose(request);
//!
//! // Deliver every emitted message to every other replica until quiet.
//! let mut decided = 0;
//! loop {
//!     let mut traffic = Vec::new();
//!     for replica in &mut replicas {
//!         for effect in replica.drain_effects() {
//!             match effect {
//!                 Effect::Broadcast { message } => traffic.push(message),
//!                 Effect::Output(ReplicaEvent::Decide { .. }) => decided += 1,
//!                 _ => {}
//!             }
//!         }
//!     }
//!     if traffic.is_empty() { break; }
//!     for message in traffic {
//!         for replica in &mut replicas {
//!             replica.on_message(message.clone());
//!         }
//!     }
//! }
//! assert_eq!(decided, 4, "every replica decides the request");
//! ```

#![warn(missing_docs)]

mod config;
mod messages;
mod replica;
mod types;

pub use config::{AuthMode, CommMode, Config};
pub use messages::{
    Auth, AuthVerdict, Checkpoint, CheckpointProof, Commit, Message, NewView, PrePrepare, Prepare,
    PreparedCert, SignedMessage, ViewChange, VoteCert,
};
pub use replica::{Replica, ReplicaEffect, ReplicaEvent, ReplicaInput, ReplicaStats, ReplicaTimer};
pub use types::{
    DigestedRequest, NodeId, ProposedBatch, ProposedRequest, RequestKind, MAX_WIRE_BATCH_LEN,
};
