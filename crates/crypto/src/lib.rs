//! Cryptographic primitives for ZugChain.
//!
//! All ZugChain nodes and data centers hold an Ed25519 key pair; every
//! protocol message (ordering, checkpoint, view change, export) is signed,
//! and blocks are chained by SHA-256 digests. The paper uses `ring`; this
//! reproduction uses the equivalent pure-Rust `ed25519-dalek` and `sha2`
//! (see `DESIGN.md` §3).
//!
//! # Examples
//!
//! ```
//! use zugchain_crypto::{Digest, KeyPair};
//!
//! let key = KeyPair::from_seed(7);
//! let payload = b"speed=142.5 km/h";
//! let signature = key.sign(payload);
//! assert!(key.public_key().verify(payload, &signature).is_ok());
//!
//! let digest = Digest::of(payload);
//! assert_ne!(digest, Digest::of(b"speed=0.0 km/h"));
//! ```

#![warn(missing_docs)]

mod batch;
mod digest;
mod keys;
mod keystore;
mod mac;

pub use batch::{verify_batch, BatchItem, BatchOutcome, BatchVerifier};
pub use digest::{bytes_hashed, Digest};
pub use keys::{KeyPair, PublicKey, Signature, SignatureError};
pub use keystore::Keystore;
pub use mac::{MacKey, MacTag, SessionKeys};
