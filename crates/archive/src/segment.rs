//! Checkpoint-certified block segments — the archive's unit of storage.
//!
//! The export protocol hands the data center contiguous runs of blocks
//! covered by a stable-checkpoint certificate ([`CertifiedSegment`]).
//! The archive re-verifies each run and persists it as a [`Segment`]:
//! the blocks, the 2f+1 certificate that makes them juridically binding,
//! and a header of derived commitments (chain endpoints, Merkle root,
//! time bounds) that the indexes and audit bundles are built from.
//! `Segment::verify` recomputes every derived field, so a segment read
//! back from disk is trusted only after it passes the same checks as one
//! arriving fresh from the export path.

use std::fmt;

use zugchain_blockchain::{verify_chain, Block, ChainViolation};
use zugchain_crypto::{Digest, Keystore};
use zugchain_export::CertifiedSegment;
use zugchain_pbft::CheckpointProof;
use zugchain_wire::{decode_seq, encode_seq, Decode, Encode, Reader, TrainId, WireError, Writer};

use crate::merkle::{leaf_digest, MerkleTree};

/// Derived commitments over one segment's blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Origin train of the blocks. Bound into every Merkle leaf (see
    /// [`block_leaves`]), so a relabeled segment fails `merkle_root`
    /// verification rather than silently landing in another train's
    /// shard.
    pub train: TrainId,
    /// Position of this segment in the archive's append-only sequence.
    pub seq: u64,
    /// Height of the last block *before* this segment (0 for genesis).
    pub base_height: u64,
    /// Hash the first block's `prev_hash` must equal.
    pub base_hash: Digest,
    /// Height of the first block in the segment.
    pub first_height: u64,
    /// Height of the last block in the segment.
    pub last_height: u64,
    /// Hash of the last block — what the checkpoint certificate covers.
    pub head_hash: Digest,
    /// Merkle root over the canonical encodings of the blocks.
    pub merkle_root: Digest,
    /// Earliest block timestamp in the segment (milliseconds).
    pub min_time_ms: u64,
    /// Latest block timestamp in the segment (milliseconds).
    pub max_time_ms: u64,
}

impl Encode for SegmentHeader {
    fn encode(&self, w: &mut Writer) {
        self.train.encode(w);
        w.write_u64(self.seq);
        w.write_u64(self.base_height);
        self.base_hash.encode(w);
        w.write_u64(self.first_height);
        w.write_u64(self.last_height);
        self.head_hash.encode(w);
        self.merkle_root.encode(w);
        w.write_u64(self.min_time_ms);
        w.write_u64(self.max_time_ms);
    }
}

impl Decode for SegmentHeader {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SegmentHeader {
            train: TrainId::decode(r)?,
            seq: r.read_u64()?,
            base_height: r.read_u64()?,
            base_hash: Digest::decode(r)?,
            first_height: r.read_u64()?,
            last_height: r.read_u64()?,
            head_hash: Digest::decode(r)?,
            merkle_root: Digest::decode(r)?,
            min_time_ms: r.read_u64()?,
            max_time_ms: r.read_u64()?,
        })
    }
}

/// One archived segment: header commitments, the blocks themselves, and
/// the checkpoint certificate binding them to 2f+1 replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Derived commitments; re-checked against the blocks on every verify.
    pub header: SegmentHeader,
    /// The contiguous block run, lowest height first.
    pub blocks: Vec<Block>,
    /// Stable-checkpoint certificate whose `state_digest` is `head_hash`.
    pub proof: CheckpointProof,
}

/// Why a segment failed verification or ingestion.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SegmentViolation {
    /// The segment contains no blocks.
    Empty,
    /// The chain inside the segment is inconsistent.
    Chain(ChainViolation),
    /// The first block's height does not follow the declared base.
    BaseHeightGap {
        /// `base_height` from the header.
        base_height: u64,
        /// Height actually found on the first block.
        first_height: u64,
    },
    /// A header field disagrees with what the blocks derive to.
    HeaderMismatch {
        /// Name of the inconsistent field.
        field: &'static str,
    },
    /// The checkpoint certificate does not cover the segment head.
    CertifiesWrongHead {
        /// Hash of the last block in the segment.
        head_hash: Digest,
        /// `state_digest` the certificate actually covers.
        certified: Digest,
    },
    /// The certificate lacks a quorum of valid replica signatures.
    BadCertificate,
}

impl fmt::Display for SegmentViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentViolation::Empty => write!(f, "segment contains no blocks"),
            SegmentViolation::Chain(v) => write!(f, "segment chain invalid: {v}"),
            SegmentViolation::BaseHeightGap {
                base_height,
                first_height,
            } => write!(
                f,
                "first block height {first_height} does not follow base height {base_height}"
            ),
            SegmentViolation::HeaderMismatch { field } => {
                write!(f, "segment header field `{field}` does not match blocks")
            }
            SegmentViolation::CertifiesWrongHead {
                head_hash,
                certified,
            } => write!(
                f,
                "certificate covers {} but segment head is {}",
                certified.short(),
                head_hash.short()
            ),
            SegmentViolation::BadCertificate => {
                write!(f, "checkpoint certificate lacks a valid signature quorum")
            }
        }
    }
}

impl std::error::Error for SegmentViolation {}

impl From<ChainViolation> for SegmentViolation {
    fn from(v: ChainViolation) -> Self {
        SegmentViolation::Chain(v)
    }
}

/// Computes the Merkle leaf digests for a run of blocks belonging to
/// `train`. Each leaf covers the train id (8 bytes little-endian)
/// followed by the canonical block encoding, under the leaf domain
/// prefix — so the same blocks committed for two different trains
/// produce different roots, and a train id cannot be swapped after the
/// fact without breaking every inclusion proof.
pub fn block_leaves(train: TrainId, blocks: &[Block]) -> Vec<Digest> {
    blocks
        .iter()
        .map(|b| {
            let encoded = zugchain_wire::to_bytes(b);
            let mut content = Vec::with_capacity(8 + encoded.len());
            content.extend_from_slice(&train.to_le_bytes());
            content.extend_from_slice(&encoded);
            leaf_digest(&content)
        })
        .collect()
}

impl SegmentHeader {
    /// Derives the header of a nonempty block run from its identity and
    /// base, given the head hash and Merkle tree already computed from
    /// `blocks`.
    fn derive(
        train: TrainId,
        seq: u64,
        base_height: u64,
        base_hash: Digest,
        blocks: &[Block],
        head_hash: Digest,
        tree: &MerkleTree,
    ) -> Self {
        let times = blocks.iter().map(|b| b.header.time_ms);
        SegmentHeader {
            train,
            seq,
            base_height,
            base_hash,
            first_height: blocks.first().expect("nonempty").height(),
            last_height: blocks.last().expect("nonempty").height(),
            head_hash,
            merkle_root: tree.root(),
            min_time_ms: times.clone().min().expect("nonempty"),
            max_time_ms: times.max().expect("nonempty"),
        }
    }
}

/// Checks that `proof` is a quorum certificate over `head_hash`.
fn check_certificate(
    proof: &CheckpointProof,
    head_hash: Digest,
    keystore: &Keystore,
    quorum: usize,
) -> Result<(), SegmentViolation> {
    if proof.checkpoint.state_digest != head_hash {
        return Err(SegmentViolation::CertifiesWrongHead {
            head_hash,
            certified: proof.checkpoint.state_digest,
        });
    }
    if !proof.verify(keystore, quorum) {
        return Err(SegmentViolation::BadCertificate);
    }
    Ok(())
}

/// Checks that `blocks` is a nonempty chain extending `(base_height,
/// base_hash)`, returning its last block's hash.
fn check_chain(
    blocks: &[Block],
    base_height: u64,
    base_hash: Digest,
) -> Result<Digest, SegmentViolation> {
    let first = blocks.first().ok_or(SegmentViolation::Empty)?;
    if first.height() != base_height + 1 {
        return Err(SegmentViolation::BaseHeightGap {
            base_height,
            first_height: first.height(),
        });
    }
    verify_chain(blocks, Some(base_hash))?;
    Ok(blocks.last().expect("nonempty").hash())
}

impl Segment {
    /// Builds a segment at archive position `seq` from a certified run of
    /// blocks, computing all derived header fields.
    ///
    /// # Errors
    ///
    /// Returns [`SegmentViolation::Empty`] if the run has no blocks; all
    /// other invariants are checked by [`Segment::verify`].
    pub fn build(seq: u64, certified: &CertifiedSegment) -> Result<Self, SegmentViolation> {
        let last = certified.blocks.last().ok_or(SegmentViolation::Empty)?;
        let tree = MerkleTree::new(block_leaves(certified.train, &certified.blocks));
        Ok(Self::assemble(seq, certified, last.hash(), &tree))
    }

    /// Verifies a certified run of blocks and builds its segment in one
    /// pass: the chain against the declared base, then the certificate
    /// against the head, and only then the Merkle tree, once. The header
    /// is derived from blocks that passed those checks, so there is
    /// nothing left for [`Segment::verify`] to compare; the result equals
    /// [`Segment::build`] and fails with the error `build` followed by
    /// `verify` would give.
    pub(crate) fn seal(
        seq: u64,
        certified: &CertifiedSegment,
        keystore: &Keystore,
        quorum: usize,
    ) -> Result<(Self, MerkleTree), SegmentViolation> {
        let blocks = &certified.blocks;
        let head_hash = check_chain(blocks, certified.base_height, certified.base_hash)?;
        check_certificate(&certified.proof, head_hash, keystore, quorum)?;
        let tree = MerkleTree::new(block_leaves(certified.train, blocks));
        Ok((Self::assemble(seq, certified, head_hash, &tree), tree))
    }

    fn assemble(
        seq: u64,
        certified: &CertifiedSegment,
        head_hash: Digest,
        tree: &MerkleTree,
    ) -> Self {
        Segment {
            header: SegmentHeader::derive(
                certified.train,
                seq,
                certified.base_height,
                certified.base_hash,
                &certified.blocks,
                head_hash,
                tree,
            ),
            blocks: certified.blocks.clone(),
            proof: certified.proof.clone(),
        }
    }

    /// Fully re-verifies the segment: chain consistency against the
    /// declared base, every derived header field, and the checkpoint
    /// certificate (quorum signatures *and* that it covers the head).
    ///
    /// # Errors
    ///
    /// The first [`SegmentViolation`] found.
    pub fn verify(&self, keystore: &Keystore, quorum: usize) -> Result<(), SegmentViolation> {
        self.verified_tree(keystore, quorum).map(drop)
    }

    /// [`Segment::verify`], returning the Merkle tree it rebuilt from the
    /// blocks to check `merkle_root`. The archive keeps this tree so that
    /// audit bundles read their inclusion paths instead of re-hashing
    /// the segment; it is derived only from blocks that passed every
    /// check, never from the decoded header.
    pub(crate) fn verified_tree(
        &self,
        keystore: &Keystore,
        quorum: usize,
    ) -> Result<MerkleTree, SegmentViolation> {
        let h = &self.header;
        let head_hash = check_chain(&self.blocks, h.base_height, h.base_hash)?;
        let tree = MerkleTree::new(block_leaves(h.train, &self.blocks));
        let derived = SegmentHeader::derive(
            h.train,
            h.seq,
            h.base_height,
            h.base_hash,
            &self.blocks,
            head_hash,
            &tree,
        );
        let fields = [
            ("first_height", h.first_height == derived.first_height),
            ("last_height", h.last_height == derived.last_height),
            ("head_hash", h.head_hash == derived.head_hash),
            ("merkle_root", h.merkle_root == derived.merkle_root),
            ("min_time_ms", h.min_time_ms == derived.min_time_ms),
            ("max_time_ms", h.max_time_ms == derived.max_time_ms),
        ];
        if let Some(&(field, _)) = fields.iter().find(|(_, matches)| !matches) {
            return Err(SegmentViolation::HeaderMismatch { field });
        }
        check_certificate(&self.proof, h.head_hash, keystore, quorum)?;
        Ok(tree)
    }
}

impl Encode for Segment {
    fn encode(&self, w: &mut Writer) {
        self.header.encode(w);
        encode_seq(&self.blocks, w);
        self.proof.encode(w);
    }
}

impl Decode for Segment {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Segment {
            header: SegmentHeader::decode(r)?,
            blocks: decode_seq(r)?,
            proof: CheckpointProof::decode(r)?,
        })
    }
}
