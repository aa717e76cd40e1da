//! Ingest verifies each certified segment in one pass: the chain, the
//! head certificate, then one Merkle tree from which the header is
//! derived. These properties pin that pass to what building a segment
//! and then fully verifying it produced:
//!
//! * the sealed segment is byte-identical to [`Segment::build`] — the
//!   file on disk is `magic ‖ digest ‖ build` and every audit bundle
//!   proves against `merkle_root(&block_leaves(..))`;
//! * every class of bad segment is refused with the same [`IngestError`]
//!   as the build-then-verify order gives.

mod common;

use std::fs;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use zugchain_archive::{
    block_leaves, merkle_root, Archive, IngestError, Segment, SegmentViolation, SEGMENT_MAGIC,
};
use zugchain_blockchain::ChainViolation;
use zugchain_crypto::{Digest, Keystore};
use zugchain_export::CertifiedSegment;
use zugchain_wire::TrainId;

use common::{certified_chain_for_train, certified_chain_sized, keys, QUORUM};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sealed_segments_equal_built_segments(
        train in any::<u64>(),
        n_segments in 1usize..4,
        blocks_per_segment in 1usize..6,
    ) {
        let train = TrainId(train);
        let (pairs, keystore) = keys();
        let segments = certified_chain_for_train(train, &pairs, n_segments, blocks_per_segment);
        let dir = std::env::temp_dir().join(format!(
            "zugchain-seal-{}-{}-{n_segments}-{blocks_per_segment}",
            train.0,
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let (mut archive, _) = Archive::open_for_train(&dir, train, keystore, QUORUM)
            .map_err(|e| TestCaseError::fail(format!("open: {e}")))?;
        for (seq, certified) in segments.iter().enumerate() {
            archive
                .ingest(certified)
                .map_err(|e| TestCaseError::fail(format!("ingest: {e}")))?;
            let built = Segment::build(seq as u64, certified)
                .map_err(|e| TestCaseError::fail(format!("build: {e}")))?;
            let body = zugchain_wire::to_bytes(&built);
            let file = fs::read(dir.join(format!("seg-{seq:010}.zas")))
                .map_err(|e| TestCaseError::fail(format!("read: {e}")))?;
            prop_assert_eq!(&file[..4], SEGMENT_MAGIC.as_slice());
            let digest = Digest::of(&body);
            prop_assert_eq!(&file[4..36], digest.as_bytes().as_slice());
            prop_assert!(file[36..] == body[..], "segment {} differs from build", seq);

            let root = merkle_root(&block_leaves(train, &certified.blocks));
            prop_assert_eq!(built.header.merkle_root, root);
            for block in &certified.blocks {
                let bundle = archive.audit_bundle(block.height()).expect("archived");
                prop_assert_eq!(bundle.merkle_root, root);
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn refusals_match_build_then_verify(
        sizes in proptest::collection::vec(2usize..5, 1..4),
        at in any::<usize>(),
        block in any::<usize>(),
        first in 0usize..Mutation::ALL.len(),
        second in 0usize..Mutation::ALL.len(),
    ) {
        let (pairs, keystore) = keys();
        let segments = certified_chain_sized(TrainId::DEFAULT, &pairs, &sizes);
        let at = at % segments.len();
        // Every class alone must be refused as intended; two at once
        // must be refused like build-then-verify, which pins the order
        // of the checks.
        let pair = [Mutation::ALL[first], Mutation::ALL[second]];
        for mutations in Mutation::ALL.iter().map(std::slice::from_ref).chain([&pair[..]]) {
            let (prefix, bad) = Mutation::case(mutations, &segments, at, block, &pairs);
            let mut archive = Archive::in_memory(keystore.clone(), QUORUM);
            for certified in prefix {
                archive
                    .ingest(certified)
                    .map_err(|e| TestCaseError::fail(format!("prefix ingest: {e}")))?;
            }
            let expected = build_then_verify(&archive, &bad, &keystore);
            let got = archive.ingest(&bad);
            prop_assert_eq!(&got, &expected, "{:?}", mutations);
            let refused = got.expect_err("mutated segment refused");
            if let [mutation] = mutations {
                prop_assert!(mutation.refuses_with(&refused), "{:?}: {:?}", mutation, refused);
            }
            prop_assert_eq!(archive.segment_count(), prefix.len());
        }
    }
}

/// The reference ingest: train and contiguity checks, then
/// `Segment::build` followed by a full `Segment::verify`.
fn build_then_verify(
    archive: &Archive,
    certified: &CertifiedSegment,
    keystore: &Keystore,
) -> Result<u64, IngestError> {
    if certified.train != archive.train() {
        return Err(IngestError::TrainMismatch {
            expected: archive.train(),
            got: certified.train,
        });
    }
    if let Some((expected_height, expected_hash)) = archive.head() {
        if certified.base_height != expected_height || certified.base_hash != expected_hash {
            return Err(IngestError::NotContiguous {
                expected_height,
                expected_hash,
                got_height: certified.base_height,
                got_hash: certified.base_hash,
            });
        }
    }
    let seq = archive.segment_count() as u64;
    Segment::build(seq, certified)?.verify(keystore, QUORUM)?;
    Ok(seq)
}

/// One way a certified segment can be bad.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Empty,
    BaseHeightGap,
    WrongBaseHash,
    BrokenLink,
    TamperedPayload,
    HeadNotCertified,
    ForgedSignature,
    BelowQuorum,
    WrongTrain,
    NotContiguous,
}

impl Mutation {
    const ALL: [Mutation; 10] = [
        Mutation::Empty,
        Mutation::BaseHeightGap,
        Mutation::WrongBaseHash,
        Mutation::BrokenLink,
        Mutation::TamperedPayload,
        Mutation::HeadNotCertified,
        Mutation::ForgedSignature,
        Mutation::BelowQuorum,
        Mutation::WrongTrain,
        Mutation::NotContiguous,
    ];

    /// The segments to ingest first and the bad segment offered after
    /// them: `segments[at]` with every mutation applied, or a replay of
    /// an archived segment if one of them is [`Mutation::NotContiguous`].
    fn case<'a>(
        mutations: &[Mutation],
        segments: &'a [CertifiedSegment],
        at: usize,
        block: usize,
        pairs: &[zugchain_crypto::KeyPair],
    ) -> (&'a [CertifiedSegment], CertifiedSegment) {
        let (prefix, mut bad) = if mutations
            .iter()
            .any(|m| matches!(m, Mutation::NotContiguous))
        {
            (&segments[..at.max(1)], segments[at.max(1) - 1].clone())
        } else {
            (&segments[..at], segments[at].clone())
        };
        for mutation in mutations {
            mutation.mutate(&mut bad, block, pairs);
        }
        (prefix, bad)
    }

    /// Breaks `bad` this way (`block` picks the block to break).
    fn mutate(self, bad: &mut CertifiedSegment, block: usize, pairs: &[zugchain_crypto::KeyPair]) {
        let blocks = bad.blocks.len();
        let forged_digest = Digest::of(b"not the head");
        match self {
            Mutation::Empty => bad.blocks.clear(),
            Mutation::HeadNotCertified => bad.proof.checkpoint.state_digest = forged_digest,
            Mutation::ForgedSignature => {
                // Two of four signers sign something else: two valid
                // signatures remain, one short of the quorum of three.
                for (signer, signature) in bad.proof.signatures.iter_mut().take(2) {
                    *signature = pairs[signer.0 as usize].sign(b"not the checkpoint");
                }
            }
            Mutation::BelowQuorum => bad.proof.signatures.truncate(QUORUM - 1),
            Mutation::WrongTrain => bad.train = TrainId(bad.train.0 + 1),
            // Applied by `case`, which offers a replay.
            Mutation::NotContiguous => {}
            // Paired with `Empty`, there is no block left to break.
            _ if blocks == 0 => {}
            Mutation::BaseHeightGap => bad.blocks[0].header.height += 1,
            Mutation::WrongBaseHash => bad.blocks[0].header.prev_hash = forged_digest,
            Mutation::BrokenLink => {
                bad.blocks[1 + block % (blocks - 1)].header.prev_hash = forged_digest;
            }
            Mutation::TamperedPayload => {
                bad.blocks[block % blocks].requests[0].payload[0] ^= 0x01;
            }
        }
    }

    /// Whether `error` is the refusal this mutation must cause.
    fn refuses_with(self, error: &IngestError) -> bool {
        use SegmentViolation as V;
        match (self, error) {
            (Mutation::Empty, IngestError::Invalid(V::Empty)) => true,
            (Mutation::BaseHeightGap, IngestError::Invalid(V::BaseHeightGap { .. })) => true,
            (Mutation::WrongBaseHash, IngestError::Invalid(V::Chain(v))) => {
                matches!(v, ChainViolation::WrongBase { .. })
            }
            (Mutation::BrokenLink, IngestError::Invalid(V::Chain(v))) => {
                matches!(v, ChainViolation::BrokenLink { .. })
            }
            (Mutation::TamperedPayload, IngestError::Invalid(V::Chain(v))) => {
                matches!(v, ChainViolation::PayloadMismatch { .. })
            }
            (Mutation::HeadNotCertified, IngestError::Invalid(V::CertifiesWrongHead { .. })) => {
                true
            }
            (
                Mutation::ForgedSignature | Mutation::BelowQuorum,
                IngestError::Invalid(V::BadCertificate),
            ) => true,
            (Mutation::WrongTrain, IngestError::TrainMismatch { .. }) => true,
            (Mutation::NotContiguous, IngestError::NotContiguous { .. }) => true,
            _ => false,
        }
    }
}
