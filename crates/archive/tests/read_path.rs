//! The read path serves commitments derived once, from verified
//! segments, and hashes nothing itself.
//!
//! * block hashes in pages come from the chain linkage `Segment::verify`
//!   proved (the next block's `prev_hash`, or the segment's `head_hash`)
//!   and must equal `Block::hash()` on every kind of archive;
//! * audit bundles must be byte-identical to a reference that rebuilds
//!   the Merkle tree from the blocks with a plain level loop;
//! * exact `bytes_hashed()` counts pin the hashing work: none on page
//!   and bundle reads, one checksum in `.zab` framing, and one pass over
//!   each segment on ingest and on recovery.

mod common;

use std::fs;
use std::path::PathBuf;

use common::{certified_chain_sized, keys, QUORUM};
use zugchain_archive::{
    block_leaves, leaf_digest, Archive, AuditBundle, BlockInfo, MerklePath, MerkleStep,
};
use zugchain_crypto::{bytes_hashed, Digest};
use zugchain_export::CertifiedSegment;
use zugchain_wire::TrainId;

const TRAIN: TrainId = TrainId(5);

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zugchain-read-path-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Segments of 1, 2, 3, 5 and 4 blocks (2 requests per block), so pages
/// cross segment boundaries at odd offsets.
fn chain() -> (Vec<CertifiedSegment>, zugchain_crypto::Keystore) {
    let (pairs, keystore) = keys();
    (
        certified_chain_sized(TRAIN, &pairs, &[1, 2, 3, 5, 4]),
        keystore,
    )
}

fn ingested(
    dir: Option<&PathBuf>,
    keystore: &zugchain_crypto::Keystore,
    segments: &[CertifiedSegment],
) -> Archive {
    let keystore = keystore.clone();
    let mut archive = match dir {
        Some(dir) => {
            Archive::open_for_train(dir, TRAIN, keystore, QUORUM)
                .unwrap()
                .0
        }
        None => Archive::in_memory_for_train(TRAIN, keystore, QUORUM),
    };
    for certified in segments {
        archive.ingest(certified).unwrap();
    }
    archive
}

/// Every page, from every start sn and at every limit up to past the
/// head, summarizes exactly the blocks `Block::hash()` would.
fn assert_pages_hash_like_blocks(archive: &Archive, what: &str) {
    let head_sn = archive.head_sn().expect("nonempty archive");
    let blocks = archive.blocks().count();
    for from_sn in 1..=head_sn + 1 {
        for limit in 1..=blocks + 1 {
            for info in archive.page_by_sn(from_sn, limit) {
                let block = archive.block_at(info.height).expect("paged block exists");
                assert_eq!(info.hash, block.hash(), "{what}: height {}", info.height);
                assert_eq!(info, BlockInfo::of(block), "{what}: height {}", info.height);
            }
        }
    }
}

#[test]
fn page_hashes_equal_block_hashes_on_every_archive_kind() {
    let (segments, keystore) = chain();
    assert_pages_hash_like_blocks(&ingested(None, &keystore, &segments), "in-memory");

    let dir = tempdir("pages");
    let durable = ingested(Some(&dir), &keystore, &segments);
    assert_pages_hash_like_blocks(&durable, "durable");
    drop(durable);

    let (reopened, report) =
        Archive::open_for_train(&dir, TRAIN, keystore.clone(), QUORUM).unwrap();
    assert_eq!(report.segments_recovered, segments.len());
    assert_pages_hash_like_blocks(&reopened, "reopened");
    drop(reopened);

    // Tear the last segment file in half: recovery keeps the verified
    // prefix, and pages over it still hash like the blocks.
    let torn = dir.join(format!("seg-{:010}.zas", segments.len() - 1));
    let raw = fs::read(&torn).unwrap();
    fs::write(&torn, &raw[..raw.len() / 2]).unwrap();
    let (recovered, report) = Archive::open_for_train(&dir, TRAIN, keystore, QUORUM).unwrap();
    assert_eq!(report.segments_discarded, vec![segments.len() as u64 - 1]);
    assert_pages_hash_like_blocks(&recovered, "torn-tail-recovered");
    let _ = fs::remove_dir_all(&dir);
}

fn node(left: &Digest, right: &Digest) -> Digest {
    Digest::chain([
        [0x01u8].as_slice(),
        left.as_bytes().as_slice(),
        right.as_bytes().as_slice(),
    ])
}

/// The plain level loop: carries an unpaired node up unchanged and
/// records the sibling of `index` at each level. Returns the path and
/// the root.
fn reference_path(leaves: &[Digest], mut index: usize) -> (MerklePath, Digest) {
    let mut steps = Vec::new();
    let mut level = leaves.to_vec();
    while level.len() > 1 {
        let sibling = index ^ 1;
        if sibling < level.len() {
            steps.push(MerkleStep {
                sibling_is_left: sibling < index,
                sibling: level[sibling],
            });
        }
        level = level
            .chunks(2)
            .map(|pair| match pair {
                [left, right] => node(left, right),
                [lone] => *lone,
                _ => unreachable!(),
            })
            .collect();
        index /= 2;
    }
    (MerklePath { steps }, level[0])
}

fn reference_bundle(certified: &CertifiedSegment, index: usize) -> AuditBundle {
    let blocks = &certified.blocks;
    let (merkle_path, merkle_root) = reference_path(&block_leaves(TRAIN, blocks), index);
    AuditBundle {
        train: TRAIN,
        block_bytes: zugchain_wire::to_bytes(&blocks[index]),
        merkle_path,
        merkle_root,
        link_headers: blocks[index + 1..]
            .iter()
            .map(|b| b.header.clone())
            .collect(),
        proof: certified.proof.clone(),
    }
}

#[test]
fn bundles_match_the_reference_tree_at_every_size_and_index() {
    let (pairs, keystore) = keys();
    let sizes: Vec<usize> = (1..=33).collect();
    let segments = certified_chain_sized(TRAIN, &pairs, &sizes);
    let archive = ingested(None, &keystore, &segments);
    for certified in &segments {
        for (index, block) in certified.blocks.iter().enumerate() {
            let bundle = archive.audit_bundle(block.height()).expect("archived");
            let reference = reference_bundle(certified, index);
            assert_eq!(
                bundle.to_zab_bytes(),
                reference.to_zab_bytes(),
                "segment of {} blocks, index {index}",
                certified.blocks.len()
            );
            assert_eq!(bundle.verify(&keystore, QUORUM).unwrap(), *block);
            // The leaf the bundle proves is the one the blocks derive.
            let mut content = TRAIN.to_le_bytes().to_vec();
            content.extend_from_slice(&bundle.block_bytes);
            assert_eq!(
                bundle.merkle_path.root_for(leaf_digest(&content)),
                bundle.merkle_root
            );
        }
    }
}

/// Bytes hashed on this thread while `f` runs.
fn hashed<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = bytes_hashed();
    let out = f();
    (bytes_hashed() - before, out)
}

#[test]
fn pages_and_bundles_hash_nothing() {
    let (segments, keystore) = chain();
    let archive = ingested(None, &keystore, &segments);
    let head_sn = archive.head_sn().unwrap();
    let (bytes, pages) = hashed(|| {
        (1..=head_sn)
            .map(|sn| archive.page_by_sn(sn, Archive::MAX_PAGE_LIMIT).len())
            .sum::<usize>()
    });
    assert!(pages > 0);
    assert_eq!(bytes, 0, "page_by_sn hashed {bytes} bytes");

    for block in archive.blocks() {
        let (bytes, bundle) = hashed(|| archive.audit_bundle(block.height()));
        let bundle = bundle.expect("archived");
        assert_eq!(
            bytes,
            0,
            "audit_bundle({}) hashed {bytes} bytes",
            block.height()
        );
        let (bytes, _) = hashed(|| archive.bundle_by_sn(block.header.first_sn));
        assert_eq!(bytes, 0, "bundle_by_sn hashed {bytes} bytes");

        // `.zab` framing hashes its body exactly once (the checksum).
        let body = zugchain_wire::to_bytes(&bundle);
        let (bytes, zab) = hashed(|| bundle.to_zab_bytes());
        assert_eq!(bytes, body.len() as u64);
        assert_eq!(&zab[zab.len() - body.len()..], &body[..]);
    }
}

/// Bytes hashed by ingesting [`chain`] into an in-memory archive, one
/// pass over each segment: 3 375 checking the chains (payloads and
/// block hashes), 480 for the five head hashes, 3 750 for the 15 Merkle
/// leaves and 890 for the interior nodes. Building the segment and then
/// verifying it hashed the last three twice: 8 495 + 5 120 = 13 615.
const IN_MEMORY_INGEST_BYTES: u64 = 8_495;
/// Bytes hashed by ingesting [`chain`] into a fresh durable archive: the
/// in-memory pass plus one checksum over each segment file body
/// (5 785 bytes in all). The index summary, rewritten and checksummed
/// on open and after every ingest, added 726 more: 20 126.
const DURABLE_INGEST_BYTES: u64 = 14_280;
/// Bytes hashed by reopening that durable archive: the 5 785 bytes of
/// file checksums and a full `Segment::verify` of every segment
/// (8 495). The summary check read 241 more: 14 521.
const REOPEN_BYTES: u64 = 14_280;

#[test]
fn ingest_and_recovery_hash_a_fixed_number_of_bytes() {
    let (segments, keystore) = chain();
    let (in_memory, _) = hashed(|| ingested(None, &keystore, &segments));
    let dir = tempdir("counts");
    let (durable, _) = hashed(|| ingested(Some(&dir), &keystore, &segments));
    let (reopen, _) =
        hashed(|| Archive::open_for_train(&dir, TRAIN, keystore.clone(), QUORUM).unwrap());
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(in_memory, IN_MEMORY_INGEST_BYTES);
    assert_eq!(durable, DURABLE_INGEST_BYTES);
    assert_eq!(reopen, REOPEN_BYTES);
}
