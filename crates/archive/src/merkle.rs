//! Binary Merkle tree over segment blocks.
//!
//! Each archived segment commits to its blocks with a Merkle root so the
//! archive can hand out compact per-block inclusion proofs inside
//! [`AuditBundle`](crate::AuditBundle)s. The construction is the
//! RFC 6962 style: leaves and interior nodes are hashed under distinct
//! domain-separation prefixes (so an interior node can never be passed
//! off as a leaf), and an unpaired node at the end of a level is carried
//! up unchanged rather than duplicated (duplication admits the classic
//! CVE-2012-2459 ambiguity between `[..., x]` and `[..., x, x]`).

use zugchain_crypto::Digest;
use zugchain_wire::{decode_seq, encode_seq, Decode, Encode, Reader, WireError, Writer};

/// Domain-separation prefix for leaf hashes.
const LEAF_PREFIX: &[u8] = &[0x00];
/// Domain-separation prefix for interior-node hashes.
const NODE_PREFIX: &[u8] = &[0x01];

/// Hashes one leaf's content bytes.
pub fn leaf_digest(content: &[u8]) -> Digest {
    Digest::chain([LEAF_PREFIX, content])
}

fn node_digest(left: &Digest, right: &Digest) -> Digest {
    Digest::chain([
        NODE_PREFIX,
        left.as_bytes().as_slice(),
        right.as_bytes().as_slice(),
    ])
}

/// Computes the Merkle root over already-hashed leaves.
///
/// The root of an empty leaf set is defined as [`Digest::ZERO`]; archived
/// segments are never empty, so this case only arises in codec tests.
pub fn merkle_root(leaves: &[Digest]) -> Digest {
    MerkleTree::new(leaves.to_vec()).root()
}

/// Every level of one Merkle tree, leaves first and the root last —
/// what the archive keeps per verified segment so that inclusion paths
/// are read out rather than re-hashed.
#[derive(Debug)]
pub(crate) struct MerkleTree {
    levels: Vec<Vec<Digest>>,
}

impl MerkleTree {
    /// Builds every level above `leaves`, hashing each interior node
    /// once: pairs are combined left to right, and an unpaired last node
    /// is carried up unchanged.
    pub(crate) fn new(leaves: Vec<Digest>) -> Self {
        let mut levels = vec![leaves];
        while let Some(level) = levels.last().filter(|level| level.len() > 1) {
            let next = level
                .chunks(2)
                .map(|pair| match pair {
                    [left, right] => node_digest(left, right),
                    [lone] => *lone,
                    _ => unreachable!("chunks(2) yields 1- or 2-element slices"),
                })
                .collect();
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The root, or [`Digest::ZERO`] for a tree without leaves.
    pub(crate) fn root(&self) -> Digest {
        self.levels
            .last()
            .and_then(|level| level.first())
            .copied()
            .unwrap_or(Digest::ZERO)
    }

    /// The inclusion path of leaf `leaf_index`, read from the kept
    /// levels (no hashing).
    ///
    /// # Panics
    ///
    /// Panics if `leaf_index` is out of bounds.
    pub(crate) fn path(&self, leaf_index: usize) -> MerklePath {
        assert!(
            leaf_index < self.levels[0].len(),
            "leaf index within segment"
        );
        let mut index = leaf_index;
        let steps = self.levels[..self.levels.len() - 1]
            .iter()
            .filter_map(|level| {
                let sibling_index = index ^ 1;
                let step = level.get(sibling_index).map(|&sibling| MerkleStep {
                    sibling_is_left: sibling_index < index,
                    sibling,
                });
                index /= 2;
                step
            })
            .collect();
        MerklePath { steps }
    }
}

/// One step of a Merkle inclusion path: the sibling digest and which side
/// it sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MerkleStep {
    /// `true` if the sibling is the *left* input of the parent hash.
    pub sibling_is_left: bool,
    /// The sibling digest.
    pub sibling: Digest,
}

impl Encode for MerkleStep {
    fn encode(&self, w: &mut Writer) {
        self.sibling_is_left.encode(w);
        self.sibling.encode(w);
    }
}

impl Decode for MerkleStep {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(MerkleStep {
            sibling_is_left: bool::decode(r)?,
            sibling: Digest::decode(r)?,
        })
    }
}

/// A Merkle inclusion path from one leaf to the root.
///
/// Levels where the node was carried up unpaired contribute no step, so
/// the path length is at most ⌈log₂ n⌉.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MerklePath {
    /// Steps from the leaf level upward.
    pub steps: Vec<MerkleStep>,
}

impl MerklePath {
    /// Builds the inclusion path for `leaf_index` over `leaves`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_index` is out of bounds — callers index into their
    /// own segment.
    pub fn build(leaves: &[Digest], leaf_index: usize) -> Self {
        MerkleTree::new(leaves.to_vec()).path(leaf_index)
    }

    /// Recomputes the root this path proves for `leaf`.
    pub fn root_for(&self, leaf: Digest) -> Digest {
        let mut current = leaf;
        for step in &self.steps {
            current = if step.sibling_is_left {
                node_digest(&step.sibling, &current)
            } else {
                node_digest(&current, &step.sibling)
            };
        }
        current
    }
}

impl Encode for MerklePath {
    fn encode(&self, w: &mut Writer) {
        encode_seq(&self.steps, w);
    }
}

impl Decode for MerklePath {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(MerklePath {
            steps: decode_seq(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n).map(|i| leaf_digest(&[i as u8; 8])).collect()
    }

    #[test]
    fn every_leaf_proves_inclusion() {
        for n in 1..=17 {
            let leaves = leaves(n);
            let root = merkle_root(&leaves);
            for (i, leaf) in leaves.iter().enumerate() {
                let path = MerklePath::build(&leaves, i);
                assert_eq!(path.root_for(*leaf), root, "leaf {i} of {n}");
            }
        }
    }

    #[test]
    fn wrong_leaf_fails_inclusion() {
        let leaves = leaves(9);
        let root = merkle_root(&leaves);
        let path = MerklePath::build(&leaves, 4);
        assert_ne!(path.root_for(leaves[5]), root);
        assert_ne!(path.root_for(leaf_digest(b"forged")), root);
    }

    #[test]
    fn leaf_and_node_domains_are_separated() {
        // An interior node's digest must differ from a leaf over the
        // same 64 bytes, or a two-leaf tree could be replayed as one leaf.
        let a = leaf_digest(&[1; 8]);
        let b = leaf_digest(&[2; 8]);
        let node = merkle_root(&[a, b]);
        let mut concat = Vec::new();
        concat.extend_from_slice(a.as_bytes());
        concat.extend_from_slice(b.as_bytes());
        assert_ne!(node, leaf_digest(&concat));
    }

    #[test]
    fn appending_a_duplicate_leaf_changes_the_root() {
        // The carry-up construction distinguishes [a, b, c] from
        // [a, b, c, c] — the ambiguity the duplicate-last scheme admits.
        let three = leaves(3);
        let mut four = three.clone();
        four.push(three[2]);
        assert_ne!(merkle_root(&three), merkle_root(&four));
    }

    #[test]
    fn empty_tree_has_zero_root() {
        assert_eq!(merkle_root(&[]), Digest::ZERO);
    }

    #[test]
    fn path_round_trips_on_the_wire() {
        let leaves = leaves(6);
        let path = MerklePath::build(&leaves, 3);
        let back: MerklePath = zugchain_wire::from_bytes(&zugchain_wire::to_bytes(&path)).unwrap();
        assert_eq!(back, path);
    }
}
