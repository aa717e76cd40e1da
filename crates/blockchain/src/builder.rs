use zugchain_crypto::Digest;

use crate::{Block, ChainError, ChainStore, LoggedRequest};

/// Deterministically bundles ordered requests into blocks.
///
/// Replicas create a block "once a certain threshold of ordered requests
/// has been reached" (paper §III-C). Since all correct replicas feed the
/// builder the same totally ordered requests, all produce bit-identical
/// blocks. The evaluation uses a block size of 10 requests.
///
/// # Examples
///
/// ```
/// use zugchain_blockchain::{BlockBuilder, LoggedRequest};
///
/// let mut builder = BlockBuilder::new(3);
/// assert!(builder.push(LoggedRequest { sn: 1, origin: 0, payload: vec![1] }, 64).is_none());
/// assert!(builder.push(LoggedRequest { sn: 2, origin: 1, payload: vec![2] }, 128).is_none());
/// let block = builder.push(LoggedRequest { sn: 3, origin: 0, payload: vec![3] }, 192).unwrap();
/// assert_eq!(block.requests.len(), 3);
/// assert_eq!(block.height(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BlockBuilder {
    block_size: usize,
    pending: Vec<LoggedRequest>,
    next_height: u64,
    prev_hash: Digest,
}

impl BlockBuilder {
    /// Creates a builder chaining onto the genesis block.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(block_size: usize) -> Self {
        let genesis = Block::genesis();
        Self::resume(block_size, genesis.height(), genesis.hash())
    }

    /// Creates a builder that chains onto an existing block — used when a
    /// replica restarts from a pruned chain or a transferred checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn resume(block_size: usize, last_height: u64, last_hash: Digest) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self {
            block_size,
            pending: Vec::new(),
            next_height: last_height + 1,
            prev_hash: last_hash,
        }
    }

    /// The configured number of requests per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Requests buffered but not yet bundled into a block.
    pub fn pending(&self) -> &[LoggedRequest] {
        &self.pending
    }

    /// Appends the next ordered request; returns a finished block once
    /// `block_size` requests have accumulated.
    ///
    /// `time_ms` is the logical time of the decide, stamped into the block
    /// header when the block completes.
    ///
    /// # Panics
    ///
    /// Panics if `request.sn` is not greater than the last buffered
    /// sequence number — the BFT layer delivers in order.
    pub fn push(&mut self, request: LoggedRequest, time_ms: u64) -> Option<Block> {
        if let Some(last) = self.pending.last() {
            assert!(
                request.sn > last.sn,
                "decides must arrive in sequence order ({} after {})",
                request.sn,
                last.sn
            );
        }
        self.pending.push(request);
        if self.pending.len() < self.block_size {
            return None;
        }
        let requests = std::mem::take(&mut self.pending);
        let block = Block::next(self.next_height, self.prev_hash, requests, time_ms);
        self.next_height += 1;
        self.prev_hash = block.hash();
        Some(block)
    }

    /// [`push`](Self::push), appending a finished block to `store` and
    /// returning it as stored.
    ///
    /// The block's payload hash is computed once, when the block is
    /// sealed here; unlike [`ChainStore::append`] of an arbitrary block,
    /// the store does not hash the payloads a second time to check it.
    ///
    /// # Errors
    ///
    /// [`ChainError::WrongHeight`] or [`ChainError::DoesNotExtendHead`]
    /// if this builder does not chain onto `store`'s head; the builder
    /// has moved past the block either way.
    pub fn push_onto<'s>(
        &mut self,
        store: &'s mut ChainStore,
        request: LoggedRequest,
        time_ms: u64,
    ) -> Result<Option<&'s Block>, ChainError> {
        let Some(block) = self.push(request, time_ms) else {
            return Ok(None);
        };
        store.append_sealed(block)?;
        Ok(store.blocks().last())
    }

    /// Flushes buffered requests into a (possibly undersized) block.
    ///
    /// Used at shutdown or before an urgent export so that no ordered
    /// request stays outside the chain. Returns `None` if nothing is
    /// buffered.
    pub fn flush(&mut self, time_ms: u64) -> Option<Block> {
        if self.pending.is_empty() {
            return None;
        }
        let requests = std::mem::take(&mut self.pending);
        let block = Block::next(self.next_height, self.prev_hash, requests, time_ms);
        self.next_height += 1;
        self.prev_hash = block.hash();
        Some(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(sn: u64) -> LoggedRequest {
        LoggedRequest {
            sn,
            origin: sn % 4,
            payload: vec![sn as u8; 16],
        }
    }

    #[test]
    fn blocks_chain_correctly() {
        let mut builder = BlockBuilder::new(2);
        assert!(builder.push(req(1), 0).is_none());
        let b1 = builder
            .push(req(2), 64)
            .expect("second push completes the block");
        assert!(builder.push(req(3), 128).is_none());
        let b2 = builder.push(req(4), 192).expect("fourth push completes");
        assert_eq!(b1.height(), 1);
        assert_eq!(b2.height(), 2);
        assert_eq!(b2.header.prev_hash, b1.hash());
        assert_eq!(b1.header.prev_hash, Block::genesis().hash());
    }

    #[test]
    fn identical_input_gives_identical_blocks() {
        let run = || {
            let mut builder = BlockBuilder::new(3);
            let mut blocks = Vec::new();
            for sn in 1..=9 {
                if let Some(block) = builder.push(req(sn), sn * 64) {
                    blocks.push(block);
                }
            }
            blocks
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_eq!(
            a.iter().map(Block::hash).collect::<Vec<_>>(),
            b.iter().map(Block::hash).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "sequence order")]
    fn out_of_order_decide_panics() {
        let mut builder = BlockBuilder::new(10);
        builder.push(req(5), 0);
        builder.push(req(4), 0);
    }

    #[test]
    fn flush_produces_undersized_block() {
        let mut builder = BlockBuilder::new(10);
        builder.push(req(1), 0);
        builder.push(req(2), 64);
        let block = builder.flush(100).expect("pending requests flush");
        assert_eq!(block.requests.len(), 2);
        assert!(builder.flush(200).is_none());
    }

    #[test]
    fn push_onto_stores_the_same_blocks_as_push_then_append() {
        let mut via_push = BlockBuilder::new(2);
        let mut appended = ChainStore::new();
        let mut via_push_onto = BlockBuilder::new(2);
        let mut stored = ChainStore::new();
        for sn in 1..=5 {
            let pushed = via_push.push(req(sn), sn * 64);
            if let Some(block) = pushed.clone() {
                appended.append(block).unwrap();
            }
            let stored_block = via_push_onto
                .push_onto(&mut stored, req(sn), sn * 64)
                .unwrap();
            assert_eq!(stored_block, pushed.as_ref(), "sn {sn}");
        }
        assert_eq!(stored.blocks(), appended.blocks());
        assert_eq!(stored.resident_bytes(), appended.resident_bytes());
    }

    #[test]
    fn push_onto_a_foreign_head_is_refused() {
        let mut builder = BlockBuilder::new(1);
        let mut store = ChainStore::new();
        builder.push_onto(&mut store, req(1), 0).unwrap();
        let mut stale = BlockBuilder::new(1);
        assert!(matches!(
            stale.push_onto(&mut store, req(2), 64),
            Err(ChainError::WrongHeight { .. })
        ));
        assert_eq!(store.height(), 1);
    }

    #[test]
    fn resume_continues_a_pruned_chain() {
        let mut first = BlockBuilder::new(1);
        let b1 = first.push(req(1), 0).unwrap();
        let mut resumed = BlockBuilder::resume(1, b1.height(), b1.hash());
        let b2 = resumed.push(req(2), 64).unwrap();
        assert_eq!(b2.height(), 2);
        assert_eq!(b2.header.prev_hash, b1.hash());
    }
}
