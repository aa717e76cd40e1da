use std::cell::Cell;
use std::fmt;

use sha2::{Digest as _, Sha256};
use zugchain_wire::{Decode, Encode, Reader, WireError, Writer};

/// A SHA-256 digest.
///
/// Digests chain blocks together (each block header stores the previous
/// block's digest) and identify requests, blocks, and checkpoints in
/// protocol messages.
///
/// # Examples
///
/// ```
/// use zugchain_crypto::Digest;
///
/// let d = Digest::of(b"event payload");
/// assert_eq!(d, Digest::of(b"event payload"));
/// assert_ne!(d, Digest::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest([u8; 32]);

impl Digest {
    /// The all-zero digest, used as the previous-hash of the genesis block.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Hashes `data` with SHA-256.
    pub fn of(data: &[u8]) -> Self {
        count_hashed(data.len());
        Digest(Sha256::digest(data).into())
    }

    /// Hashes the canonical encoding of `value`.
    pub fn of_encoded<T: Encode + ?Sized>(value: &T) -> Self {
        Self::of(&zugchain_wire::to_bytes(value))
    }

    /// Builds a digest over several byte slices, hashed in order.
    ///
    /// Each part is length-delimited internally, so `chain([a, b])` and
    /// `chain([ab])` differ even when the concatenated bytes are equal.
    pub fn chain<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> Self {
        let mut hasher = Sha256::new();
        for part in parts {
            count_hashed(8 + part.len());
            hasher.update((part.len() as u64).to_le_bytes());
            hasher.update(part);
        }
        Digest(hasher.finalize().into())
    }

    /// The raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Constructs a digest from raw bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }

    /// A short hex prefix for human-readable logs.
    pub fn short(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

thread_local! {
    static BYTES_HASHED: Cell<u64> = const { Cell::new(0) };
}

fn count_hashed(bytes: usize) {
    BYTES_HASHED.with(|total| total.set(total.get() + bytes as u64));
}

/// Bytes fed to SHA-256 through [`Digest::of`] and [`Digest::chain`] on
/// the calling thread since it started (the 8-byte length prefix of each
/// chained part included).
///
/// An exact, shim-independent operation count: the difference between
/// two readings is the hashing work done in between, deterministic for
/// a deterministic single-threaded run.
///
/// ```
/// use zugchain_crypto::{bytes_hashed, Digest};
///
/// let before = bytes_hashed();
/// Digest::of(&[0u8; 1024]);
/// assert_eq!(bytes_hashed() - before, 1024);
/// ```
pub fn bytes_hashed() -> u64 {
    BYTES_HASHED.with(Cell::get)
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", self.short())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for byte in &self.0 {
            write!(f, "{byte:02x}")?;
        }
        Ok(())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

impl Encode for Digest {
    fn encode(&self, w: &mut Writer) {
        w.write_raw(&self.0);
    }

    fn encoded_len(&self) -> usize {
        32
    }
}

impl Decode for Digest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Digest(<[u8; 32]>::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_known_vector() {
        // SHA-256("abc") from FIPS 180-2.
        let d = Digest::of(b"abc");
        assert_eq!(
            d.to_string(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_empty_vector() {
        assert_eq!(
            Digest::of(b"").to_string(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn chain_is_length_delimited() {
        let a = Digest::chain([b"ab".as_slice(), b"c".as_slice()]);
        let b = Digest::chain([b"a".as_slice(), b"bc".as_slice()]);
        assert_ne!(a, b, "part boundaries must affect the digest");
    }

    #[test]
    fn wire_round_trip() {
        let d = Digest::of(b"block");
        let bytes = zugchain_wire::to_bytes(&d);
        assert_eq!(bytes.len(), 32);
        let back: Digest = zugchain_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn bytes_hashed_counts_every_input_byte() {
        let before = bytes_hashed();
        Digest::of(b"abc");
        Digest::of_encoded(&Digest::ZERO);
        Digest::chain([b"ab".as_slice(), b"".as_slice()]);
        assert_eq!(bytes_hashed() - before, 3 + 32 + (8 + 2) + 8);
    }

    #[test]
    fn bytes_hashed_is_per_thread() {
        let before = bytes_hashed();
        std::thread::spawn(|| Digest::of(&[0u8; 4096]))
            .join()
            .unwrap();
        assert_eq!(
            bytes_hashed(),
            before,
            "other threads' hashing is not counted"
        );
    }

    #[test]
    fn debug_is_short_and_nonempty() {
        let repr = format!("{:?}", Digest::ZERO);
        assert!(repr.starts_with("Digest(00000000"));
    }
}
