//! Seedable pseudorandom generator.
//!
//! Protocol parties expand short seeds into long pseudorandom streams in
//! many places: IKNP column expansion, switching-network wire masks, garbled
//! circuit label generation, and dummy-tuple annotations. `Prg` wraps
//! `rand`'s `StdRng` (a ChaCha-based CSPRNG) behind a seed-from-`Block` API
//! so call sites read like the protocol descriptions ("expand seed k_i").

use crate::block::Block;
use crate::secret::{SecretBlock, Zeroize};
use crate::sha256::tagged_hash;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic pseudorandom stream keyed by a 128-bit seed.
pub struct Prg {
    rng: StdRng,
}

impl Prg {
    /// Derive a PRG from a 128-bit seed and a domain-separation tag.
    ///
    /// The tag prevents two protocol layers that happen to share a seed from
    /// producing correlated streams. The derived expansion key is zeroized
    /// before this function returns; prefer [`Prg::from_secret`] when the
    /// seed itself is secret-typed.
    pub fn from_seed(tag: &[u8], seed: Block) -> Prg {
        let mut key = tagged_hash(tag, &seed.to_bytes());
        let rng = StdRng::from_seed(key);
        key.zeroize();
        Prg { rng }
    }

    /// Derive a PRG from a secret-typed seed (base-OT keys, OT pads). The
    /// seed stays inside its [`SecretBlock`] wrapper — this is the one
    /// declassification point between the seed and the key schedule.
    pub fn from_secret(tag: &[u8], seed: &SecretBlock) -> Prg {
        Prg::from_seed(tag, seed.expose_block())
    }

    /// Next pseudorandom block.
    pub fn next_block(&mut self) -> Block {
        Block(self.rng.gen())
    }

    /// Next pseudorandom u64.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Fill `buf` with pseudorandom bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        self.rng.fill_bytes(buf);
    }

    /// Access the underlying `Rng` for APIs that want one.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed_and_tag() {
        let s = Block(42);
        let mut a = Prg::from_seed(b"t", s);
        let mut b = Prg::from_seed(b"t", s);
        assert_eq!(a.next_block(), b.next_block());
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn tag_separates_streams() {
        let s = Block(42);
        let mut a = Prg::from_seed(b"t1", s);
        let mut b = Prg::from_seed(b"t2", s);
        assert_ne!(a.next_block(), b.next_block());
    }

    #[test]
    fn seed_separates_streams() {
        let mut a = Prg::from_seed(b"t", Block(1));
        let mut b = Prg::from_seed(b"t", Block(2));
        assert_ne!(a.next_block(), b.next_block());
    }
}
