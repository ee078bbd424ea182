//! Seedable pseudorandom generator.
//!
//! OT extension expands each seed-OT key (a base-OT key for IKNP, an
//! IKNP output for KKRT) into one pseudorandom column per batch
//! (`secyan-ot`'s extension engine); that is the only stream this
//! workspace derives from a seed. `Prg` wraps `rand`'s `StdRng` (a
//! ChaCha-based CSPRNG) behind a seed-from-secret API so the call site
//! reads like the protocol description ("expand seed k_i").

use crate::secret::{SecretBlock, Zeroize};
use crate::sha256::tagged_hash;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A deterministic pseudorandom stream keyed by a 128-bit seed.
pub struct Prg {
    rng: StdRng,
}

impl Prg {
    /// Derive a PRG from a secret-typed seed (a seed-OT key) and a
    /// domain-separation tag, which keeps two layers that happen to share a
    /// seed from producing correlated streams. The seed stays inside its
    /// [`SecretBlock`] wrapper — this is the one declassification point
    /// between the seed and the key schedule — and the derived expansion
    /// key is zeroized before this function returns.
    pub fn from_secret(tag: &[u8], seed: &SecretBlock) -> Prg {
        let mut key = tagged_hash(tag, &seed.expose_block().to_bytes());
        let rng = StdRng::from_seed(key);
        key.zeroize();
        Prg { rng }
    }

    /// Fill `buf` with the next pseudorandom bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        self.rng.fill_bytes(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::secret::Secret;

    fn stream(tag: &[u8], seed: u128) -> [u8; 32] {
        let mut out = [0u8; 32];
        Prg::from_secret(tag, &Secret::new(Block(seed))).fill(&mut out);
        out
    }

    #[test]
    fn deterministic_per_seed_and_tag() {
        assert_eq!(stream(b"t", 42), stream(b"t", 42));
        // Successive fills continue the stream rather than restarting it.
        let mut prg = Prg::from_secret(b"t", &Secret::new(Block(42)));
        let (mut a, mut b) = ([0u8; 16], [0u8; 16]);
        prg.fill(&mut a);
        prg.fill(&mut b);
        assert_eq!([a, b].concat(), stream(b"t", 42));
    }

    #[test]
    fn tag_separates_streams() {
        assert_ne!(stream(b"t1", 42), stream(b"t2", 42));
    }

    #[test]
    fn seed_separates_streams() {
        assert_ne!(stream(b"t", 1), stream(b"t", 2));
    }
}
