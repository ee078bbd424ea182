//! 128-bit blocks: the unit of wire labels, OT messages, and column seeds.

use rand::Rng;

/// A 128-bit block with XOR as the group operation.
///
/// Garbled-circuit wire labels, OT extension rows, and OPRF outputs are all
/// `Block`s. The wrapper keeps label arithmetic (`^`) distinct from the
/// arithmetic shares of the annotation ring, which live in `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Block(pub u128);

impl Block {
    /// The all-zero block.
    pub const ZERO: Block = Block(0);

    /// Sample a uniform block.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Block {
        Block(rng.gen())
    }

    /// Little-endian byte representation.
    pub fn to_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    /// Parse from little-endian bytes.
    pub fn from_bytes(b: [u8; 16]) -> Block {
        Block(u128::from_le_bytes(b))
    }

    /// The least-significant bit, used as the point-and-permute color bit of
    /// garbled-circuit labels.
    pub fn lsb(self) -> bool {
        self.0 & 1 == 1
    }

    /// Force the least-significant bit to `bit` (used when assigning color
    /// bits to freshly drawn labels).
    pub fn with_lsb(self, bit: bool) -> Block {
        Block((self.0 & !1) | bit as u128)
    }
}

impl std::ops::BitXor for Block {
    type Output = Block;
    fn bitxor(self, rhs: Block) -> Block {
        Block(self.0 ^ rhs.0)
    }
}

impl std::ops::BitXorAssign for Block {
    fn bitxor_assign(&mut self, rhs: Block) {
        self.0 ^= rhs.0;
    }
}

impl From<u128> for Block {
    fn from(v: u128) -> Block {
        Block(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xor_is_involutive() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Block::random(&mut rng);
        let b = Block::random(&mut rng);
        assert_eq!(a ^ b ^ b, a);
        assert_eq!(a ^ Block::ZERO, a);
    }

    #[test]
    fn lsb_manipulation() {
        let b = Block(0b1010);
        assert!(!b.lsb());
        assert!(b.with_lsb(true).lsb());
        assert_eq!(b.with_lsb(true).with_lsb(false), b);
    }

    #[test]
    fn byte_roundtrip() {
        let b = Block(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
        assert_eq!(Block::from_bytes(b.to_bytes()), b);
    }
}
