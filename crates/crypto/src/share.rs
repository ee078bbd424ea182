//! Additive secret sharing over Z_{2^ℓ} (paper §5.1).
//!
//! A value v ∈ Z_{2^ℓ} is split as v = s_A + s_B (mod 2^ℓ) with s_A uniform.
//! All intermediate annotations in the secure Yannakakis protocol live in
//! this form; neither party's share reveals anything about v.
//!
//! [`RingCtx`] carries the bit-length ℓ so every operation stays reduced.
//! The paper uses ℓ = 32; we default to that but support any ℓ ≤ 64.

use rand::Rng;

/// The ring Z_{2^ℓ}: context object for modular arithmetic and sharing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingCtx {
    ell: u32,
    mask: u64,
}

impl RingCtx {
    /// The ring Z_{2^ℓ}. `ell` must be in 1..=64.
    pub fn new(ell: u32) -> RingCtx {
        assert!((1..=64).contains(&ell), "ell must be in 1..=64");
        let mask = if ell == 64 {
            u64::MAX
        } else {
            (1u64 << ell) - 1
        };
        RingCtx { ell, mask }
    }

    /// The paper's default: ℓ = 32-bit annotations.
    pub fn paper_default() -> RingCtx {
        RingCtx::new(32)
    }

    /// Bit length ℓ.
    pub fn bits(&self) -> u32 {
        self.ell
    }

    /// Wire bytes of one ring element: ⌈ℓ/8⌉.
    pub fn word_bytes(&self) -> usize {
        self.ell.div_ceil(8) as usize
    }

    /// Reduce an arbitrary u64 into the ring.
    pub fn reduce(&self, v: u64) -> u64 {
        v & self.mask
    }

    /// Addition mod 2^ℓ.
    pub fn add(&self, a: u64, b: u64) -> u64 {
        a.wrapping_add(b) & self.mask
    }

    /// Subtraction mod 2^ℓ.
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        a.wrapping_sub(b) & self.mask
    }

    /// Negation mod 2^ℓ.
    pub fn neg(&self, a: u64) -> u64 {
        a.wrapping_neg() & self.mask
    }

    /// Multiplication mod 2^ℓ.
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        a.wrapping_mul(b) & self.mask
    }

    /// Uniform ring element.
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        rng.gen::<u64>() & self.mask
    }

    /// Split `v` into `(alice_share, bob_share)` with the Alice share
    /// uniform. `v` must already be reduced.
    pub fn share<R: Rng + ?Sized>(&self, v: u64, rng: &mut R) -> (u64, u64) {
        debug_assert_eq!(v, self.reduce(v));
        let s1 = self.random(rng);
        (s1, self.sub(v, s1))
    }

    /// Reconstruct from the two shares.
    pub fn reconstruct(&self, s1: u64, s2: u64) -> u64 {
        self.add(s1, s2)
    }

    /// Share a whole vector; returns `(alice_shares, bob_shares)`.
    pub fn share_vec<R: Rng + ?Sized>(&self, vs: &[u64], rng: &mut R) -> (Vec<u64>, Vec<u64>) {
        let mut a = Vec::with_capacity(vs.len());
        let mut b = Vec::with_capacity(vs.len());
        for &v in vs {
            let (s1, s2) = self.share(v, rng);
            a.push(s1);
            b.push(s2);
        }
        (a, b)
    }

    /// Reconstruct a whole vector.
    pub fn reconstruct_vec(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.reconstruct(x, y))
            .collect()
    }

    /// Interpret a reduced value as a signed integer in
    /// [−2^{ℓ−1}, 2^{ℓ−1}): used when annotations encode differences
    /// (e.g. TPC-H Q9's `amount` can be negative).
    pub fn to_signed(&self, v: u64) -> i64 {
        let v = self.reduce(v);
        if self.ell < 64 && v >> (self.ell - 1) & 1 == 1 {
            // Sign-extend by filling the bits above ℓ (avoids the shift
            // overflow a naive `v - 2^ℓ` hits at ℓ = 63).
            (v | !self.mask) as i64
        } else {
            v as i64
        }
    }

    /// Encode a signed integer into the ring (two's complement mod 2^ℓ).
    pub fn from_signed(&self, v: i64) -> u64 {
        (v as u64) & self.mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn share_reconstruct_roundtrip() {
        let mut rng = StdRng::seed_from_u64(13);
        for ell in [1, 8, 32, 63, 64] {
            let ring = RingCtx::new(ell);
            for _ in 0..100 {
                let v = ring.random(&mut rng);
                let (a, b) = ring.share(v, &mut rng);
                assert_eq!(ring.reconstruct(a, b), v);
            }
        }
    }

    #[test]
    fn linear_ops_commute_with_sharing() {
        // Local addition of shares implements addition of secrets (§5.1).
        let ring = RingCtx::new(32);
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..100 {
            let x = ring.random(&mut rng);
            let y = ring.random(&mut rng);
            let (x1, x2) = ring.share(x, &mut rng);
            let (y1, y2) = ring.share(y, &mut rng);
            let z1 = ring.add(x1, y1);
            let z2 = ring.add(x2, y2);
            assert_eq!(ring.reconstruct(z1, z2), ring.add(x, y));
        }
    }

    #[test]
    fn vector_helpers() {
        let ring = RingCtx::new(16);
        let mut rng = StdRng::seed_from_u64(15);
        let vs: Vec<u64> = (0..50).map(|_| ring.random(&mut rng)).collect();
        let (a, b) = ring.share_vec(&vs, &mut rng);
        assert_eq!(ring.reconstruct_vec(&a, &b), vs);
    }

    #[test]
    fn signed_roundtrip() {
        let ring = RingCtx::new(32);
        for v in [-5i64, 0, 7, -(1 << 30), (1 << 30)] {
            assert_eq!(ring.to_signed(ring.from_signed(v)), v);
        }
        let ring64 = RingCtx::new(64);
        assert_eq!(ring64.to_signed(ring64.from_signed(-1)), -1);
    }

    #[test]
    #[should_panic]
    fn zero_bits_rejected() {
        RingCtx::new(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        /// Sharing round-trips and is linear for every ring width.
        #[test]
        fn prop_share_roundtrip(ell in 1u32..=64, v: u64, seed: u64) {
            let ring = RingCtx::new(ell);
            let v = ring.reduce(v);
            let mut rng = StdRng::seed_from_u64(seed);
            let (a, b) = ring.share(v, &mut rng);
            prop_assert_eq!(ring.reconstruct(a, b), v);
        }

        /// Signed encode/decode round-trips across the representable range.
        #[test]
        fn prop_signed_roundtrip(ell in 2u32..=64, raw: i64) {
            let ring = RingCtx::new(ell);
            let half = if ell == 64 { i64::MAX } else { (1i64 << (ell - 1)) - 1 };
            let v = raw.clamp(-half - 1, half);
            prop_assert_eq!(ring.to_signed(ring.from_signed(v)), v);
        }

        /// Ring ops agree with u128 arithmetic mod 2^ℓ.
        #[test]
        fn prop_ring_ops_match_wide(ell in 1u32..=64, a: u64, b: u64) {
            let ring = RingCtx::new(ell);
            let m = if ell == 64 { u128::from(u64::MAX) + 1 } else { 1u128 << ell };
            let (a, b) = (ring.reduce(a), ring.reduce(b));
            prop_assert_eq!(ring.add(a, b) as u128, (a as u128 + b as u128) % m);
            prop_assert_eq!(ring.mul(a, b) as u128, (a as u128 * b as u128) % m);
            prop_assert_eq!(ring.sub(a, b) as u128, (m + a as u128 - b as u128) % m);
        }
    }
}
