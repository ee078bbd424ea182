//! The binary field GF(2^64) and polynomial interpolation over it.
//!
//! The OPPRF used by circuit PSI (crate `secyan-psi`) programs, per cuckoo
//! bin, a polynomial "hint" that corrects the sender's OPRF outputs to the
//! programmed target values. Those hints are polynomials over GF(2^64):
//! 64-bit outputs give a per-evaluation collision probability of 2^{-64},
//! comfortably below the paper's statistical security target σ = 40 even
//! after a union bound over all bins of a 100 MB workload.
//!
//! Reduction polynomial: x^64 + x^4 + x^3 + x + 1 (the standard GF(2^64)
//! pentanomial, 0x1B).

/// Field element of GF(2^64) (coefficients of x^0..x^63).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Gf64(pub u64);

/// Low 64 bits of the reduction polynomial x^64 + x^4 + x^3 + x + 1.
const POLY: u64 = 0x1b;

// Inherent add/mul keep field arithmetic explicit at call sites; no
// operator-trait imports needed.
#[allow(clippy::should_implement_trait)]
impl Gf64 {
    /// Additive identity.
    pub const ZERO: Gf64 = Gf64(0);
    /// Multiplicative identity.
    pub const ONE: Gf64 = Gf64(1);

    /// Field addition = XOR.
    #[inline]
    pub fn add(self, rhs: Gf64) -> Gf64 {
        Gf64(self.0 ^ rhs.0)
    }

    /// Carry-less multiplication followed by modular reduction.
    ///
    /// Dispatches (via [`crate::cpu::features`]) to the hardware
    /// `pclmulqdq` multiply, else the portable windowed product and
    /// `reduce`. The arms are bit-exact, so the choice is purely a speed
    /// matter. The hardware arm is the whole multiply, not one product: a
    /// `#[target_feature]` function cannot inline into its caller, and a
    /// call and a dispatch per carry-less product (three per multiply)
    /// made the OPPRF hint loops 35–65 % slower.
    /// `mul` and `reduce` are `#[inline]` because they are the
    /// interpolation inner loop: left to codegen-unit placement, whether
    /// they inline changes with unrelated edits to this crate (±10 % on
    /// `crypto.gf64_interp_us_per_bin`).
    #[inline]
    pub fn mul(self, rhs: Gf64) -> Gf64 {
        #[cfg(target_arch = "x86_64")]
        if crate::cpu::features().pclmulqdq {
            // SAFETY: gated on the runtime CPUID probe (pclmulqdq+sse2).
            return Gf64(unsafe { pclmul::mul(self.0, rhs.0) });
        }
        let (lo, hi) = clmul_scalar(self.0, rhs.0);
        Gf64(reduce(lo, hi))
    }

    /// Multiplicative inverse via x^(2^64 − 2) (panics on zero).
    pub fn inv(self) -> Gf64 {
        assert_ne!(self.0, 0, "inverse of zero in GF(2^64)");
        // Square-and-multiply on the fixed exponent 2^64 - 2 =
        // 0b111...110 (63 ones followed by a zero).
        let mut acc = Gf64::ONE;
        let mut base = self;
        // bit 0 of the exponent is 0: skip one squaring of `base` into acc.
        base = base.mul(base);
        for _ in 1..64 {
            acc = acc.mul(base);
            base = base.mul(base);
        }
        acc
    }
}

/// Hardware GF(2^64) multiply (x86_64 `pclmulqdq`). Feature gating lives
/// in [`crate::cpu`]; the caller checks `cpu::features().pclmulqdq`.
#[cfg(target_arch = "x86_64")]
mod pclmul {
    use super::POLY;
    use core::arch::x86_64::*;

    /// `a · b` reduced mod x^64 + x^4 + x^3 + x + 1: one carry-less
    /// product, then the same two folds as [`super::reduce`].
    ///
    /// # Safety
    /// Caller must ensure `pclmulqdq` and `sse2` are supported (see
    /// [`crate::cpu::features`]).
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    pub unsafe fn mul(a: u64, b: u64) -> u64 {
        let (va, vb) = (_mm_set_epi64x(0, a as i64), _mm_set_epi64x(0, b as i64));
        let poly = _mm_set_epi64x(0, POLY as i64);
        let p = _mm_clmulepi64_si128::<0x00>(va, vb);
        // First fold: hi(p) · POLY (imm 0x01 selects p's high qword).
        let f1 = _mm_clmulepi64_si128::<0x01>(p, poly);
        // Second fold: hi(f1) ≤ 4 bits, so hi(f2) = 0.
        let f2 = _mm_clmulepi64_si128::<0x01>(f1, poly);
        _mm_cvtsi128_si64(_mm_xor_si128(_mm_xor_si128(p, f1), f2)) as u64
    }
}

/// Portable 4-bit windowed implementation (no CLMUL intrinsic dependence).
fn clmul_scalar(a: u64, b: u64) -> (u64, u64) {
    // Precompute a · w for every 4-bit w as 128-bit values (a·w has at
    // most 67 bits, kept as (lo, hi)). Built incrementally: each entry is
    // the XOR of a power-of-two entry and a smaller one.
    let mut table = [(0u64, 0u64); 16];
    table[1] = (a, 0);
    table[2] = (a << 1, a >> 63);
    table[4] = (a << 2, a >> 62);
    table[8] = (a << 3, a >> 61);
    for w in [3usize, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15] {
        let lowbit = w & w.wrapping_neg();
        let (l1, h1) = table[lowbit];
        let (l2, h2) = table[w ^ lowbit];
        table[w] = (l1 ^ l2, h1 ^ h2);
    }
    let mut lo = 0u64;
    let mut hi = 0u64;
    // Process b in 4-bit windows from the top so a single 4-bit shift of the
    // accumulator suffices per step.
    for i in (0..16).rev() {
        // Shift accumulator left by 4.
        hi = (hi << 4) | (lo >> 60);
        lo <<= 4;
        let w = (b >> (i * 4)) & 0xf;
        let (tlo, thi) = table[w as usize];
        lo ^= tlo;
        hi ^= thi;
    }
    (lo, hi)
}

/// Reduce a 128-bit carry-less product modulo x^64 + x^4 + x^3 + x + 1.
#[inline]
fn reduce(lo: u64, hi: u64) -> u64 {
    // x^64 ≡ x^4 + x^3 + x + 1, so fold `hi` down twice (folding can spill
    // at most 4 bits back above position 64).
    let (flo, fhi) = clmul_scalar(hi, POLY);
    let lo2 = lo ^ flo;
    let hi2 = fhi; // ≤ 4 bits
    let (flo2, _) = clmul_scalar(hi2, POLY);
    lo2 ^ flo2
}

/// Evaluate a polynomial (coefficients low-degree first) at `x` by Horner.
pub fn poly_eval(coeffs: &[Gf64], x: Gf64) -> Gf64 {
    let mut acc = Gf64::ZERO;
    for &c in coeffs.iter().rev() {
        acc = acc.mul(x).add(c);
    }
    acc
}

/// Evaluate many same-degree polynomials, each at its own point, by
/// running all the Horner recurrences in lockstep, so the independent
/// multiplies of different polynomials overlap in the pipeline.
///
/// `coeffs_flat` holds `xs.len()` polynomials of `degree` coefficients
/// each (low-degree first), polynomial `b` at
/// `coeffs_flat[b * degree .. (b + 1) * degree]` — exactly the flat OPPRF
/// hint layout. Returns `out[b] = p_b(xs[b])`, equal to per-polynomial
/// [`poly_eval`] bit-for-bit.
pub fn poly_eval_batch(coeffs_flat: &[Gf64], degree: usize, xs: &[Gf64]) -> Vec<Gf64> {
    assert_eq!(coeffs_flat.len(), degree * xs.len());
    let mut acc = vec![Gf64::ZERO; xs.len()];
    for j in (0..degree).rev() {
        for (b, (a, &x)) in acc.iter_mut().zip(xs).enumerate() {
            *a = a.mul(x).add(coeffs_flat[b * degree + j]);
        }
    }
    acc
}

/// Batch inversion (Montgomery's trick): one field inversion plus 3(n−1)
/// multiplications for n nonzero elements. Inversion costs ~127 muls, so
/// this is the difference between O(n²) and O(n) inversions in the
/// interpolator — the OPPRF hot path.
pub fn batch_invert(xs: &[Gf64]) -> Vec<Gf64> {
    let n = xs.len();
    if n == 0 {
        return Vec::new();
    }
    let mut prefix = Vec::with_capacity(n);
    let mut acc = Gf64::ONE;
    for &x in xs {
        assert_ne!(x, Gf64::ZERO, "batch_invert of zero");
        prefix.push(acc);
        acc = acc.mul(x);
    }
    let mut inv_acc = acc.inv();
    let mut out = vec![Gf64::ZERO; n];
    for i in (0..n).rev() {
        out[i] = inv_acc.mul(prefix[i]);
        inv_acc = inv_acc.mul(xs[i]);
    }
    out
}

/// Interpolate the unique polynomial of degree < n through `points`
/// (pairwise-distinct x coordinates), returning its coefficients
/// low-degree first. Newton's divided differences, O(n²) field
/// multiplications and O(n) inversions (via [`batch_invert`]).
pub fn poly_interpolate(points: &[(Gf64, Gf64)]) -> Vec<Gf64> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    // Every level's denominators x_{i+level} + x_i depend only on the x
    // coordinates, so they are all known upfront: one batch inversion
    // (one ~127-mul field inversion total) covers the whole table instead
    // of one per Newton level.
    let mut dens: Vec<Gf64> = Vec::with_capacity(n * (n - 1) / 2);
    for level in 1..n {
        for i in 0..n - level {
            let den = points[i + level].0.add(points[i].0);
            assert_ne!(den, Gf64::ZERO, "duplicate x coordinate");
            dens.push(den);
        }
    }
    let invs = batch_invert(&dens);
    // Newton coefficients c_k = f[x_0..x_k]. Level by level, entry i
    // reads only entries i and i + 1 of the previous level, so the table
    // updates in place (subtraction == addition over GF(2)).
    let mut table: Vec<Gf64> = points.iter().map(|&(_, y)| y).collect();
    let mut newton = vec![table[0]];
    let mut off = 0;
    for level in 1..n {
        let w = n - level;
        for i in 0..w {
            table[i] = table[i + 1].add(table[i]).mul(invs[off + i]);
        }
        off += w;
        newton.push(table[0]);
    }
    // Expand the Newton form into monomial coefficients:
    // p(x) = c_0 + (x - x_0)(c_1 + (x - x_1)(c_2 + ...)).
    // Per step: coeffs <- coeffs * (x - x_k) + c_k, highest degree first
    // so that each coefficient still reads its pre-step neighbour below
    // (over GF(2), -x_k == x_k).
    let mut coeffs = vec![Gf64::ZERO; n];
    coeffs[0] = newton[n - 1];
    for (deg, k) in (0..n - 1).rev().enumerate() {
        let xk = points[k].0;
        for i in (1..=deg + 1).rev() {
            coeffs[i] = coeffs[i].mul(xk).add(coeffs[i - 1]);
        }
        coeffs[0] = coeffs[0].mul(xk).add(newton[k]);
    }
    coeffs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn clmul_small_cases() {
        // (x+1)(x+1) = x^2 + 1 in GF(2)[x].
        assert_eq!(clmul_scalar(0b11, 0b11), (0b101, 0));
        // x^63 * x = x^64.
        assert_eq!(clmul_scalar(1 << 63, 0b10), (0, 1));
    }

    /// Known-answer tests for the portable carry-less multiply, so a CPU
    /// without `pclmulqdq` still checks every vector; the hardware
    /// multiply is held to the portable one by the agreement test below.
    #[test]
    fn clmul_known_answers() {
        // (a, b, lo, hi) — products computed by GF(2)[x] long multiplication.
        let kats: [(u64, u64, u64, u64); 6] = [
            (0, 0xffff_ffff_ffff_ffff, 0, 0),
            (1, 0xdead_beef_cafe_f00d, 0xdead_beef_cafe_f00d, 0),
            (1 << 63, 1 << 63, 0, 1 << 62),
            (0xffff_ffff_ffff_ffff, 0x3, 0x0000_0000_0000_0001, 0x1),
            // x^32 · x^32 = x^64.
            (1 << 32, 1 << 32, 0, 1),
            // (x^4+x+1)(x^4+x^2+1) = x^8+x^6+x^5+x^3+x^2+x+1 (CRC-style toy).
            (0b1_0011, 0b1_0101, 0b1_0110_1111, 0),
        ];
        for &(a, b, lo, hi) in &kats {
            assert_eq!(clmul_scalar(a, b), (lo, hi), "scalar {a:#x}·{b:#x}");
        }
    }

    /// The hardware and scalar multiplies must agree bit-exactly on every
    /// input. Skips silently (scalar-only) on CPUs without `pclmulqdq`.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_hardware_matches_scalar() {
        if !crate::cpu::features().pclmulqdq {
            eprintln!("pclmulqdq not available; hardware path untested here");
            return;
        }
        let scalar = |a, b| {
            let (lo, hi) = clmul_scalar(a, b);
            reduce(lo, hi)
        };
        let mut rng = StdRng::seed_from_u64(8);
        let edge = [0u64, 1, 2, u64::MAX, 1 << 63, 0x8000_0000_0000_0001];
        for &a in &edge {
            for &b in &edge {
                assert_eq!(
                    // SAFETY: pclmulqdq presence checked at function entry.
                    unsafe { pclmul::mul(a, b) },
                    scalar(a, b),
                    "edge {a:#x}·{b:#x}"
                );
            }
        }
        for _ in 0..10_000 {
            let a = rng.gen::<u64>();
            let b = rng.gen::<u64>();
            assert_eq!(
                // SAFETY: pclmulqdq presence checked at function entry.
                unsafe { pclmul::mul(a, b) },
                scalar(a, b),
                "{a:#x}·{b:#x}"
            );
        }
    }

    /// Lockstep Horner over many bins equals per-bin `poly_eval`, on both
    /// dispatch arms. Degrees up to 53 cover `secyan-psi`'s `max_bin_size`
    /// on every benchmark workload (at most 42, Q3's larger PSI), so the
    /// hardware multiply is checked against the scalar one at protocol
    /// sizes.
    #[test]
    fn poly_eval_batch_matches_single() {
        let _guard = crate::cpu::override_lock();
        let mut rng = StdRng::seed_from_u64(10);
        for (bins, degree) in [(0usize, 5usize), (1, 1), (3, 4), (7, 24), (33, 11), (9, 53)] {
            let flat: Vec<Gf64> = (0..bins * degree).map(|_| Gf64(rng.gen())).collect();
            let xs: Vec<Gf64> = (0..bins).map(|_| Gf64(rng.gen())).collect();
            let want: Vec<Gf64> = (0..bins)
                .map(|b| poly_eval(&flat[b * degree..(b + 1) * degree], xs[b]))
                .collect();
            for force in [false, true] {
                crate::cpu::set_force_scalar(force);
                let got = poly_eval_batch(&flat, degree, &xs);
                assert_eq!(got, want, "bins={bins} degree={degree} force={force}");
            }
            crate::cpu::clear_force_scalar();
        }
    }

    /// Interpolation output is identical on the forced-scalar and SIMD
    /// arms (it is one deterministic function either way), up to a
    /// protocol-sized bin of 53 points.
    #[test]
    fn interpolation_arms_agree() {
        let _guard = crate::cpu::override_lock();
        let mut rng = StdRng::seed_from_u64(13);
        for n in [1usize, 2, 3, 5, 8, 24, 40, 53] {
            let points: Vec<(Gf64, Gf64)> = (1..=n as u64)
                .map(|x| (Gf64(x.wrapping_mul(0x9e37_79b9_7f4a_7c15)), Gf64(rng.gen())))
                .collect();
            crate::cpu::set_force_scalar(true);
            let want = poly_interpolate(&points);
            crate::cpu::set_force_scalar(false);
            let got = poly_interpolate(&points);
            crate::cpu::clear_force_scalar();
            assert_eq!(got, want, "n={n}");
            for &(x, y) in &points {
                assert_eq!(poly_eval(&got, x), y);
            }
        }
    }

    #[test]
    fn field_axioms_hold_on_samples() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let a = Gf64(rng.gen());
            let b = Gf64(rng.gen());
            let c = Gf64(rng.gen());
            assert_eq!(a.mul(b), b.mul(a));
            assert_eq!(a.mul(b).mul(c), a.mul(b.mul(c)));
            assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
            assert_eq!(a.mul(Gf64::ONE), a);
            assert_eq!(a.mul(Gf64::ZERO), Gf64::ZERO);
        }
    }

    #[test]
    fn inverse_is_correct() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let a = Gf64(rng.gen::<u64>() | 1);
            assert_eq!(a.mul(a.inv()), Gf64::ONE);
        }
        assert_eq!(Gf64::ONE.inv(), Gf64::ONE);
    }

    #[test]
    fn interpolation_recovers_polynomial() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in 1..12usize {
            let coeffs: Vec<Gf64> = (0..n).map(|_| Gf64(rng.gen())).collect();
            // Distinct x values 1..=n.
            let points: Vec<(Gf64, Gf64)> = (1..=n as u64)
                .map(|x| (Gf64(x), poly_eval(&coeffs, Gf64(x))))
                .collect();
            let got = poly_interpolate(&points);
            assert_eq!(got, coeffs, "degree {n}");
        }
    }

    #[test]
    fn interpolation_passes_through_points() {
        let mut rng = StdRng::seed_from_u64(6);
        let points: Vec<(Gf64, Gf64)> = (0..20u64)
            .map(|i| (Gf64(i * 7 + 1), Gf64(rng.gen())))
            .collect();
        let coeffs = poly_interpolate(&points);
        for &(x, y) in &points {
            assert_eq!(poly_eval(&coeffs, x), y);
        }
    }

    #[test]
    fn batch_invert_matches_individual() {
        let mut rng = StdRng::seed_from_u64(7);
        let xs: Vec<Gf64> = (0..20).map(|_| Gf64(rng.gen::<u64>() | 1)).collect();
        let got = batch_invert(&xs);
        for (x, inv) in xs.iter().zip(&got) {
            assert_eq!(*inv, x.inv());
        }
        assert!(batch_invert(&[]).is_empty());
    }

    #[test]
    #[should_panic]
    fn duplicate_x_panics() {
        poly_interpolate(&[(Gf64(1), Gf64(2)), (Gf64(1), Gf64(3))]);
    }
}
