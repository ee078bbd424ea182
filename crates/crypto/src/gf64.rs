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

    /// Carry-less multiplication followed by modular reduction. `mul`,
    /// `clmul` and `reduce` are `#[inline]` because they are the
    /// interpolation inner loop: left to codegen-unit placement, whether
    /// they inline changes with unrelated edits to this crate (±10 % on
    /// `crypto.gf64_interp_us_per_bin`).
    #[inline]
    pub fn mul(self, rhs: Gf64) -> Gf64 {
        let (lo, hi) = clmul(self.0, rhs.0);
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

/// 64×64 carry-less multiply → 128-bit product `(lo, hi)`.
///
/// Dispatches to the hardware `pclmulqdq` instruction when
/// [`crate::cpu::features`] reports it, else the portable windowed
/// fallback. The two paths are bit-exact — asserted by the KATs below —
/// so the choice is purely a speed matter: one instruction vs. ~16 table
/// lookups per multiply, on the OPPRF interpolation hot path.
#[inline]
fn clmul(a: u64, b: u64) -> (u64, u64) {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::cpu::features().pclmulqdq {
            // SAFETY: gated on the runtime CPUID probe (pclmulqdq+sse2).
            return unsafe { pclmul::clmul(a, b) };
        }
    }
    clmul_scalar(a, b)
}

/// One multiply on the portable path only — the guaranteed-scalar arm the
/// batch fallbacks use so they never re-dispatch per element.
fn mul_scalar_one(a: u64, b: u64) -> u64 {
    let (lo, hi) = clmul_scalar(a, b);
    let (flo, fhi) = clmul_scalar(hi, POLY);
    let (flo2, _) = clmul_scalar(fhi, POLY);
    lo ^ flo ^ flo2
}

/// Hardware carry-less multiply kernels (x86_64 `pclmulqdq`). Feature
/// gating lives in [`crate::cpu`]; everything here assumes the caller
/// checked `cpu::features().pclmulqdq`.
#[cfg(target_arch = "x86_64")]
mod pclmul {
    use super::{Gf64, POLY};
    use core::arch::x86_64::*;

    /// # Safety
    /// Caller must ensure `pclmulqdq` and `sse2` are supported (see
    /// [`crate::cpu::features`]).
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    pub unsafe fn clmul(a: u64, b: u64) -> (u64, u64) {
        let va = _mm_set_epi64x(0, a as i64);
        let vb = _mm_set_epi64x(0, b as i64);
        let prod = _mm_clmulepi64_si128::<0x00>(va, vb);
        let lo = _mm_cvtsi128_si64(prod) as u64;
        // High half via unpack (SSE2) — avoids an SSE4.1 extract.
        let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(prod, prod)) as u64;
        (lo, hi)
    }

    /// Four independent field multiplies, interleaved so the three
    /// `pclmulqdq` rounds (product, first fold, second fold) of all four
    /// lanes overlap in the pipeline instead of serializing behind the
    /// instruction's latency. Reduction is deferred: all four 128-bit
    /// products are formed first, then every product is folded modulo
    /// x^64 + x^4 + x^3 + x + 1.
    ///
    /// # Safety
    /// Caller must ensure `pclmulqdq` and `sse2` are supported.
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    pub unsafe fn mul4(a: &[Gf64; 4], b: &[Gf64; 4]) -> [Gf64; 4] {
        let vpoly = _mm_set_epi64x(0, POLY as i64);
        let mut p = [_mm_setzero_si128(); 4];
        for (pi, (ai, bi)) in p.iter_mut().zip(a.iter().zip(b.iter())) {
            let va = _mm_set_epi64x(0, ai.0 as i64);
            let vb = _mm_set_epi64x(0, bi.0 as i64);
            *pi = _mm_clmulepi64_si128::<0x00>(va, vb);
        }
        // First fold: f1 = hi(p) · POLY (imm 0x01 selects p's high qword).
        let mut f1 = [_mm_setzero_si128(); 4];
        for (fi, pi) in f1.iter_mut().zip(p.iter()) {
            *fi = _mm_clmulepi64_si128::<0x01>(*pi, vpoly);
        }
        // Second fold (hi(f1) ≤ 4 bits, so hi(f2) = 0) and combine: the
        // reduced value is lo(p) ^ lo(f1) ^ lo(f2).
        let mut out = [Gf64::ZERO; 4];
        for (oi, (pi, fi)) in out.iter_mut().zip(p.iter().zip(f1.iter())) {
            let f2 = _mm_clmulepi64_si128::<0x01>(*fi, vpoly);
            let r = _mm_xor_si128(_mm_xor_si128(*pi, *fi), f2);
            *oi = Gf64(_mm_cvtsi128_si64(r) as u64);
        }
        out
    }

    /// `xs[i] <- xs[i] * ys[i]` over the hardware path, 4-wide.
    ///
    /// # Safety
    /// Caller must ensure `pclmulqdq` and `sse2` are supported.
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    pub unsafe fn mul_slice(xs: &mut [Gf64], ys: &[Gf64]) {
        let n4 = xs.len() / 4 * 4;
        for i in (0..n4).step_by(4) {
            let a = [xs[i], xs[i + 1], xs[i + 2], xs[i + 3]];
            let b = [ys[i], ys[i + 1], ys[i + 2], ys[i + 3]];
            // SAFETY: same features as this function's own contract.
            let r = unsafe { mul4(&a, &b) };
            xs[i..i + 4].copy_from_slice(&r);
        }
        for i in n4..xs.len() {
            // SAFETY: same features as this function's own contract.
            let (lo, hi) = unsafe { clmul(xs[i].0, ys[i].0) };
            // SAFETY: same features as this function's own contract.
            let (flo, fhi) = unsafe { clmul(hi, POLY) };
            // SAFETY: same features as this function's own contract.
            let (flo2, _) = unsafe { clmul(fhi, POLY) };
            xs[i] = Gf64(lo ^ flo ^ flo2);
        }
    }

    /// `xs[i] <- xs[i] * k` over the hardware path, 4-wide.
    ///
    /// # Safety
    /// Caller must ensure `pclmulqdq` and `sse2` are supported.
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    pub unsafe fn mul_slice_by(xs: &mut [Gf64], k: Gf64) {
        let ks = [k; 4];
        let n4 = xs.len() / 4 * 4;
        for i in (0..n4).step_by(4) {
            let a = [xs[i], xs[i + 1], xs[i + 2], xs[i + 3]];
            // SAFETY: same features as this function's own contract.
            let r = unsafe { mul4(&a, &ks) };
            xs[i..i + 4].copy_from_slice(&r);
        }
        for x in xs[n4..].iter_mut() {
            // SAFETY: same features as this function's own contract.
            let (lo, hi) = unsafe { clmul(x.0, k.0) };
            // SAFETY: same features as this function's own contract.
            let (flo, fhi) = unsafe { clmul(hi, POLY) };
            // SAFETY: same features as this function's own contract.
            let (flo2, _) = unsafe { clmul(fhi, POLY) };
            *x = Gf64(lo ^ flo ^ flo2);
        }
    }
}

/// Elementwise field product: `xs[i] <- xs[i] * ys[i]`.
///
/// The hardware arm runs 4-way interleaved `pclmulqdq` with deferred
/// reduction — one dispatch decision per *slice*, not per multiply. The
/// portable arm uses the windowed scalar multiply directly (again no
/// per-element dispatch). Both arms are bit-exact.
pub fn mul_slice(xs: &mut [Gf64], ys: &[Gf64]) {
    assert_eq!(xs.len(), ys.len());
    #[cfg(target_arch = "x86_64")]
    {
        if crate::cpu::features().pclmulqdq {
            // SAFETY: gated on the runtime CPUID probe (pclmulqdq+sse2).
            unsafe { pclmul::mul_slice(xs, ys) };
            return;
        }
    }
    for (x, y) in xs.iter_mut().zip(ys) {
        *x = Gf64(mul_scalar_one(x.0, y.0));
    }
}

/// Uniform field product: `xs[i] <- xs[i] * k`. Same dispatch contract as
/// [`mul_slice`].
pub fn mul_slice_by(xs: &mut [Gf64], k: Gf64) {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::cpu::features().pclmulqdq {
            // SAFETY: gated on the runtime CPUID probe (pclmulqdq+sse2).
            unsafe { pclmul::mul_slice_by(xs, k) };
            return;
        }
    }
    for x in xs.iter_mut() {
        *x = Gf64(mul_scalar_one(x.0, k.0));
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
    let (flo, fhi) = clmul(hi, POLY);
    let lo2 = lo ^ flo;
    let hi2 = fhi; // ≤ 4 bits
    let (flo2, _) = clmul(hi2, POLY);
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
/// running all the Horner recurrences in lockstep over [`mul_slice`].
///
/// `coeffs_flat` holds `xs.len()` polynomials of `degree` coefficients
/// each (low-degree first), polynomial `b` at
/// `coeffs_flat[b * degree .. (b + 1) * degree]` — exactly the flat OPPRF
/// hint layout. Returns `out[b] = p_b(xs[b])`, equal to per-polynomial
/// [`poly_eval`] bit-for-bit; the batching only removes the per-multiply
/// dispatch and exposes 4-way CLMUL interleaving.
pub fn poly_eval_batch(coeffs_flat: &[Gf64], degree: usize, xs: &[Gf64]) -> Vec<Gf64> {
    assert_eq!(coeffs_flat.len(), degree * xs.len());
    let mut acc = vec![Gf64::ZERO; xs.len()];
    for j in (0..degree).rev() {
        mul_slice(&mut acc, xs);
        for (b, a) in acc.iter_mut().enumerate() {
            *a = a.add(coeffs_flat[b * degree + j]);
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
    // Newton coefficients c_k = f[x_0..x_k]. Each level's updates are
    // independent across i, so the level is one batched elementwise
    // multiply (subtraction == addition over GF(2)).
    let mut table: Vec<Gf64> = points.iter().map(|&(_, y)| y).collect();
    let mut newton = vec![table[0]];
    let mut off = 0;
    for level in 1..n {
        let w = n - level;
        for i in 0..w {
            table[i] = table[i + 1].add(table[i]);
        }
        mul_slice(&mut table[..w], &invs[off..off + w]);
        off += w;
        newton.push(table[0]);
    }
    // Expand the Newton form into monomial coefficients:
    // p(x) = c_0 + (x - x_0)(c_1 + (x - x_1)(c_2 + ...)).
    // Per step: coeffs <- coeffs * (x - x_k) + c_k, i.e. one uniform
    // batched multiply by x_k followed by a shifted XOR of the pre-step
    // coefficients (saved in `scratch`; over GF(2), -x_k == x_k).
    let mut coeffs = vec![Gf64::ZERO; n];
    let mut scratch = vec![Gf64::ZERO; n];
    coeffs[0] = newton[n - 1];
    let mut deg = 0;
    for k in (0..n - 1).rev() {
        let xk = points[k].0;
        deg += 1;
        scratch[..deg].copy_from_slice(&coeffs[..deg]);
        mul_slice_by(&mut coeffs[..=deg], xk);
        for i in 1..=deg {
            coeffs[i] = coeffs[i].add(scratch[i - 1]);
        }
        coeffs[0] = coeffs[0].add(newton[k]);
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
        assert_eq!(clmul(0b11, 0b11), (0b101, 0));
        // x^63 * x = x^64.
        assert_eq!(clmul(1 << 63, 0b10), (0, 1));
    }

    /// Known-answer tests for the carry-less multiply, run against the
    /// scalar path explicitly (the dispatching `clmul` is covered by the
    /// agreement test below, so a CPU without `pclmulqdq` still checks
    /// every vector).
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
            assert_eq!(clmul(a, b), (lo, hi), "dispatch {a:#x}·{b:#x}");
        }
    }

    /// The hardware and scalar paths must agree bit-exactly on every
    /// input. Skips silently (scalar-only) on CPUs without `pclmulqdq`.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_hardware_matches_scalar() {
        if !crate::cpu::features().pclmulqdq {
            eprintln!("pclmulqdq not available; hardware path untested here");
            return;
        }
        let mut rng = StdRng::seed_from_u64(8);
        let edge = [0u64, 1, 2, u64::MAX, 1 << 63, 0x8000_0000_0000_0001];
        for &a in &edge {
            for &b in &edge {
                assert_eq!(
                    // SAFETY: pclmul::available() checked at function entry.
                    unsafe { pclmul::clmul(a, b) },
                    clmul_scalar(a, b),
                    "edge {a:#x}·{b:#x}"
                );
            }
        }
        for _ in 0..10_000 {
            let a = rng.gen::<u64>();
            let b = rng.gen::<u64>();
            assert_eq!(
                // SAFETY: pclmulqdq presence checked at function entry.
                unsafe { pclmul::clmul(a, b) },
                clmul_scalar(a, b),
                "{a:#x}·{b:#x}"
            );
        }
    }

    /// The batched slice primitives must match per-element `Gf64::mul` on
    /// both arms, including the KAT vectors and ragged (non-multiple-of-4)
    /// lengths that exercise the kernel remainders.
    #[test]
    fn batch_ops_match_scalar() {
        let _guard = crate::cpu::override_lock();
        let mut rng = StdRng::seed_from_u64(9);
        let edge = [0u64, 1, 2, u64::MAX, 1 << 63, 0x8000_0000_0000_0001];
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 13, 64, 65] {
            let xs: Vec<Gf64> = (0..len)
                .map(|i| {
                    if i < edge.len() {
                        Gf64(edge[i])
                    } else {
                        Gf64(rng.gen())
                    }
                })
                .collect();
            let ys: Vec<Gf64> = (0..len).map(|_| Gf64(rng.gen())).collect();
            let k = Gf64(rng.gen());
            let want_mul: Vec<Gf64> = xs.iter().zip(&ys).map(|(x, y)| x.mul(*y)).collect();
            let want_by: Vec<Gf64> = xs.iter().map(|x| x.mul(k)).collect();
            for force in [false, true] {
                crate::cpu::set_force_scalar(force);
                let mut got = xs.clone();
                mul_slice(&mut got, &ys);
                assert_eq!(got, want_mul, "mul_slice len={len} force={force}");
                let mut got = xs.clone();
                mul_slice_by(&mut got, k);
                assert_eq!(got, want_by, "mul_slice_by len={len} force={force}");
            }
            crate::cpu::clear_force_scalar();
        }
    }

    /// Lockstep Horner over many bins equals per-bin `poly_eval`, on both
    /// dispatch arms.
    #[test]
    fn poly_eval_batch_matches_single() {
        let _guard = crate::cpu::override_lock();
        let mut rng = StdRng::seed_from_u64(10);
        for (bins, degree) in [(0usize, 5usize), (1, 1), (3, 4), (7, 24), (33, 11)] {
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
    /// arms (it is one deterministic function either way).
    #[test]
    fn interpolation_arms_agree() {
        let _guard = crate::cpu::override_lock();
        let mut rng = StdRng::seed_from_u64(13);
        for n in [1usize, 2, 3, 5, 8, 24, 40] {
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
