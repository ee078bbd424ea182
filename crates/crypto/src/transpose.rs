//! Bit-matrix transposition.
//!
//! IKNP-style OT extension works on an m×w bit matrix held column-wise by
//! one party and row-wise by the other; the protocol pivots between the two
//! views with a transpose. Rows are byte-packed, least-significant bit
//! first, matching the wire encoding in `secyan-transport`.

use crate::cpu;
use secyan_par as par;

/// Don't split a transpose into pieces smaller than this many output bytes:
/// below it the dispatch overhead beats the win. The movemask kernels move
/// roughly an order of magnitude more bytes per cycle than the old scalar
/// loop did, so the break-even chunk is correspondingly larger than the
/// scalar loop's 4 KiB. `crypto.transpose_ns_per_kbit` in `sybench/`
/// times the kernel this threshold gates.
const PAR_MIN_OUT_BYTES: usize = 1 << 15;

/// A byte-packed bit matrix with `rows` rows and `cols` columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    /// `rows * row_bytes` bytes; row i starts at `i * row_bytes`.
    data: Vec<u8>,
}

impl BitMatrix {
    /// All-zero matrix.
    pub fn zero(rows: usize, cols: usize) -> BitMatrix {
        BitMatrix {
            rows,
            cols,
            data: vec![0u8; rows * cols.div_ceil(8)],
        }
    }

    /// Build from a closure giving each bit.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> BitMatrix {
        let mut m = BitMatrix::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if f(r, c) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    fn row_bytes(&self) -> usize {
        self.cols.div_ceil(8)
    }

    /// Bit at (row, col).
    pub fn get(&self, r: usize, c: usize) -> bool {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.row_bytes() + c / 8] >> (c % 8) & 1 == 1
    }

    /// Set bit at (row, col).
    pub fn set(&mut self, r: usize, c: usize, bit: bool) {
        debug_assert!(r < self.rows && c < self.cols);
        let rb = self.row_bytes();
        let byte = &mut self.data[r * rb + c / 8];
        if bit {
            *byte |= 1 << (c % 8);
        } else {
            *byte &= !(1 << (c % 8));
        }
    }

    /// Borrow row `r` as packed bytes.
    pub fn row(&self, r: usize) -> &[u8] {
        let rb = self.row_bytes();
        &self.data[r * rb..(r + 1) * rb]
    }

    /// Mutably borrow row `r` as packed bytes.
    pub fn row_mut(&mut self, r: usize) -> &mut [u8] {
        let rb = self.row_bytes();
        &mut self.data[r * rb..(r + 1) * rb]
    }

    /// Flat packed data (row-major).
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutably borrow the flat packed data (row-major). Row `i` occupies
    /// bytes `i * cols.div_ceil(8) ..`, which is what the parallel
    /// column-fill paths in OT extension partition over.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Rebuild from flat packed data.
    pub fn from_bytes(rows: usize, cols: usize, data: Vec<u8>) -> BitMatrix {
        assert_eq!(data.len(), rows * cols.div_ceil(8));
        BitMatrix { rows, cols, data }
    }

    /// The transposed matrix.
    ///
    /// Work is partitioned into column bands by `secyan-par` exactly as
    /// before; *within* a band the inner loop dispatches (via
    /// [`crate::cpu`]) to a movemask kernel — AVX2 32×8 tiles, SSE2 16×8
    /// tiles — with the scalar bit loop covering unaligned column
    /// head/tail and the row remainder. The output is a pure function of
    /// the input, so neither the band boundaries (public shape only) nor
    /// the kernel choice can change a single output byte.
    pub fn transpose(&self) -> BitMatrix {
        let mut out = BitMatrix::zero(self.cols, self.rows);
        if self.rows == 0 || self.cols == 0 {
            return out;
        }
        let out_rb = out.row_bytes();
        let in_rb = self.row_bytes();
        let feats = cpu::features();
        // Partition over *output rows* (input columns): each worker owns a
        // contiguous band of the output buffer and re-reads the shared
        // input, keeping the cache-friendly r-outer scan order within its
        // column band. Band boundaries depend only on the (public) matrix
        // shape, so the result is identical at any thread count.
        let min_rows_per_part = PAR_MIN_OUT_BYTES.div_ceil(out_rb).max(1);
        par::with_pool_if(
            par::threads() > 1 && self.cols > min_rows_per_part,
            |pool| {
                pool.chunks_mut(&mut out.data, out_rb, min_rows_per_part, |c0, band| {
                    transpose_band(&self.data, self.rows, in_rb, out_rb, c0, band, feats);
                });
            },
        );
        out
    }
}

/// Fill one output band (input columns `c0 ..= c0 + band.len()/out_rb`)
/// from the full input. Runs serially inside one `secyan-par` worker.
fn transpose_band(
    src: &[u8],
    rows: usize,
    in_rb: usize,
    out_rb: usize,
    c0: usize,
    band: &mut [u8],
    feats: cpu::Features,
) {
    let c1 = c0 + band.len() / out_rb;
    // The movemask kernels consume whole input bytes (8 columns at a
    // time), so carve the 8-aligned middle [ca, cb) out of [c0, c1); the
    // unaligned head/tail columns take the scalar loop.
    let ca = c0.next_multiple_of(8).min(c1);
    let cb = ca + (c1 - ca) / 8 * 8;
    // Rows below `r_done` for columns [ca, cb) were filled by a SIMD strip.
    let mut r_done = 0;
    #[cfg(target_arch = "x86_64")]
    if ca < cb {
        if feats.avx2 {
            let n32 = rows / 32 * 32;
            if n32 > 0 {
                // SAFETY: `feats.avx2` comes from the runtime CPUID probe
                // in `cpu::features()`, so the AVX2 kernel is supported.
                unsafe { simd::strips_avx2(src, in_rb, out_rb, 0..n32, ca..cb, c0, band) };
                r_done = n32;
            }
        }
        if feats.sse2 {
            let n16 = r_done + (rows - r_done) / 16 * 16;
            if n16 > r_done {
                // SAFETY: `feats.sse2` comes from the runtime CPUID probe
                // in `cpu::features()`, so the SSE2 kernel is supported.
                unsafe { simd::strips_sse2(src, in_rb, out_rb, r_done..n16, ca..cb, c0, band) };
                r_done = n16;
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = feats;
    // Scalar coverage of whatever the kernels did not touch. All three
    // regions write disjoint (row, byte) slots of the zeroed band, so
    // order is irrelevant.
    transpose_bits_scalar(src, in_rb, out_rb, 0..rows, c0..ca, c0, band);
    transpose_bits_scalar(src, in_rb, out_rb, 0..rows, cb..c1, c0, band);
    transpose_bits_scalar(src, in_rb, out_rb, r_done..rows, ca..cb, c0, band);
}

/// Reference bit loop: transpose input bits (r, c) for r in `rows`,
/// c in `cols` into the band starting at output row `c0`.
fn transpose_bits_scalar(
    src: &[u8],
    in_rb: usize,
    out_rb: usize,
    rows: core::ops::Range<usize>,
    cols: core::ops::Range<usize>,
    c0: usize,
    band: &mut [u8],
) {
    for r in rows {
        let row = &src[r * in_rb..(r + 1) * in_rb];
        let (out_byte_col, out_bit) = (r / 8, r % 8);
        for c in cols.clone() {
            if row[c / 8] >> (c % 8) & 1 == 1 {
                band[(c - c0) * out_rb + out_byte_col] |= 1 << out_bit;
            }
        }
    }
}

/// Movemask transpose kernels (EMP/libOTe-style `sse_trans`).
///
/// A tile gathers the input byte holding columns `cc..cc+8` from 16 (SSE2)
/// or 32 (AVX2) consecutive rows into one vector, one row per lane. Peeling
/// the bit positions top-down — `movemask` reads every lane's MSB, then a
/// left shift promotes the next bit — yields, per iteration `b`, the packed
/// 16/32-row slice of input column `cc + b`, which is exactly a run of
/// output-row bytes: store it little-endian at byte `rr/8` of output row
/// `cc + b`. The per-lane shift is `slli_epi64`; its cross-byte carries
/// enter at bit 0 of the next lane byte and never climb to the MSB within
/// the ≤7 shifts performed, so every movemask reads clean bits. Matches
/// the crate's LSB-first packing bit-for-bit (asserted by the equivalence
/// tests below).
#[cfg(target_arch = "x86_64")]
mod simd {
    use core::arch::x86_64::*;
    use core::ops::Range;

    /// 16-row SSE2 strips. `rows` must be a multiple of 16 long and
    /// 16-aligned; `cols` 8-aligned on both ends.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports SSE2.
    #[target_feature(enable = "sse2")]
    pub unsafe fn strips_sse2(
        src: &[u8],
        in_rb: usize,
        out_rb: usize,
        rows: Range<usize>,
        cols: Range<usize>,
        c0: usize,
        band: &mut [u8],
    ) {
        debug_assert!(rows.start.is_multiple_of(16) && rows.len().is_multiple_of(16));
        debug_assert!(cols.start.is_multiple_of(8) && cols.len().is_multiple_of(8));
        for rr in rows.step_by(16) {
            for cc in cols.clone().step_by(8) {
                let ib = cc / 8;
                let mut t = [0u8; 16];
                for (i, b) in t.iter_mut().enumerate() {
                    *b = src[(rr + i) * in_rb + ib];
                }
                // SAFETY: `t` is a 16-byte buffer; loadu has no alignment
                // requirement.
                let mut x = unsafe { _mm_loadu_si128(t.as_ptr().cast()) };
                for b in (0..8).rev() {
                    let mask = _mm_movemask_epi8(x) as u16;
                    let off = (cc + b - c0) * out_rb + rr / 8;
                    band[off..off + 2].copy_from_slice(&mask.to_le_bytes());
                    x = _mm_slli_epi64::<1>(x);
                }
            }
        }
    }

    /// 32-row AVX2 strips. Same contract as [`strips_sse2`] with 32-row
    /// granularity.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn strips_avx2(
        src: &[u8],
        in_rb: usize,
        out_rb: usize,
        rows: Range<usize>,
        cols: Range<usize>,
        c0: usize,
        band: &mut [u8],
    ) {
        debug_assert!(rows.start.is_multiple_of(32) && rows.len().is_multiple_of(32));
        debug_assert!(cols.start.is_multiple_of(8) && cols.len().is_multiple_of(8));
        for rr in rows.step_by(32) {
            for cc in cols.clone().step_by(8) {
                let ib = cc / 8;
                let mut t = [0u8; 32];
                for (i, b) in t.iter_mut().enumerate() {
                    *b = src[(rr + i) * in_rb + ib];
                }
                // SAFETY: `t` is a 32-byte buffer; loadu has no alignment
                // requirement.
                let mut x = unsafe { _mm256_loadu_si256(t.as_ptr().cast()) };
                for b in (0..8).rev() {
                    let mask = _mm256_movemask_epi8(x) as u32;
                    let off = (cc + b - c0) * out_rb + rr / 8;
                    band[off..off + 4].copy_from_slice(&mask.to_le_bytes());
                    x = _mm256_slli_epi64::<1>(x);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn transpose_involutive_random() {
        let mut rng = StdRng::seed_from_u64(11);
        for (rows, cols) in [(1, 1), (3, 5), (8, 8), (9, 17), (128, 70), (33, 128)] {
            let m = BitMatrix::from_fn(rows, cols, |_, _| rng.gen());
            let t = m.transpose();
            assert_eq!(t.rows(), cols);
            assert_eq!(t.cols(), rows);
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(m.get(r, c), t.get(c, r));
                }
            }
            assert_eq!(t.transpose(), m);
        }
    }

    #[test]
    fn transpose_parallel_matches_serial() {
        // Big enough to cross the parallel threshold; compare against the
        // bit-by-bit definition at several thread counts.
        let mut rng = StdRng::seed_from_u64(12);
        let m = BitMatrix::from_fn(4096, 128, |_, _| rng.gen());
        let want = m.transpose();
        for n in [1, 2, 4] {
            par::set_threads(n);
            let t = m.transpose();
            par::set_threads(0);
            assert_eq!(t, want, "threads={n}");
        }
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                assert_eq!(m.get(r, c), want.get(c, r));
            }
        }
    }

    /// The SIMD arm must agree with the forced-scalar arm bit-for-bit on
    /// ragged shapes: rows/cols off every kernel boundary (8, 16, 32,
    /// 128), including shapes where only head/tail scalar coverage runs.
    #[test]
    fn simd_matches_scalar_on_ragged_shapes() {
        let _guard = crate::cpu::override_lock();
        let mut rng = StdRng::seed_from_u64(21);
        let shapes = [
            (1, 1),
            (7, 9),
            (15, 127),
            (16, 128),
            (17, 129),
            (31, 64),
            (32, 65),
            (33, 200),
            (48, 7),
            (100, 100),
            (127, 1000),
            (128, 1001),
            (129, 999),
            (255, 33),
            (256, 512),
        ];
        for (rows, cols) in shapes {
            let m = BitMatrix::from_fn(rows, cols, |_, _| rng.gen());
            crate::cpu::set_force_scalar(true);
            let want = m.transpose();
            crate::cpu::set_force_scalar(false);
            let got = m.transpose();
            crate::cpu::clear_force_scalar();
            assert_eq!(got, want, "{rows}x{cols}");
            // And both satisfy the bit-level definition.
            for r in 0..rows.min(40) {
                for c in 0..cols.min(40) {
                    assert_eq!(m.get(r, c), want.get(c, r));
                }
            }
        }
    }

    /// Band-internal kernel switching must not depend on where the
    /// parallel partitioner puts band boundaries.
    #[test]
    fn simd_parallel_matches_serial_scalar() {
        let _guard = crate::cpu::override_lock();
        let mut rng = StdRng::seed_from_u64(22);
        let m = BitMatrix::from_fn(500, 3000, |_, _| rng.gen());
        crate::cpu::set_force_scalar(true);
        let want = m.transpose();
        crate::cpu::set_force_scalar(false);
        for n in [1, 2, 4] {
            par::set_threads(n);
            let t = m.transpose();
            par::set_threads(0);
            assert_eq!(t, want, "threads={n}");
        }
        crate::cpu::clear_force_scalar();
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = BitMatrix::zero(4, 10);
        m.set(2, 9, true);
        assert!(m.get(2, 9));
        m.set(2, 9, false);
        assert!(!m.get(2, 9));
    }

    #[test]
    fn bytes_roundtrip() {
        let m = BitMatrix::from_fn(5, 13, |r, c| (r + c) % 3 == 0);
        let m2 = BitMatrix::from_bytes(5, 13, m.as_bytes().to_vec());
        assert_eq!(m, m2);
    }
}
