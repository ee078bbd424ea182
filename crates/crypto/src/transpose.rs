//! Bit-matrix transposition.
//!
//! IKNP-style OT extension works on an m×w bit matrix held column-wise by
//! one party and row-wise by the other; the protocol pivots between the two
//! views with a transpose. Rows are byte-packed, least-significant bit
//! first, matching the wire encoding in `secyan-transport`.

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
    /// bytes `i * cols.div_ceil(8) ..`.
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
    /// The inner loop dispatches (via [`crate::cpu`]) to the SSE2 movemask
    /// kernel's 16×8 tiles, with the scalar bit loop covering the column
    /// tail and the row remainder. The output is a pure function of the
    /// input, so the kernel choice cannot change a single output byte.
    pub fn transpose(&self) -> BitMatrix {
        let mut out = BitMatrix::zero(self.cols, self.rows);
        if self.rows == 0 || self.cols == 0 {
            return out;
        }
        let (src, rows, cols) = (&self.data[..], self.rows, self.cols);
        let (in_rb, out_rb) = (self.row_bytes(), out.row_bytes());
        let dst = &mut out.data[..];
        // The movemask kernel consumes whole input bytes (8 columns at a
        // time), so it covers the 8-aligned columns [0, cb); the tail
        // columns take the scalar loop.
        let cb = cols / 8 * 8;
        // Rows below `r_done` for columns [0, cb) were filled by a SIMD strip.
        let mut r_done = 0;
        #[cfg(target_arch = "x86_64")]
        if cb > 0 && crate::cpu::features().sse2 {
            r_done = rows / 16 * 16;
            // SAFETY: `sse2` comes from the runtime CPUID probe in
            // `cpu::features()`, so the SSE2 kernel is supported.
            unsafe { simd::strips_sse2(src, in_rb, out_rb, r_done, cb, dst) };
        }
        // Scalar coverage of whatever the kernels did not touch. Both
        // regions write disjoint (row, byte) slots of the zeroed output, so
        // order is irrelevant.
        transpose_bits_scalar(src, in_rb, out_rb, 0..rows, cb..cols, dst);
        transpose_bits_scalar(src, in_rb, out_rb, r_done..rows, 0..cb, dst);
        out
    }
}

/// Reference bit loop: transpose input bits (r, c) for r in `rows`,
/// c in `cols` into `dst`.
fn transpose_bits_scalar(
    src: &[u8],
    in_rb: usize,
    out_rb: usize,
    rows: core::ops::Range<usize>,
    cols: core::ops::Range<usize>,
    dst: &mut [u8],
) {
    for r in rows {
        let row = &src[r * in_rb..(r + 1) * in_rb];
        let (out_byte_col, out_bit) = (r / 8, r % 8);
        for c in cols.clone() {
            if row[c / 8] >> (c % 8) & 1 == 1 {
                dst[c * out_rb + out_byte_col] |= 1 << out_bit;
            }
        }
    }
}

/// Movemask transpose kernel (EMP/libOTe-style `sse_trans`).
///
/// A tile gathers the input byte holding columns `cc..cc+8` from 16
/// consecutive rows into one SSE2 vector, one row per lane. Peeling
/// the bit positions top-down — `movemask` reads every lane's MSB, then a
/// left shift promotes the next bit — yields, per iteration `b`, the packed
/// 16-row slice of input column `cc + b`, which is exactly a run of
/// output-row bytes: store it little-endian at byte `rr/8` of output row
/// `cc + b`. The per-lane shift is `slli_epi64`; its cross-byte carries
/// enter at bit 0 of the next lane byte and never climb to the MSB within
/// the ≤7 shifts performed, so every movemask reads clean bits. Matches
/// the crate's LSB-first packing bit-for-bit (asserted by the equivalence
/// tests below).
#[cfg(target_arch = "x86_64")]
mod simd {
    use core::arch::x86_64::*;

    /// 16-row SSE2 strips over input rows `0..rows` and columns `0..cols`.
    /// `rows` must be a multiple of 16 and `cols` a multiple of 8.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports SSE2.
    #[target_feature(enable = "sse2")]
    pub unsafe fn strips_sse2(
        src: &[u8],
        in_rb: usize,
        out_rb: usize,
        rows: usize,
        cols: usize,
        dst: &mut [u8],
    ) {
        debug_assert!(rows.is_multiple_of(16));
        debug_assert!(cols.is_multiple_of(8));
        for rr in (0..rows).step_by(16) {
            for cc in (0..cols).step_by(8) {
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
                    let off = (cc + b) * out_rb + rr / 8;
                    dst[off..off + 2].copy_from_slice(&mask.to_le_bytes());
                    x = _mm_slli_epi64::<1>(x);
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

    /// The SIMD arm must agree with the forced-scalar arm bit-for-bit on
    /// ragged shapes: rows/cols off every kernel boundary (8, 16, 128),
    /// including shapes where only head/tail scalar coverage runs.
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
