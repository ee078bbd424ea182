//! From-scratch AES-128, specialized for fixed-key use.
//!
//! Garbling and OT extension hash one 128-bit block per gate / per row, and
//! production systems (EMP, SECYAN's backend) get their per-gate speed from
//! fixed-key AES used as a correlation-robust permutation. This module
//! provides that permutation without any external dependency:
//!
//! * a FIPS-197 key schedule computed **once** per key (the hot path uses a
//!   single process-wide fixed key, see [`fixed_key`]);
//! * table-based rounds (four 1 KiB T-tables, generated at compile time
//!   from the GF(2^8) algebra, so no 256-entry constants are transcribed by
//!   hand);
//! * a hardware AES-NI path on x86_64, selected at runtime through
//!   [`crate::cpu`], which pipelines 8 blocks at a time;
//! * batched APIs ([`Aes128::encrypt_blocks`]) so callers amortize the
//!   dispatch and let independent blocks overlap in the pipeline.
//!
//! This is an *encryption-only* AES: the MMO hash construction in
//! [`crate::hashers`] never decrypts. Like the rest of the crate, the
//! software path is not constant-time (table lookups are key- and
//! data-dependent); see the security caveat in DESIGN.md §3.

/// Number of round keys (AES-128: 10 rounds + initial whitening).
const ROUND_KEYS: usize = 11;

/// The batch width the hardware path pipelines per dispatch: 8 AESENC
/// chains in flight covers the instruction's latency on every AES-NI core
/// shipped to date. Callers that assemble their own batches (the hashers,
/// OT row hashing, KKRT masking) should size buffers in multiples of this
/// so the round loops always present full batches.
pub const PIPELINE_WIDTH: usize = 8;

/// GF(2^8) multiplication modulo x^8 + x^4 + x^3 + x + 1.
const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        let carry = a & 0x80;
        a <<= 1;
        if carry != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// Multiplicative inverse in GF(2^8) as x^254 (0 maps to 0).
const fn ginv(x: u8) -> u8 {
    let mut result = 1u8;
    let mut base = x;
    let mut e = 254u32;
    while e > 0 {
        if e & 1 == 1 {
            result = gmul(result, base);
        }
        base = gmul(base, base);
        e >>= 1;
    }
    result
}

/// The AES S-box: affine transform of the field inverse.
const fn sbox_entry(x: u8) -> u8 {
    let i = ginv(x);
    i ^ i.rotate_left(1) ^ i.rotate_left(2) ^ i.rotate_left(3) ^ i.rotate_left(4) ^ 0x63
}

const fn generate_sbox() -> [u8; 256] {
    let mut s = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        s[i] = sbox_entry(i as u8);
        i += 1;
    }
    s
}

/// SubBytes table.
static SBOX: [u8; 256] = generate_sbox();

/// T-table 0: `Te0[x]` packs `(2·S(x), S(x), S(x), 3·S(x))` big-endian, so
/// one lookup performs SubBytes + MixColumns for one state byte. Tables
/// 1–3 are byte rotations of table 0.
const fn generate_te0() -> [u32; 256] {
    let sbox = generate_sbox();
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = sbox[i];
        t[i] = ((gmul(s, 2) as u32) << 24)
            | ((s as u32) << 16)
            | ((s as u32) << 8)
            | (gmul(s, 3) as u32);
        i += 1;
    }
    t
}

static TE0: [u32; 256] = generate_te0();

const fn rotate_table(t: [u32; 256], r: u32) -> [u32; 256] {
    let mut out = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        out[i] = t[i].rotate_right(r);
        i += 1;
    }
    out
}

static TE1: [u32; 256] = rotate_table(generate_te0(), 8);
static TE2: [u32; 256] = rotate_table(generate_te0(), 16);
static TE3: [u32; 256] = rotate_table(generate_te0(), 24);

/// An expanded AES-128 key. Construct once, encrypt many: the whole point
/// of the fixed-key design is that the schedule and table lookups are paid
/// per process, not per gate.
#[derive(Clone)]
pub struct Aes128 {
    /// Round keys as big-endian u32 words (software T-table path).
    rk: [u32; 4 * ROUND_KEYS],
    /// Round keys as raw bytes (hardware path loads these directly).
    rk_bytes: [[u8; 16]; ROUND_KEYS],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128")
            .field("use_ni", &crate::cpu::features().aes)
            .finish()
    }
}

impl Aes128 {
    /// Expand `key` into the round-key schedule (FIPS-197 §5.2).
    pub fn new(key: [u8; 16]) -> Aes128 {
        let mut rk = [0u32; 4 * ROUND_KEYS];
        for i in 0..4 {
            rk[i] =
                u32::from_be_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        let mut rcon: u8 = 1;
        for i in 4..4 * ROUND_KEYS {
            let mut t = rk[i - 1];
            if i % 4 == 0 {
                t = sub_word(t.rotate_left(8)) ^ ((rcon as u32) << 24);
                rcon = gmul(rcon, 2);
            }
            rk[i] = rk[i - 4] ^ t;
        }
        let mut rk_bytes = [[0u8; 16]; ROUND_KEYS];
        for (r, out) in rk_bytes.iter_mut().enumerate() {
            for c in 0..4 {
                out[4 * c..4 * c + 4].copy_from_slice(&rk[4 * r + c].to_be_bytes());
            }
        }
        Aes128 { rk, rk_bytes }
    }

    /// Encrypt one 16-byte block.
    pub fn encrypt(&self, block: [u8; 16]) -> [u8; 16] {
        self.encrypt_u128(u128::from_le_bytes(block)).to_le_bytes()
    }

    /// Encrypt a block given as a `u128` in the [`crate::Block`] convention
    /// (little-endian byte order): a batch of one.
    #[inline]
    pub fn encrypt_u128(&self, x: u128) -> u128 {
        let mut one = [x];
        self.encrypt_blocks(&mut one);
        one[0]
    }

    /// Encrypt every block of `xs` in place (the batched hot-path entry:
    /// independent blocks overlap in the pipeline; the hardware path runs
    /// [`PIPELINE_WIDTH`]-wide software-pipelined rounds, then the
    /// remainder one block at a time). Dispatch is per call (a relaxed
    /// atomic load via [`crate::cpu::features`]), so `SECYAN_FORCE_SCALAR`
    /// and the test override apply even to long-lived keys like
    /// [`fixed_key`].
    pub fn encrypt_blocks(&self, xs: &mut [u128]) {
        #[cfg(target_arch = "x86_64")]
        if crate::cpu::features().aes {
            // SAFETY: gated on the runtime CPUID probe (aes+sse2).
            unsafe { ni::encrypt_many(&self.rk_bytes, xs) };
            return;
        }
        for x in xs.iter_mut() {
            *x = u128::from_le_bytes(self.encrypt_soft(x.to_le_bytes()));
        }
    }

    /// Software T-table rounds.
    fn encrypt_soft(&self, block: [u8; 16]) -> [u8; 16] {
        let rk = &self.rk;
        let mut s0 = u32::from_be_bytes([block[0], block[1], block[2], block[3]]) ^ rk[0];
        let mut s1 = u32::from_be_bytes([block[4], block[5], block[6], block[7]]) ^ rk[1];
        let mut s2 = u32::from_be_bytes([block[8], block[9], block[10], block[11]]) ^ rk[2];
        let mut s3 = u32::from_be_bytes([block[12], block[13], block[14], block[15]]) ^ rk[3];
        for round in 1..ROUND_KEYS - 1 {
            let t0 = TE0[(s0 >> 24) as usize]
                ^ TE1[((s1 >> 16) & 0xff) as usize]
                ^ TE2[((s2 >> 8) & 0xff) as usize]
                ^ TE3[(s3 & 0xff) as usize]
                ^ rk[4 * round];
            let t1 = TE0[(s1 >> 24) as usize]
                ^ TE1[((s2 >> 16) & 0xff) as usize]
                ^ TE2[((s3 >> 8) & 0xff) as usize]
                ^ TE3[(s0 & 0xff) as usize]
                ^ rk[4 * round + 1];
            let t2 = TE0[(s2 >> 24) as usize]
                ^ TE1[((s3 >> 16) & 0xff) as usize]
                ^ TE2[((s0 >> 8) & 0xff) as usize]
                ^ TE3[(s1 & 0xff) as usize]
                ^ rk[4 * round + 2];
            let t3 = TE0[(s3 >> 24) as usize]
                ^ TE1[((s0 >> 16) & 0xff) as usize]
                ^ TE2[((s1 >> 8) & 0xff) as usize]
                ^ TE3[(s2 & 0xff) as usize]
                ^ rk[4 * round + 3];
            (s0, s1, s2, s3) = (t0, t1, t2, t3);
        }
        // Final round: SubBytes + ShiftRows only.
        let base = 4 * (ROUND_KEYS - 1);
        let t0 = final_word(s0, s1, s2, s3) ^ rk[base];
        let t1 = final_word(s1, s2, s3, s0) ^ rk[base + 1];
        let t2 = final_word(s2, s3, s0, s1) ^ rk[base + 2];
        let t3 = final_word(s3, s0, s1, s2) ^ rk[base + 3];
        let mut out = [0u8; 16];
        out[0..4].copy_from_slice(&t0.to_be_bytes());
        out[4..8].copy_from_slice(&t1.to_be_bytes());
        out[8..12].copy_from_slice(&t2.to_be_bytes());
        out[12..16].copy_from_slice(&t3.to_be_bytes());
        out
    }
}

/// SubBytes on each byte of a word (key schedule).
fn sub_word(w: u32) -> u32 {
    let b = w.to_be_bytes();
    u32::from_be_bytes([
        SBOX[b[0] as usize],
        SBOX[b[1] as usize],
        SBOX[b[2] as usize],
        SBOX[b[3] as usize],
    ])
}

/// One output word of the final round, assembled from the shifted rows.
#[inline]
fn final_word(a: u32, b: u32, c: u32, d: u32) -> u32 {
    ((SBOX[(a >> 24) as usize] as u32) << 24)
        | ((SBOX[((b >> 16) & 0xff) as usize] as u32) << 16)
        | ((SBOX[((c >> 8) & 0xff) as usize] as u32) << 8)
        | (SBOX[(d & 0xff) as usize] as u32)
}

/// The process-wide fixed key used by the tweakable hash. The value is a
/// nothing-up-my-sleeve constant (the first 32 hex digits of π, as used by
/// several fixed-key garbling implementations); any public constant works —
/// security rests on the tweak schedule, not key secrecy.
pub fn fixed_key() -> &'static Aes128 {
    static FIXED: std::sync::OnceLock<Aes128> = std::sync::OnceLock::new();
    FIXED.get_or_init(|| {
        Aes128::new([
            0x24, 0x3f, 0x6a, 0x88, 0x85, 0xa3, 0x08, 0xd3, 0x13, 0x19, 0x8a, 0x2e, 0x03, 0x70,
            0x73, 0x44,
        ])
    })
}

/// Hardware AES on x86_64. Feature gating lives in [`crate::cpu`]: every
/// entry point here assumes the caller checked `cpu::features().aes`. On
/// other architectures the module is absent and the T-table path runs
/// everywhere.
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::{PIPELINE_WIDTH, ROUND_KEYS};
    use std::arch::x86_64::*;

    #[inline]
    fn load_keys(rk: &[[u8; 16]; ROUND_KEYS]) -> [__m128i; ROUND_KEYS] {
        // SAFETY: sse2 is baseline on x86_64, and each unaligned load reads
        // 16 bytes from a valid `[u8; 16]` borrowed for the call.
        unsafe {
            let mut k = [_mm_setzero_si128(); ROUND_KEYS];
            for (dst, src) in k.iter_mut().zip(rk) {
                *dst = _mm_loadu_si128(src.as_ptr() as *const __m128i);
            }
            k
        }
    }

    /// Software-pipelined rounds at compile-time width `W`: all `W` states
    /// advance through each round together, so `W` independent AESENC
    /// dependency chains are in flight at once.
    ///
    /// # Safety
    ///
    /// The caller must have verified the `aes` target feature is available
    /// (check [`crate::cpu::features`]).
    #[target_feature(enable = "aes")]
    unsafe fn encrypt_w<const W: usize>(k: &[__m128i; ROUND_KEYS], chunk: &mut [u128]) {
        debug_assert_eq!(chunk.len(), W);
        // SAFETY: the enclosing fn's contract guarantees the `aes` feature;
        // every load/store dereferences a `&u128`/`&mut u128` from the
        // chunk, which is valid and exclusive for the call.
        unsafe {
            let mut b = [_mm_setzero_si128(); W];
            for (dst, src) in b.iter_mut().zip(chunk.iter()) {
                *dst = _mm_loadu_si128(src as *const u128 as *const __m128i);
            }
            for lane in b.iter_mut() {
                *lane = _mm_xor_si128(*lane, k[0]);
            }
            for key in k.iter().take(ROUND_KEYS - 1).skip(1) {
                for lane in b.iter_mut() {
                    *lane = _mm_aesenc_si128(*lane, *key);
                }
            }
            for lane in b.iter_mut() {
                *lane = _mm_aesenclast_si128(*lane, k[ROUND_KEYS - 1]);
            }
            for (dst, src) in chunk.iter_mut().zip(b.iter()) {
                _mm_storeu_si128(dst as *mut u128 as *mut __m128i, *src);
            }
        }
    }

    /// Encrypt a slice of blocks: [`PIPELINE_WIDTH`]-wide pipelined groups,
    /// then the remainder one block at a time.
    ///
    /// # Safety
    ///
    /// The caller must have verified the `aes` target feature is available
    /// (check [`crate::cpu::features`]).
    #[target_feature(enable = "aes")]
    pub unsafe fn encrypt_many(rk: &[[u8; 16]; ROUND_KEYS], xs: &mut [u128]) {
        let k = load_keys(rk);
        let mut groups = xs.chunks_exact_mut(PIPELINE_WIDTH);
        for group in &mut groups {
            // SAFETY: forwarded from this function's own contract.
            unsafe { encrypt_w::<PIPELINE_WIDTH>(&k, group) };
        }
        for x in groups.into_remainder() {
            // SAFETY: forwarded from this function's own contract.
            unsafe { encrypt_w::<1>(&k, std::slice::from_mut(x)) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS-197 Appendix B: full cipher example.
    #[test]
    fn fips197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let plain = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let cipher = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        assert_eq!(Aes128::new(key).encrypt(plain), cipher);
    }

    /// FIPS-197 Appendix C.1: AES-128 known-answer vector.
    #[test]
    fn fips197_appendix_c1() {
        let key = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let plain = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let cipher = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        assert_eq!(Aes128::new(key).encrypt(plain), cipher);
    }

    /// The generated S-box must match the spot values in FIPS-197 Figure 7.
    #[test]
    fn sbox_spot_values() {
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
    }

    /// The software path and (when present) the hardware path agree.
    #[test]
    fn soft_and_hw_paths_agree() {
        let aes = Aes128::new(*b"0123456789abcdef");
        for i in 0..64u128 {
            let x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c834);
            let soft = u128::from_le_bytes(aes.encrypt_soft(x.to_le_bytes()));
            assert_eq!(aes.encrypt_u128(x), soft, "block {i}");
        }
    }

    /// Batched encryption equals per-block encryption for every chunk shape
    /// (the hardware path splits into 8-wide chunks plus a remainder).
    #[test]
    fn batch_matches_single() {
        let aes = fixed_key();
        for n in [0usize, 1, 7, 8, 9, 16, 23] {
            let mut batch: Vec<u128> = (0..n as u128).map(|i| i * 0x1234_5678_9abc_def1).collect();
            let singles: Vec<u128> = batch.iter().map(|&x| aes.encrypt_u128(x)).collect();
            aes.encrypt_blocks(&mut batch);
            assert_eq!(batch, singles, "batch size {n}");
        }
    }

    /// The wide pipeline must equal the forced-scalar (T-table) arm on
    /// every chunk shape, including the one-block remainders.
    #[test]
    fn wide_pipeline_matches_forced_scalar() {
        let _guard = crate::cpu::override_lock();
        let aes = fixed_key();
        for n in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 64] {
            let mk = |_: ()| -> Vec<u128> {
                (0..n as u128)
                    .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c834))
                    .collect()
            };
            crate::cpu::set_force_scalar(true);
            let mut want = mk(());
            aes.encrypt_blocks(&mut want);
            crate::cpu::set_force_scalar(false);
            let mut got = mk(());
            aes.encrypt_blocks(&mut got);
            crate::cpu::clear_force_scalar();
            assert_eq!(got, want, "batch size {n}");
        }
    }

    /// Encryption is a permutation: distinct inputs give distinct outputs
    /// (sanity over a small sample).
    #[test]
    fn injective_on_sample() {
        let aes = fixed_key();
        let outs: std::collections::HashSet<u128> =
            (0..1000u128).map(|i| aes.encrypt_u128(i)).collect();
        assert_eq!(outs.len(), 1000);
    }
}
