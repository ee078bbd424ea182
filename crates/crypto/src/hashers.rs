//! Tweakable correlation-robust hashing for garbling and OT extension.
//!
//! Garbled-circuit gates and IKNP rows hash a 128-bit block together with a
//! public tweak (gate id / row index). Production systems use fixed-key
//! AES for this (EMP, SECYAN's backend); [`TweakHasher`] reproduces that
//! construction from scratch (see [`crate::aes`]) and is the one hash of
//! every garbled gate, OT row and OPRF output in the workspace.
//!
//! It is the standard tweaked MMO construction
//! `H(x, t) = π(σ(x) ⊕ t) ⊕ σ(x)` with `π` the fixed-key AES permutation
//! and `σ` a linear orthomorphism (here `σ(hi ‖ lo) = (hi ⊕ lo) ‖ hi`),
//! which is circular-correlation-robust under the usual ideal-permutation
//! analysis. The batched entry points ([`TweakHasher::hash_batch`],
//! [`TweakHasher::hash_each_into`], …) hoist the key schedule and dispatch
//! out of the per-gate loop and hand the kernel whole batches of
//! independent blocks per call.
//!
//! The same construction is also the OT extension's column stream
//! ([`TweakHasher::stream_into`]): block `c` of the column keyed by `k` is
//! `H(k, τ + c)` under a tweak in [`STREAM_DOMAIN`], a single-key
//! Even–Mansour cipher with feed-forward per column — a PRF in the
//! ideal-permutation model, with no key schedule to run per column.

use crate::aes::{fixed_key, PIPELINE_WIDTH};
use crate::block::Block;
use crate::secret::Zeroize;

/// The hash used at each garbled gate / OT row: fixed-key AES-128 in the
/// tweaked MMO construction. A type with one value — there is nothing to
/// choose; the `hasher: TweakHasher` arguments left on a few public
/// signatures exist for `sybench/` alone (DESIGN.md §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TweakHasher {
    /// Fixed-key AES-128 in the tweaked MMO construction.
    #[default]
    Aes,
}

/// Tweak domain of the OT column stream: bits 63 and 62 set. Pad tweaks
/// carry bit 63 alone over an instance index below 2⁶², and gate tweaks
/// (twice an AND index) carry neither, so no stream tweak is a pad or a
/// gate tweak.
pub const STREAM_DOMAIN: u64 = 0b11 << 62;

/// Blocks per kernel call of [`TweakHasher::stream_into`]: whole
/// pipelines, across row boundaries.
const STREAM_CHUNK: usize = 8 * PIPELINE_WIDTH;

/// The linear orthomorphism σ(hi ‖ lo) = (hi ⊕ lo) ‖ hi. Both σ and
/// x ↦ σ(x) ⊕ x are bijective, which is what the MMO security proof needs.
#[inline]
fn sigma(x: u128) -> u128 {
    let hi = x >> 64;
    let lo = x & u64::MAX as u128;
    ((hi ^ lo) << 64) | hi
}

impl TweakHasher {
    /// Hash one block under a tweak.
    #[inline]
    pub fn hash(self, b: Block, tweak: u64) -> Block {
        let s = sigma(b.0);
        Block(fixed_key().encrypt_u128(s ^ tweak as u128) ^ s)
    }

    /// Hash a slice of blocks, block `j` under tweak `tweak_base + j` —
    /// the shape of post-transpose IKNP row hashing. One kernel dispatch
    /// per 8 blocks.
    pub fn hash_batch(self, xs: &[Block], tweak_base: u64) -> Vec<Block> {
        let mut sig: Vec<u128> = xs.iter().map(|x| sigma(x.0)).collect();
        let mut buf: Vec<u128> = sig
            .iter()
            .enumerate()
            .map(|(j, &s)| s ^ tweak_base.wrapping_add(j as u64) as u128)
            .collect();
        fixed_key().encrypt_blocks(&mut buf);
        let out = buf.iter().zip(&sig).map(|(&c, &s)| Block(c ^ s)).collect();
        // The scratch holds σ(label) images — label material.
        sig.zeroize();
        buf.zeroize();
        out
    }

    /// Hash every block of `xs`, block `j` under its own `tweaks[j]`, into
    /// `out`. This is the fully general batched shape: the garbler and the
    /// evaluator use it to hand the AES kernel one level × tile of gate
    /// hashes (4 per AND garbling, 2 evaluating) as one contiguous batch.
    /// Serial by design: tiled garbling already fans its tiles out across
    /// `secyan-par` threads, and each thread makes its own calls.
    pub fn hash_each_into(self, xs: &[Block], tweaks: &[u64], out: &mut [Block]) {
        assert_eq!(xs.len(), tweaks.len(), "hash_each wants aligned slices");
        assert_eq!(xs.len(), out.len(), "hash_each wants aligned slices");
        // `out` holds σ(x) while the permutation runs on a copy.
        let mut buf: Vec<u128> = Vec::with_capacity(xs.len());
        for ((o, x), &t) in out.iter_mut().zip(xs).zip(tweaks) {
            *o = Block(sigma(x.0));
            buf.push(o.0 ^ t as u128);
        }
        fixed_key().encrypt_blocks(&mut buf);
        for (o, &c) in out.iter_mut().zip(&buf) {
            o.0 ^= c;
        }
        // The scratch holds σ(label) images — label material.
        buf.zeroize();
    }

    /// Counter-mode stream: `rows` holds one row per key, back to back and
    /// of equal length, and row `i` becomes the blocks
    /// `H(keys[i], tweak + c)` for c = 0, 1, …, little-endian, the last one
    /// cut to the row's length. Returns the blocks each row drew, so a
    /// caller's counter can move past them. The blocks reach the kernel 64
    /// at a time across row boundaries, so short rows still fill the
    /// pipeline; nothing is keyed and nothing is kept per row.
    pub fn stream_into(self, keys: &[Block], tweak: u64, rows: &mut [u8]) -> u64 {
        // `max(1)`: with no rows there is nothing to split or to fill.
        let row_bytes = rows.len() / keys.len().max(1);
        assert_eq!(row_bytes * keys.len(), rows.len(), "one row per key");
        let mut buf = [0u128; STREAM_CHUNK];
        let mut dst = Vec::with_capacity(STREAM_CHUNK);
        for (k, row) in keys.iter().zip(rows.chunks_exact_mut(row_bytes.max(1))) {
            for (c, out) in row.chunks_mut(16).enumerate() {
                buf[dst.len()] = sigma(k.0) ^ tweak.wrapping_add(c as u64) as u128;
                dst.push((k, out));
                if dst.len() == STREAM_CHUNK {
                    stream_flush(&mut buf, &mut dst);
                }
            }
        }
        stream_flush(&mut buf, &mut dst);
        // π(σ(k) ⊕ τ) and a column's block give away σ(k): scrub.
        buf.zeroize();
        row_bytes.div_ceil(16) as u64
    }

    /// Hash a wide row (N bytes, N a multiple of 16 — checked at compile
    /// time) down to 64 bits under a tweak — the KKRT OPRF output masking.
    /// Chains the single-key Matyas–Meyer–Oseas compression
    /// h' = π(h ⊕ m) ⊕ h ⊕ m over the row's 16-byte words, seeded with the
    /// tweak.
    ///
    /// ```compile_fail
    /// secyan_crypto::TweakHasher::Aes.hash_row(0, &[0u8; 24]);
    /// ```
    /// ```compile_fail
    /// secyan_crypto::TweakHasher::Aes.hash_row_batch(0, &[[0u8; 24]]);
    /// ```
    pub fn hash_row<const N: usize>(self, tweak: u64, row: &[u8; N]) -> u64 {
        const { assert!(N.is_multiple_of(16), "row length must be a multiple of 16") };
        let mut h = tweak as u128;
        for chunk in row.chunks_exact(16) {
            let m = u128::from_le_bytes(chunk.try_into().expect("16-byte chunk"));
            let t = h ^ m;
            h = fixed_key().encrypt_u128(t) ^ t;
        }
        h as u64
    }

    /// Batched [`TweakHasher::hash_row`]: row `j` hashes under tweak
    /// `tweak_base + j`. All chains of a chunk of [`PIPELINE_WIDTH`] rows
    /// advance together, so every kernel dispatch carries a full pipeline
    /// of independent blocks.
    pub fn hash_row_batch<const N: usize>(self, tweak_base: u64, rows: &[[u8; N]]) -> Vec<u64> {
        const { assert!(N.is_multiple_of(16), "row length must be a multiple of 16") };
        let mut out = Vec::with_capacity(rows.len());
        let mut h: Vec<u128> = Vec::with_capacity(PIPELINE_WIDTH);
        let mut t = vec![0u128; PIPELINE_WIDTH];
        for (c, chunk) in rows.chunks(PIPELINE_WIDTH).enumerate() {
            h.clear();
            h.extend(
                (0..chunk.len())
                    .map(|j| tweak_base.wrapping_add((c * PIPELINE_WIDTH + j) as u64) as u128),
            );
            for k in 0..N / 16 {
                for (j, row) in chunk.iter().enumerate() {
                    let m = u128::from_le_bytes(
                        row[16 * k..16 * (k + 1)].try_into().expect("16 bytes"),
                    );
                    t[j] = h[j] ^ m;
                }
                h.copy_from_slice(&t[..chunk.len()]);
                fixed_key().encrypt_blocks(&mut h);
                for j in 0..chunk.len() {
                    h[j] ^= t[j];
                }
            }
            out.extend(h.iter().map(|&x| x as u64));
        }
        // Chain state mixes OPRF row material; scrub it.
        h.zeroize();
        t.zeroize();
        out
    }
}

/// Run the staged stream blocks through the kernel and write each, fed
/// forward with its key's σ, to its row.
fn stream_flush(buf: &mut [u128], dst: &mut Vec<(&Block, &mut [u8])>) {
    fixed_key().encrypt_blocks(&mut buf[..dst.len()]);
    for ((k, out), &c) in dst.drain(..).zip(&*buf) {
        out.copy_from_slice(&(c ^ sigma(k.0)).to_le_bytes()[..out.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: TweakHasher = TweakHasher::Aes;

    #[test]
    fn deterministic_and_tweak_sensitive() {
        let b = Block(12345);
        assert_eq!(H.hash(b, 1), H.hash(b, 1));
        assert_ne!(H.hash(b, 1), H.hash(b, 2));
        assert_ne!(H.hash(b, 1), H.hash(Block(12346), 1));
    }

    #[test]
    fn aes_hash_differs_from_input_and_spreads() {
        // H(x, t) must not leak σ(x) or x trivially.
        let b = Block(0xdead_beef);
        let h = H.hash(b, 3);
        assert_ne!(h, b);
        let h2 = H.hash(Block(0xdead_beee), 3);
        assert!((h.0 ^ h2.0).count_ones() > 30, "poor diffusion");
    }

    #[test]
    fn sigma_is_an_orthomorphism() {
        // σ and σ ⊕ id are both injective on a sample.
        let mut seen_s = std::collections::HashSet::new();
        let mut seen_sx = std::collections::HashSet::new();
        for i in 0..1000u128 {
            let x = i.wrapping_mul(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
            assert!(seen_s.insert(sigma(x)));
            assert!(seen_sx.insert(sigma(x) ^ x));
        }
    }

    #[test]
    fn batch_equals_per_element_hash() {
        let xs: Vec<Block> = (0..37u128).map(|i| Block(i * 0x9e37_79b9)).collect();
        let batch = H.hash_batch(&xs, 1000);
        assert_eq!(batch.len(), xs.len());
        for (j, &x) in xs.iter().enumerate() {
            assert_eq!(batch[j], H.hash(x, 1000 + j as u64), "element {j}");
        }
    }

    #[test]
    fn hash_each_equals_per_element_hash() {
        let xs: Vec<Block> = (0..23u128).map(|i| Block(i * 31 + 2)).collect();
        let tweaks: Vec<u64> = (0..23u64).map(|i| i.wrapping_mul(0x7777) ^ 5).collect();
        let mut got = vec![Block(0); xs.len()];
        H.hash_each_into(&xs, &tweaks, &mut got);
        for j in 0..xs.len() {
            assert_eq!(got[j], H.hash(xs[j], tweaks[j]), "element {j}");
        }
    }

    #[test]
    fn row_hash_batch_equals_scalar_and_is_tweak_sensitive() {
        let rows: Vec<[u8; 64]> = (0..21u8).map(|i| [i; 64]).collect();
        let batch = H.hash_row_batch(500, &rows);
        for (j, row) in rows.iter().enumerate() {
            assert_eq!(batch[j], H.hash_row(500 + j as u64, row), "row {j}");
        }
        assert_ne!(H.hash_row(1, &rows[0]), H.hash_row(2, &rows[0]));
        assert_ne!(H.hash_row(1, &rows[0]), H.hash_row(1, &rows[1]));
    }

    #[test]
    fn tweak_hash_known_answers() {
        // Recorded at the commit before the hasher option was removed.
        let h = TweakHasher::Aes;
        let xs: Vec<Block> = (0..11u128)
            .map(|i| Block(i.wrapping_mul(0x0123_4567_89ab_cdef_0011_2233_4455_6677) ^ 0xa5))
            .collect();
        let tweaks: Vec<u64> = (0..11u64).map(|i| i.wrapping_mul(0x7777) ^ 5).collect();
        let rows: Vec<[u8; 64]> = (0..10u8)
            .map(|i| std::array::from_fn(|k| i.wrapping_mul(37) ^ (k as u8).wrapping_mul(11)))
            .collect();
        assert_eq!(h.hash(xs[3], 9).0, 0xa379776dba36f2b697541db5bd306a26);

        // 11 blocks: one full kernel batch of 8 plus a tail.
        let batch = h.hash_batch(&xs, 1000);
        let want_batch: [u128; 11] = [
            0x8cef580887463436f5de0d84340f8f6c,
            0xa644fe01b8a1399d0dbccb08b8e55ca6,
            0xf320827fba81fbd77de24e06dd6f337d,
            0x3a431076f533ee7e14330357c1c3839d,
            0x13bf65a186e5253901f71eae4eba7cea,
            0xd6583513ec8ab00d3948aa60b98822c3,
            0xe00d55925552d8cd6107b8eee75dd4ef,
            0xf081d9239a528961acfc11adad2f90bd,
            0x007c70186bf088692499d28d88f2e724,
            0x0df59fea9ad7e22011a64b04414507ab,
            0xe54a4484b59d37e9ec7c455a25a7ac9f,
        ];
        assert_eq!(batch.iter().map(|b| b.0).collect::<Vec<_>>(), want_batch);

        let mut each = vec![Block(0); xs.len()];
        h.hash_each_into(&xs, &tweaks, &mut each);
        assert_eq!(each[0].0, 0xb224efae661376189fbe7867ca6b5431);
        assert_eq!(each[10].0, 0xde7bbd6de8acaeea472ba02c4492896d);
        for j in 0..xs.len() {
            assert_eq!(
                batch[j],
                h.hash(xs[j], 1000 + j as u64),
                "batch element {j}"
            );
            assert_eq!(each[j], h.hash(xs[j], tweaks[j]), "each element {j}");
        }

        assert_eq!(h.hash_row(7, &rows[2]), 0x13e2c36222055800);
        let row_batch = h.hash_row_batch(500, &rows);
        let want_rows: [u64; 10] = [
            0x5c1b74b31ebe270e,
            0xdab0e06e0415741d,
            0x3826ff48f412a9c0,
            0x2d4213b30779d7dc,
            0xed5dea7fb84bfbc6,
            0xc7be79314cfa0f65,
            0x8de0ca14079afeb8,
            0xd40c9b5f0d05d402,
            0xccae37346670a6e6,
            0x2850fd5e466ad7cb,
        ];
        assert_eq!(row_batch, want_rows);
        for (j, row) in rows.iter().enumerate() {
            assert_eq!(row_batch[j], h.hash_row(500 + j as u64, row), "row {j}");
        }
    }

    /// `cols` keys spread over the block, and their stream at `tweak`.
    fn stream(cols: usize, row_bytes: usize, tweak: u64, salt: u128) -> (Vec<Block>, Vec<u8>) {
        let keys: Vec<Block> = (0..cols as u128)
            .map(|i| Block((i + salt).wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835)))
            .collect();
        let mut rows = vec![0u8; cols * row_bytes];
        let blocks = H.stream_into(&keys, tweak, &mut rows);
        assert_eq!(
            blocks,
            row_bytes.div_ceil(16) as u64,
            "blocks drawn per row"
        );
        (keys, rows)
    }

    /// The stream by its definition: block `c` of row `i` is
    /// `H(keys[i], tweak + c)`, cut to the row.
    fn stream_by_definition(keys: &[Block], row_bytes: usize, tweak: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(keys.len() * row_bytes);
        for &k in keys {
            let blocks =
                (0..row_bytes.div_ceil(16) as u64).flat_map(|c| H.hash(k, tweak + c).to_bytes());
            out.extend(blocks.take(row_bytes));
        }
        out
    }

    #[test]
    fn stream_equals_its_definition_on_both_arms() {
        let _guard = crate::cpu::override_lock();
        for force in [false, true] {
            crate::cpu::set_force_scalar(force);
            for cols in [1, 3, 128, 512] {
                for row_bytes in [1, 15, 16, 17, 1025] {
                    let tweak = STREAM_DOMAIN | 77;
                    let (keys, rows) = stream(cols, row_bytes, tweak, 5);
                    assert!(
                        rows == stream_by_definition(&keys, row_bytes, tweak),
                        "{cols} columns of {row_bytes} bytes (scalar forced: {force})"
                    );
                }
            }
        }
        crate::cpu::clear_force_scalar();
    }

    #[test]
    fn stream_counter_continues_across_fills() {
        // Two fills of a and b blocks, the second at tweak + a, are one
        // fill of a + b blocks, row by row; the second may end in a tail.
        for (a, b_bytes) in [(1, 16), (3, 17), (64, 1)] {
            let (_, whole) = stream(9, 16 * a + b_bytes, STREAM_DOMAIN, 0);
            let (_, first) = stream(9, 16 * a, STREAM_DOMAIN, 0);
            let (_, second) = stream(9, b_bytes, STREAM_DOMAIN + a as u64, 0);
            let glued: Vec<u8> = first
                .chunks(16 * a)
                .zip(second.chunks(b_bytes))
                .flat_map(|(x, y)| [x, y].concat())
                .collect();
            assert_eq!(glued, whole, "{a} blocks then {b_bytes} bytes");
        }
        // Nothing to fill: nothing written, no block drawn.
        assert_eq!(H.stream_into(&[Block(1)], STREAM_DOMAIN, &mut []), 0);
        assert_eq!(H.stream_into(&[], STREAM_DOMAIN, &mut []), 0);
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        assert_eq!(
            stream(4, 40, STREAM_DOMAIN, 42),
            stream(4, 40, STREAM_DOMAIN, 42)
        );
    }

    #[test]
    fn stream_seed_separates_streams() {
        assert_ne!(
            stream(1, 32, STREAM_DOMAIN, 1).1,
            stream(1, 32, STREAM_DOMAIN, 2).1
        );
    }

    #[test]
    fn stream_domain_separates_streams() {
        let other = STREAM_DOMAIN | 1 << 61;
        assert_ne!(
            stream(1, 32, STREAM_DOMAIN, 42).1,
            stream(1, 32, other, 42).1
        );
    }

    #[test]
    fn stream_known_answers() {
        // Three columns of 33 bytes (two blocks and a one-byte tail) at
        // block counter 5: pins σ, the feed-forward and STREAM_DOMAIN.
        assert_eq!(STREAM_DOMAIN, 0xc000_0000_0000_0000);
        let (_, rows) = stream(3, 33, STREAM_DOMAIN | 5, 7);
        let hex: Vec<String> = rows
            .chunks(33)
            .map(|r| r.iter().map(|b| format!("{b:02x}")).collect())
            .collect();
        assert_eq!(
            hex,
            [
                "237076884c9b619ce8890974b97d5cd68e2d46f24c6fb436792e17e4b770f8b3f9",
                "aaa6be84dcec518b2434176ea2eb99dadf0ac72fd9aa5008da9a98531f9f8d985f",
                "20c8dd4b5b8f8dd903427e5cc941915c09eef7fbc6c75f1e2e31eba95aa2481fea",
            ]
        );
    }
}
