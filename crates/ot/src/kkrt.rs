//! KKRT batched oblivious PRF (BaRK-OPRF).
//!
//! The wide-matrix (w = 512) cousin of IKNP: for a batch of m inputs, the
//! *receiver* learns F(j, x_j) for its j-th input x_j, while the *sender*
//! learns a key that lets it evaluate F(j, ·) at arbitrary points. That
//! asymmetry is exactly what the OPPRF hint construction in circuit PSI
//! needs (`secyan-psi::opprf`): the sender programs corrections
//! F(j, y) ⊕ target for each of its own elements y.
//!
//! Outputs are truncated to 64 bits so they embed into GF(2^64) for the
//! polynomial hints; the 2^{-64} collision probability keeps the total
//! failure probability under the paper's 2^{-σ}, σ = 40, for all workload
//! sizes used here.
//!
//! The matrix work is the shared engine (`ext.rs`) at 64-byte rows;
//! this module adds what is KKRT's own: the pseudorandom code `C` in place
//! of IKNP's repetition code, the row hash keyed by the instance index,
//! and the code-word derandomisation of banked instances.
//!
//! # Banks
//!
//! The KKRT correlation is linear in the code: the extension leaves the
//! sender with `q_j = t_j ⊕ (C(x_j) & s)`. [`KkrtSender::bank`] /
//! [`KkrtReceiver::bank`] run it offline against a *random* code word
//! `c'_j`, giving `q'_j = t_j ⊕ (c'_j & s)`; when the real input arrives
//! the receiver sends `d_j = C(x_j) ⊕ c'_j` (uniform, since `c'_j` is) and
//! the sender folds in `d_j & s`, recovering exactly the online
//! correlation. The online message replaces the column bundle of a fresh
//! extension at the same per-instance width, so banking trades no extra
//! bytes for moving the PRG expansion, the column masking, and both
//! bit-matrix transposes off the critical path. Banked material is
//! single-use: entries are zeroized as they are taken, and the rest on
//! drop.

use crate::ext::{Bank, ExtReceiver, ExtSender};
use rand::Rng;
use secyan_crypto::sha256::Sha256;
use secyan_crypto::transpose::BitMatrix;
use secyan_crypto::{zeroize_bytes, Secret, TweakHasher, Zeroize};
use secyan_par as par;
use secyan_transport::{Channel, WriteExt};

/// Minimum batch size before the (SHA-heavy) input-encoding map uses the
/// worker pool; each element costs two compression-function calls, so the
/// bar is far lower than for PRG column expansion.
const CODES_PER_PART: usize = 128;

/// Matrix width w: the pseudorandom-code length in bits.
pub const WIDTH: usize = 512;
const WIDTH_BYTES: usize = WIDTH / 8;

/// One code word / one row of the w-bit extension matrix.
type Word = [u8; WIDTH_BYTES];

/// Domain label of the column PRGs.
const COL_LABEL: &[u8] = b"kkrt-col";

/// The pseudorandom code C: arbitrary bytes → 512 bits.
fn code(x: &[u8]) -> Word {
    let mut out = [0u8; WIDTH_BYTES];
    for half in 0..2u8 {
        let mut h = Sha256::new();
        h.update(b"kkrt-code");
        h.update(&[half]);
        h.update(x);
        out[half as usize * 32..(half as usize + 1) * 32].copy_from_slice(&h.finalize());
    }
    out
}

/// `row ^= word & s`, bytewise: the secret bits gate through `&`, never
/// through control flow.
fn fold(row: &mut Word, word: &[u8], s: &Word) {
    for ((r, &w), &sk) in row.iter_mut().zip(word).zip(s) {
        *r ^= w & sk;
    }
}

/// OPRF sender (key holder). Holds the base-OT state; each
/// [`KkrtSender::key_batch`] call produces a key for one batch.
pub struct KkrtSender {
    ext: ExtSender<Word>,
    ctr: u64,
    /// Offline correlation rows `q'_j = t_j ⊕ (c'_j & s)`.
    bank: Bank<Word>,
}

/// OPRF receiver (input holder).
pub struct KkrtReceiver {
    ext: ExtReceiver<Word>,
    ctr: u64,
    /// Offline random code words `c'_j` with the row preimages `t_j` they
    /// produced (hashed only at consumption time, when the instance index
    /// is known).
    bank: Bank<(Word, Word)>,
}

/// A batch key: lets the sender evaluate F(j, ·) for each instance j of the
/// batch.
pub struct KkrtSenderKey {
    q_rows: Vec<Word>,
    s: Secret<Word>,
    base: u64,
}

impl KkrtSender {
    /// Bootstrap: run w base OTs as base-OT receiver with secret choices s.
    pub fn setup<R: Rng>(ch: &mut Channel, rng: &mut R) -> KkrtSender {
        let mut s = [0u8; WIDTH_BYTES];
        rng.fill(&mut s[..]);
        KkrtSender {
            ext: ExtSender::setup(ch, rng, COL_LABEL, s),
            ctr: 0,
            bank: Bank::new(Vec::new()),
        }
    }

    /// Offline phase: bank `m` instances extended against random receiver
    /// code words, replacing any earlier bank; batches consume them while
    /// enough remain. The peer must run the matching
    /// [`KkrtReceiver::bank`] with the same `m`.
    pub fn bank(&mut self, ch: &mut Channel, m: usize) {
        self.bank = Bank::new(self.ext.extend(ch, m));
    }

    /// Instances still available in the bank.
    pub fn bank_remaining(&self) -> usize {
        self.bank.remaining()
    }

    /// Discard banked instances until at most `cap` remain (the exhaustion
    /// fault hook).
    pub fn shed_bank_to(&mut self, cap: usize) {
        self.bank.shed_to(cap);
    }

    /// Run one batch of size `m`, obtaining the evaluation key:
    /// derandomize banked instances when the bank covers the batch, else
    /// run a fresh extension. Both parties see the same public batch sizes
    /// and bank budgets, so the decision is always mirrored.
    pub fn key_batch(&mut self, ch: &mut Channel, m: usize) -> KkrtSenderKey {
        let base = self.ctr;
        self.ctr += m as u64;
        let q_rows = if !self.bank.covers(m) {
            self.ext.extend(ch, m)
        } else {
            // Beaver-style code correction: d_j = C(x_j) ⊕ c'_j turns the
            // banked q'_j = t_j ⊕ (c'_j & s) into t_j ⊕ (C(x_j) & s) —
            // the correlation a fresh extension would have produced.
            let mut d_all = vec![0u8; m * WIDTH_BYTES];
            ch.recv_into(&mut d_all);
            let mut q_rows = self.bank.take(m);
            let s = self.ext.s().expose();
            for (row, d) in q_rows.iter_mut().zip(d_all.chunks_exact(WIDTH_BYTES)) {
                fold(row, d, s);
            }
            q_rows
        };
        KkrtSenderKey {
            q_rows,
            s: self.ext.s().clone(),
            base,
        }
    }
}

impl KkrtSenderKey {
    /// Number of instances in the batch.
    pub fn len(&self) -> usize {
        self.q_rows.len()
    }

    /// True if the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.q_rows.is_empty()
    }

    /// Evaluate F(j, y) for arbitrary y. Already branchless: the code bits
    /// gate s bytewise through `&`, never through control flow.
    pub fn eval(&self, j: usize, y: &[u8]) -> u64 {
        let mut row = self.q_rows[j];
        fold(&mut row, &code(y), self.s.expose());
        TweakHasher::Aes.hash_row(self.base + j as u64, &row)
    }
}

impl KkrtReceiver {
    /// Bootstrap: run w base OTs as base-OT sender.
    pub fn setup<R: Rng>(ch: &mut Channel, rng: &mut R) -> KkrtReceiver {
        KkrtReceiver {
            ext: ExtReceiver::setup(ch, rng, COL_LABEL),
            ctr: 0,
            bank: Bank::new(Vec::new()),
        }
    }

    /// Offline phase: bank `m` instances extended under fresh *random*
    /// code words (no input needed yet), replacing any earlier bank. The
    /// peer must run the matching [`KkrtSender::bank`] with the same `m`.
    pub fn bank<R: Rng>(&mut self, ch: &mut Channel, m: usize, rng: &mut R) {
        let mut codes = vec![[0u8; WIDTH_BYTES]; m];
        for c in codes.iter_mut() {
            rng.fill(&mut c[..]);
        }
        let t_rows = self.extend(ch, &codes);
        self.bank = Bank::new(codes.into_iter().zip(t_rows).collect());
    }

    /// Instances still available in the bank.
    pub fn bank_remaining(&self) -> usize {
        self.bank.remaining()
    }

    /// Discard banked instances until at most `cap` remain (the exhaustion
    /// fault hook).
    pub fn shed_bank_to(&mut self, cap: usize) {
        self.bank.shed_to(cap);
    }

    /// Run one batch on `inputs`, learning `F(j, inputs[j])` per instance:
    /// derandomize banked instances when the bank covers the batch (see
    /// the module docs), else run a fresh extension. The decision mirrors
    /// the sender's — both sides see the same batch sizes and budgets.
    pub fn eval_batch(&mut self, ch: &mut Channel, inputs: &[&[u8]]) -> Vec<u64> {
        let m = inputs.len();
        let base = self.ctr;
        self.ctr += m as u64;
        // Code matrix: row j = C(x_j). Two SHA-256 compressions per
        // element makes this the receiver's second-hottest loop, and each
        // element is independent — map it over the pool.
        let codes: Vec<Word> =
            par::with_pool_if(par::threads() > 1 && m >= 2 * CODES_PER_PART, |pool| {
                pool.map(inputs, CODES_PER_PART, |_, x| code(x))
            });
        let mut t_rows = if !self.bank.covers(m) {
            self.extend(ch, &codes)
        } else {
            // Beaver-style code correction: send d_j = C(x_j) ⊕ c'_j —
            // uniform on the wire because c'_j is — and hash the banked
            // row preimages under this batch's instance tweaks.
            let mut taken = self.bank.take(m);
            let mut d_all = vec![0u8; m * WIDTH_BYTES];
            for ((d, cj), (cp, _)) in d_all.chunks_exact_mut(WIDTH_BYTES).zip(&codes).zip(&taken) {
                for ((dk, &a), &b) in d.iter_mut().zip(cj).zip(cp) {
                    *dk = a ^ b;
                }
            }
            ch.send_bytes(&d_all);
            let t_rows = taken.iter().map(|&(_, t)| t).collect();
            taken.zeroize();
            t_rows
        };
        let out = TweakHasher::Aes.hash_row_batch(base, &t_rows);
        t_rows.zeroize();
        out
    }

    /// One fresh extension under the given code words (one per instance),
    /// returning the row preimages `t_j`.
    fn extend(&mut self, ch: &mut Channel, codes: &[Word]) -> Vec<Word> {
        let m = codes.len();
        // The engine wants the code matrix by columns. Rather than
        // extracting column i bit-by-bit inside every column's loop (w · m
        // bit ops), transpose the whole m×w code matrix ONCE through the
        // SIMD kernel and hand each worker its column as a ready byte
        // slice. The transpose runs before the engine's pool dispatch, so
        // its own internal parallelism never nests.
        let mut code_mat = BitMatrix::zero(m, WIDTH);
        for (j, cj) in codes.iter().enumerate() {
            code_mat.row_mut(j).copy_from_slice(cj);
        }
        let mut code_cols = code_mat.transpose(); // w rows of m bits
        zeroize_bytes(code_mat.as_bytes_mut());
        let t_rows = self.ext.extend(ch, m, |i| code_cols.row(i));
        // The code bits derive from the receiver's private inputs; scrub
        // the transposed copy once every column has folded it in.
        zeroize_bytes(code_cols.as_bytes_mut());
        t_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_transport::{run_protocol, ReadExt};

    fn run_batch(inputs: Vec<Vec<u8>>) -> (KkrtSenderKey, Vec<u64>) {
        let (key, got, _) = run_protocol(
            move |ch| {
                let mut s = KkrtSender::setup(ch, &mut StdRng::seed_from_u64(1));
                let m = { ch.recv_u64() as usize };
                s.key_batch(ch, m)
            },
            move |ch| {
                let mut r = KkrtReceiver::setup(ch, &mut StdRng::seed_from_u64(2));
                ch.send_u64(inputs.len() as u64);
                let refs: Vec<&[u8]> = inputs.iter().map(|v| v.as_slice()).collect();
                r.eval_batch(ch, &refs)
            },
        );
        (key, got)
    }

    #[test]
    fn receiver_output_matches_sender_eval() {
        let inputs: Vec<Vec<u8>> = (0..40u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let (key, got) = run_batch(inputs.clone());
        for (j, x) in inputs.iter().enumerate() {
            assert_eq!(got[j], key.eval(j, x), "instance {j}");
        }
    }

    #[test]
    fn other_points_look_different() {
        let inputs: Vec<Vec<u8>> = (0..10u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let (key, got) = run_batch(inputs);
        // Evaluating at a different point gives a different value.
        let other = 999u64.to_le_bytes().to_vec();
        for (j, g) in got.iter().enumerate() {
            assert_ne!(*g, key.eval(j, &other));
        }
        // Same input under different instance indices differs.
        assert_ne!(
            key.eval(0, &0u64.to_le_bytes()),
            key.eval(1, &0u64.to_le_bytes())
        );
    }

    #[test]
    fn multiple_batches_are_independent() {
        let (keys, gots, _) = run_protocol(
            |ch| {
                let mut s = KkrtSender::setup(ch, &mut StdRng::seed_from_u64(3));
                (s.key_batch(ch, 5), s.key_batch(ch, 5))
            },
            |ch| {
                let mut r = KkrtReceiver::setup(ch, &mut StdRng::seed_from_u64(4));
                let ins: Vec<Vec<u8>> = (0..5u64).map(|i| i.to_le_bytes().to_vec()).collect();
                let refs: Vec<&[u8]> = ins.iter().map(|v| v.as_slice()).collect();
                (r.eval_batch(ch, &refs), r.eval_batch(ch, &refs))
            },
        );
        for j in 0..5 {
            let x = (j as u64).to_le_bytes();
            assert_eq!(gots.0[j], keys.0.eval(j, &x));
            assert_eq!(gots.1[j], keys.1.eval(j, &x));
            assert_ne!(gots.0[j], gots.1[j], "batches must not collide");
        }
    }

    #[test]
    fn empty_batch() {
        let (key, got) = run_batch(vec![]);
        assert!(key.is_empty());
        assert!(got.is_empty());
    }

    #[test]
    fn extension_is_thread_count_invariant() {
        // Same seeds, a batch crossing every parallel threshold: outputs
        // must be bit-identical at 1 and 4 threads.
        let m = 2 * crate::ext::OT_PAR_MIN;
        let inputs: Vec<Vec<u8>> = (0..m as u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let run_at = |threads: usize| {
            secyan_par::set_threads(threads);
            let out = run_batch(inputs.clone());
            secyan_par::set_threads(0);
            out
        };
        let (key1, got1) = run_at(1);
        let (key4, got4) = run_at(4);
        assert_eq!(got1, got4);
        for (j, x) in inputs.iter().enumerate() {
            assert_eq!(got1[j], key1.eval(j, x), "instance {j}");
            assert_eq!(got1[j], key4.eval(j, x), "instance {j} at 4 threads");
        }
    }

    #[test]
    fn banked_batches_match_sender_eval_and_fall_back_when_short() {
        // Bank 12 instances, then draw batches of 5, 5 and 5: the first
        // two derandomize from the bank, the third falls back to a fresh
        // inline extension (12 - 10 < 5), mirrored on both sides.
        let (keys, gots, _) = run_protocol(
            |ch| {
                let mut s = KkrtSender::setup(ch, &mut StdRng::seed_from_u64(5));
                s.bank(ch, 12);
                assert_eq!(s.bank_remaining(), 12);
                let keys = (s.key_batch(ch, 5), s.key_batch(ch, 5), s.key_batch(ch, 5));
                assert_eq!(s.bank_remaining(), 2, "third batch must not drain the bank");
                keys
            },
            |ch| {
                let mut rng = StdRng::seed_from_u64(6);
                let mut r = KkrtReceiver::setup(ch, &mut rng);
                r.bank(ch, 12, &mut rng);
                assert_eq!(r.bank_remaining(), 12);
                let ins: Vec<Vec<u8>> = (0..5u64).map(|i| i.to_le_bytes().to_vec()).collect();
                let refs: Vec<&[u8]> = ins.iter().map(|v| v.as_slice()).collect();
                let gots = (
                    r.eval_batch(ch, &refs),
                    r.eval_batch(ch, &refs),
                    r.eval_batch(ch, &refs),
                );
                assert_eq!(r.bank_remaining(), 2);
                gots
            },
        );
        for j in 0..5 {
            let x = (j as u64).to_le_bytes();
            assert_eq!(gots.0[j], keys.0.eval(j, &x), "banked batch 1");
            assert_eq!(gots.1[j], keys.1.eval(j, &x), "banked batch 2");
            assert_eq!(gots.2[j], keys.2.eval(j, &x), "inline fallback batch");
            assert_ne!(
                gots.0[j], gots.1[j],
                "instance tweaks must separate batches"
            );
        }
    }

    #[test]
    fn shed_to_caps_the_bank() {
        let (_, _, _) = run_protocol(
            |ch| {
                let mut s = KkrtSender::setup(ch, &mut StdRng::seed_from_u64(7));
                s.bank(ch, 10);
                s.shed_bank_to(3);
                assert_eq!(s.bank_remaining(), 3);
                s.shed_bank_to(8);
                assert_eq!(s.bank_remaining(), 3, "shed never grows the bank");
            },
            |ch| {
                let mut rng = StdRng::seed_from_u64(8);
                let mut r = KkrtReceiver::setup(ch, &mut rng);
                r.bank(ch, 10, &mut rng);
                r.shed_bank_to(3);
                assert_eq!(r.bank_remaining(), 3);
            },
        );
    }
}
