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
//! of IKNP's repetition code and the row hash keyed by the instance index.
//!
//! # Bootstrap
//!
//! The w column seeds are not base OTs. As in KKRT16, they are w random
//! OTs extended from the session's IKNP endpoints, run the other way
//! round: the OPRF sender is the IKNP *receiver*, choosing with its secret
//! `s`; the OPRF receiver is the IKNP *sender*, keeping both pads of each
//! pair. [`KkrtSender::setup`] therefore only sends (one IKNP column
//! bundle) and [`KkrtReceiver::setup`] only receives, and the 2κ base OTs
//! of the two IKNP bootstraps are the only public-key work of a session.
//!
//! # Why there is no bank
//!
//! Every batch extends inline. An offline phase is worth what it takes off
//! the online wire, and a KKRT bank takes nothing: the correlation is
//! linear in the code, so instances extended offline against random code
//! words can be derandomized online — but only by sending the code
//! correction `C(x_j) ⊕ c'_j`, 64 bytes per instance, the same width as
//! the column bundle of a fresh extension (512 · ⌈m/8⌉ bytes). Banking
//! would move a stream expansion and two transposes offline at the price
//! of a second bundle on the offline wire; IKNP banks because its online
//! correction is one bit where a fresh instance costs 16 bytes.

use crate::ext::{choice_bits, ExtReceiver, ExtSender};
use crate::{OtReceiver, OtSender};
use rand::Rng;
use secyan_crypto::sha256::Sha256;
use secyan_crypto::transpose::BitMatrix;
use secyan_crypto::{zeroize_bytes, Secret, TweakHasher, Zeroize, STREAM_DOMAIN};
use secyan_transport::Channel;

/// Matrix width w: the pseudorandom-code length in bits.
pub const WIDTH: usize = 512;
const WIDTH_BYTES: usize = WIDTH / 8;

/// One code word / one row of the w-bit extension matrix.
type Word = [u8; WIDTH_BYTES];

/// Tweak domain of the column streams: IKNP's plus bit 61.
const COL_DOMAIN: u64 = STREAM_DOMAIN | 1 << 61;

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

/// OPRF sender (key holder). Holds the column seeds; each
/// [`KkrtSender::key_batch`] call produces a key for one batch.
pub struct KkrtSender {
    ext: ExtSender<Word>,
    ctr: u64,
}

/// OPRF receiver (input holder).
pub struct KkrtReceiver {
    ext: ExtReceiver,
    ctr: u64,
}

/// A batch key: lets the sender evaluate F(j, ·) for each instance j of the
/// batch.
pub struct KkrtSenderKey {
    q_rows: Vec<Word>,
    s: Secret<Word>,
    base: u64,
}

impl KkrtSender {
    /// Bootstrap from this party's IKNP receiver `ot`: w random OTs under
    /// the freshly drawn secret choices `s` give one column seed each.
    /// Send-only (one IKNP column bundle); the peer runs
    /// [`KkrtReceiver::setup`] on the matching IKNP sender. The IKNP tweak
    /// counter advances by w, so later pads stay fresh.
    pub fn setup<R: Rng>(ch: &mut Channel, ot: &mut OtReceiver, rng: &mut R) -> KkrtSender {
        let mut s = [0u8; WIDTH_BYTES];
        rng.fill(&mut s[..]);
        let seeds = Secret::new(ot.random(ch, choice_bits(&s).expose()));
        KkrtSender {
            ext: ExtSender::new(COL_DOMAIN, s, seeds),
            ctr: 0,
        }
    }

    /// Run one batch of size `m`: read the receiver's column bundle and
    /// return the evaluation key.
    pub fn key_batch(&mut self, ch: &mut Channel, m: usize) -> KkrtSenderKey {
        let base = self.ctr;
        self.ctr += m as u64;
        KkrtSenderKey {
            q_rows: self.ext.extend(ch, m),
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
    /// Bootstrap from this party's IKNP sender `ot`: w random OTs give one
    /// seed pair per column. Receive-only; the peer runs
    /// [`KkrtSender::setup`] on the matching IKNP receiver.
    pub fn setup(ch: &mut Channel, ot: &mut OtSender) -> KkrtReceiver {
        KkrtReceiver {
            ext: ExtReceiver::new(COL_DOMAIN, Secret::new(ot.random(ch, WIDTH))),
            ctr: 0,
        }
    }

    /// Run one batch on `inputs`, learning `F(j, inputs[j])` per instance:
    /// encode each input, extend under the code words (sending one column
    /// bundle) and hash the rows under this batch's instance tweaks.
    pub fn eval_batch(&mut self, ch: &mut Channel, inputs: &[&[u8]]) -> Vec<u64> {
        let m = inputs.len();
        let base = self.ctr;
        self.ctr += m as u64;
        // Code matrix: row j = C(x_j), two SHA-256 compressions per
        // element. The engine wants it by columns: rather than extracting
        // column i bit-by-bit inside every column's loop (w · m bit ops),
        // transpose the whole m×w code matrix ONCE through the SIMD kernel
        // and hand each column over as a ready byte slice.
        let mut code_mat = BitMatrix::zero(m, WIDTH);
        for (j, x) in inputs.iter().enumerate() {
            code_mat.row_mut(j).copy_from_slice(&code(x));
        }
        let mut code_cols = code_mat.transpose(); // w rows of m bits
        zeroize_bytes(code_mat.as_bytes_mut());
        let mut t_rows: Vec<Word> = self.ext.extend(ch, m, |i| code_cols.row(i));
        // The code bits derive from the receiver's private inputs; scrub
        // the transposed copy once every column has folded it in.
        zeroize_bytes(code_cols.as_bytes_mut());
        let out = TweakHasher::Aes.hash_row_batch(base, &t_rows);
        t_rows.zeroize();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_transport::run_protocol;

    fn run_batch(inputs: Vec<Vec<u8>>) -> (KkrtSenderKey, Vec<u64>) {
        let (key, got, _) = run_protocol(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(1);
                let mut ot = OtReceiver::setup(ch, &mut rng, TweakHasher::Aes);
                let mut s = KkrtSender::setup(ch, &mut ot, &mut rng);
                let m = { ch.recv_u64() as usize };
                s.key_batch(ch, m)
            },
            move |ch| {
                let mut ot = OtSender::setup(ch, &mut StdRng::seed_from_u64(2), TweakHasher::Aes);
                let mut r = KkrtReceiver::setup(ch, &mut ot);
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
                let mut rng = StdRng::seed_from_u64(3);
                let mut ot = OtReceiver::setup(ch, &mut rng, TweakHasher::Aes);
                let mut s = KkrtSender::setup(ch, &mut ot, &mut rng);
                (s.key_batch(ch, 5), s.key_batch(ch, 5))
            },
            |ch| {
                let mut ot = OtSender::setup(ch, &mut StdRng::seed_from_u64(4), TweakHasher::Aes);
                let mut r = KkrtReceiver::setup(ch, &mut ot);
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
}
