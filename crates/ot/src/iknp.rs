//! IKNP oblivious-transfer extension.
//!
//! After κ = 128 base OTs (run once per [`OtSender::setup`] /
//! [`OtReceiver::setup`] pair), any number of 1-out-of-2 OTs cost only
//! symmetric-key work and one m-bit column message per base OT. The secure
//! Yannakakis protocol consumes OTs in bulk: garbled-circuit evaluator
//! inputs, every switch of the oblivious switching network, and the OPPRF
//! all sit on top of this module.
//!
//! Semi-honest IKNP as in the original paper: the receiver's choice bits
//! are an input. The matrix work is the shared engine (`ext.rs`) at
//! 16-byte rows under the repetition code (every column of the code matrix
//! is the packed choice vector). It leaves the sender with rows `q_j` and
//! the receiver with `t_j`, where `q_j ⊕ t_j = c_j·s`. Every OT then sends
//! at most one message, in one of two shapes:
//!
//! * **Labels** ride the correlation itself, unhashed. `s` has its low bit
//!   set and is the free-XOR Δ of every circuit this party garbles
//!   ([`OtSender::label_delta`]). A circuit garbled after the rows exist
//!   takes them as its zero-labels ([`OtSender::label_rows`]): the
//!   receiver's `t_j = q_j ⊕ c_j·Δ` is its label and nothing more is
//!   sent. Tables banked before the rows exist take one 16-byte
//!   correction `y_j = L⁰_j ⊕ q_j` per OT ([`OtSender::send_labels`]),
//!   which leaves the receiver with `t_j ⊕ y_j = L⁰_j ⊕ c_j·Δ`.
//! * **Words** ([`OtSender::send_words`]) hash the rows into pads
//!   `x₀ = H(q_j)`, `x₁ = H(q_j ⊕ s)` under the instance's own tweak,
//!   each read as two ring words. The choice-0 pad is the sender's output
//!   `r_j`, and one ⌈ℓ/8⌉-byte word `r + Δ − x₁` per word leaves the
//!   receiver with `r_j + c_j·Δ_j`: share multiplication at width 1, a
//!   switch of the oblivious switching network at width 1 or 2.
//!
//! Pad tweaks carry a domain bit that no garbled-gate tweak has. DESIGN.md
//! §3 argues why one Δ per party is safe.
//!
//! # Banks
//!
//! [`OtSender::bank`] / [`OtReceiver::bank`] run the extension offline
//! against random choice bits `c'` and keep the raw rows: `q_j` for the
//! sender, `(c'_j, t_j)` for the receiver. Online the receiver sends
//! correction bits `d = c ⊕ c'` (packed, ⌈m/8⌉ bytes) in place of the
//! 16m-byte column bundle, and the sender folds `d_j·s` into `q_j`, which
//! restores `q_j ⊕ t_j = c_j·s` under the real choices. From there a
//! banked OT is a fresh one: labels are or use the row, words hash it at
//! draw time. Banked rows are single-use: entries are zeroized as they are
//! taken, and the rest on drop.

use crate::ext::{choice_bits, Bank, ExtReceiver, ExtSender};
use rand::Rng;
use secyan_crypto::{Block, CtChoice, RingCtx, Secret, TweakHasher, STREAM_DOMAIN};
use secyan_transport::Channel;

/// Security parameter κ: number of base OTs / width of the extension
/// matrix.
pub const KAPPA: usize = 128;

/// Tweak domain of the column streams; KKRT's sets bit 61 besides.
const COL_DOMAIN: u64 = STREAM_DOMAIN;

/// Domain bit of every pad tweak. Garbled-gate tweaks (twice an AND index)
/// never set it, so no pad shares a tweak with a gate under the same Δ.
/// Column-stream tweaks set it together with bit 62, which the instance
/// index of a pad never reaches.
const PAD_DOMAIN: u64 = 1 << 63;

/// Extension sender: after setup, sends at most one correction per OT.
pub struct OtSender {
    ext: ExtSender<Block>,
    ctr: u64,
    /// Precomputed rows `q_j` consumed by the online phase.
    bank: Bank<Block>,
}

/// Extension receiver: after setup, obtains one output per choice bit.
pub struct OtReceiver {
    ext: ExtReceiver,
    ctr: u64,
    /// Precomputed random choice bits `c'` with their rows `t_j`.
    bank: Bank<(bool, Block)>,
}

/// A receiver's rows for one batch, drawn by [`OtReceiver::begin_recv`]:
/// `t_j` with `q_j ⊕ t_j = c_j·s`, the choices, and the instance index of
/// the first row (the pads' tweak).
pub struct RecvRows {
    first: u64,
    rows: Secret<Vec<Block>>,
    choices: Secret<Vec<bool>>,
}

/// The pads of `rows`, row `j` under the tweak of instance `first + j`.
fn hash_rows(first: u64, rows: &[Block]) -> Vec<Block> {
    TweakHasher::Aes.hash_batch(rows, PAD_DOMAIN | first)
}

/// A pad as two ring words: its low and high 64 bits, reduced.
fn words(ring: RingCtx, pad: Block) -> [u64; 2] {
    [ring.reduce(pad.0 as u64), ring.reduce((pad.0 >> 64) as u64)]
}

impl OtSender {
    /// Bootstrap via κ base OTs (this side plays base-OT *receiver*).
    pub fn setup<R: Rng>(ch: &mut Channel, rng: &mut R, _hasher: TweakHasher) -> OtSender {
        // Low bit 1: `s` is also the free-XOR Δ of this party's circuits,
        // and point-and-permute reads a label's color from that bit.
        let s = Block(rng.gen()).with_lsb(true);
        let seeds = crate::base::receive(ch, choice_bits(&s).expose(), rng);
        OtSender {
            ext: ExtSender::new(COL_DOMAIN, s, seeds),
            ctr: 0,
            bank: Bank::new(Vec::new(), 0),
        }
    }

    /// The free-XOR offset Δ of every circuit this party garbles: the
    /// correlation `s` of its rows, low bit 1. A label OT hands the
    /// receiver `L⁰ ⊕ c·Δ`.
    pub fn label_delta(&self) -> Secret<Block> {
        self.ext.s().clone()
    }

    /// Offline phase: bank `m` rows, replacing any earlier bank; online
    /// calls consume them while enough remain. The peer must run the
    /// matching [`OtReceiver::bank`] with the same `m`.
    pub fn bank(&mut self, ch: &mut Channel, m: usize) {
        let first = self.ctr;
        self.bank = Bank::new(self.fresh(ch, m), first);
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

    /// Random OTs extended since setup, banked or consumed inline (a
    /// KKRT bootstrap seeded from this endpoint counts its w).
    pub fn extended(&self) -> u64 {
        self.ctr
    }

    /// A fresh extension of `m` rows.
    fn fresh(&mut self, ch: &mut Channel, m: usize) -> Vec<Block> {
        self.ctr += m as u64;
        self.ext.extend(ch, m)
    }

    /// Rows for `m` OTs under the receiver's real choices, with the
    /// instance index of the first: banked rows with `d_j·s` folded in when
    /// the bank covers the batch, otherwise a fresh extension. Both parties
    /// see the same public batch sizes and bank budgets, so the
    /// banked-vs-inline decision is always mirrored.
    fn draw_rows(&mut self, ch: &mut Channel, m: usize) -> (u64, Secret<Vec<Block>>) {
        if !self.bank.covers(m) {
            return (self.ctr, Secret::new(self.fresh(ch, m)));
        }
        let d = ch.recv_bool_vec(m);
        let s = self.ext.s().expose_block();
        let (first, mut rows) = self.bank.take(m);
        for (q, &dj) in rows.expose_mut().iter_mut().zip(&d) {
            *q ^= s.ct_masked(CtChoice::from_bool(dj));
        }
        (first, rows)
    }

    /// Both pads of each row: `(H(q_j), H(q_j ⊕ s))`.
    fn pads(&self, first: u64, rows: &[Block]) -> Vec<(Block, Block)> {
        let s = self.ext.s().expose_block();
        let flipped = Secret::new(rows.iter().map(|&q| q ^ s).collect::<Vec<_>>());
        let h1 = hash_rows(first, flipped.expose());
        hash_rows(first, rows).into_iter().zip(h1).collect()
    }

    /// Produce `m` random-message OT instances. The receiver (running
    /// [`OtReceiver::random`] with its choice bits) learns exactly one
    /// message of each returned pair.
    pub fn random(&mut self, ch: &mut Channel, m: usize) -> Vec<(Block, Block)> {
        let first = self.ctr;
        let rows = Secret::new(self.fresh(ch, m));
        self.pads(first, rows.expose())
    }

    /// Label OT on the rows themselves: `q_j` for `m` OTs, to serve as
    /// zero-labels under [`OtSender::label_delta`] (shifted by `k_j·Δ` if
    /// need be). The receiver's [`OtReceiver::finish_recv_rows`] holds
    /// `t_j = q_j ⊕ c_j·Δ`, the label of its choice, and nothing crosses
    /// the wire after its request. Each row is used once: as a label here
    /// or in [`OtSender::send_labels`], or hashed into a pad.
    pub fn label_rows(&mut self, ch: &mut Channel, m: usize) -> Secret<Vec<Block>> {
        self.draw_rows(ch, m).1
    }

    /// Label OT: the receiver ends with `L⁰_j ⊕ c_j·Δ` for each zero-label
    /// `L⁰_j`, Δ being [`OtSender::label_delta`]. One message of one 16-byte
    /// correction per OT, for labels fixed before the rows exist.
    pub fn send_labels(&mut self, ch: &mut Channel, zero_labels: &[Block]) {
        let rows = self.label_rows(ch, zero_labels.len());
        ch.send_with(16 * zero_labels.len(), |buf| {
            let slots = buf.chunks_exact_mut(16);
            for (slot, (&l, &q)) in slots.zip(zero_labels.iter().zip(rows.expose())) {
                slot.copy_from_slice(&(l ^ q).to_bytes());
            }
        });
    }

    /// Correlated-word OT over Z_{2^ℓ} on `m` OTs, `width(j)` ∈ {1, 2}
    /// words on OT `j`. Each OT's choice-0 pad, read as two ring words, is
    /// the sender's output `r_j`; `deltas` is handed every `r_j` and
    /// returns the `Δ_j`, and the receiver's
    /// [`OtReceiver::finish_recv_words`] ends with `r_j + c_j·Δ_j` on the
    /// first `width(j)` words (Gilboa / ABY share multiplication at width
    /// 1). One ⌈ℓ/8⌉-byte word `r + Δ − x₁` per word crosses the wire, as
    /// one message.
    pub fn send_words(
        &mut self,
        ch: &mut Channel,
        ring: RingCtx,
        m: usize,
        width: impl Fn(usize) -> usize,
        deltas: impl FnOnce(&[[u64; 2]]) -> Vec<[u64; 2]>,
    ) -> Secret<Vec<[u64; 2]>> {
        let (first, rows) = self.draw_rows(ch, m);
        let pads = Secret::new(self.pads(first, rows.expose()));
        let pairs = pads.expose().iter();
        let (r, x1): (Vec<_>, Vec<_>) = pairs
            .map(|&(x0, x1)| (words(ring, x0), words(ring, x1)))
            .unzip();
        let (r, x1) = (Secret::new(r), Secret::new(x1));
        let deltas = Secret::new(deltas(r.expose()));
        let stride = ring.word_bytes();
        ch.send_with(stride * (0..m).map(&width).sum::<usize>(), |buf| {
            let mut slots = buf.chunks_exact_mut(stride);
            let per_ot = r.expose().iter().zip(x1.expose()).zip(deltas.expose());
            for (j, ((r, x1), delta)) in per_ot.enumerate() {
                for k in 0..width(j) {
                    let word = ring.sub(ring.add(r[k], delta[k]), x1[k]);
                    let slot = slots.next().expect("one slot per word");
                    slot.copy_from_slice(&word.to_le_bytes()[..stride]);
                }
            }
        });
        r
    }

    /// Chosen 16-byte messages, each read as two 64-bit words: a width-2
    /// word OT at ℓ = 64 with Δ = m₁ − m₀, then one message of m₀ − r.
    /// The receiver adds the two. 48 bytes per fresh OT, as the column
    /// bundle, the corrections and m₀ − r are 16 each. Kept for the
    /// benchmark's OT probe; the protocol sends labels and words.
    pub fn send_bytes(&mut self, ch: &mut Channel, pairs: &[(Vec<u8>, Vec<u8>)]) {
        let ring = RingCtx::new(64);
        let word = |m: &[u8]| words(ring, Block::from_bytes(m.try_into().expect("16 bytes")));
        let (m0, m1): (Vec<_>, Vec<_>) = pairs.iter().map(|(a, b)| (word(a), word(b))).unzip();
        let diff = |a: &[u64; 2], b: &[u64; 2]| [a[0].wrapping_sub(b[0]), a[1].wrapping_sub(b[1])];
        let deltas = |_: &[[u64; 2]]| m1.iter().zip(&m0).map(|(b, a)| diff(b, a)).collect();
        let r = self.send_words(ch, ring, pairs.len(), |_| 2, deltas);
        let base = m0.iter().zip(r.expose()).flat_map(|(a, r)| diff(a, r));
        ch.send_u64_slice(&base.collect::<Vec<_>>());
    }
}

impl OtReceiver {
    /// Bootstrap via κ base OTs (this side plays base-OT *sender*).
    pub fn setup<R: Rng>(ch: &mut Channel, rng: &mut R, _hasher: TweakHasher) -> OtReceiver {
        OtReceiver {
            ext: ExtReceiver::new(COL_DOMAIN, crate::base::send(ch, KAPPA, rng)),
            ctr: 0,
            bank: Bank::new(Vec::new(), 0),
        }
    }

    /// Offline phase: bank `m` rows under random choice bits `c'`,
    /// replacing any earlier bank, to be derandomized online against the
    /// real choices. The peer must run the matching [`OtSender::bank`]
    /// with the same `m`.
    pub fn bank<R: Rng>(&mut self, ch: &mut Channel, m: usize, rng: &mut R) {
        let choices: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
        let first = self.ctr;
        let rows = self.fresh(ch, &choices);
        self.bank = Bank::new(choices.into_iter().zip(rows).collect(), first);
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

    /// Random OTs extended since setup, banked or consumed inline (a
    /// KKRT bootstrap seeded from this endpoint counts its w).
    pub fn extended(&self) -> u64 {
        self.ctr
    }

    /// A fresh extension under `choices`: send the column bundle, return
    /// the rows.
    fn fresh(&mut self, ch: &mut Channel, choices: &[bool]) -> Vec<Block> {
        let m = choices.len();
        // Pack the choice bits without branching on them. Under the
        // repetition code every column of the code matrix is this vector.
        let mut r_packed = vec![0u8; m.div_ceil(8)];
        for (j, &c) in choices.iter().enumerate() {
            r_packed[j / 8] |= (c as u8) << (j % 8);
        }
        self.ctr += m as u64;
        self.ext.extend(ch, m, |_| r_packed.as_slice())
    }

    /// Obtain the message selected by each choice bit (random-message OT).
    pub fn random(&mut self, ch: &mut Channel, choices: &[bool]) -> Vec<Block> {
        let first = self.ctr;
        let rows = Secret::new(self.fresh(ch, choices));
        hash_rows(first, rows.expose())
    }

    /// First half of a receive: draw the rows for `choices`. This is
    /// *send-only* on the receiver side (banked: packed correction bits
    /// `d = c ⊕ c'`, uniform and independent of `c`; fresh: the column
    /// bundle), so it can be staged before other incoming traffic is read —
    /// protocol layers use this to batch all receiver-side OT messages of
    /// a round into one super-frame before blocking on the sender's
    /// corrections. Finish with [`OtReceiver::finish_recv_labels`] /
    /// [`OtReceiver::finish_recv_words`] in the same order relative to the
    /// peer's sends.
    pub fn begin_recv(&mut self, ch: &mut Channel, choices: &[bool]) -> RecvRows {
        let m = choices.len();
        let (first, rows) = if self.bank.covers(m) {
            let (first, taken) = self.bank.take(m);
            // XOR of two bools is branchless; d is uniform because c' is.
            let pairs = taken.expose().iter().zip(choices);
            let (d, rows): (Vec<bool>, Vec<Block>) =
                pairs.map(|(&(cp, t), &c)| (c ^ cp, t)).unzip();
            ch.send_bool_slice(&d);
            (first, rows)
        } else {
            (self.ctr, self.fresh(ch, choices))
        };
        RecvRows {
            first,
            rows: Secret::new(rows),
            choices: Secret::new(choices.to_vec()),
        }
    }

    /// Second half of [`OtReceiver::begin_recv`] against
    /// [`OtSender::label_rows`]: the rows `t_j = q_j ⊕ c_j·Δ` themselves,
    /// the labels of the choices on wires whose zero-labels are the
    /// sender's `q_j`. Reads nothing.
    pub fn finish_recv_rows(&self, rows: RecvRows) -> Secret<Vec<Block>> {
        rows.rows
    }

    /// Second half of [`OtReceiver::begin_recv`] against
    /// [`OtSender::send_labels`]: each row XOR its correction,
    /// `L⁰_j ⊕ c_j·Δ`.
    pub fn finish_recv_labels(&self, ch: &mut Channel, rows: RecvRows) -> Secret<Vec<Block>> {
        let rows = rows.rows.expose();
        let y = ch.recv_u128_vec(rows.len());
        Secret::new(rows.iter().zip(y).map(|(&t, y)| t ^ Block(y)).collect())
    }

    /// Second half of [`OtReceiver::begin_recv`] against
    /// [`OtSender::send_words`] with the same `width`: per OT the pad's
    /// words, plus `c_j·word` on the first `width(j)`, masked in or out
    /// branchlessly. Reads one message of Σ `width(j)` fixed-stride words.
    pub fn finish_recv_words(
        &self,
        ch: &mut Channel,
        ring: RingCtx,
        rows: RecvRows,
        width: impl Fn(usize) -> usize,
    ) -> Secret<Vec<[u64; 2]>> {
        let pads = Secret::new(hash_rows(rows.first, rows.rows.expose()));
        let choices = rows.choices.expose();
        let stride = ring.word_bytes();
        let mut raw = vec![0u8; stride * (0..choices.len()).map(&width).sum::<usize>()];
        ch.recv_into(&mut raw);
        let mut wire = raw.chunks_exact(stride);
        let per_ot = pads.expose().iter().zip(choices);
        let outs = per_ot.enumerate().map(|(j, (&pad, &c))| {
            let (mut out, mask) = (words(ring, pad), CtChoice::from_bool(c).mask_u64());
            for o in out.iter_mut().take(width(j)) {
                let mut le = [0u8; 8];
                le[..stride].copy_from_slice(wire.next().expect("one word per slot"));
                *o = ring.add(*o, u64::from_le_bytes(le) & mask);
            }
            out
        });
        Secret::new(outs.collect())
    }

    /// The receiving half of [`OtSender::send_bytes`]: the chosen messages
    /// as 16-byte strings. `len` must be 16.
    pub fn recv_bytes(&mut self, ch: &mut Channel, choices: &[bool], len: usize) -> Vec<Vec<u8>> {
        assert_eq!(len, 16, "OT messages are 16-byte blocks");
        let rows = self.begin_recv(ch, choices);
        let got = self.finish_recv_words(ch, RingCtx::new(64), rows, |_| 2);
        let base = ch.recv_u64_vec(2 * choices.len());
        let chosen = got.expose().iter().zip(base.chunks_exact(2)).map(|(g, b)| {
            let (lo, hi) = (g[0].wrapping_add(b[0]), g[1].wrapping_add(b[1]));
            Block(u128::from(lo) | u128::from(hi) << 64)
                .to_bytes()
                .to_vec()
        });
        chosen.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_transport::{run_protocol, run_protocol_captured, Phase, Role};

    fn run_random(m: usize, seed: u64) -> (Vec<(Block, Block)>, Vec<Block>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let choices: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
        let c2 = choices.clone();
        let (pairs, got, _) = run_protocol(
            move |ch| {
                let mut s =
                    OtSender::setup(ch, &mut StdRng::seed_from_u64(seed + 1), TweakHasher::Aes);
                s.random(ch, m)
            },
            move |ch| {
                let mut r =
                    OtReceiver::setup(ch, &mut StdRng::seed_from_u64(seed + 2), TweakHasher::Aes);
                r.random(ch, &c2)
            },
        );
        (pairs, got, choices)
    }

    #[test]
    fn random_ot_delivers_chosen_message() {
        let (pairs, got, choices) = run_random(100, 10);
        for j in 0..100 {
            let (x0, x1) = pairs[j];
            assert_ne!(x0, x1);
            assert_eq!(got[j], if choices[j] { x1 } else { x0 }, "instance {j}");
        }
    }

    #[test]
    fn non_multiple_of_eight_sizes() {
        for m in [1, 7, 9, 63, 65] {
            let (pairs, got, choices) = run_random(m, 20 + m as u64);
            for j in 0..m {
                let (x0, x1) = pairs[j];
                assert_eq!(got[j], if choices[j] { x1 } else { x0 });
            }
        }
    }

    #[test]
    fn multiple_extensions_reuse_setup() {
        let (outs, gots, _) = run_protocol(
            |ch| {
                let mut s = OtSender::setup(ch, &mut StdRng::seed_from_u64(30), TweakHasher::Aes);
                (s.random(ch, 10), s.random(ch, 10))
            },
            |ch| {
                let mut r = OtReceiver::setup(ch, &mut StdRng::seed_from_u64(31), TweakHasher::Aes);
                (r.random(ch, &[true; 10]), r.random(ch, &[false; 10]))
            },
        );
        for j in 0..10 {
            assert_eq!(gots.0[j], outs.0[j].1);
            assert_eq!(gots.1[j], outs.1[j].0);
        }
        // Distinct instances across the two batches.
        assert_ne!(outs.0, outs.1);
    }

    #[test]
    fn empty_batch_is_communication_free() {
        // A zero-message batch (e.g. an OSN over a width-1 network has no
        // switches) must put nothing on the wire in either direction, and
        // so must a zero-sized bank (a shape whose walk draws nothing in
        // one direction). The marker exchange after the empty batches
        // proves the streams still align.
        let ring = RingCtx::new(32);
        let (a, b, stats) = run_protocol(
            |ch| {
                let mut s = OtSender::setup(ch, &mut StdRng::seed_from_u64(40), TweakHasher::Aes);
                let before = ch.stats().total_bytes();
                s.send_bytes(ch, &[]);
                s.send_labels(ch, &[]);
                let r = s.send_words(ch, ring, 0, |_| 1, |r| r.to_vec());
                assert!(r.expose().is_empty());
                s.bank(ch, 0);
                assert_eq!(s.bank_remaining(), 0);
                assert_eq!(ch.stats().total_bytes(), before, "empty batch sent bytes");
                ch.send_u64(0xA11C);
                ch.recv_u64()
            },
            |ch| {
                let mut rng = StdRng::seed_from_u64(41);
                let mut r = OtReceiver::setup(ch, &mut rng, TweakHasher::Aes);
                assert!(r.recv_bytes(ch, &[], 16).is_empty());
                let rows = r.begin_recv(ch, &[]);
                assert!(r.finish_recv_labels(ch, rows).expose().is_empty());
                let rows = r.begin_recv(ch, &[]);
                assert!(r
                    .finish_recv_words(ch, ring, rows, |_| 1)
                    .expose()
                    .is_empty());
                r.bank(ch, 0, &mut rng);
                assert_eq!(r.bank_remaining(), 0);
                ch.send_u64(0xB0B);
                ch.recv_u64()
            },
        );
        assert_eq!(a, 0xB0B);
        assert_eq!(b, 0xA11C);
        assert!(stats.total_bytes() > 0); // setup + markers still flowed
    }

    /// Label OTs: the receiver ends with `L⁰_j ⊕ c_j·Δ` for the sender's
    /// `label_delta()` Δ (low bit 1), fresh and banked, and each OT sends
    /// one 16-byte correction. Online, a banked batch costs its packed
    /// correction bits plus those corrections and nothing else.
    #[test]
    fn labels_ride_the_correlation() {
        for m in [1usize, 7, 64, 1000] {
            for banked in [false, true] {
                let mut rng = StdRng::seed_from_u64(m as u64);
                let zeros: Vec<Block> = (0..m).map(|_| Block::random(&mut rng)).collect();
                let choices: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
                let (z2, c2) = (zeros.clone(), choices.clone());
                let (delta, got, stats) = run_protocol(
                    move |ch| {
                        ch.set_phase(Phase::Offline);
                        let mut s =
                            OtSender::setup(ch, &mut StdRng::seed_from_u64(80), TweakHasher::Aes);
                        s.bank(ch, if banked { m } else { 0 });
                        ch.set_phase(Phase::Online);
                        s.send_labels(ch, &z2);
                        assert_eq!(s.bank_remaining(), 0);
                        s.label_delta().expose_block()
                    },
                    move |ch| {
                        ch.set_phase(Phase::Offline);
                        let mut rng = StdRng::seed_from_u64(81);
                        let mut r = OtReceiver::setup(ch, &mut rng, TweakHasher::Aes);
                        r.bank(ch, if banked { m } else { 0 }, &mut rng);
                        ch.set_phase(Phase::Online);
                        let rows = r.begin_recv(ch, &c2);
                        r.finish_recv_labels(ch, rows).expose().clone()
                    },
                );
                assert!(delta.lsb(), "Δ carries the point-and-permute bit");
                for j in 0..m {
                    let want = if choices[j] {
                        zeros[j] ^ delta
                    } else {
                        zeros[j]
                    };
                    assert_eq!(got[j], want, "m = {m}, banked {banked}, instance {j}");
                }
                let (bits, corrections) = (m.div_ceil(8) as u64, 16 * m as u64);
                let request = if banked { bits } else { KAPPA as u64 * bits };
                assert_eq!(stats.online_bytes, request + corrections, "m = {m}");
            }
        }
    }

    /// Labels through the correlation equal labels through chosen-message
    /// OT: on the same choice bits, `send_labels` / `finish_recv_labels`
    /// deliver what `send_bytes` / `recv_bytes` deliver when the sender
    /// offers L⁰ and L⁰ ⊕ `label_delta()`, fresh and banked.
    #[test]
    fn labels_match_chosen_message_ot() {
        let m = 50;
        let mut rng = StdRng::seed_from_u64(95);
        let zeros: Vec<Block> = (0..m).map(|_| Block::random(&mut rng)).collect();
        let choices: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
        for bank in [0, 2 * m] {
            let (z2, c2) = (zeros.clone(), choices.clone());
            let ((), (labels, chosen), _) = run_protocol(
                move |ch| {
                    let mut s =
                        OtSender::setup(ch, &mut StdRng::seed_from_u64(96), TweakHasher::Aes);
                    s.bank(ch, bank);
                    s.send_labels(ch, &z2);
                    let delta = s.label_delta().expose_block();
                    let bytes = |b: Block| b.to_bytes().to_vec();
                    let pairs: Vec<_> = z2.iter().map(|&l| (bytes(l), bytes(l ^ delta))).collect();
                    s.send_bytes(ch, &pairs);
                    assert_eq!(s.bank_remaining(), 0);
                },
                move |ch| {
                    let mut rng = StdRng::seed_from_u64(97);
                    let mut r = OtReceiver::setup(ch, &mut rng, TweakHasher::Aes);
                    r.bank(ch, bank, &mut rng);
                    let rows = r.begin_recv(ch, &c2);
                    let labels = r.finish_recv_labels(ch, rows).expose().clone();
                    let chosen = r.recv_bytes(ch, &c2, 16);
                    let chosen: Vec<Block> = chosen
                        .iter()
                        .map(|b| Block::from_bytes(b[..].try_into().unwrap()))
                        .collect();
                    (labels, chosen)
                },
            );
            assert_eq!(labels, chosen, "bank {bank}");
        }
    }

    /// Chosen 16-byte messages, inline: the receiver gets the one it chose.
    #[test]
    fn chosen_blocks_transfer() {
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..50u128)
            .map(|i| (Block(i).to_bytes().to_vec(), Block(!i).to_bytes().to_vec()))
            .collect();
        let p2 = pairs.clone();
        let choices: Vec<bool> = (0..50).map(|i| i % 3 == 0).collect();
        let c2 = choices.clone();
        let (_, got, stats) = run_protocol(
            move |ch| {
                let mut s = OtSender::setup(ch, &mut StdRng::seed_from_u64(40), TweakHasher::Aes);
                ch.set_phase(Phase::Online);
                s.send_bytes(ch, &p2);
            },
            move |ch| {
                let mut r = OtReceiver::setup(ch, &mut StdRng::seed_from_u64(41), TweakHasher::Aes);
                ch.set_phase(Phase::Online);
                r.recv_bytes(ch, &c2, 16)
            },
        );
        for j in 0..50 {
            let want = if choices[j] { &pairs[j].1 } else { &pairs[j].0 };
            assert_eq!(&got[j], want);
        }
        // The column bundle, the corrections and m₀ − r: 16 bytes each.
        assert_eq!(stats.online_bytes, KAPPA as u64 * 7 + 2 * 16 * 50);
    }

    /// `send_bytes` is a width-2 word OT at ℓ = 64 followed by one message
    /// of m₀ − r: on the same seeds, the byte calls and those two steps put
    /// byte-identical streams on the wire in both directions, inline and
    /// banked.
    #[test]
    fn send_bytes_is_a_word_ot() {
        let mut rng = StdRng::seed_from_u64(52);
        let blocks: Vec<(Block, Block)> = (0..40)
            .map(|_| (Block::random(&mut rng), Block::random(&mut rng)))
            .collect();
        let choices: Vec<bool> = (0..40).map(|_| rng.gen()).collect();
        let ring = RingCtx::new(64);
        let capture = |bank: usize, as_bytes: bool| {
            let (pairs, c2) = (blocks.clone(), choices.clone());
            let ((), got, _, handle) = run_protocol_captured(
                move |ch| {
                    let mut s =
                        OtSender::setup(ch, &mut StdRng::seed_from_u64(53), TweakHasher::Aes);
                    s.bank(ch, bank);
                    if as_bytes {
                        let bytes = |b: Block| b.to_bytes().to_vec();
                        let pairs: Vec<_> =
                            pairs.iter().map(|&(a, b)| (bytes(a), bytes(b))).collect();
                        s.send_bytes(ch, &pairs);
                    } else {
                        let lanes: Vec<_> = pairs
                            .iter()
                            .map(|&(a, b)| (words(ring, a), words(ring, b)))
                            .collect();
                        let deltas = |_: &[[u64; 2]]| {
                            let d = |(a, b): &([u64; 2], [u64; 2])| {
                                [ring.sub(b[0], a[0]), ring.sub(b[1], a[1])]
                            };
                            lanes.iter().map(d).collect()
                        };
                        let r = s.send_words(ch, ring, lanes.len(), |_| 2, deltas);
                        let base = lanes.iter().zip(r.expose());
                        let base =
                            base.flat_map(|((a, _), r)| (0..2).map(|k| ring.sub(a[k], r[k])));
                        ch.send_u64_slice(&base.collect::<Vec<_>>());
                    }
                },
                move |ch| {
                    let mut rng = StdRng::seed_from_u64(54);
                    let mut r = OtReceiver::setup(ch, &mut rng, TweakHasher::Aes);
                    r.bank(ch, bank, &mut rng);
                    let got = r.recv_bytes(ch, &c2, 16);
                    got.iter()
                        .map(|m| Block::from_bytes(m[..].try_into().unwrap()))
                        .collect::<Vec<_>>()
                },
            );
            if as_bytes {
                for (j, &(m0, m1)) in blocks.iter().enumerate() {
                    assert_eq!(got[j], if choices[j] { m1 } else { m0 }, "instance {j}");
                }
            }
            let sent_by = |dir| -> Vec<Vec<u8>> {
                let messages = handle.messages().into_iter();
                messages
                    .filter(|(r, _)| *r == dir)
                    .map(|(_, m)| m)
                    .collect()
            };
            (sent_by(Role::Alice), sent_by(Role::Bob))
        };
        for bank in [0, 40] {
            assert_eq!(capture(bank, true), capture(bank, false), "bank {bank}");
        }
    }

    #[test]
    #[should_panic(expected = "16-byte blocks")]
    fn recv_bytes_rejects_other_lengths() {
        run_protocol(
            |ch| {
                OtSender::setup(ch, &mut StdRng::seed_from_u64(55), TweakHasher::Aes);
            },
            |ch| {
                let mut r = OtReceiver::setup(ch, &mut StdRng::seed_from_u64(56), TweakHasher::Aes);
                r.recv_bytes(ch, &[true], 33);
            },
        );
    }

    #[test]
    fn banked_bytes_transfer() {
        let pairs: Vec<(Vec<u8>, Vec<u8>)> =
            (0..10u8).map(|i| (vec![i; 16], vec![i + 50; 16])).collect();
        let p2 = pairs.clone();
        let choices: Vec<bool> = (0..10).map(|i| i % 3 == 1).collect();
        let c2 = choices.clone();
        let (_, got, _) = run_protocol(
            move |ch| {
                let mut s = OtSender::setup(ch, &mut StdRng::seed_from_u64(83), TweakHasher::Aes);
                s.bank(ch, 10);
                s.send_bytes(ch, &p2);
            },
            move |ch| {
                let mut r = OtReceiver::setup(ch, &mut StdRng::seed_from_u64(84), TweakHasher::Aes);
                r.bank(ch, 10, &mut StdRng::seed_from_u64(85));
                r.recv_bytes(ch, &c2, 16)
            },
        );
        for j in 0..10 {
            let want = if choices[j] { &pairs[j].1 } else { &pairs[j].0 };
            assert_eq!(&got[j], want);
        }
    }

    /// Correlated words: the receiver ends with `r + c·Δ mod 2^ℓ`, fresh
    /// and banked, at widths on both sides of a byte boundary and at the
    /// full 64 bits, where neither the mask nor `Δ = x << 63` may overflow;
    /// OTs alternate between one and two words.
    #[test]
    fn correlated_words_add_delta_where_chosen() {
        let width = |j: usize| 1 + j % 2;
        for (ell, bank) in [(1, 0), (20, 40), (32, 0), (32, 40), (64, 0), (64, 40)] {
            let ring = RingCtx::new(ell);
            let deltas: Vec<[u64; 2]> = (0..40u64)
                .map(|j| 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(j + 1) << (j % 64))
                .map(|d| [ring.reduce(d), ring.reduce(d.rotate_left(17))])
                .collect();
            let choices: Vec<bool> = (0..40).map(|j| j % 3 != 1).collect();
            let (want, c2) = (deltas.clone(), choices.clone());
            let (r, got, stats) = run_protocol(
                move |ch| {
                    let mut s =
                        OtSender::setup(ch, &mut StdRng::seed_from_u64(90), TweakHasher::Aes);
                    s.bank(ch, bank);
                    ch.set_phase(Phase::Online);
                    let r = s.send_words(ch, ring, 40, width, |_| deltas);
                    assert_eq!(s.bank_remaining(), 0);
                    r.expose().clone()
                },
                move |ch| {
                    let mut rng = StdRng::seed_from_u64(91);
                    let mut r = OtReceiver::setup(ch, &mut rng, TweakHasher::Aes);
                    r.bank(ch, bank, &mut rng);
                    ch.set_phase(Phase::Online);
                    let rows = r.begin_recv(ch, &c2);
                    r.finish_recv_words(ch, ring, rows, width).expose().clone()
                },
            );
            for j in 0..40 {
                for k in 0..width(j) {
                    let add = if choices[j] { want[j][k] } else { 0 };
                    assert_eq!(got[j][k], ring.add(r[j][k], add), "ℓ = {ell}, instance {j}");
                    assert_eq!(r[j][k], ring.reduce(r[j][k]));
                }
            }
            // Banked: 5 bytes of corrections, then one ⌈ℓ/8⌉-byte word per
            // word: 60 words over the 40 OTs.
            if bank > 0 {
                assert_eq!(stats.online_bytes, 5 + 60 * u64::from(ell.div_ceil(8)));
            }
        }
    }

    #[test]
    fn exhausted_bank_falls_back_inline() {
        // Bank covers only the first batch; the second falls back to a
        // fresh extension on both sides without desynchronizing.
        let zeros: Vec<Block> = (0..6u128).map(|i| Block(i << 8)).collect();
        let z2 = zeros.clone();
        let (delta, (got1, got2), _) = run_protocol(
            move |ch| {
                let mut s = OtSender::setup(ch, &mut StdRng::seed_from_u64(86), TweakHasher::Aes);
                s.bank(ch, 4);
                s.send_labels(ch, &z2[..4]);
                assert_eq!(s.bank_remaining(), 0);
                s.send_labels(ch, &z2[4..]);
                s.label_delta().expose_block()
            },
            move |ch| {
                let mut r = OtReceiver::setup(ch, &mut StdRng::seed_from_u64(87), TweakHasher::Aes);
                r.bank(ch, 4, &mut StdRng::seed_from_u64(88));
                let rows = r.begin_recv(ch, &[true, false, true, false]);
                let a = r.finish_recv_labels(ch, rows).expose().clone();
                let rows = r.begin_recv(ch, &[false, true]);
                let b = r.finish_recv_labels(ch, rows).expose().clone();
                (a, b)
            },
        );
        let flip = |j: usize, c: bool| if c { zeros[j] ^ delta } else { zeros[j] };
        assert_eq!(
            got1,
            vec![flip(0, true), flip(1, false), flip(2, true), flip(3, false)]
        );
        assert_eq!(got2, vec![flip(4, false), flip(5, true)]);
    }

    #[test]
    fn random_ot_with_all_ones_choices() {
        let (pairs, got, _) = run_protocol(
            move |ch| {
                let mut s = OtSender::setup(ch, &mut StdRng::seed_from_u64(60), TweakHasher::Aes);
                s.random(ch, 16)
            },
            move |ch| {
                let mut r = OtReceiver::setup(ch, &mut StdRng::seed_from_u64(61), TweakHasher::Aes);
                r.random(ch, &[true; 16])
            },
        );
        for j in 0..16 {
            assert_eq!(got[j], pairs[j].1, "instance {j}");
        }
    }
}
