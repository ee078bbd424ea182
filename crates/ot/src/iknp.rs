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
//! are an input (chosen-choice, random-message OT); chosen messages are
//! layered on by one-time-pad masking. The matrix work is the shared
//! engine (`ext.rs`) at 16-byte rows under the repetition code
//! (every column of the code matrix is the packed choice vector); this
//! module adds what is IKNP's own: hashing the rows into pads, masking
//! chosen messages, and the one-bit derandomisation of banked instances.
//!
//! Every chosen message has one of two shapes, and both are masked by the
//! pad itself — a correlation-robust hash output used once, so no message
//! is expanded through a PRG: a 16-byte block XORed with its pad
//! ([`OtSender::send_blocks`]; garbled-circuit input labels, switching-network
//! corrections), or a ⌈ℓ/8⌉-byte word added to it mod 2^ℓ
//! ([`OtSender::send_words`]; share multiplication).
//!
//! # Banks
//!
//! [`OtSender::bank`] / [`OtReceiver::bank`] run the extension offline
//! against random choice bits `c'` and keep the pads. Online, the receiver
//! sends correction bits `d = c ⊕ c'` (packed, m/8 bytes) and the sender's
//! effective pair becomes `(x_d, x_{1⊕d})`, replacing the 16m-byte column
//! bundle on the online critical path. Banked material is single-use:
//! entries are zeroized as they are taken, and the rest on drop.

use crate::ext::{choice_bits, Bank, ExtReceiver, ExtSender};
use rand::Rng;
use secyan_crypto::{Block, CtChoice, CtSelect, RingCtx, Secret, TweakHasher, Zeroize};
use secyan_transport::{Channel, ReadExt, WriteExt};

/// Security parameter κ: number of base OTs / width of the extension
/// matrix.
pub const KAPPA: usize = 128;

/// Domain label of the column PRGs.
const COL_LABEL: &[u8] = b"iknp-col";

/// Extension sender: after setup, produces message pairs.
pub struct OtSender {
    ext: ExtSender<Block>,
    ctr: u64,
    /// Precomputed random pad pairs `(x0, x1)` consumed by the online phase.
    bank: Bank<(Block, Block)>,
}

/// Extension receiver: after setup, obtains one message per choice bit.
pub struct OtReceiver {
    ext: ExtReceiver<Block>,
    ctr: u64,
    /// Precomputed random choice bits `c'` with the pad each selected.
    bank: Bank<(bool, Block)>,
}

impl OtSender {
    /// Bootstrap via κ base OTs (this side plays base-OT *receiver*).
    pub fn setup<R: Rng>(ch: &mut Channel, rng: &mut R, _hasher: TweakHasher) -> OtSender {
        let s = Block(rng.gen());
        let seeds = crate::base::receive(ch, choice_bits(&s).expose(), rng);
        OtSender {
            ext: ExtSender::new(COL_LABEL, s, seeds),
            ctr: 0,
            bank: Bank::new(Vec::new()),
        }
    }

    /// Offline phase: bank `m` random OT instances, replacing any earlier
    /// bank; chosen-message calls consume them while enough remain. The
    /// peer must run the matching [`OtReceiver::bank`] with the same `m`.
    pub fn bank(&mut self, ch: &mut Channel, m: usize) {
        self.bank = Bank::new(self.random(ch, m));
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

    /// Random pads for `m` chosen-message OTs: derandomize banked
    /// instances when the bank covers the batch, otherwise run a fresh
    /// extension. Both parties see the same public batch sizes and bank
    /// budgets, so the pooled-vs-inline decision is always mirrored.
    fn draw_pads(&mut self, ch: &mut Channel, m: usize) -> Vec<(Block, Block)> {
        if !self.bank.covers(m) {
            return self.random(ch, m);
        }
        // Beaver-style correction: receiver sends d = c ⊕ c'; the
        // effective pair is (x_d, x_{1⊕d}), so position c selects
        // x_{c'} — exactly the pad the receiver banked.
        let d = ch.recv_bool_vec(m);
        self.bank
            .take(m)
            .iter()
            .zip(&d)
            .map(|(&(x0, x1), &di)| {
                let swap = CtChoice::from_bool(di);
                (
                    Block::ct_select(swap, x1, x0),
                    Block::ct_select(swap, x0, x1),
                )
            })
            .collect()
    }

    /// Produce `m` random-message OT instances. The receiver (running
    /// [`OtReceiver::random`] with its choice bits) learns exactly one
    /// message of each returned pair.
    pub fn random(&mut self, ch: &mut Channel, m: usize) -> Vec<(Block, Block)> {
        // Rows q_j = t_j ⊕ c_j·s: the receiver's t_j is q_j or q_j ⊕ s.
        let mut qjs = self.ext.extend(ch, m);
        let s = self.ext.s().expose();
        let mut qjs_s: Vec<Block> = qjs.iter().map(|&qj| qj ^ *s).collect();
        // Both correlated branches hashed in batched kernel dispatches
        // (internally parallel for large m).
        let h0 = TweakHasher::Aes.hash_batch(&qjs, self.ctr);
        let h1 = TweakHasher::Aes.hash_batch(&qjs_s, self.ctr);
        self.ctr += m as u64;
        // The q-rows are the pads' preimages; scrub the local copies.
        qjs.zeroize();
        qjs_s.zeroize();
        h0.into_iter().zip(h1).collect()
    }

    /// Chosen-message OT on 128-bit messages: each message XORed with its
    /// pad, all `2m` masked blocks written into the staging buffer as one
    /// message. An empty batch is communication-free on both sides: the
    /// receiver consumes no frames for zero choices, so sending even an
    /// empty frame here would desynchronize the wire.
    pub fn send_blocks(&mut self, ch: &mut Channel, pairs: &[(Block, Block)]) {
        if pairs.is_empty() {
            return;
        }
        let pads = Secret::new(self.draw_pads(ch, pairs.len()));
        ch.send_with(32 * pairs.len(), |buf| {
            let slots = buf.chunks_exact_mut(32);
            for (slot, (&(m0, m1), &(x0, x1))) in slots.zip(pairs.iter().zip(pads.expose())) {
                slot[..16].copy_from_slice(&(m0 ^ x0).to_bytes());
                slot[16..].copy_from_slice(&(m1 ^ x1).to_bytes());
            }
        });
    }

    /// [`OtSender::send_blocks`] on 16-byte strings, each read as a
    /// little-endian block: the same wire bytes. Kept for the benchmark's
    /// OT probe; the protocol sends blocks.
    pub fn send_bytes(&mut self, ch: &mut Channel, pairs: &[(Vec<u8>, Vec<u8>)]) {
        let block = |m: &[u8]| Block::from_bytes(m.try_into().expect("16-byte OT message"));
        let blocks: Vec<(Block, Block)> = pairs
            .iter()
            .map(|(m0, m1)| (block(m0), block(m1)))
            .collect();
        self.send_blocks(ch, &blocks);
    }

    /// Correlated-word OT over Z_{2^ℓ} (Gilboa / ABY share multiplication):
    /// returns one `r_j = x0 mod 2^ℓ` per `deltas[j]`, and the receiver's
    /// [`OtReceiver::finish_recv_words`] ends with `r_j + c_j·Δ_j`. One
    /// ⌈ℓ/8⌉-byte word `r + Δ − x1` per OT crosses the wire, as one message;
    /// an empty batch is communication-free like [`OtSender::send_blocks`].
    pub fn send_words(
        &mut self,
        ch: &mut Channel,
        ring: RingCtx,
        deltas: &[u64],
    ) -> Secret<Vec<u64>> {
        let mut r = Secret::new(Vec::with_capacity(deltas.len()));
        if deltas.is_empty() {
            return r;
        }
        let pads = Secret::new(self.draw_pads(ch, deltas.len()));
        let stride = word_bytes(ring);
        ch.send_with(stride * deltas.len(), |buf| {
            let words = buf.chunks_exact_mut(stride);
            for ((word, &(x0, x1)), &delta) in words.zip(pads.expose()).zip(deltas) {
                let r_j = ring.reduce(x0.0 as u64);
                let masked = ring.sub(ring.add(r_j, delta), x1.0 as u64);
                word.copy_from_slice(&masked.to_le_bytes()[..stride]);
                r.expose_mut().push(r_j);
            }
        });
        r
    }
}

/// Wire bytes of one ring element: ⌈ℓ/8⌉.
fn word_bytes(ring: RingCtx) -> usize {
    ring.bits().div_ceil(8) as usize
}

impl OtReceiver {
    /// Bootstrap via κ base OTs (this side plays base-OT *sender*).
    pub fn setup<R: Rng>(ch: &mut Channel, rng: &mut R, _hasher: TweakHasher) -> OtReceiver {
        OtReceiver {
            ext: ExtReceiver::new(COL_LABEL, crate::base::send(ch, KAPPA, rng)),
            ctr: 0,
            bank: Bank::new(Vec::new()),
        }
    }

    /// Offline phase: bank `m` random OT instances with random choice bits
    /// `c'`, replacing any earlier bank, to be derandomized online against
    /// the real choices. The peer must run the matching [`OtSender::bank`]
    /// with the same `m`.
    pub fn bank<R: Rng>(&mut self, ch: &mut Channel, m: usize, rng: &mut R) {
        let choices: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
        let blocks = self.random(ch, &choices);
        self.bank = Bank::new(choices.into_iter().zip(blocks).collect());
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

    /// Pads selected by `choices`: derandomize banked instances when the
    /// bank covers the batch (sending only packed correction bits d = c ⊕ c',
    /// which are uniform and independent of c), else a fresh extension.
    fn draw_pads(&mut self, ch: &mut Channel, choices: &[bool]) -> Vec<Block> {
        let m = choices.len();
        if !self.bank.covers(m) {
            return self.random(ch, choices);
        }
        // XOR of two bools is branchless; d is sent on the wire and is
        // uniform because c' is.
        let (d, blocks): (Vec<bool>, Vec<Block>) = self
            .bank
            .take(m)
            .iter()
            .zip(choices)
            .map(|(&(cp, x), &c)| (c ^ cp, x))
            .unzip();
        ch.send_bool_slice(&d);
        blocks
    }

    /// Obtain the message selected by each choice bit (random-message OT).
    pub fn random(&mut self, ch: &mut Channel, choices: &[bool]) -> Vec<Block> {
        let m = choices.len();
        // Pack the choice bits without branching on them. Under the
        // repetition code every column of the code matrix is this vector.
        let mut r_packed = vec![0u8; m.div_ceil(8)];
        for (j, &c) in choices.iter().enumerate() {
            r_packed[j / 8] |= (c as u8) << (j % 8);
        }
        let mut tjs = self.ext.extend(ch, m, |_| r_packed.as_slice());
        let out = TweakHasher::Aes.hash_batch(&tjs, self.ctr);
        self.ctr += m as u64;
        tjs.zeroize();
        out
    }

    /// First half of a receive: draw the pads for `choices`. This is
    /// *send-only* on the receiver side (banked: packed correction bits;
    /// fresh: the masked column bundle), so it can be staged before other
    /// incoming traffic is read — protocol layers use this to batch all
    /// receiver-side OT corrections of a round into one super-frame before
    /// blocking on the sender's replies. Finish with
    /// [`OtReceiver::finish_recv_blocks`] / [`OtReceiver::finish_recv_words`]
    /// in the same order relative to the peer's sends.
    pub fn begin_recv(&mut self, ch: &mut Channel, choices: &[bool]) -> Vec<Block> {
        self.draw_pads(ch, choices)
    }

    /// Second half of [`OtReceiver::begin_recv`] for 128-bit messages:
    /// read the masked pairs and unmask the chosen one.
    pub fn finish_recv_blocks(
        &mut self,
        ch: &mut Channel,
        pads: &[Block],
        choices: &[bool],
    ) -> Vec<Block> {
        let masked = ch.recv_u128_vec(choices.len() * 2);
        choices
            .iter()
            .enumerate()
            .map(|(j, &c)| {
                let picked =
                    u128::ct_select(CtChoice::from_bool(c), masked[2 * j + 1], masked[2 * j]);
                Block(picked) ^ pads[j]
            })
            .collect()
    }

    /// Second half of [`OtReceiver::begin_recv`] against
    /// [`OtSender::send_words`]: `pad_j + c_j·word_j mod 2^ℓ`, the word
    /// masked in or out branchlessly. Reads `choices.len()` fixed-stride
    /// words — nothing for an empty batch.
    pub fn finish_recv_words(
        &mut self,
        ch: &mut Channel,
        ring: RingCtx,
        pads: &[Block],
        choices: &[bool],
    ) -> Secret<Vec<u64>> {
        let stride = word_bytes(ring);
        let mut raw = vec![0u8; stride * choices.len()];
        ch.recv_into(&mut raw);
        let words = raw.chunks_exact(stride);
        let outs = words.zip(pads).zip(choices).map(|((word, pad), &c)| {
            let mut le = [0u8; 8];
            le[..stride].copy_from_slice(word);
            let word = u64::from_le_bytes(le) & CtChoice::from_bool(c).mask_u64();
            ring.add(pad.0 as u64, word)
        });
        Secret::new(outs.collect())
    }

    /// Receive chosen 128-bit messages. The unchosen branch is read too and
    /// discarded via [`CtSelect`], so memory access does not index on the
    /// choice bit.
    pub fn recv_blocks(&mut self, ch: &mut Channel, choices: &[bool]) -> Vec<Block> {
        let pads = self.begin_recv(ch, choices);
        self.finish_recv_blocks(ch, &pads, choices)
    }

    /// [`OtReceiver::recv_blocks`] against [`OtSender::send_bytes`]: the
    /// chosen blocks as 16-byte strings. `len` must be 16.
    pub fn recv_bytes(&mut self, ch: &mut Channel, choices: &[bool], len: usize) -> Vec<Vec<u8>> {
        assert_eq!(len, 16, "OT messages are 16-byte blocks");
        let blocks = self.recv_blocks(ch, choices);
        blocks.iter().map(|b| b.to_bytes().to_vec()).collect()
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
        // switches) must put nothing on the wire in either direction: an
        // orphan frame here desynchronizes every later message. The same
        // goes for a zero-sized bank (a shape whose walk draws nothing in
        // one direction). The marker exchange after the empty batches
        // proves the streams still align.
        let (a, b, stats) = run_protocol(
            |ch| {
                let mut s = OtSender::setup(ch, &mut StdRng::seed_from_u64(40), TweakHasher::Aes);
                let before = ch.stats().total_bytes();
                s.send_bytes(ch, &[]);
                s.send_blocks(ch, &[]);
                assert!(s.send_words(ch, RingCtx::new(32), &[]).expose().is_empty());
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
                assert!(r.recv_blocks(ch, &[]).is_empty());
                let words = r.finish_recv_words(ch, RingCtx::new(32), &[], &[]);
                assert!(words.expose().is_empty());
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

    #[test]
    fn chosen_blocks_transfer() {
        let pairs: Vec<(Block, Block)> = (0..50u128).map(|i| (Block(i), Block(i + 1000))).collect();
        let p2 = pairs.clone();
        let choices: Vec<bool> = (0..50).map(|i| i % 3 == 0).collect();
        let c2 = choices.clone();
        let (_, got, _) = run_protocol(
            move |ch| {
                let mut s = OtSender::setup(ch, &mut StdRng::seed_from_u64(40), TweakHasher::Aes);
                s.send_blocks(ch, &p2);
            },
            move |ch| {
                let mut r = OtReceiver::setup(ch, &mut StdRng::seed_from_u64(41), TweakHasher::Aes);
                r.recv_blocks(ch, &c2)
            },
        );
        for j in 0..50 {
            let want = if choices[j] { pairs[j].1 } else { pairs[j].0 };
            assert_eq!(got[j], want);
        }
    }

    /// The byte-string calls are the block OT under another type: on the
    /// same seeds, 16-byte strings through `send_bytes` / `recv_bytes` and
    /// the same messages as blocks through `send_blocks` / `recv_blocks`
    /// put byte-identical streams on the wire in both directions, inline
    /// and banked.
    #[test]
    fn send_bytes_is_the_block_ot() {
        let mut rng = StdRng::seed_from_u64(52);
        let blocks: Vec<(Block, Block)> = (0..40)
            .map(|_| (Block::random(&mut rng), Block::random(&mut rng)))
            .collect();
        let choices: Vec<bool> = (0..40).map(|_| rng.gen()).collect();
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
                        s.send_blocks(ch, &pairs);
                    }
                },
                move |ch| {
                    let mut rng = StdRng::seed_from_u64(54);
                    let mut r = OtReceiver::setup(ch, &mut rng, TweakHasher::Aes);
                    r.bank(ch, bank, &mut rng);
                    if as_bytes {
                        let got = r.recv_bytes(ch, &c2, 16);
                        got.iter()
                            .map(|m| Block::from_bytes(m[..].try_into().unwrap()))
                            .collect()
                    } else {
                        r.recv_blocks(ch, &c2)
                    }
                },
            );
            for (j, &(m0, m1)) in blocks.iter().enumerate() {
                assert_eq!(got[j], if choices[j] { m1 } else { m0 }, "instance {j}");
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
    fn extension_is_thread_count_invariant() {
        // Same seeds, sizes crossing every parallel threshold: outputs must
        // be bit-identical at 1 and 4 threads.
        let m = 2 * crate::ext::OT_PAR_MIN;
        let run_at = |threads: usize| {
            secyan_par::set_threads(threads);
            let out = run_random(m, 70);
            secyan_par::set_threads(0);
            out
        };
        let (pairs1, got1, choices) = run_at(1);
        let (pairs4, got4, _) = run_at(4);
        assert_eq!(pairs1, pairs4);
        assert_eq!(got1, got4);
        for j in 0..m {
            let (x0, x1) = pairs1[j];
            assert_eq!(got1[j], if choices[j] { x1 } else { x0 }, "instance {j}");
        }
    }

    #[test]
    fn banked_blocks_transfer_with_fewer_online_bytes() {
        let pairs: Vec<(Block, Block)> = (0..64u128).map(|i| (Block(i), Block(i + 500))).collect();
        let p2 = pairs.clone();
        let choices: Vec<bool> = (0..64).map(|i| i % 5 == 0).collect();
        let c2 = choices.clone();
        let ((), got, stats) = run_protocol(
            move |ch| {
                ch.set_phase(Phase::Offline);
                let mut s = OtSender::setup(ch, &mut StdRng::seed_from_u64(80), TweakHasher::Aes);
                s.bank(ch, 64);
                ch.set_phase(Phase::Online);
                s.send_blocks(ch, &p2);
                assert_eq!(s.bank_remaining(), 0);
            },
            move |ch| {
                ch.set_phase(Phase::Offline);
                let mut r = OtReceiver::setup(ch, &mut StdRng::seed_from_u64(81), TweakHasher::Aes);
                r.bank(ch, 64, &mut StdRng::seed_from_u64(82));
                ch.set_phase(Phase::Online);
                r.recv_blocks(ch, &c2)
            },
        );
        for j in 0..64 {
            let want = if choices[j] { pairs[j].1 } else { pairs[j].0 };
            assert_eq!(got[j], want, "instance {j}");
        }
        // Online: 8 bytes of packed corrections + 2·64·16 masked bytes —
        // far below the 16m-byte column bundle of an inline extension.
        // The phase-tagged counters make this exact and race-free: each
        // frame is attributed to the phase its sender was in.
        assert_eq!(stats.online_bytes, 8 + 2 * 64 * 16);
        assert!(stats.offline_bytes > 0, "bootstrap traffic must be tagged");
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
    /// full 64 bits, where neither the mask nor `Δ = x << 63` may overflow.
    #[test]
    fn correlated_words_add_delta_where_chosen() {
        for (ell, bank) in [(1, 0), (20, 40), (32, 0), (32, 40), (64, 0), (64, 40)] {
            let ring = RingCtx::new(ell);
            let deltas: Vec<u64> = (0..40u64)
                .map(|j| ring.reduce(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(j + 1) << (j % 64)))
                .collect();
            let choices: Vec<bool> = (0..40).map(|j| j % 3 != 1).collect();
            let (want, c2) = (deltas.clone(), choices.clone());
            let (r, got, stats) = run_protocol(
                move |ch| {
                    let mut s =
                        OtSender::setup(ch, &mut StdRng::seed_from_u64(90), TweakHasher::Aes);
                    s.bank(ch, bank);
                    ch.set_phase(Phase::Online);
                    let r = s.send_words(ch, ring, &deltas);
                    assert_eq!(s.bank_remaining(), 0);
                    r.expose().clone()
                },
                move |ch| {
                    let mut rng = StdRng::seed_from_u64(91);
                    let mut r = OtReceiver::setup(ch, &mut rng, TweakHasher::Aes);
                    r.bank(ch, bank, &mut rng);
                    ch.set_phase(Phase::Online);
                    let pads = r.begin_recv(ch, &c2);
                    r.finish_recv_words(ch, ring, &pads, &c2).expose().clone()
                },
            );
            for j in 0..40 {
                let add = if choices[j] { want[j] } else { 0 };
                assert_eq!(got[j], ring.add(r[j], add), "ℓ = {ell}, instance {j}");
                assert_eq!(r[j], ring.reduce(r[j]));
            }
            // Banked: 5 bytes of corrections, then one ⌈ℓ/8⌉-byte word per OT.
            if bank > 0 {
                assert_eq!(stats.online_bytes, 5 + 40 * u64::from(ell.div_ceil(8)));
            }
        }
    }

    #[test]
    fn exhausted_bank_falls_back_inline() {
        // Bank covers only the first batch; the second falls back to a
        // fresh extension on both sides without desynchronizing.
        let mk = |i: u128| (Block(i), Block(i + 77));
        let (_, (got1, got2), _) = run_protocol(
            move |ch| {
                let mut s = OtSender::setup(ch, &mut StdRng::seed_from_u64(86), TweakHasher::Aes);
                s.bank(ch, 4);
                s.send_blocks(ch, &[mk(0), mk(1), mk(2), mk(3)]);
                assert_eq!(s.bank_remaining(), 0);
                s.send_blocks(ch, &[mk(10), mk(11)]);
            },
            move |ch| {
                let mut r = OtReceiver::setup(ch, &mut StdRng::seed_from_u64(87), TweakHasher::Aes);
                r.bank(ch, 4, &mut StdRng::seed_from_u64(88));
                let a = r.recv_blocks(ch, &[true, false, true, false]);
                let b = r.recv_blocks(ch, &[false, true]);
                (a, b)
            },
        );
        assert_eq!(got1, vec![Block(77), Block(1), Block(79), Block(3)]);
        assert_eq!(got2, vec![Block(10), Block(88)]);
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
