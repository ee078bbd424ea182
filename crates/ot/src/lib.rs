//! Oblivious transfer for the secure Yannakakis workspace.
//!
//! Layers, mirroring how the paper's backends are built:
//!
//! * [`base`] — Chou–Orlandi "simplest OT": O(κ) public-key operations over
//!   the Mersenne-prime group from `secyan-crypto::mersenne`. Run once per
//!   session and IKNP direction to bootstrap extension.
//! * `ext` (private) — the OT-extension engine, generic over the row width:
//!   seed-OT outputs expanded into columns by the counter-mode AES stream,
//!   column masking,
//!   the bit-matrix transpose into per-instance rows, and the single-use
//!   bank type for IKNP's precomputed rows. It runs on the calling
//!   thread.
//! * [`iknp`] — IKNP OT extension: the engine at κ = 128 columns, one
//!   message per OT. As label OTs on the rows' own correlation it powers
//!   garbled-circuit input transfer; as correlated ℓ-bit words, every
//!   switch of the oblivious switching network in `secyan-oep` and the
//!   share multiplication of `secyan-core`'s reduce-join.
//! * [`kkrt`] — KKRT batched oblivious PRF (BaRK-OPRF): the engine at 512
//!   columns, seeded by 512 random OTs extended from IKNP rather than by
//!   base OTs, and extended inline on every batch (never banked; the
//!   module docs say why). This powers the OPPRF inside circuit PSI
//!   (`secyan-psi`), which in turn implements the paper's §5.3/§5.5.
//!
//! IKNP and KKRT differ only in *code* and *hash*. Both leave the sender
//! with rows `q_j = t_j ⊕ (code_j & s)` against the receiver's `t_j`. IKNP
//! encodes a choice bit with the repetition code (all-zeros or all-ones),
//! so `q_j ∈ {t_j, t_j ⊕ s}`: the row itself carries a garbled-circuit
//! label, and hashing both candidates gives the two pads of a word OT; KKRT encodes an arbitrary input with a pseudorandom code `C`, so
//! the sender can recompute the receiver's row for any candidate `y` as
//! `q_j ⊕ (C(y) & s)` and hash that — an OPRF. Everything else (seeding
//! the column streams, expansion, transpose) is shared.
//!
//! All protocols speak over `secyan_transport::Channel` and are exercised
//! end-to-end (two real threads) by this crate's tests.

pub mod base;
mod ext;
pub mod iknp;
pub mod kkrt;

pub use iknp::{OtReceiver, OtSender, RecvRows};
pub use kkrt::{KkrtReceiver, KkrtSender, KkrtSenderKey};

/// Wire goldens: SHA-256 per direction of fixed-seed IKNP exchanges,
/// inline and banked, and of a KKRT exchange (always inline). The digests
/// were recorded at the commit before the two extensions were folded onto
/// one engine, so they move only when what this crate puts on the wire
/// moves — a drift shows up here rather than three layers up in the
/// query-level transcript goldens. The receiver-side digests of the three
/// IKNP rows were recorded with the kernel, and the KKRT row's with the
/// KKRT seeds coming from an IKNP extension. Every sender-side digest was
/// recorded when every OT came to send one message: the sender's `s` has
/// its low bit set and pad tweaks a domain bit, so all pads moved. The
/// chosen 16-byte messages became a width-2 word OT plus one m₀ − r
/// message, so that row's one 32·m-byte message is two of 16·m bytes
/// (inline and banked still send the same bytes); every other length is
/// unchanged. All byte digests were re-recorded when the column streams
/// moved from ChaCha20 onto the fixed-key AES hash, which moved every
/// column and pad; the length digests beside them, recorded before that
/// move, did not change.
#[cfg(test)]
mod wire_goldens {
    use crate::{KkrtReceiver, KkrtSender, OtReceiver, OtSender};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use secyan_crypto::sha256::Sha256;
    use secyan_crypto::{RingCtx, TweakHasher};
    use secyan_transport::{run_protocol_captured, Role, TranscriptHandle};

    /// Digest of every message `dir` sent, length-prefixed so a moved message
    /// boundary shows as well as a moved byte; with `bytes` false, of the
    /// message-length sequence alone.
    fn direction_digest(handle: &TranscriptHandle, dir: Role, bytes: bool) -> String {
        let mut h = Sha256::new();
        for (_, m) in handle.messages().iter().filter(|(r, _)| *r == dir) {
            h.update(&(m.len() as u64).to_le_bytes());
            if bytes {
                h.update(m);
            }
        }
        h.finalize().iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Per direction (Alice, Bob): the byte digest, then the length digest.
    type Digests = [String; 4];

    fn digests(handle: &TranscriptHandle) -> Digests {
        [
            direction_digest(handle, Role::Alice, true),
            direction_digest(handle, Role::Bob, true),
            direction_digest(handle, Role::Alice, false),
            direction_digest(handle, Role::Bob, false),
        ]
    }

    fn iknp_digests(banked: bool) -> Digests {
        const M: usize = 1000;
        let mut rng = StdRng::seed_from_u64(7);
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..M)
            .map(|_| {
                (
                    rng.gen::<[u8; 16]>().to_vec(),
                    rng.gen::<[u8; 16]>().to_vec(),
                )
            })
            .collect();
        let choices: Vec<bool> = (0..M).map(|_| rng.gen()).collect();
        let (want, c2) = (pairs.clone(), choices.clone());
        let ((), got, _, handle) = run_protocol_captured(
            move |ch| {
                let mut s =
                    OtSender::setup(ch, &mut StdRng::seed_from_u64(11), TweakHasher::default());
                if banked {
                    s.bank(ch, M);
                }
                s.send_bytes(ch, &pairs);
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(12);
                let mut r = OtReceiver::setup(ch, &mut rng, TweakHasher::default());
                if banked {
                    r.bank(ch, M, &mut rng);
                }
                r.recv_bytes(ch, &c2, 16)
            },
        );
        for j in 0..M {
            let (m0, m1) = &want[j];
            assert_eq!(&got[j], if choices[j] { m1 } else { m0 }, "instance {j}");
        }
        digests(&handle)
    }

    /// Correlated words at ℓ = 20 (a 3-byte stride), inline then banked on
    /// one setup: both forms in one digest pair.
    fn word_digests() -> Digests {
        const M: usize = 1000;
        let ring = RingCtx::new(20);
        let mut rng = StdRng::seed_from_u64(8);
        let deltas: Vec<[u64; 2]> = (0..M).map(|_| [ring.random(&mut rng), 0]).collect();
        let choices: Vec<bool> = (0..M).map(|_| rng.gen()).collect();
        let (want, c2) = (deltas.clone(), choices.clone());
        let (r, got, _, handle) = run_protocol_captured(
            move |ch| {
                let mut s =
                    OtSender::setup(ch, &mut StdRng::seed_from_u64(13), TweakHasher::default());
                let mut r = s
                    .send_words(ch, ring, M, |_| 1, |_| deltas.clone())
                    .expose()
                    .clone();
                s.bank(ch, M);
                r.extend_from_slice(s.send_words(ch, ring, M, |_| 1, |_| deltas).expose());
                r
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(14);
                let mut r = OtReceiver::setup(ch, &mut rng, TweakHasher::default());
                let rows = r.begin_recv(ch, &c2);
                let mut got = r.finish_recv_words(ch, ring, rows, |_| 1).expose().clone();
                r.bank(ch, M, &mut rng);
                let rows = r.begin_recv(ch, &c2);
                got.extend_from_slice(r.finish_recv_words(ch, ring, rows, |_| 1).expose());
                got
            },
        );
        for j in 0..2 * M {
            let add = if choices[j % M] { want[j % M][0] } else { 0 };
            assert_eq!(got[j][0], ring.add(r[j][0], add), "instance {j}");
        }
        digests(&handle)
    }

    fn kkrt_digests() -> Digests {
        const M: usize = 300;
        let inputs: Vec<[u8; 8]> = (0..M as u64).map(|i| (i * 0x9E37).to_le_bytes()).collect();
        let ins = inputs.clone();
        let (key, got, _, handle) = run_protocol_captured(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(21);
                let mut ot = OtReceiver::setup(ch, &mut rng, TweakHasher::default());
                KkrtSender::setup(ch, &mut ot, &mut rng).key_batch(ch, M)
            },
            move |ch| {
                let mut ot =
                    OtSender::setup(ch, &mut StdRng::seed_from_u64(22), TweakHasher::default());
                let mut r = KkrtReceiver::setup(ch, &mut ot);
                let refs: Vec<&[u8]> = ins.iter().map(|x| x.as_slice()).collect();
                r.eval_batch(ch, &refs)
            },
        );
        for (j, x) in inputs.iter().enumerate() {
            assert_eq!(got[j], key.eval(j, x), "instance {j}");
        }
        digests(&handle)
    }

    #[test]
    fn ot_layer_wire_goldens() {
        let runs = [
            (
                "iknp inline",
                iknp_digests(false),
                "7ae48230b6262a30f351b9450cd67927f7096a840f021cbf447760f6c706a113",
                "d958f5f3163705146c311348f6ad2694e2c34794dee4ef6b473b19b518a7f1b0",
                "8cbac3fc46c1ae6d745910ff0598a8b471cdd8e1ec1a8b0e47ec4ff1c4d547ba",
                "fbe58ce667f8557dd9ab52453cee3c64371585f09548fdd423ec22bb934f1fc8",
            ),
            (
                "iknp banked",
                iknp_digests(true),
                "7ae48230b6262a30f351b9450cd67927f7096a840f021cbf447760f6c706a113",
                "755790656d75f4badbaf3b0212268e0f9590c1f877387ba212b76be47fb58697",
                "8cbac3fc46c1ae6d745910ff0598a8b471cdd8e1ec1a8b0e47ec4ff1c4d547ba",
                "fbbd99562b21cda8558ea20c1b48290195ad19f557477cbc571703ebf243df55",
            ),
            (
                "iknp words inline then banked",
                word_digests(),
                "44cc7c95534adafb8a5dab2ed8f39de13f136c1ebb03cc199373f18c4a4f87e1",
                "166ee85bdf7702c1ccedebcf6bb88f2c15d595ae75254918cfce740b43008969",
                "adb3c3f188d99af8b4957c9f1a6d3279df0d8b4d4d14085634ec11512e4b58dc",
                "4eb248e0eb3ec7a9a37531a448325c1a761f10ef2160102f29b0daa4f0b27bbb",
            ),
            (
                "kkrt inline",
                kkrt_digests(),
                "d5d3331694a5e864adc9146fcb9f0c8a63f0725d6a68e0214f35369f2fdb5081",
                "98852bb901a4d3bb1b85a12a97c43e1308a897f5369cdb5334c0d58aacac6643",
                "f419c62fb9aef37964ed4038bde050c93d846d14c168a48e45511afdc4a58eae",
                "bf8633e7c72f60ac892dcf573a9d553182b4b7f0a88d889fd5ec264859f3c13b",
            ),
        ];
        for (what, got, want_alice, want_bob, want_alice_len, want_bob_len) in runs {
            let [alice, bob, alice_len, bob_len] = got;
            assert_eq!(
                alice_len, want_alice_len,
                "{what}: sender-side lengths changed"
            );
            assert_eq!(
                bob_len, want_bob_len,
                "{what}: receiver-side lengths changed"
            );
            assert_eq!(alice, want_alice, "{what}: sender-side stream changed");
            assert_eq!(bob, want_bob, "{what}: receiver-side stream changed");
        }
    }
}
