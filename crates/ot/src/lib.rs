//! Oblivious transfer for the secure Yannakakis workspace.
//!
//! Layers, mirroring how the paper's backends are built:
//!
//! * [`base`] — Chou–Orlandi "simplest OT": O(κ) public-key operations over
//!   the Mersenne-prime group from `secyan-crypto::mersenne`. Run once per
//!   session and IKNP direction to bootstrap extension.
//! * `ext` (private) — the OT-extension engine, generic over the row width:
//!   per-column PRGs keyed by seed OTs, column expansion and masking,
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
//! the column PRGs, expansion, transpose) is shared.
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
/// unchanged.
#[cfg(test)]
mod wire_goldens {
    use crate::{KkrtReceiver, KkrtSender, OtReceiver, OtSender};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use secyan_crypto::sha256::Sha256;
    use secyan_crypto::{RingCtx, TweakHasher};
    use secyan_transport::{run_protocol_captured, Role, TranscriptHandle};

    /// Digest of every message `dir` sent, length-prefixed so a moved message
    /// boundary shows as well as a moved byte.
    fn direction_digest(handle: &TranscriptHandle, dir: Role) -> String {
        let mut h = Sha256::new();
        for (_, m) in handle.messages().iter().filter(|(r, _)| *r == dir) {
            h.update(&(m.len() as u64).to_le_bytes());
            h.update(m);
        }
        h.finalize().iter().map(|b| format!("{b:02x}")).collect()
    }

    fn iknp_digests(banked: bool) -> (String, String) {
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
        (
            direction_digest(&handle, Role::Alice),
            direction_digest(&handle, Role::Bob),
        )
    }

    /// Correlated words at ℓ = 20 (a 3-byte stride), inline then banked on
    /// one setup: both forms in one digest pair.
    fn word_digests() -> (String, String) {
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
        (
            direction_digest(&handle, Role::Alice),
            direction_digest(&handle, Role::Bob),
        )
    }

    fn kkrt_digests() -> (String, String) {
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
        (
            direction_digest(&handle, Role::Alice),
            direction_digest(&handle, Role::Bob),
        )
    }

    #[test]
    fn ot_layer_wire_goldens() {
        let runs = [
            (
                "iknp inline",
                iknp_digests(false),
                "32a7ca1b3dd0056a09e963dc0ada7058effa28b7d1659d2eed758835c4b63d03",
                "a7636eb63906245aa2621c777bb76e776eac3d08b00acfac4aef772dc7c8fe39",
            ),
            (
                "iknp banked",
                iknp_digests(true),
                "32a7ca1b3dd0056a09e963dc0ada7058effa28b7d1659d2eed758835c4b63d03",
                "14b87eb54864131e4ee39ffb1c3a343567be6ad9c024b299b4be4d328bfd1232",
            ),
            (
                "iknp words inline then banked",
                word_digests(),
                "340219514760a365fee26aa27e0fbd1e8254059c7ee66f856a451aea431ef3d7",
                "c0b08d3e8861804510d8ea7fbcc91cb5a705637b525cb4b0cc46f68377704458",
            ),
            (
                "kkrt inline",
                kkrt_digests(),
                "48d86b6d8790815948c98f46e0bea8de134ec098e9f74b733ce772ca16a33551",
                "7d21b23ca9e1f82001a74216dd0b7e74019c8826bf02afd02ba0b0c1f9fd6cf8",
            ),
        ];
        for (what, (alice, bob), want_alice, want_bob) in runs {
            assert_eq!(alice, want_alice, "{what}: sender-side stream changed");
            assert_eq!(bob, want_bob, "{what}: receiver-side stream changed");
        }
    }
}
