//! Oblivious transfer for the secure Yannakakis workspace.
//!
//! Layers, mirroring how the paper's backends are built:
//!
//! * [`base`] — Chou–Orlandi "simplest OT": O(κ) public-key operations over
//!   the Mersenne-prime group from `secyan-crypto::mersenne`. Run once per
//!   session to bootstrap extension.
//! * `ext` (private) — the OT-extension engine, generic over the row width:
//!   base-OT bootstrap into per-column PRGs, column expansion and masking,
//!   the bit-matrix transpose into per-instance rows, and the one
//!   single-use bank type for precomputed instances. Its pool thresholds
//!   are the only ones in this crate's extension path.
//! * [`iknp`] — IKNP OT extension: the engine at κ = 128 columns. This
//!   powers garbled-circuit input transfer, the oblivious switching
//!   network in `secyan-oep`, and — as correlated ℓ-bit words — the share
//!   multiplication of `secyan-core`'s reduce-join.
//! * [`kkrt`] — KKRT batched oblivious PRF (BaRK-OPRF): the engine at 512
//!   columns. This powers the OPPRF inside circuit PSI (`secyan-psi`),
//!   which in turn implements the paper's §5.3/§5.5.
//!
//! IKNP and KKRT differ only in *code* and *hash*. Both leave the sender
//! with rows `q_j = t_j ⊕ (code_j & s)` against the receiver's `t_j`. IKNP
//! encodes a choice bit with the repetition code (all-zeros or all-ones),
//! so `q_j ∈ {t_j, t_j ⊕ s}` and hashing both candidates gives the two OT
//! pads; KKRT encodes an arbitrary input with a pseudorandom code `C`, so
//! the sender can recompute the receiver's row for any candidate `y` as
//! `q_j ⊕ (C(y) & s)` and hash that — an OPRF. Everything else (bootstrap,
//! expansion, transpose, banking) is shared.
//!
//! All protocols speak over `secyan_transport::Channel` and are exercised
//! end-to-end (two real threads) by this crate's tests.

pub mod base;
mod ext;
pub mod iknp;
pub mod kkrt;

pub use iknp::{OtReceiver, OtSender};
pub use kkrt::{KkrtReceiver, KkrtSender, KkrtSenderKey};

/// Wire goldens: SHA-256 per direction of fixed-seed IKNP and KKRT
/// exchanges, inline and banked. The digests were recorded at the commit
/// before the two extensions were folded onto one engine, so they move only
/// when what this crate puts on the wire moves — a drift shows up here
/// rather than three layers up in the query-level transcript goldens. The
/// correlated-word row was recorded with the kernel.
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
        let deltas: Vec<u64> = (0..M).map(|_| ring.random(&mut rng)).collect();
        let choices: Vec<bool> = (0..M).map(|_| rng.gen()).collect();
        let (want, c2) = (deltas.clone(), choices.clone());
        let (r, got, _, handle) = run_protocol_captured(
            move |ch| {
                let mut s =
                    OtSender::setup(ch, &mut StdRng::seed_from_u64(13), TweakHasher::default());
                let mut r = s.send_words(ch, ring, &deltas).expose().clone();
                s.bank(ch, M);
                r.extend_from_slice(s.send_words(ch, ring, &deltas).expose());
                r
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(14);
                let mut r = OtReceiver::setup(ch, &mut rng, TweakHasher::default());
                let pads = r.begin_recv(ch, &c2);
                let mut got = r.finish_recv_words(ch, ring, &pads, &c2).expose().clone();
                r.bank(ch, M, &mut rng);
                let pads = r.begin_recv(ch, &c2);
                got.extend_from_slice(r.finish_recv_words(ch, ring, &pads, &c2).expose());
                got
            },
        );
        for j in 0..2 * M {
            let add = if choices[j % M] { want[j % M] } else { 0 };
            assert_eq!(got[j], ring.add(r[j], add), "instance {j}");
        }
        (
            direction_digest(&handle, Role::Alice),
            direction_digest(&handle, Role::Bob),
        )
    }

    fn kkrt_digests(banked: bool) -> (String, String) {
        const M: usize = 300;
        let inputs: Vec<[u8; 8]> = (0..M as u64).map(|i| (i * 0x9E37).to_le_bytes()).collect();
        let ins = inputs.clone();
        let (key, got, _, handle) = run_protocol_captured(
            move |ch| {
                let mut s = KkrtSender::setup(ch, &mut StdRng::seed_from_u64(21));
                if banked {
                    s.bank(ch, M);
                }
                s.key_batch(ch, M)
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(22);
                let mut r = KkrtReceiver::setup(ch, &mut rng);
                if banked {
                    r.bank(ch, M, &mut rng);
                }
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
                "e17a11d4da4d77578f4bd4600b136cd6ef84ee106a0793dbcc2fe6da7bf543a9",
                "a7636eb63906245aa2621c777bb76e776eac3d08b00acfac4aef772dc7c8fe39",
            ),
            (
                "iknp banked",
                iknp_digests(true),
                "e17a11d4da4d77578f4bd4600b136cd6ef84ee106a0793dbcc2fe6da7bf543a9",
                "14b87eb54864131e4ee39ffb1c3a343567be6ad9c024b299b4be4d328bfd1232",
            ),
            (
                "iknp words inline then banked",
                word_digests(),
                "368d88d04bf4c2b379306b6a525f400f8ab31b61d311acf52452388a3b99c748",
                "c0b08d3e8861804510d8ea7fbcc91cb5a705637b525cb4b0cc46f68377704458",
            ),
            (
                "kkrt inline",
                kkrt_digests(false),
                "18cdb13f5666a3f42a4e2a37aa18fb9aba56abc6399f0d21340526962c1c8bfa",
                "ade25ba8567056f68e0064a5abcb2f376ca4341dce56f81bd78985f4fc85d880",
            ),
            (
                "kkrt banked",
                kkrt_digests(true),
                "18cdb13f5666a3f42a4e2a37aa18fb9aba56abc6399f0d21340526962c1c8bfa",
                "351de854c8f8d49e88bd0620f1ae9bd0be2216a322d6c84559851e3a3ca2b637",
            ),
        ];
        for (what, (alice, bob), want_alice, want_bob) in runs {
            assert_eq!(alice, want_alice, "{what}: sender-side stream changed");
            assert_eq!(bob, want_bob, "{what}: receiver-side stream changed");
        }
    }
}
