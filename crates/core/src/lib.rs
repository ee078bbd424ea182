//! **Secure Yannakakis** — the paper's primary contribution (§6).
//!
//! A two-party protocol evaluating any free-connex join-aggregate query
//! with Õ(IN + OUT) time and communication, revealing nothing beyond the
//! query results. Both parties run the *same* driver over the public query
//! plan; all data-dependent state lives in owner-held tuple lists and
//! secret-shared annotations.
//!
//! Layout (one module per §6 subsection):
//! * [`session`] — per-party protocol state: channel, ring, and
//!   both directions of OT/OPRF machinery, set up once and amortized —
//!   and the four verbs (circuit, OEP, PSI, multiply) every operator
//!   below is written in.
//! * [`srel`] — [`srel::SecureRelation`]: a public header, tuples and
//!   dummy flags held by one party, annotations additively shared —
//!   (v, 0) while still owner-known.
//! * [`agg`] — oblivious projection-aggregation π⊕ and π¹ (§6.1): local
//!   sort + shared OEP + a merge-gate garbled circuit.
//! * [`semijoin`] — the reduce-join R_F ⋈⊗ R_{F'} (F′ ⊆ F) and the
//!   annotated semijoin R_F ⋉⊗ R_{F'} (§6.2), in cross-party (via PSI
//!   with secret-shared payloads) and same-party (via OEP only) variants.
//! * [`join`] — the oblivious join (§6.3): reveal nonzero support, local
//!   Yannakakis join, OEP + product circuit for the annotations.
//! * [`protocol`] — the three-phase driver (§6.4) with the §6.5
//!   optimizations (local aggregation and plain-payload PSI while
//!   annotations are still owner-known); one walk, ending in a reveal or
//!   in shares for composition.
//! * [`ext`] — §7 extensions: selection handling, query composition
//!   (avg/ratio via a final division circuit), and differentially private
//!   noise on revealed aggregates.

pub mod agg;
pub mod ext;
pub mod join;
pub mod preproc;
pub mod protocol;
pub mod query;
pub mod semijoin;
pub mod session;
pub mod shape;
pub mod srel;

pub use preproc::{
    run_offline, run_online, run_online_leftover, run_online_pooled, PreprocPool, QueryMaterial,
};
pub use protocol::{secure_yannakakis, QueryResult};
pub use query::SecureQuery;
pub use session::Session;
pub use shape::{PlannedCircuit, QueryShape, ShapeKey};
pub use srel::SecureRelation;

/// Wire goldens for the garbled-circuit layer: SHA-256 per direction of
/// fixed-seed runs of every operator circuit — each at 1, 3 and 40 rows,
/// tables inline and banked — through `secyan-gc`'s two-party protocol.
/// The digests were recorded when the evaluator's labels came to ride the
/// OT sender's own correlation (the garbler's Δ is its IKNP `s`): against
/// the recording before, only the garbler's label-correction messages
/// moved in length, from 32 to 16 bytes per OT. They move only when what
/// garbling puts on the wire moves: a changed AND index, label draw or
/// message boundary shows up here rather than in the query-level
/// transcript goldens. The byte digests were re-recorded when the OT
/// columns moved onto the fixed-key AES stream (every label correction
/// rides a column); the length digests, recorded before that move, pin
/// the message sizes on their own. The matching and k kinds were
/// re-recorded when the OPPRF masks left their garbler inputs: the
/// garbler's label message lost 2 048 B per row, and the matching
/// circuit's evaluator feeds 32 bits fewer per row at ℓ = 32 (512 B of
/// correction and 512 B of column bundle); no message count moved. The
/// garbler-side digests of every kind were re-recorded when inline
/// circuits came to garble on the evaluator's OT rows: each fresh run
/// lost its one label-correction message (16 B per evaluator bit) and
/// every byte after setup moved, the banked runs and the whole evaluator
/// side did not. The matching and k kinds were re-recorded again when the
/// PSI circuits came to read their statistical widths
/// (`secyan_psi::params`): σ + ⌈log₂ rows⌉ bits of the membership word,
/// and for k, here over 3 · rows slots, ⌈log₂ slots⌉ bits of index;
/// tables, columns, garbler labels and decode bits shrank, no message
/// count moved.
#[cfg(test)]
mod gc_wire_goldens {
    use crate::agg::{merge_circuit, AggKind};
    use crate::join::{product_tree_circuit, reveal_step};
    use crate::shape::RelHeader;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use secyan_circuit::{bits_to_words, evaluate, Circuit};
    use secyan_crypto::sha256::Sha256;
    use secyan_crypto::{RingCtx, TweakHasher};
    use secyan_gc::{
        evaluate_banked, evaluate_offline, garble_banked, garble_offline, garble_shared_banked,
    };
    use secyan_ot::{OtReceiver, OtSender};
    use secyan_psi::{k_circuit, matching_circuit};
    use secyan_transport::{run_protocol_captured, Role};
    use std::collections::VecDeque;

    /// A circuit, and whether its outputs leave as shared 32-bit words.
    type Built = (Circuit, bool);
    /// A circuit kind: name, constructor by row count, the recorded
    /// digests of the garbler's and the evaluator's stream, then of their
    /// message-length sequences.
    type Kind<'a> = (
        &'a str,
        &'a dyn Fn(usize) -> Built,
        &'a str,
        &'a str,
        &'a str,
        &'a str,
    );

    /// One run of `circuit` on seeded random inputs, folded into `sums`
    /// (Alice's stream, Bob's stream, length-prefixed so a moved message
    /// boundary shows as well as a moved byte; then the two streams'
    /// message lengths alone) and checked against the plaintext evaluator.
    fn run_case(built: &Built, banked: bool, seed: u64, sums: &mut [Sha256; 4]) {
        let (circuit, shared, ring) = (&built.0, built.1, RingCtx::new(32));
        let mut rng = StdRng::seed_from_u64(seed);
        let masks = if shared { circuit.output_count() } else { 0 };
        let a_bits: Vec<bool> = (masks..circuit.alice_inputs).map(|_| rng.gen()).collect();
        let b_bits: Vec<bool> = (0..circuit.bob_inputs).map(|_| rng.gen()).collect();
        let hasher = TweakHasher::default();
        let (garbled, evaluated, _, handle) = run_protocol_captured(
            |ch| {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xa11ce);
                let mut ot = OtSender::setup(ch, &mut rng, hasher);
                let mut bank = VecDeque::new();
                if banked {
                    bank.push_back(garble_offline(ch, circuit, &ot, &mut rng));
                }
                let (bank, ot, rng) = (&mut bank, &mut ot, &mut rng);
                if shared {
                    garble_shared_banked(ch, bank, circuit, ring, &a_bits, &[], ot, rng)
                } else {
                    garble_banked(ch, bank, circuit, &a_bits, &[], ot, rng);
                    Vec::new()
                }
            },
            |ch| {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xb0b);
                let mut ot = OtReceiver::setup(ch, &mut rng, hasher);
                let mut bank = VecDeque::new();
                if banked {
                    bank.push_back(evaluate_offline(ch, circuit));
                }
                evaluate_banked(ch, &mut bank, circuit, &b_bits, &mut ot)
            },
        );
        // Plaintext oracle: with zero masks the shared words come out bare.
        let mut alice = vec![false; masks];
        alice.extend_from_slice(&a_bits);
        let want = evaluate(circuit, &alice, &b_bits);
        if shared {
            let got = ring.reconstruct_vec(&garbled, &bits_to_words(&evaluated, 32));
            assert_eq!(got, bits_to_words(&want, 32), "shared words");
        } else {
            assert_eq!(evaluated, want, "revealed bits");
        }
        let (bytes, lengths) = sums.split_at_mut(2);
        for ((sum, len_sum), dir) in bytes.iter_mut().zip(lengths).zip([Role::Alice, Role::Bob]) {
            for (_, m) in handle.messages().iter().filter(|(r, _)| *r == dir) {
                sum.update(&(m.len() as u64).to_le_bytes());
                sum.update(m);
                len_sum.update(&(m.len() as u64).to_le_bytes());
            }
        }
    }

    fn reveal(n: usize, values: bool, owner: Role) -> Built {
        let rel = RelHeader {
            schema: vec!["a".into(), "b".into()],
            owner,
            size: n,
            is_plain: false,
        };
        (reveal_step(&rel, Role::Alice, 32, values).circuit(), false)
    }

    #[test]
    fn gc_layer_wire_goldens() {
        let shared = |c: Circuit| (c, true);
        let kinds: [Kind; 10] = [
            (
                "merge sum",
                &|n| shared(merge_circuit(n, 32, AggKind::Sum)),
                "b1ae2de2fd95dac423eaf0c05fe694f7c141b4abe6489b66e01986b645baa5af",
                "fc223e16efa27cbace57801470510107fe9b5232b910876242ee7989ff526337",
                "046517ceeb4950e13c07e50a2c4995b47a95096adafc4b96c53a5de6f54e87d5",
                "b4fc0da2638faf14b5056f7758655b2abc41303513f4386489eafa70151dfc7b",
            ),
            (
                "merge support",
                &|n| shared(merge_circuit(n, 32, AggKind::Support)),
                "5f4956a2815b8bba50728069d0e6417e1de2eebc15c296e27e0baf08e8666519",
                "36ed8d24cac3cbbd7fb2815123c46b0fbd2dd09135f9d6c8a970d16ec475e668",
                "67749768c86c127e87f81236771b538c6167a5c63dc91035c151ec1895e64ea7",
                "b4fc0da2638faf14b5056f7758655b2abc41303513f4386489eafa70151dfc7b",
            ),
            (
                "matching",
                &|n| shared(matching_circuit(n, 32)),
                "bb1c4d2fa2f2ac73c7dd04783eae55ca1ff18dc96d5164d9640726b8e2dab948",
                "d61f89d60f663b08755c5599fe77b2ce2dc9e65b93004aefdb0fde037cc81c20",
                "e9c9b4f1c5bc63aabaaaf7fcf30b2611be5988f89d49d1a5dc684668887d63ad",
                "735bbbe1d6dbe6f0fb29f6a434b5242896264b51a3ae85815556eb4706a73c31",
            ),
            (
                "k",
                &|n| (k_circuit(n, 3 * n), false),
                "e925b0e73e747005e844d2d9d6f6fdf40d01b79f30ab47738ad3bf6748439f6c",
                "b58b7fa8c8867ff792bb5eacbe330dc8cf284e67d63f2294142a7efc9ef870f9",
                "3e3509fa1075f0df4cde65dbc45a4708d31c89c1b8175c5701b353ad6a71d3a1",
                "25b05843115180f59500e2d4a13f4570bf75b1b8a25e5d8e1f7d94ab252f8030",
            ),
            (
                "reveal support",
                &|n| reveal(n, false, Role::Bob),
                "051d281adbca9fa58aac24fe40ced83a10b696376b89b7f5e82e129dd1cd8f9d",
                "e9ebafe82e4e64f83732d71c048949e76112e297141937910c950105e88123f3",
                "1bdc31315e9ec73934694316c3b7a934dde3223c415e48771c22ca238ae1504a",
                "b4fc0da2638faf14b5056f7758655b2abc41303513f4386489eafa70151dfc7b",
            ),
            (
                "reveal values",
                &|n| reveal(n, true, Role::Bob),
                "f43acda0ec2e5e6f2c179f66adfc5356b3b74440b5af3d763f2ae8662c29f6d3",
                "b147475950587f2b98ac825c251d2beb89e9beccc75b88312c31e94bf9197468",
                "45f863cd4029079ad9cf0facaba57cb91692bb2c6bc33ce0ed05916751c47be6",
                "b4fc0da2638faf14b5056f7758655b2abc41303513f4386489eafa70151dfc7b",
            ),
            (
                "reveal own values",
                &|n| reveal(n, true, Role::Alice),
                "ebaaf09be929a82b43b1eaae330537cf3e284a86bf1d3600101e678daae60440",
                "ca82949c81a7a4e78033bb87db14575c0fd92d3fdb9e272e14bd642bf84056d1",
                "079f033127dcca8004ccda923a9e5656dd553e0f36f9bb3765a0316e8d5c5cf8",
                "b4fc0da2638faf14b5056f7758655b2abc41303513f4386489eafa70151dfc7b",
            ),
            (
                "product tree",
                &|n| shared(product_tree_circuit(n, 3, 32, false)),
                "c394ecc1e8c06dd4309b401117e27f13a386e1fc459658f70ee8635fd64443e1",
                "8c14282f672bed815d04c011af1e9c322d258cb54a9facba4a0e4fa94210033f",
                "64e838615ad2e8e0b6be25a95d1139740df1608199b9e7ea3687f78af7864294",
                "3172d3810a1f445ccc22c42db0384b3bbe865e2b404a66b94ebfa1236ee11325",
            ),
            (
                "product tree reveal",
                &|n| (product_tree_circuit(n, 2, 32, true), false),
                "86302b1a392bbc9dcbacd46ad09c294e577bc52c3da35f9371548deae34101da",
                "d80eace3f5968ffa8a2d4f8e565070d2621e6740a2195c6d12a262813a3543fe",
                "1f9ac0840e80b1e22e05ffe19ce4881005561f332be6a41a52d4d4f1d5de2753",
                "9a70a551d789ce6cb6b379937dac7fef51a97bc51f0938feab4d716e20ff0eee",
            ),
            (
                "ratio",
                &|n| (crate::ext::ratio_circuit(n, 32, 100), false),
                "98360d9bebc5b52cb285a1bf527e674ed94f82514767de047db5bfbcdd4c4517",
                "55889a8f7da560c2a49b49e9c05a336e9418c300f4e519f35afeba1a10400ad2",
                "0536167d425b6a7b9246dffec1f3a29e20693049f7f136636203dba2fa7de66d",
                "9a70a551d789ce6cb6b379937dac7fef51a97bc51f0938feab4d716e20ff0eee",
            ),
        ];
        // Seeds keep the recording's row numbers: rows 0 and 1 were the
        // reduce-join product, which is no longer a circuit.
        for (k, (what, build, want_alice, want_bob, want_alice_len, want_bob_len)) in
            (2..).zip(kinds)
        {
            let mut sums = std::array::from_fn(|_| Sha256::new());
            for (i, n) in [1usize, 3, 40].into_iter().enumerate() {
                let built = build(n);
                for banked in [false, true] {
                    let seed = 1000 * k as u64 + 10 * i as u64 + banked as u64;
                    run_case(&built, banked, seed, &mut sums);
                }
            }
            let [alice, bob, alice_len, bob_len] = sums
                .map(|s| -> String { s.finalize().iter().map(|b| format!("{b:02x}")).collect() });
            assert_eq!(
                alice_len, want_alice_len,
                "{what}: garbler-side lengths changed"
            );
            assert_eq!(
                bob_len, want_bob_len,
                "{what}: evaluator-side lengths changed"
            );
            assert_eq!(alice, want_alice, "{what}: garbler-side stream changed");
            assert_eq!(bob, want_bob, "{what}: evaluator-side stream changed");
        }
    }
}
