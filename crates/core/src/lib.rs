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
//!   and the three verbs (circuit, OEP, PSI) every operator below is
//!   written in.
//! * [`srel`] — [`srel::SecureRelation`]: tuples held by one party,
//!   annotations additively shared, dummies tracked owner-side.
//! * [`agg`] — oblivious projection-aggregation π⊕ and π¹ (§6.1): local
//!   sort + shared OEP + a merge-gate garbled circuit.
//! * [`semijoin`] — the reduce-join R_F ⋈⊗ R_{F'} (F′ ⊆ F) and the
//!   annotated semijoin R_F ⋉⊗ R_{F'} (§6.2), in cross-party (via PSI
//!   with secret-shared payloads) and same-party (via OEP only) variants.
//! * [`join`] — the oblivious join (§6.3): reveal nonzero support, local
//!   Yannakakis join, OEP + product circuit for the annotations.
//! * [`protocol`] — the three-phase driver (§6.4) with the §6.5
//!   optimizations (local aggregation and plain-payload PSI while
//!   annotations are still owner-known).
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
/// transcript goldens.
#[cfg(test)]
mod gc_wire_goldens {
    use crate::agg::{merge_circuit, AggKind};
    use crate::join::{product_tree_circuit, reveal_step};
    use crate::shape::RelHeader;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use secyan_circuit::{bits_to_u64, evaluate, Circuit};
    use secyan_crypto::sha256::Sha256;
    use secyan_crypto::TweakHasher;
    use secyan_gc::{
        evaluate_banked, evaluate_offline, evaluate_shared_banked, garble_banked, garble_offline,
        garble_shared_banked, SharedOutputSpec,
    };
    use secyan_ot::{OtReceiver, OtSender};
    use secyan_psi::{k_circuit, matching_circuit};
    use secyan_transport::{run_protocol_captured, Role};
    use std::collections::VecDeque;

    type Built = (Circuit, Option<SharedOutputSpec>);
    /// A circuit kind: name, constructor by row count, and the recorded
    /// digests of the garbler's and the evaluator's stream.
    type Kind<'a> = (&'a str, &'a dyn Fn(usize) -> Built, &'a str, &'a str);

    /// One run of `circuit` on seeded random inputs, folded into `sums`
    /// (Alice's stream, Bob's stream; length-prefixed so a moved message
    /// boundary shows as well as a moved byte) and checked against the
    /// plaintext evaluator.
    fn run_case(built: &Built, banked: bool, seed: u64, sums: &mut [Sha256; 2]) {
        let (circuit, spec) = (&built.0, built.1.as_ref());
        let mut rng = StdRng::seed_from_u64(seed);
        let masks = spec.map_or(0, |s| s.total_bits());
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
                match spec {
                    Some(spec) => garble_shared_banked(ch, bank, circuit, spec, &a_bits, ot, rng),
                    None => {
                        garble_banked(ch, bank, circuit, &a_bits, ot, rng);
                        Vec::new()
                    }
                }
            },
            |ch| {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xb0b);
                let mut ot = OtReceiver::setup(ch, &mut rng, hasher);
                let mut bank = VecDeque::new();
                if banked {
                    bank.push_back(evaluate_offline(ch, circuit));
                }
                let (bank, ot) = (&mut bank, &mut ot);
                match spec {
                    Some(spec) => evaluate_shared_banked(ch, bank, circuit, spec, &b_bits, ot),
                    None => evaluate_banked(ch, bank, circuit, &b_bits, ot)
                        .iter()
                        .map(|&bit| bit as u64)
                        .collect(),
                }
            },
        );
        // Plaintext oracle: with zero masks the shared words come out bare.
        let mut alice = vec![false; masks];
        alice.extend_from_slice(&a_bits);
        let want = evaluate(circuit, &alice, &b_bits);
        match spec {
            Some(spec) => {
                let mut pos = 0;
                for (k, &w) in spec.widths.iter().enumerate() {
                    let got = garbled[k].wrapping_add(evaluated[k]) & (u64::MAX >> (64 - w));
                    assert_eq!(got, bits_to_u64(&want[pos..pos + w]), "shared word {k}");
                    pos += w;
                }
            }
            None => {
                let want: Vec<u64> = want.iter().map(|&bit| bit as u64).collect();
                assert_eq!(evaluated, want, "revealed bits");
            }
        }
        for (sum, dir) in sums.iter_mut().zip([Role::Alice, Role::Bob]) {
            for (_, m) in handle.messages().iter().filter(|(r, _)| *r == dir) {
                sum.update(&(m.len() as u64).to_le_bytes());
                sum.update(m);
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
        (reveal_step(&rel, Role::Alice, 32, values).circuit(), None)
    }

    #[test]
    fn gc_layer_wire_goldens() {
        let shared = |(c, spec): (Circuit, SharedOutputSpec)| (c, Some(spec));
        let kinds: [Kind; 10] = [
            (
                "merge sum",
                &|n| shared(merge_circuit(n, 32, AggKind::Sum)),
                "db9aa2766898d64b3aa1a6b9a1697727b0ed1a799215fac2fab6caf8190fc106",
                "df3b7d19fd2523c92dd08faebe4c851b8849395053c5a16dfb2e602d3777e651",
            ),
            (
                "merge support",
                &|n| shared(merge_circuit(n, 32, AggKind::Support)),
                "8b3865de85b659c71b365b5d1f2e456859bf21b66ab601875bcc6e891fddae31",
                "339c1d204d899dc6ee109ccf6d6835ab2fe6cd86cd5fa080eb81bbae6afffbf6",
            ),
            (
                "matching",
                &|n| shared(matching_circuit(n, 32)),
                "4db006295173259b8e66553f011d315ed9d384db95261fc6ec3d84104b9ad038",
                "50f7f820b80c36a913c78a3325ae83c2f61c96e374878b856f9ea6c72ff0ec9a",
            ),
            (
                "k",
                &|n| (k_circuit(n, 32), None),
                "9cf35222d70fd1ad77a6d9a6063ab3a18739708448a3fbc95ffa304f2b828256",
                "992f4a9fd5742035c9a9dd114795ef2ca1f9c76c66c4f4aa5a7a9d117e60a76d",
            ),
            (
                "reveal support",
                &|n| reveal(n, false, Role::Bob),
                "c77ec10e036965f77db00b8e4038244cff1e6d1e0e6dc10942e5611d8e07333f",
                "907f205d5e13a6754d31b12ca92f47a68de823ff9bab9f02e0c0c90ed3a33dea",
            ),
            (
                "reveal values",
                &|n| reveal(n, true, Role::Bob),
                "32d965ca057128ff743df10dea8403d89940a316ffed2f307c429f287024f190",
                "e392f1d3ccabadf89e59dd1cd8cd6227567dd6f39b3c56a730492ef718d20fc7",
            ),
            (
                "reveal own values",
                &|n| reveal(n, true, Role::Alice),
                "b9dc9963861e7ae931dd9f94e0a61f356e1de1ed10caf8e687059a9c5ad6e40c",
                "d205c19a646d5c2dfa8379794be1691ace11a85b4e32e357b8b76a4d4c19387e",
            ),
            (
                "product tree",
                &|n| {
                    let (c, spec) = product_tree_circuit(n, 3, 32, false);
                    (c, spec)
                },
                "dec9ab938ea3680567981c39cd4aac5ab86c8fa2c7f89c34a2e7b517c9586ee8",
                "c8f40e56cb26937de9cfe133caf14e3b2b517c624ad0b12814f88615a733f444",
            ),
            (
                "product tree reveal",
                &|n| product_tree_circuit(n, 2, 32, true),
                "a04e7bcb5340f132a2578526238f4d3299e992a969fc8e3ace5520fbf7c3187a",
                "0bde92ff9695a585b3924d4f5f3f6f11e4fe86e754252272ce297d98ee8a4c1c",
            ),
            (
                "ratio",
                &|n| (crate::ext::ratio_circuit(n, 32, 100), None),
                "1bf5b1513a9a209a9418891b28f32aa76b0c155bb91cddcac1981cc58d396617",
                "1413ffa4b0d18bd22bdaee5ef99a8aed34f60bca22bc57690ff427ab5f9d9e69",
            ),
        ];
        // Seeds keep the recording's row numbers: rows 0 and 1 were the
        // reduce-join product, which is no longer a circuit.
        for (k, (what, build, want_alice, want_bob)) in (2..).zip(kinds) {
            let mut sums = [Sha256::new(), Sha256::new()];
            for (i, n) in [1usize, 3, 40].into_iter().enumerate() {
                let built = build(n);
                for banked in [false, true] {
                    let seed = 1000 * k as u64 + 10 * i as u64 + banked as u64;
                    run_case(&built, banked, seed, &mut sums);
                }
            }
            let [alice, bob] = sums
                .map(|s| -> String { s.finalize().iter().map(|b| format!("{b:02x}")).collect() });
            assert_eq!(alice, want_alice, "{what}: garbler-side stream changed");
            assert_eq!(bob, want_bob, "{what}: evaluator-side stream changed");
        }
    }
}
