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
/// Intra-party data parallelism (deterministic worker pool); see the
/// `secyan-par` crate and DESIGN.md §9.
pub use secyan_par as par;
pub use session::Session;
pub use shape::{PlannedCircuit, QueryShape, ShapeKey};
pub use srel::SecureRelation;

/// Wire goldens for the garbled-circuit layer: SHA-256 per direction of
/// fixed-seed runs of every operator circuit — each at 1, 3 and 40 rows,
/// tables inline and banked — through `secyan-gc`'s two-party protocol.
/// The digests were recorded at the commit before circuits became
/// (template × count), so they move only when what garbling puts on the
/// wire moves: a changed AND index, label draw or message boundary shows
/// up here rather than in the query-level transcript goldens.
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
        garble_shared_banked, OutputMode, SharedOutputSpec,
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
        let mode = OutputMode::RevealToEvaluator;
        let (garbled, evaluated, _, handle) = run_protocol_captured(
            |ch| {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xa11ce);
                let mut ot = OtSender::setup(ch, &mut rng, hasher);
                let mut bank = VecDeque::new();
                if banked {
                    bank.push_back(garble_offline(ch, circuit, &mut rng));
                }
                let (bank, ot, rng) = (&mut bank, &mut ot, &mut rng);
                match spec {
                    Some(spec) => garble_shared_banked(ch, bank, circuit, spec, &a_bits, ot, rng),
                    None => {
                        garble_banked(ch, bank, circuit, &a_bits, ot, rng, mode);
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
                    None => evaluate_banked(ch, bank, circuit, &b_bits, ot, mode)
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
                "75f2dda01adf03cafe398fa3eff91e7ba6ae1e23829e6871f3d72940cf11e2e5",
                "434e466f30c938aced63e8de94b34fafcdf66517567fff57117dc93c7b60fd86",
            ),
            (
                "merge support",
                &|n| shared(merge_circuit(n, 32, AggKind::Support)),
                "2e32ba0a9ce133684b948b4ecbfd459fb60269bdeb47583836d7a2fc0e302465",
                "7d24ee2a39a45aa551a72900fee570f4ab4f0490773f6c379f5d8a9a1843049b",
            ),
            (
                "matching",
                &|n| shared(matching_circuit(n, 32)),
                "0f2f3e1a96b9e7564ebf453d118878c1f77ef53eb751d255aa27575659752826",
                "ebeb3648446994db7d23505cbc1dbf8126cd82b6378be93754d53872530868b5",
            ),
            (
                "k",
                &|n| (k_circuit(n, 32), None),
                "866001caec4da0deebb3a500069c86d6d5c12639a00653f3c6c1a5418e407812",
                "6fd26dfbe239cf0af80cc21fb311a8759ad51c531b87336a08779afb8aa3e75f",
            ),
            (
                "reveal support",
                &|n| reveal(n, false, Role::Bob),
                "00b02c8bfdd0443b4b090fecb4435b348289bb6b974eb6c0162ec41106ca23c5",
                "90f8f29780d586931ef87a9e18f2929632f9d235c324259fcde6466ec5d41492",
            ),
            (
                "reveal values",
                &|n| reveal(n, true, Role::Bob),
                "81020b2fb5dc76952c9d4e26e918bbb2cac1b5889e8ed5e696ba65841ab3462a",
                "cb7e321dd423bacf1293c007567bc735858c7e995eb421412b40824636f69008",
            ),
            (
                "reveal own values",
                &|n| reveal(n, true, Role::Alice),
                "889bbd45733d8b6f88ac8419db365d1acb109203b2ecb95c90a239cd3ceb2654",
                "e56bd4c601b1ee4615597e02bf08bf79430e657d931a7443c30e79d2d872908b",
            ),
            (
                "product tree",
                &|n| {
                    let (c, spec) = product_tree_circuit(n, 3, 32, false);
                    (c, spec)
                },
                "07bf3f5c18f108ad23af5e32459d698d1784915552052a303a35af9cd819deb3",
                "be8099f861cd07608a23c434f95058759f71b174839e203aa9ae08252910f223",
            ),
            (
                "product tree reveal",
                &|n| product_tree_circuit(n, 2, 32, true),
                "09cc26703e4092e296517288378e4450d7159df12a6a73bb0340e17c2d8c3c47",
                "91b3099f6fa0bf29e8bd8d42c73f11857048333189a4417d64e8d6239426e41a",
            ),
            (
                "ratio",
                &|n| (crate::ext::ratio_circuit(n, 32, 100), None),
                "e12ba68aa337f1156ee089c2cc700ca49424c65e426a97c9d287003119fac20f",
                "e77df99b39d51cc26ca23e41ccb75ec608c963508c3f9b1b45779a05b295ffec",
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
