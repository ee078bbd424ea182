//! A runnable naive-GC join: the whole Cartesian product in one circuit.
//!
//! Chain joins only (R₁ ⋈ R₂ ⋈ … on successive keys), which covers the
//! paper's baseline experiment (Q3's three-relation chain). Every relation
//! row enters as (left key, right key, annotation); the circuit enumerates
//! all combinations, tests the join predicates, multiplies annotations,
//! and sums everything into one aggregate revealed to both parties.
//!
//! Only feasible for tiny inputs — which is the entire point: the
//! benchmark harness measures it small and extrapolates with
//! [`crate::circuit_model`], exactly as the paper did.

use rand::Rng;
use secyan_circuit::{bits_to_u64, u64_to_bits, Builder, Circuit, Word};
use secyan_gc::{evaluate_circuit, garble_circuit, OutputMode};
use secyan_ot::{OtReceiver, OtSender};
use secyan_transport::{Channel, Role};

/// One relation's public shape and private rows for the naive protocol.
/// `rows[i] = (left_key, right_key, annotation)`; ends of the chain ignore
/// the unused key.
pub type NaiveRows = Vec<(u64, u64, u64)>;

/// Build the product circuit. Alice-owned relations' inputs come first
/// (builder requirement), in relation order within each owner.
fn build_circuit(sizes: &[usize], owners: &[Role], key_bits: usize, ell: usize) -> Circuit {
    assert_eq!(sizes.len(), owners.len());
    let mut b = Builder::new();
    let declare = |b: &mut Builder, owner: Role, n: usize| -> Vec<(Word, Word, Word)> {
        (0..n)
            .map(|_| match owner {
                Role::Alice => (
                    b.alice_word(key_bits),
                    b.alice_word(key_bits),
                    b.alice_word(ell),
                ),
                Role::Bob => (b.bob_word(key_bits), b.bob_word(key_bits), b.bob_word(ell)),
            })
            .collect()
    };
    let mut rels: Vec<Option<Vec<(Word, Word, Word)>>> = vec![None; sizes.len()];
    for pass in [Role::Alice, Role::Bob] {
        for (i, (&n, &o)) in sizes.iter().zip(owners).enumerate() {
            if o == pass {
                rels[i] = Some(declare(&mut b, o, n));
            }
        }
    }
    let rels: Vec<Vec<(Word, Word, Word)>> =
        rels.into_iter().map(|r| r.expect("declared")).collect();
    // Enumerate all combinations with an odometer.
    let k = sizes.len();
    let mut idx = vec![0usize; k];
    let mut acc = b.const_word(0, ell);
    loop {
        // Join predicate: right key of relation j == left key of j+1.
        let eqs: Vec<_> = (0..k - 1)
            .map(|j| {
                let right = &rels[j][idx[j]].1;
                let left = &rels[j + 1][idx[j + 1]].0;
                b.eq_words(right, left)
            })
            .collect();
        let ind = b.and_tree(&eqs);
        // Annotation product, gated by the indicator.
        let mut prod = rels[0][idx[0]].2.clone();
        for (j, ids) in idx.iter().enumerate().skip(1) {
            let next = rels[j][*ids].2.clone();
            prod = b.mul_words(&prod, &next);
        }
        let gated = b.and_word_bit(&prod, ind);
        acc = b.add_words(&acc, &gated);
        // Odometer increment.
        let mut pos = 0;
        loop {
            idx[pos] += 1;
            if idx[pos] < sizes[pos] {
                break;
            }
            idx[pos] = 0;
            pos += 1;
            if pos == k {
                break;
            }
        }
        if pos == k {
            break;
        }
    }
    b.output_word(&acc);
    b.finish()
}

/// Pack one party's rows into input bits, following the circuit layout.
fn pack_bits(
    sizes: &[usize],
    owners: &[Role],
    me: Role,
    my_rows: &[Option<NaiveRows>],
    key_bits: usize,
    ell: usize,
) -> Vec<bool> {
    let mut bits = Vec::new();
    for pass in [Role::Alice, Role::Bob] {
        if pass != me {
            continue;
        }
        for (i, &o) in owners.iter().enumerate() {
            if o != me {
                continue;
            }
            let rows = my_rows[i].as_ref().expect("owner supplies rows");
            assert_eq!(rows.len(), sizes[i]);
            for &(l, r, a) in rows {
                bits.extend(u64_to_bits(l, key_bits));
                bits.extend(u64_to_bits(r, key_bits));
                bits.extend(u64_to_bits(a, ell));
            }
        }
    }
    bits
}

/// Garbler (Alice) side of the naive protocol. Returns the aggregate.
#[expect(clippy::too_many_arguments)]
pub fn naive_gc_garbler<R: Rng + ?Sized>(
    ch: &mut Channel,
    sizes: &[usize],
    owners: &[Role],
    my_rows: &[Option<NaiveRows>],
    key_bits: usize,
    ell: usize,
    ot: &mut OtSender,
    rng: &mut R,
) -> u64 {
    let circuit = build_circuit(sizes, owners, key_bits, ell);
    let bits = pack_bits(sizes, owners, Role::Alice, my_rows, key_bits, ell);
    let out = garble_circuit(ch, &circuit, &bits, ot, rng, OutputMode::RevealBoth)
        .expect("reveal-both returns to garbler");
    bits_to_u64(&out)
}

/// Evaluator (Bob) side. Returns the aggregate.
pub fn naive_gc_evaluator(
    ch: &mut Channel,
    sizes: &[usize],
    owners: &[Role],
    my_rows: &[Option<NaiveRows>],
    key_bits: usize,
    ell: usize,
    ot: &mut OtReceiver,
) -> u64 {
    let circuit = build_circuit(sizes, owners, key_bits, ell);
    let bits = pack_bits(sizes, owners, Role::Bob, my_rows, key_bits, ell);
    let out = evaluate_circuit(ch, &circuit, &bits, ot, OutputMode::RevealBoth);
    bits_to_u64(&out)
}

/// The exact AND-gate count of the runnable circuit (used to calibrate the
/// extrapolation model against measured instances).
pub fn circuit_and_gates(sizes: &[usize], owners: &[Role], key_bits: usize, ell: usize) -> u64 {
    build_circuit(sizes, owners, key_bits, ell).and_count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_crypto::TweakHasher;
    use secyan_transport::run_protocol;

    const HASHER: TweakHasher = TweakHasher::Aes;

    fn run_naive(
        sizes: Vec<usize>,
        owners: Vec<Role>,
        alice_rows: Vec<Option<NaiveRows>>,
        bob_rows: Vec<Option<NaiveRows>>,
    ) -> (u64, u64) {
        let (s2, o2) = (sizes.clone(), owners.clone());
        let (a, b, _) = run_protocol(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(61);
                let mut ot = OtSender::setup(ch, &mut rng, HASHER);
                naive_gc_garbler(ch, &sizes, &owners, &alice_rows, 16, 16, &mut ot, &mut rng)
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(62);
                let mut ot = OtReceiver::setup(ch, &mut rng, HASHER);
                naive_gc_evaluator(ch, &s2, &o2, &bob_rows, 16, 16, &mut ot)
            },
        );
        assert_eq!(a, b, "both parties decode the same aggregate");
        (a, b)
    }

    #[test]
    fn two_relation_join_sum() {
        // R1: rows keyed on right key; R2 keyed on left key.
        let r1: NaiveRows = vec![(0, 1, 10), (0, 2, 20)];
        let r2: NaiveRows = vec![(1, 0, 3), (1, 0, 4), (9, 0, 100)];
        // Join matches: (k=1 ⋈ k=1): 10·3 + 10·4 = 70.
        let (a, _) = run_naive(
            vec![2, 3],
            vec![Role::Alice, Role::Bob],
            vec![Some(r1), None],
            vec![None, Some(r2)],
        );
        assert_eq!(a, 70);
    }

    #[test]
    fn three_relation_chain() {
        let r1: NaiveRows = vec![(0, 5, 2)];
        let r2: NaiveRows = vec![(5, 7, 3), (5, 8, 1)];
        let r3: NaiveRows = vec![(7, 0, 10), (8, 0, 100)];
        // 2·3·10 (via key 7) + 2·1·100 (via key 8) = 60 + 200 = 260.
        let (a, _) = run_naive(
            vec![1, 2, 2],
            vec![Role::Alice, Role::Bob, Role::Alice],
            vec![Some(r1), None, Some(r3)],
            vec![None, Some(r2), None],
        );
        assert_eq!(a, 260);
    }

    #[test]
    fn empty_join_sums_to_zero() {
        let r1: NaiveRows = vec![(0, 1, 5)];
        let r2: NaiveRows = vec![(2, 0, 7)];
        let (a, _) = run_naive(
            vec![1, 1],
            vec![Role::Alice, Role::Bob],
            vec![Some(r1), None],
            vec![None, Some(r2)],
        );
        assert_eq!(a, 0);
    }

    #[test]
    fn runnable_gate_count_tracks_model() {
        // The runnable circuit and the analytic model agree on the scaling
        // law (both linear in the number of combinations).
        let owners = vec![Role::Alice, Role::Bob];
        let g1 = circuit_and_gates(&[2, 3], &owners, 32, 32);
        let g2 = circuit_and_gates(&[4, 6], &owners, 32, 32);
        let ratio = g2 as f64 / g1 as f64;
        assert!((3.5..4.5).contains(&ratio), "ratio {ratio}");
    }
}
