//! The paper's §7 extensions.
//!
//! * **Selections** — the three privacy options for a per-relation filter:
//!   public selectivity (drop rows), private selectivity (dummy them out),
//!   or a public upper bound (drop + pad).
//! * **Query composition** — aggregates that no single semiring expresses
//!   (avg, ratios): run two secure Yannakakis instances to shared results,
//!   then one garbled division circuit reveals only the quotient. Used by
//!   TPC-H Q8 and the avg example.
//! * **Differential privacy** — Laplace-style noise added to the revealed
//!   aggregates before the receiver sees them, following the
//!   Johnson-et-al. sensitivity recipe the paper cites.

use crate::session::Session;
use rand::Rng;
use secyan_circuit::{bits_to_words, words_to_bits, Circuit, Rows};
use secyan_relation::{NaturalRing, Relation, Semiring};
use secyan_transport::Role;

/// How to treat a selection's selectivity (paper §7, options 1–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// Selectivity is public: drop non-matching rows, shrinking IN.
    Public,
    /// Selectivity is private: replace non-matching rows with dummies
    /// (zero-annotated); IN is unchanged.
    Private,
    /// Only an upper bound is public: drop, then pad with dummies up to
    /// the bound.
    UpperBound(usize),
}

/// Apply a selection to an owner-local relation before loading it.
/// Non-matching rows become dummies (annotation 0 on a reserved dummy
/// value) or are dropped, depending on the policy.
pub fn apply_selection(
    rel: &Relation<NaturalRing>,
    pred: impl Fn(&[u64]) -> bool,
    policy: SelectionPolicy,
) -> Relation<NaturalRing> {
    let mut out = Relation::new(rel.semiring, rel.schema.clone());
    match policy {
        SelectionPolicy::Public => {
            for (t, a) in rel.tuples.iter().zip(&rel.annots) {
                if pred(t) {
                    out.push(t.clone(), *a);
                }
            }
        }
        SelectionPolicy::Private => {
            for (t, a) in rel.tuples.iter().zip(&rel.annots) {
                if pred(t) {
                    out.push(t.clone(), *a);
                } else {
                    // Dummy: zero annotation. The tuple values stay —
                    // revealing them to nobody, since only the owner sees
                    // its own relation — but contribute nothing.
                    out.push(t.clone(), rel.semiring.zero());
                }
            }
        }
        SelectionPolicy::UpperBound(bound) => {
            for (t, a) in rel.tuples.iter().zip(&rel.annots) {
                if pred(t) {
                    out.push(t.clone(), *a);
                }
            }
            assert!(out.len() <= bound, "selection exceeded its public bound");
            while out.len() < bound {
                out.push(vec![u64::MAX; rel.schema.len()], rel.semiring.zero());
            }
        }
    }
    out
}

/// Division circuit for composition: per row, reconstruct numerator and
/// denominator shares, divide, reveal `scale·num/den` to the evaluator.
pub(crate) fn ratio_circuit(n: usize, ell: usize, scale: u64) -> Circuit {
    let mut c = Rows::new();
    let (na, da) = (c.alice(n, ell), c.alice(n, ell));
    let (nb, db) = (c.bob(n, ell), c.bob(n, ell));
    let quotients = c.segment(n, |b| {
        let [na, da, nb, db] = [na, da, nb, db].map(|col| b.read(col));
        let scale_w = b.const_word(scale, ell);
        let num = b.add_words(&na, &nb);
        let den = b.add_words(&da, &db);
        let scaled = b.mul_words(&num, &scale_w);
        let q = b.div_words(&scaled, &den);
        b.output_word(&q);
    });
    c.output(quotients);
    c.finish()
}

/// Query composition (§7): given aligned shares of numerators and
/// denominators (one pair per group, e.g. SUM and COUNT shares from two
/// `secure_yannakakis_shared` runs), reveal `scale·num/den` per group to
/// `receiver` and nothing else. `scale` implements fixed-point precision
/// (e.g. 100 for two decimal digits). Returns the quotients on the
/// receiver side, an empty vector on the other.
pub fn reveal_ratios(
    sess: &mut Session,
    num_shares: &[u64],
    den_shares: &[u64],
    scale: u64,
    receiver: Role,
) -> Vec<u64> {
    assert_eq!(num_shares.len(), den_shares.len());
    let n = num_shares.len();
    if n == 0 {
        return Vec::new();
    }
    let ell = sess.ring.bits() as usize;
    let circuit = ratio_circuit(n, ell, scale);
    let words = [num_shares, den_shares].concat();
    let out = sess.garble(&circuit, receiver.peer(), &words_to_bits(&words, ell));
    out.map(|bits| bits_to_words(&bits, ell))
        .unwrap_or_default()
}

/// Align a shared query result onto a *public* group domain (used by the
/// paper's Q8/Q9 rewrites, whose group-by columns — years, nations — have
/// public domains). Returns my shares of the aggregate per domain value
/// (0 for groups absent from the result), via one shared OEP.
pub fn align_shared_groups(
    sess: &mut Session,
    tuples: &[Vec<u64>],
    annot_shares: &[u64],
    domain: &[Vec<u64>],
    receiver: Role,
) -> Vec<u64> {
    // Both parties extend with one zero slot for absent groups.
    let mut shares = annot_shares.to_vec();
    shares.push(0);
    let xi: Option<Vec<usize>> = (sess.role() == receiver).then(|| {
        assert_eq!(tuples.len(), annot_shares.len());
        let absent = annot_shares.len();
        let slot = |g| tuples.iter().position(|t| t == g).unwrap_or(absent);
        domain.iter().map(slot).collect()
    });
    sess.oep(receiver, xi.as_deref(), domain.len(), &shares)
}

/// Open shares toward the receiver (used for final linear post-processing
/// like Q9's per-group difference, which is computed on shares locally and
/// only then revealed — the values are query results, so this is allowed).
pub fn reveal_shares(sess: &mut Session, my_shares: &[u64], receiver: Role) -> Vec<u64> {
    use secyan_transport::{ReadExt, WriteExt};
    if sess.role() == receiver {
        let theirs = sess.ch.recv_u64_vec(my_shares.len());
        my_shares
            .iter()
            .zip(&theirs)
            .map(|(&a, &b)| sess.ring.add(a, b))
            .collect()
    } else {
        sess.ch.send_u64_slice(my_shares);
        Vec::new()
    }
}

/// Sample two-sided geometric noise (the discrete analogue of Laplace)
/// with scale `delta/epsilon`: P[X = k] ∝ exp(−|k|·ε/Δ).
pub fn sample_discrete_laplace<R: Rng + ?Sized>(rng: &mut R, delta: f64, epsilon: f64) -> i64 {
    assert!(delta > 0.0 && epsilon > 0.0);
    let alpha = (-epsilon / delta).exp();
    // Two one-sided geometrics minus each other is two-sided geometric.
    let geo = |rng: &mut R| -> i64 {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        (u.ln() / alpha.ln()).floor() as i64
    };
    geo(rng) - geo(rng)
}

/// §7 "protecting privacy against query results": the non-receiving party
/// perturbs its shares of the final aggregates with discrete-Laplace noise
/// before the reveal, so the receiver only ever sees noisy results. The
/// receiver calls this too (as a no-op) to keep the control flow symmetric.
pub fn add_dp_noise_to_shares(
    sess: &mut Session,
    shares: &mut [u64],
    delta: f64,
    epsilon: f64,
    receiver: Role,
) {
    if sess.role() == receiver {
        return;
    }
    for s in shares.iter_mut() {
        let noise = sample_discrete_laplace(&mut sess.rng, delta, epsilon);
        *s = sess.ring.add(*s, sess.ring.from_signed(noise));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secyan_crypto::{RingCtx, TweakHasher};
    use secyan_transport::run_protocol;

    #[test]
    fn selection_policies() {
        let ring = NaturalRing::paper_default();
        let rel = Relation::from_rows(
            ring,
            vec!["x".into()],
            vec![(vec![1], 10), (vec![2], 20), (vec![3], 30)],
        );
        let keep_odd = |t: &[u64]| t[0] % 2 == 1;
        let public = apply_selection(&rel, keep_odd, SelectionPolicy::Public);
        assert_eq!(public.len(), 2);
        let private = apply_selection(&rel, keep_odd, SelectionPolicy::Private);
        assert_eq!(private.len(), 3);
        assert_eq!(private.annots, vec![10, 0, 30]);
        let bounded = apply_selection(&rel, keep_odd, SelectionPolicy::UpperBound(5));
        assert_eq!(bounded.len(), 5);
        assert_eq!(bounded.annots[3], 0);
    }

    #[test]
    #[should_panic(expected = "exceeded")]
    fn upper_bound_violation_panics() {
        let ring = NaturalRing::paper_default();
        let rel = Relation::from_rows(ring, vec!["x".into()], vec![(vec![1], 1), (vec![3], 1)]);
        apply_selection(&rel, |t| t[0] % 2 == 1, SelectionPolicy::UpperBound(1));
    }

    #[test]
    fn ratio_reveals_scaled_quotients() {
        let ring = RingCtx::new(32);
        use rand::SeedableRng;
        let mut setup = rand::rngs::StdRng::seed_from_u64(5);
        let nums = vec![700u64, 55];
        let dens = vec![7u64, 10];
        let (na, nb) = ring.share_vec(&nums, &mut setup);
        let (da, db) = ring.share_vec(&dens, &mut setup);
        let (got, _, _) = run_protocol(
            move |ch| {
                let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::Aes, 91);
                reveal_ratios(&mut sess, &na, &da, 100, Role::Alice)
            },
            move |ch| {
                let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::Aes, 92);
                reveal_ratios(&mut sess, &nb, &db, 100, Role::Alice)
            },
        );
        // 100·700/7 = 10000; 100·55/10 = 550.
        assert_eq!(got, vec![10_000, 550]);
    }

    #[test]
    fn dp_noise_moves_only_the_peers_shares_by_the_sampled_noise() {
        use rand::SeedableRng;
        let ring = RingCtx::new(32);
        let values = vec![1000u64, 0, 77, 5_000_000];
        let (a, b) = ring.share_vec(&values, &mut rand::rngs::StdRng::seed_from_u64(7));
        // Each side: its shares after the call and the noise its own RNG
        // state would have produced.
        let party = |seed: u64, mut shares: Vec<u64>| {
            move |ch: &mut secyan_transport::Channel| {
                let mut sess = Session::new(ch, ring, TweakHasher::Aes, seed);
                let mut rng = sess.rng.clone();
                add_dp_noise_to_shares(&mut sess, &mut shares, 2.0, 0.5, Role::Alice);
                let noise: Vec<i64> = (0..shares.len())
                    .map(|_| sample_discrete_laplace(&mut rng, 2.0, 0.5))
                    .collect();
                (shares, noise)
            }
        };
        let ((got_a, _), (got_b, noise), _) =
            run_protocol(party(93, a.clone()), party(94, b.clone()));
        assert_eq!(got_a, a, "the receiver's call is a no-op");
        assert_ne!(got_b, b, "the peer's shares move");
        assert!(noise.iter().any(|&k| k != 0));
        for (i, &v) in values.iter().enumerate() {
            let noisy = ring.reconstruct(got_a[i], got_b[i]);
            assert_eq!(ring.to_signed(ring.sub(noisy, v)), noise[i], "value {i}");
        }
    }

    #[test]
    fn discrete_laplace_is_centered() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let n = 5000;
        let sum: i64 = (0..n)
            .map(|_| sample_discrete_laplace(&mut rng, 1.0, 1.0))
            .sum();
        let mean = sum as f64 / n as f64;
        assert!(mean.abs() < 0.2, "mean {mean} too far from 0");
        // And it actually produces nonzero noise.
        let any_nonzero = (0..100).any(|_| sample_discrete_laplace(&mut rng, 1.0, 0.5) != 0);
        assert!(any_nonzero);
    }
}
