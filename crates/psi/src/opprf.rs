//! Oblivious programmable PRF (OPPRF).
//!
//! The sender *programs* target values: for each bin b and each of his
//! elements y in that bin, F(b, y) must equal a chosen target t_{b,y};
//! everywhere else F looks random. The receiver evaluates F at one point
//! per bin (her cuckoo-placed element) and cannot tell programmed from
//! random outputs.
//!
//! Construction (Pinkas et al., polynomial-hint variant): run a KKRT OPRF
//! batch keyed per bin, then the sender ships, per bin, a hint polynomial
//! P_b of degree < D, the public degree bound, with
//! P_b(y) = t_{b,y} ⊕ OPRF(b, y) at each of the bin's elements. A point's
//! x-coordinate is the element itself (a bin's elements are distinct). The
//! receiver outputs OPRF(b, x_b) ⊕ P_b(x_b).
//!
//! For a bin of k ≤ D elements the sender draws the top D − k
//! coefficients H at random, interpolates only the k points
//! (y, t_{b,y} ⊕ OPRF(b, y) ⊕ y^k·H(y)) to a low part L of degree < k,
//! and sends P_b = L + x^k·H. For fixed distinct points, H ↦ P_b is a
//! bijection onto the polynomials of degree < D through them, so P_b is
//! uniform over that space — the distribution that padding the bin with
//! D − k random points gives. Every bin sends D words whatever its load,
//! and costs O(k·D) field work instead of O(D²).
//!
//! The PSI sets D to [`crate::params::max_bin_size`], the exact union
//! bound over the bins of the binomial load tail: some bin holds more
//! than D elements with probability at most 2^-σ, σ = 40, and then the
//! sender aborts with a typed error.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secyan_crypto::gf64::{poly_eval_batch, poly_interpolate, Gf64};
use secyan_crypto::Zeroize;
use secyan_ot::{KkrtReceiver, KkrtSender};
use secyan_par as par;
use secyan_transport::Channel;

/// Minimum bins per worker for the parallel hint construction. A bin costs
/// O(load·degree) GF(2^64) work, so modest batches already amortize a
/// thread spawn.
const BINS_PER_PART: usize = 32;

/// Encoding of a PSI element as an OPRF input. Real elements and
/// receiver-side dummies live in disjoint domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsiItem {
    /// A real element.
    Real(u64),
    /// The dummy filling an empty receiver bin (parameterized by the bin
    /// index so dummies are distinct).
    Dummy(u64),
}

impl PsiItem {
    /// Byte encoding fed to the OPRF.
    pub fn encode(self) -> [u8; 9] {
        let mut out = [0u8; 9];
        match self {
            PsiItem::Real(v) => {
                out[0] = 0;
                out[1..].copy_from_slice(&v.to_le_bytes());
            }
            PsiItem::Dummy(b) => {
                out[0] = 1;
                out[1..].copy_from_slice(&b.to_le_bytes());
            }
        }
        out
    }
}

/// Sender side: program one target per (bin, element) pair.
///
/// `programs[b]` lists `(element, target)` pairs for bin b, with distinct
/// elements; `degree` is the public per-bin coefficient count, at least
/// every bin's length. Sends the hints; returns nothing (the targets are
/// the sender's own secrets).
pub fn opprf_program<R: Rng + ?Sized>(
    ch: &mut Channel,
    kkrt: &mut KkrtSender,
    programs: &[Vec<(u64, u64)>],
    degree: usize,
    rng: &mut R,
) {
    let bins = programs.len();
    let key = kkrt.key_batch(ch, bins);
    opprf_program_with_key(ch, key, programs, degree, rng);
}

/// Like [`opprf_program`], but against a [`secyan_ot::KkrtSenderKey`] the caller
/// already obtained via [`KkrtSender::key_batch`]. This lets protocol
/// layers pull *all* their KKRT column-bundle reads forward (the receiver
/// stages every batch's bundle in one super-frame) and program the hints
/// afterwards.
pub fn opprf_program_with_key<R: Rng + ?Sized>(
    ch: &mut Channel,
    key: secyan_ot::KkrtSenderKey,
    programs: &[Vec<(u64, u64)>],
    degree: usize,
    rng: &mut R,
) {
    let bins = programs.len();
    // Pre-draw one seed per bin *serially* from the caller's RNG, so the
    // random coefficients each bin draws are independent of how bins are
    // scheduled across workers.
    let mut bin_rand: Vec<u64> = programs.iter().map(|_| rng.gen()).collect();
    let hints: Vec<Vec<u64>> = par::with_pool(|pool| {
        pool.map(programs, BINS_PER_PART, |b, prog| {
            let k = prog.len();
            assert!(
                k <= degree,
                "bin {b} has {k} items, exceeding the public bound {degree}"
            );
            let xs: Vec<Gf64> = prog.iter().map(|&(y, _)| Gf64(y)).collect();
            for (i, x) in xs.iter().enumerate() {
                assert!(!xs[..i].contains(x), "bin {b} holds an element twice");
            }
            // The top D − k coefficients H come from this bin's private
            // stream; the low k interpolate the targets less x^k·H.
            // ct-ok: seeded from bin_rand[b], which was drawn serially
            // before the dispatch — the stream is a pure function of the
            // bin index, deterministic at any thread count.
            let mut stream = StdRng::seed_from_u64(bin_rand[b]);
            let mut coeffs = vec![Gf64::ZERO; degree];
            coeffs[k..].fill_with(|| Gf64(stream.gen()));
            let high = poly_eval_batch(&coeffs.repeat(k), degree, &xs);
            let points: Vec<(Gf64, Gf64)> = prog
                .iter()
                .zip(xs.iter().zip(&high))
                .map(|(&(y, t), (&x, &h))| {
                    let f = key.eval(b, &PsiItem::Real(y).encode());
                    (x, Gf64(t ^ f).add(h))
                })
                .collect();
            coeffs[..k].copy_from_slice(&poly_interpolate(&points));
            coeffs.iter().map(|c| c.0).collect()
        })
    });
    // The bin seeds derive the random coefficients; scrub them once the
    // hints exist.
    bin_rand.zeroize();
    let mut hint_words: Vec<u64> = Vec::with_capacity(bins * degree);
    for h in &hints {
        hint_words.extend_from_slice(h);
    }
    ch.send_u64_slice(&hint_words);
}

/// In-flight receiver-side OPPRF state: the KKRT batch already ran (its
/// corrections are staged outbound), only the sender's hints are pending.
/// Produced by [`opprf_evaluate_begin`], consumed by
/// [`opprf_evaluate_finish`].
pub struct OpprfEval {
    oprf_out: Vec<u64>,
    queries: Vec<PsiItem>,
    degree: usize,
}

/// First half of [`opprf_evaluate`]: run the KKRT batch. This is
/// *send-only* on the receiver side (banked: code corrections; fresh: the
/// masked column bundle), so several evaluations can be begun back-to-back
/// — their corrections coalesce into one super-frame — before any of them
/// blocks on the sender's hints.
pub fn opprf_evaluate_begin(
    ch: &mut Channel,
    kkrt: &mut KkrtReceiver,
    queries: &[PsiItem],
    degree: usize,
) -> OpprfEval {
    let encodings: Vec<[u8; 9]> = queries.iter().map(|q| q.encode()).collect();
    let refs: Vec<&[u8]> = encodings.iter().map(|e| e.as_slice()).collect();
    OpprfEval {
        oprf_out: kkrt.eval_batch(ch, &refs),
        queries: queries.to_vec(),
        degree,
    }
}

/// Second half of [`opprf_evaluate_begin`]: receive the hint polynomials
/// and combine them with the OPRF outputs.
pub fn opprf_evaluate_finish(ch: &mut Channel, pending: OpprfEval) -> Vec<u64> {
    let OpprfEval {
        oprf_out,
        queries,
        degree,
    } = pending;
    let bins = queries.len();
    let hint_words = ch.recv_u64_vec(bins * degree);
    // Each bin's hint evaluates at the query itself: lockstep Horner over
    // all bins. The wire layout is already flat `[b*degree..(b+1)*degree]`.
    let xs: Vec<Gf64> = queries
        .iter()
        .map(|&(PsiItem::Real(v) | PsiItem::Dummy(v))| Gf64(v))
        .collect();
    let coeffs: Vec<Gf64> = hint_words.iter().map(|&w| Gf64(w)).collect();
    let evals = poly_eval_batch(&coeffs, degree, &xs);
    evals.iter().zip(&oprf_out).map(|(e, &f)| f ^ e.0).collect()
}

/// Receiver side: evaluate `F(b, queries[b])` for every bin.
pub fn opprf_evaluate(
    ch: &mut Channel,
    kkrt: &mut KkrtReceiver,
    queries: &[PsiItem],
    degree: usize,
) -> Vec<u64> {
    let pending = opprf_evaluate_begin(ch, kkrt, queries, degree);
    opprf_evaluate_finish(ch, pending)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_crypto::TweakHasher;
    use secyan_ot::{OtReceiver, OtSender};
    use secyan_transport::{run_protocol_captured, Role};

    /// One OPPRF run: the receiver's outputs and the length of the
    /// sender's last message, the hints.
    fn run_opprf(
        programs: Vec<Vec<(u64, u64)>>,
        queries: Vec<PsiItem>,
        degree: usize,
    ) -> (Vec<u64>, usize) {
        let ((), out, _, transcript) = run_protocol_captured(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(11);
                let mut ot = OtReceiver::setup(ch, &mut rng, TweakHasher::Aes);
                let mut kkrt = KkrtSender::setup(ch, &mut ot, &mut rng);
                opprf_program(ch, &mut kkrt, &programs, degree, &mut rng);
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(12);
                let mut ot = OtSender::setup(ch, &mut rng, TweakHasher::Aes);
                let mut kkrt = KkrtReceiver::setup(ch, &mut ot);
                opprf_evaluate(ch, &mut kkrt, &queries, degree)
            },
        );
        let lengths = transcript.lengths();
        let hints = lengths.iter().rev().find(|(r, _)| *r == Role::Alice);
        (out, hints.expect("the sender sent its hints").1)
    }

    #[test]
    fn programmed_points_hit_targets() {
        let programs = vec![
            vec![(10, 111), (20, 222)],
            vec![(30, 333)],
            vec![],
            vec![(40, 444), (50, 555), (60, 666)],
        ];
        let queries = vec![
            PsiItem::Real(20),
            PsiItem::Real(30),
            PsiItem::Dummy(2),
            PsiItem::Real(50),
        ];
        let (out, _) = run_opprf(programs, queries, 4);
        assert_eq!(out[0], 222);
        assert_eq!(out[1], 333);
        assert_eq!(out[3], 555);
    }

    /// Every load a bin can hold, in one run: empty, one element and
    /// exactly `degree`, with the extreme elements 0 and `u64::MAX` and a
    /// dummy query whose point is a programmed element. Programmed points
    /// decode to their targets, every other query misses them all, and
    /// the hints are `bins · degree · 8` bytes whatever the loads.
    #[test]
    fn edge_loads_hit_targets_and_keep_the_hint_length() {
        for degree in [1usize, 24] {
            let d = degree as u64;
            let full = |top: u64| (0..d).map(|i| (top - i, top ^ i)).collect::<Vec<_>>();
            // (bin program, query, the target it must decode to, if any)
            let cases = [
                (Vec::new(), PsiItem::Real(0), None),
                (vec![(0, 7)], PsiItem::Real(0), Some(7)),
                (full(u64::MAX), PsiItem::Real(u64::MAX), Some(u64::MAX)),
                (
                    full(u64::MAX),
                    PsiItem::Real(u64::MAX - d + 1),
                    Some(u64::MAX ^ (d - 1)),
                ),
                (full(1 << 40), PsiItem::Real(u64::MAX), None),
                (vec![(3, 33)], PsiItem::Dummy(3), None),
            ];
            let targets: Vec<u64> = cases.iter().flat_map(|c| c.0.iter().map(|p| p.1)).collect();
            let bins = cases.len();
            let programs = cases.iter().map(|c| c.0.clone()).collect();
            let queries = cases.iter().map(|c| c.1).collect();
            let (out, hint_bytes) = run_opprf(programs, queries, degree);
            assert_eq!(hint_bytes, bins * degree * 8, "degree {degree}");
            for (b, ((_, query, want), got)) in cases.iter().zip(out).enumerate() {
                match want {
                    Some(t) => assert_eq!(got, *t, "degree {degree}, bin {b}, {query:?}"),
                    None => assert!(
                        !targets.contains(&got),
                        "degree {degree}, bin {b}: {query:?} hit a target"
                    ),
                }
            }
        }
    }

    /// The hint's points are the elements themselves, so a bin must not
    /// hold one twice — a precondition, checked by name.
    #[test]
    #[should_panic(expected = "bin 1 holds an element twice")]
    fn a_repeated_element_in_a_bin_panics_naming_the_bin() {
        let programs = vec![vec![(10, 1)], vec![(20, 2), (20, 3)]];
        run_opprf(programs, vec![PsiItem::Real(10), PsiItem::Real(20)], 2);
    }

    #[test]
    fn unprogrammed_points_miss() {
        let programs = vec![vec![(10, 111)], vec![(20, 222)]];
        let queries = vec![PsiItem::Real(99), PsiItem::Dummy(1)];
        let (out, _) = run_opprf(programs, queries, 2);
        assert_ne!(out[0], 111);
        assert_ne!(out[1], 222);
    }

    #[test]
    fn same_element_in_different_bins() {
        // The per-bin KKRT instance separates identical inputs across bins.
        let programs = vec![vec![(7, 1)], vec![(7, 2)]];
        let (out, _) = run_opprf(programs, vec![PsiItem::Real(7), PsiItem::Real(7)], 1);
        assert_eq!(out, vec![1, 2]);
    }
}
