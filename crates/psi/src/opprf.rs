//! Oblivious programmable PRF (OPPRF).
//!
//! The sender *programs* target values: for each bin b and each of his
//! elements y in that bin, F(b, y) must equal a chosen target t_{b,y};
//! everywhere else F looks random. The receiver evaluates F at one point
//! per bin (her cuckoo-placed element) and cannot tell programmed from
//! random outputs.
//!
//! Construction (Pinkas et al., polynomial-hint variant): run a KKRT OPRF
//! batch keyed per bin, then the sender interpolates, per bin, the
//! polynomial through (enc(y), t_{b,y} ⊕ OPRF(b, y)) — padded with random
//! points to the public degree bound — and ships all hint polynomials. The
//! receiver outputs OPRF(b, x_b) ⊕ hint_b(enc(x_b)).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secyan_crypto::gf64::{poly_eval_batch, poly_interpolate, Gf64};
use secyan_crypto::sha256::{digest_to_u64, Sha256};
use secyan_crypto::Zeroize;
use secyan_ot::{KkrtReceiver, KkrtSender};
use secyan_par as par;
use secyan_transport::{Channel, ReadExt, WriteExt};

/// Minimum bins per worker for the parallel per-bin stages. A bin costs
/// O(degree²) GF(2^64) work (interpolation) or O(degree) (evaluation),
/// so modest batches already amortize a dispatch.
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

/// Map an element to its interpolation x-coordinate. A salt lets the
/// sender re-draw on the (≈2^{-64}·pairs) chance of an in-bin collision.
fn x_coord(salt: u64, item: PsiItem) -> Gf64 {
    let mut h = Sha256::new();
    h.update(b"opprf-x");
    h.update(&salt.to_le_bytes());
    h.update(&item.encode());
    Gf64(digest_to_u64(&h.finalize()))
}

/// Sender side: program one target per (bin, element) pair.
///
/// `programs[b]` lists `(element, target)` pairs for bin b; `degree` is the
/// public per-bin point count (pad bound ≥ every bin's length). Sends the
/// hints; returns nothing (the targets are the sender's own secrets).
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
/// layers pull *all* their KKRT correction reads forward (the receiver
/// stages every batch's corrections in one super-frame) and program the
/// hints afterwards.
pub fn opprf_program_with_key<R: Rng + ?Sized>(
    ch: &mut Channel,
    key: secyan_ot::KkrtSenderKey,
    programs: &[Vec<(u64, u64)>],
    degree: usize,
    rng: &mut R,
) {
    let bins = programs.len();
    let go_par = par::threads() > 1 && bins >= 2 * BINS_PER_PART;
    // Choose a salt with collision-free x-coordinates in every bin. Bins
    // are checked independently; a salt is accepted iff every bin comes
    // back collision-free, which is the same predicate the serial loop
    // computes, so the chosen salt does not depend on the thread count.
    let (salt, coords) = 'salt: {
        let mut salt = rng.gen::<u64>();
        loop {
            let all: Vec<Option<Vec<Gf64>>> = par::with_pool_if(go_par, |pool| {
                pool.map(programs, BINS_PER_PART, |_, prog| {
                    let mut xs: Vec<Gf64> = prog
                        .iter()
                        .map(|&(y, _)| x_coord(salt, PsiItem::Real(y)))
                        .collect();
                    let before = xs.len();
                    xs.sort_by_key(|g| g.0);
                    xs.dedup();
                    (xs.len() == before).then_some(xs)
                })
            });
            if all.iter().all(Option::is_some) {
                let coords = all.into_iter().map(|x| x.expect("checked")).collect();
                break 'salt (salt, coords);
            }
            salt = salt.wrapping_add(1);
        }
    };
    let coords: Vec<Vec<Gf64>> = coords;
    ch.send_u64(salt);
    // Pre-draw one pad seed per bin *serially* from the caller's RNG, so
    // the padding points each bin generates are independent of how bins
    // are scheduled across workers.
    let mut bin_rand: Vec<u64> = programs.iter().map(|_| rng.gen()).collect();
    let hints: Vec<Vec<u64>> = par::with_pool_if(go_par, |pool| {
        pool.map(programs, BINS_PER_PART, |b, prog| {
            assert!(
                prog.len() <= degree,
                "bin {b} has {} items, exceeding the public bound {degree}",
                prog.len()
            );
            let mut points: Vec<(Gf64, Gf64)> = prog
                .iter()
                .map(|&(y, t)| {
                    let f = key.eval(b, &PsiItem::Real(y).encode());
                    (x_coord(salt, PsiItem::Real(y)), Gf64(t ^ f))
                })
                .collect();
            // Pad with random points at fresh x-coordinates, drawn from
            // this bin's private stream.
            // taint-ok: seeded from bin_rand[b], which was drawn serially
            // before the dispatch — the stream is a pure function of the
            // bin index, deterministic at any thread count.
            let mut fill_rng = StdRng::seed_from_u64(bin_rand[b]);
            let mut used: Vec<Gf64> = coords[b].clone();
            while points.len() < degree {
                let x = Gf64(fill_rng.gen()); // taint-ok: per-bin deterministic stream.
                if used.contains(&x) {
                    continue;
                }
                used.push(x);
                points.push((x, Gf64(fill_rng.gen()))); // taint-ok: per-bin deterministic stream.
            }
            let coeffs = poly_interpolate(&points);
            coeffs.iter().map(|c| c.0).collect()
        })
    });
    // Pad seeds derive mask material; scrub them once the hints exist.
    bin_rand.zeroize();
    let mut hint_words: Vec<u64> = Vec::with_capacity(bins * degree);
    for h in &hints {
        hint_words.extend_from_slice(h);
    }
    ch.send_u64_slice(&hint_words);
}

/// In-flight receiver-side OPPRF state: the KKRT batch already ran (its
/// corrections are staged outbound), only the sender's salt + hints are
/// pending. Produced by [`opprf_evaluate_begin`], consumed by
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

/// Second half of [`opprf_evaluate_begin`]: receive the salt + hint
/// polynomials and combine them with the OPRF outputs.
pub fn opprf_evaluate_finish(ch: &mut Channel, pending: OpprfEval) -> Vec<u64> {
    let OpprfEval {
        oprf_out,
        queries,
        degree,
    } = pending;
    let bins = queries.len();
    let salt = ch.recv_u64();
    let hint_words = ch.recv_u64_vec(bins * degree);
    let go_par = par::threads() > 1 && bins >= 2 * BINS_PER_PART;
    // Each bin's hint evaluates independently. The x-coordinates (SHA per
    // bin) map across the pool, then each worker runs lockstep Horner over
    // its contiguous slab of bins via the batched GF(2^64) kernel — the
    // per-bin coefficient Vec and per-multiply dispatch of the old loop
    // are gone. The wire layout is already flat `[b*degree..(b+1)*degree]`.
    let xs: Vec<Gf64> = par::with_pool_if(go_par, |pool| {
        pool.map(&queries, BINS_PER_PART, |_, &q| x_coord(salt, q))
    });
    let coeffs: Vec<Gf64> = hint_words.iter().map(|&w| Gf64(w)).collect();
    let mut out = vec![0u64; bins];
    par::with_pool_if(go_par, |pool| {
        pool.chunks_mut(&mut out, 1, BINS_PER_PART, |off, chunk| {
            let n = chunk.len();
            let evals = poly_eval_batch(
                &coeffs[off * degree..(off + n) * degree],
                degree,
                &xs[off..off + n],
            );
            for ((o, e), &f) in chunk.iter_mut().zip(&evals).zip(&oprf_out[off..off + n]) {
                *o = f ^ e.0;
            }
        });
    });
    out
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
    use secyan_transport::run_protocol;

    fn run_opprf(programs: Vec<Vec<(u64, u64)>>, queries: Vec<PsiItem>, degree: usize) -> Vec<u64> {
        let (_, out, _) = run_protocol(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(11);
                let mut kkrt = KkrtSender::setup(ch, &mut rng);
                opprf_program(ch, &mut kkrt, &programs, degree, &mut rng);
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(12);
                let mut kkrt = KkrtReceiver::setup(ch, &mut rng);
                opprf_evaluate(ch, &mut kkrt, &queries, degree)
            },
        );
        out
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
        let out = run_opprf(programs, queries, 4);
        assert_eq!(out[0], 222);
        assert_eq!(out[1], 333);
        assert_eq!(out[3], 555);
    }

    #[test]
    fn unprogrammed_points_miss() {
        let programs = vec![vec![(10, 111)], vec![(20, 222)]];
        let queries = vec![PsiItem::Real(99), PsiItem::Dummy(1)];
        let out = run_opprf(programs, queries, 2);
        assert_ne!(out[0], 111);
        assert_ne!(out[1], 222);
    }

    #[test]
    fn same_element_in_different_bins() {
        // The per-bin KKRT instance separates identical inputs across bins.
        let programs = vec![vec![(7, 1)], vec![(7, 2)]];
        let out = run_opprf(programs, vec![PsiItem::Real(7), PsiItem::Real(7)], 1);
        assert_eq!(out, vec![1, 2]);
    }
}
