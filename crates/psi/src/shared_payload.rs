//! PSI with **secret-shared** payloads (paper §5.5).
//!
//! In the middle of a query plan the payloads (annotations) no longer
//! belong to either party — they exist only as additive shares. The paper's
//! construction, reproduced here exactly:
//!
//! 1. extend the N payload shares to N+B with zeros (locally);
//! 2. the sender draws a random permutation ξ₁ of [N+B]; one **shared OEP**
//!    re-randomizes and permutes the shares to z'_j = z_{ξ₁(j)};
//! 3. run the OPPRFs of circuit PSI, but the programmed payload of y_j is
//!    the *index* ξ₁⁻¹(j);
//! 4. a garbled circuit reveals, per bin b, k_b = ξ₁⁻¹(j) on a match and
//!    k_b = ξ₁⁻¹(N+b) otherwise — a uniformly random set of distinct
//!    indices either way, so the receiver learns nothing — plus shares of
//!    the indicator;
//! 5. the receiver uses ξ₂(b) = k_b in a second **shared OEP**, landing the
//!    parties on fresh shares of the matched payload (or of the zero
//!    padding).

use rand::seq::SliceRandom;
use rand::Rng;
use secyan_circuit::{bits_to_u64, u64_to_bits, Circuit, Rows, Word};
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_gc::{evaluate_banked, garble_banked, EvalMaterial, GarbleMaterial, OutputMode};
use secyan_oep::{
    shared_oep_other, shared_oep_perm_holder, shared_oep_perm_holder_begin,
    shared_oep_perm_holder_finish, OepPending,
};
use secyan_ot::{KkrtReceiver, KkrtSender, OtReceiver, OtSender};
use secyan_transport::Channel;
use std::collections::{HashMap, VecDeque};

use crate::circuit_psi::{negotiate_cuckoo, negotiate_simple, psi_params, PsiOutput};
use crate::hashing::CuckooTable;
use crate::opprf::{opprf_evaluate_finish, opprf_program_with_key};

/// The k-index circuit: per bin, shares of the indicator plus the routing
/// index k_b in the clear (toward the evaluator = PSI receiver).
pub fn k_circuit(bins: usize, ell: usize) -> Circuit {
    let mut c = Rows::new();
    // Garbler (= PSI sender): per-bin indicator masks, then s, w, d.
    let (masks, swd) = (c.alice(bins, ell), c.alice(bins, 192));
    // Evaluator (= PSI receiver): per-bin o, p.
    let op = c.bob(bins, 128);
    let out = c.segment(bins, |b| {
        let mask = b.read(masks);
        let [s, w, d] = [0, 64, 128].map(|at| b.read(swd.slice_bits(at..at + 64)));
        let [o, p] = [0, 64].map(|at| b.read(op.slice_bits(at..at + 64)));
        let ind = b.eq_words(&o, &s);
        let mut ind_bits = vec![b.constant(false); ell];
        ind_bits[0] = ind;
        let masked_ind = b.add_words(&Word(ind_bits), &mask);
        let unmasked = b.xor_words(&p, &w);
        let k = b.mux_words(ind, &unmasked, &d);
        b.output_word(&masked_ind);
        b.output_word(&k);
    });
    // Every bin's masked indicator first, then every bin's k.
    c.output(out.slice_bits(0..ell));
    c.output(out.slice_bits(ell..ell + 64));
    c.finish()
}

/// Receiver-side in-flight state between [`shared_payload_psi_receiver_begin`]
/// and [`shared_payload_psi_receiver_finish`]: everything up to staging the
/// ξ₂-OEP's OT corrections has happened, and the cuckoo table is known.
pub struct SharedPayloadPending {
    cuckoo: CuckooTable,
    ind_shares: Vec<u64>,
    zprime_shares: Vec<u64>,
    oep: OepPending,
}

impl SharedPayloadPending {
    /// The receiver's cuckoo table — available before the PSI completes,
    /// so downstream per-bin routings can be staged early.
    pub fn cuckoo(&self) -> &CuckooTable {
        &self.cuckoo
    }
}

/// First half of the shared-payload PSI receiver: steps 1–4 in full (the
/// first shared OEP, binning, OPPRFs, the k circuit) and the send-only
/// part of step 5 — the ξ₂-OEP's OT corrections are staged but the masked
/// values are not yet received. The caller can stage further
/// dependency-free messages into the same outbound super-frame before
/// [`shared_payload_psi_receiver_finish`] blocks.
#[allow(clippy::too_many_arguments)]
pub fn shared_payload_psi_receiver_begin<R: Rng + ?Sized>(
    ch: &mut Channel,
    elements: &[u64],
    my_payload_shares: &[u64],
    ring: RingCtx,
    kkrt: &mut KkrtReceiver,
    ot_recv: &mut OtReceiver,
    ot_send: &mut OtSender,
    hasher: TweakHasher,
    rng: &mut R,
    gc_bank: &mut VecDeque<EvalMaterial>,
) -> SharedPayloadPending {
    let n = my_payload_shares.len();
    let params = psi_params(elements.len(), n);
    let bins = params.bins;
    // Step 1–2: extend shares with B zeros; shared OEP under the sender's ξ₁.
    let mut ext = my_payload_shares.to_vec();
    ext.resize(n + bins, 0);
    let zprime_shares = shared_oep_other(ch, &ext, n + bins, ring, ot_send, rng);
    // Step 3: binning + OPPRFs (corrections staged with the seed, see
    // `negotiate_cuckoo`).
    let (cuckoo, _queries, e1, e2) = negotiate_cuckoo(ch, elements, &params, kkrt);
    let o = opprf_evaluate_finish(ch, e1);
    let p = opprf_evaluate_finish(ch, e2);
    // Step 4: evaluate the k circuit.
    let circuit = k_circuit(bins, ring.bits() as usize);
    let mut my_bits = Vec::with_capacity(bins * 128);
    for b in 0..bins {
        my_bits.extend(u64_to_bits(o[b], 64));
        my_bits.extend(u64_to_bits(p[b], 64));
    }
    let mode = OutputMode::RevealToEvaluator;
    let out_bits = evaluate_banked(ch, gc_bank, &circuit, &my_bits, ot_recv, hasher, mode)
        .expect("k circuit reveals to evaluator");
    let ell = ring.bits() as usize;
    let ind_shares: Vec<u64> = (0..bins)
        .map(|b| bits_to_u64(&out_bits[b * ell..(b + 1) * ell]))
        .collect();
    let k_base = bins * ell;
    let ks: Vec<usize> = (0..bins)
        .map(|b| bits_to_u64(&out_bits[k_base + b * 64..k_base + (b + 1) * 64]) as usize)
        .collect();
    for &k in &ks {
        assert!(k < n + bins, "k index out of range: corrupted transcript");
    }
    // Step 5 (send half): stage the ξ₂-OEP corrections with ξ₂ = k.
    let oep = shared_oep_perm_holder_begin(ch, &ks, n + bins, ot_recv);
    SharedPayloadPending {
        cuckoo,
        ind_shares,
        zprime_shares,
        oep,
    }
}

/// Second half of the shared-payload PSI receiver: finish the ξ₂-OEP walk.
/// Receive-only.
pub fn shared_payload_psi_receiver_finish(
    ch: &mut Channel,
    pending: SharedPayloadPending,
    ring: RingCtx,
    ot_recv: &mut OtReceiver,
) -> PsiOutput {
    let SharedPayloadPending {
        cuckoo,
        ind_shares,
        zprime_shares,
        oep,
    } = pending;
    let payload_shares = shared_oep_perm_holder_finish(ch, oep, &zprime_shares, ring, ot_recv);
    PsiOutput {
        cuckoo: Some(cuckoo),
        ind_shares,
        payload_shares,
    }
}

/// Receiver side (the cuckoo/X holder; also holds shares of the sender's
/// payload vector). `my_payload_shares.len()` is the sender's public set
/// size. Returns per-bin shares of indicator and payload. `gc_bank` holds
/// pre-received tables in plan order (empty deque for single-phase runs).
/// Implemented as [`shared_payload_psi_receiver_begin`] +
/// [`shared_payload_psi_receiver_finish`].
#[allow(clippy::too_many_arguments)]
pub fn shared_payload_psi_receiver<R: Rng + ?Sized>(
    ch: &mut Channel,
    elements: &[u64],
    my_payload_shares: &[u64],
    ring: RingCtx,
    kkrt: &mut KkrtReceiver,
    ot_recv: &mut OtReceiver,
    ot_send: &mut OtSender,
    hasher: TweakHasher,
    rng: &mut R,
    gc_bank: &mut VecDeque<EvalMaterial>,
) -> PsiOutput {
    let pending = shared_payload_psi_receiver_begin(
        ch,
        elements,
        my_payload_shares,
        ring,
        kkrt,
        ot_recv,
        ot_send,
        hasher,
        rng,
        gc_bank,
    );
    shared_payload_psi_receiver_finish(ch, pending, ring, ot_recv)
}

/// Sender side (the Y holder; also holds shares of their own payload
/// vector, aligned by index with `elements`). `receiver_size` is public.
/// `gc_bank` mirrors the receiver's: pre-garbled material in plan order.
#[allow(clippy::too_many_arguments)]
pub fn shared_payload_psi_sender<R: Rng + ?Sized>(
    ch: &mut Channel,
    elements: &[u64],
    receiver_size: usize,
    my_payload_shares: &[u64],
    ring: RingCtx,
    kkrt: &mut KkrtSender,
    ot_send: &mut OtSender,
    ot_recv: &mut OtReceiver,
    hasher: TweakHasher,
    rng: &mut R,
    gc_bank: &mut VecDeque<GarbleMaterial>,
) -> PsiOutput {
    let n = elements.len();
    assert_eq!(my_payload_shares.len(), n);
    let index_of: HashMap<u64, usize> = elements.iter().enumerate().map(|(j, &e)| (e, j)).collect();
    assert_eq!(index_of.len(), n, "sender elements must be distinct");
    let params = psi_params(receiver_size, n);
    let bins = params.bins;
    // Steps 1–2: ξ₁ and the first shared OEP (this side holds ξ₁).
    let mut xi1: Vec<usize> = (0..n + bins).collect();
    xi1.shuffle(rng);
    let mut xi1_inv = vec![0usize; n + bins];
    for (j, &v) in xi1.iter().enumerate() {
        xi1_inv[v] = j;
    }
    let mut ext = my_payload_shares.to_vec();
    ext.resize(n + bins, 0);
    let zprime_shares = shared_oep_perm_holder(ch, &xi1, &ext, ring, ot_recv);
    // Step 3: binning + OPPRFs.
    let (simple, k1, k2) = negotiate_simple(ch, elements, &params, kkrt);
    let s: Vec<u64> = (0..bins).map(|_| rng.gen()).collect();
    let member_prog: Vec<Vec<(u64, u64)>> = simple
        .bins
        .iter()
        .enumerate()
        .map(|(b, ys)| ys.iter().map(|&y| (y, s[b])).collect())
        .collect();
    opprf_program_with_key(ch, k1, &member_prog, params.degree, rng);
    let w: Vec<u64> = (0..bins).map(|_| rng.gen()).collect();
    let index_prog: Vec<Vec<(u64, u64)>> = simple
        .bins
        .iter()
        .enumerate()
        .map(|(b, ys)| {
            ys.iter()
                .map(|&y| (y, xi1_inv[index_of[&y]] as u64 ^ w[b]))
                .collect()
        })
        .collect();
    opprf_program_with_key(ch, k2, &index_prog, params.degree, rng);
    // Step 4: garble the k circuit; collect the indicator-mask shares.
    let circuit = k_circuit(bins, ring.bits() as usize);
    let mut ind_shares = Vec::with_capacity(bins);
    let mut my_bits = Vec::new();
    let mut swd_bits = Vec::new();
    for b in 0..bins {
        let r = ring.random(rng);
        ind_shares.push(ring.neg(r));
        my_bits.extend(u64_to_bits(r, ring.bits() as usize));
        swd_bits.extend(u64_to_bits(s[b], 64));
        swd_bits.extend(u64_to_bits(w[b], 64));
        swd_bits.extend(u64_to_bits(xi1_inv[n + b] as u64, 64));
    }
    my_bits.extend(swd_bits);
    let mode = OutputMode::RevealToEvaluator;
    let out = garble_banked(ch, gc_bank, &circuit, &my_bits, ot_send, hasher, rng, mode);
    debug_assert!(out.is_none());
    // Step 5: second shared OEP (receiver holds ξ₂).
    let payload_shares = shared_oep_other(ch, &zprime_shares, bins, ring, ot_send, rng);
    PsiOutput {
        cuckoo: None,
        ind_shares,
        payload_shares,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_transport::run_protocol;

    fn run(x: Vec<u64>, y: Vec<u64>, payloads: Vec<u64>) -> (PsiOutput, PsiOutput, RingCtx) {
        // One hasher choice drives OT, OPRF, and garbling on both sides.
        let hasher = TweakHasher::default();
        let ring = RingCtx::new(32);
        let mut setup = StdRng::seed_from_u64(31);
        let (recv_sh, send_sh) = ring.share_vec(&payloads, &mut setup);
        let x_len = x.len();
        let (r, s, _) = run_protocol(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(32);
                let mut kkrt = KkrtReceiver::setup(ch, &mut rng, hasher);
                let mut ot_r = OtReceiver::setup(ch, &mut rng, hasher);
                let mut ot_s = OtSender::setup(ch, &mut rng, hasher);
                shared_payload_psi_receiver(
                    ch,
                    &x,
                    &recv_sh,
                    ring,
                    &mut kkrt,
                    &mut ot_r,
                    &mut ot_s,
                    hasher,
                    &mut rng,
                    &mut VecDeque::new(),
                )
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(33);
                let mut kkrt = KkrtSender::setup(ch, &mut rng, hasher);
                // Setup order must complement the receiver's: their
                // OtReceiver pairs with our OtSender and vice versa.
                let mut ot_s = OtSender::setup(ch, &mut rng, hasher);
                let mut ot_r = OtReceiver::setup(ch, &mut rng, hasher);
                shared_payload_psi_sender(
                    ch,
                    &y,
                    x_len,
                    &send_sh,
                    ring,
                    &mut kkrt,
                    &mut ot_s,
                    &mut ot_r,
                    hasher,
                    &mut rng,
                    &mut VecDeque::new(),
                )
            },
        );
        (r, s, ring)
    }

    #[test]
    fn shared_payloads_land_in_matching_bins() {
        let x = vec![1u64, 2, 3, 4, 5, 6];
        let y = vec![2u64, 4, 9];
        let payloads = vec![222u64, 444, 999];
        let (r, s, ring) = run(x, y, payloads);
        let cuckoo = r.cuckoo.as_ref().unwrap();
        let ind = ring.reconstruct_vec(&r.ind_shares, &s.ind_shares);
        let val = ring.reconstruct_vec(&r.payload_shares, &s.payload_shares);
        for (b, slot) in cuckoo.bins.iter().enumerate() {
            match slot {
                Some(2) => {
                    assert_eq!(ind[b], 1);
                    assert_eq!(val[b], 222);
                }
                Some(4) => {
                    assert_eq!(ind[b], 1);
                    assert_eq!(val[b], 444);
                }
                _ => {
                    assert_eq!(ind[b], 0, "bin {b}");
                    assert_eq!(val[b], 0, "bin {b}");
                }
            }
        }
    }

    #[test]
    fn no_matches_all_zero() {
        let (r, s, ring) = run(vec![1, 2, 3], vec![7, 8], vec![70, 80]);
        let ind = ring.reconstruct_vec(&r.ind_shares, &s.ind_shares);
        let val = ring.reconstruct_vec(&r.payload_shares, &s.payload_shares);
        assert!(ind.iter().all(|&v| v == 0));
        assert!(val.iter().all(|&v| v == 0));
    }
}
