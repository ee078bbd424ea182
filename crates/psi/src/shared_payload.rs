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
use secyan_circuit::{bits_to_words, words_to_bits, Circuit, Rows, Word};
use secyan_crypto::RingCtx;
use secyan_gc::{evaluate_banked, garble_banked, EvalMaterial, GarbleMaterial, OutputMode};
use secyan_oep::{shared_oep_other, shared_oep_perm_holder, shared_oep_perm_holder_begin};
use secyan_ot::{KkrtReceiver, KkrtSender, OtReceiver, OtSender};
use secyan_transport::{Channel, ProtocolError};
use std::collections::{HashMap, VecDeque};

use crate::circuit_psi::{
    psi_params, receiver_opprfs, sender_opprfs, PsiOutput, PsiReceiverPending, ReceiverTail,
};

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

/// First half of the shared-payload PSI receiver (the cuckoo/X holder; it
/// also holds shares of the sender's payload vector, so
/// `my_payload_shares.len()` is the sender's public set size): steps 1–4
/// in full (the first shared OEP, binning, OPPRFs, the k circuit) and the
/// send-only part of step 5 — the ξ₂-OEP's OT corrections are staged but
/// the masked values are not yet received. The caller can stage further
/// dependency-free messages into the same outbound super-frame before
/// [`crate::psi_receiver_finish`] blocks. `gc_bank` holds pre-received
/// tables in plan order (empty deque for single-phase runs).
#[expect(clippy::too_many_arguments)]
pub fn shared_payload_psi_receiver_begin<R: Rng + ?Sized>(
    ch: &mut Channel,
    elements: &[u64],
    my_payload_shares: &[u64],
    ring: RingCtx,
    kkrt: &mut KkrtReceiver,
    ot_recv: &mut OtReceiver,
    ot_send: &mut OtSender,
    rng: &mut R,
    gc_bank: &mut VecDeque<EvalMaterial>,
) -> PsiReceiverPending {
    let n = my_payload_shares.len();
    let params = psi_params(elements.len(), n);
    let (bins, ell) = (params.bins, ring.bits() as usize);
    // Step 1–2: extend shares with B zeros; shared OEP under the sender's ξ₁.
    let mut ext = my_payload_shares.to_vec();
    ext.resize(n + bins, 0);
    let zprime_shares = shared_oep_other(ch, &ext, n + bins, ring, ot_send, rng);
    // Step 3: binning + OPPRFs (corrections staged with the seed).
    let (cuckoo, my_bits) = receiver_opprfs(ch, elements, &params, kkrt);
    // Step 4: evaluate the k circuit.
    let circuit = k_circuit(bins, ell);
    let mode = OutputMode::RevealToEvaluator;
    let out_bits = evaluate_banked(ch, gc_bank, &circuit, &my_bits, ot_recv, mode)
        .expect("k circuit reveals to evaluator");
    let (ind_bits, k_bits) = out_bits.split_at(bins * ell);
    let ind_shares = bits_to_words(ind_bits, ell);
    // The garbler picks every k: an index outside ξ₁'s range is a peer
    // breaking the protocol, not a bug on this side.
    let ks: Vec<usize> = bits_to_words(k_bits, 64)
        .into_iter()
        .map(|k| {
            if k >= (n + bins) as u64 {
                ProtocolError::malformed(format!(
                    "PSI routing index {k} is outside the {} extended payload slots",
                    n + bins
                ));
            }
            k as usize
        })
        .collect();
    // Step 5 (send half): stage the ξ₂-OEP corrections with ξ₂ = k.
    let oep = shared_oep_perm_holder_begin(ch, &ks, n + bins, ot_recv);
    let tail = ReceiverTail::Routing {
        ind_shares,
        zprime_shares,
        oep,
    };
    PsiReceiverPending { cuckoo, tail }
}

/// Sender side (the Y holder; also holds shares of their own payload
/// vector, aligned by index with `elements`). `receiver_size` is public.
/// `gc_bank` mirrors the receiver's: pre-garbled material in plan order.
#[expect(clippy::too_many_arguments)]
pub fn shared_payload_psi_sender<R: Rng + ?Sized>(
    ch: &mut Channel,
    elements: &[u64],
    receiver_size: usize,
    my_payload_shares: &[u64],
    ring: RingCtx,
    kkrt: &mut KkrtSender,
    ot_send: &mut OtSender,
    ot_recv: &mut OtReceiver,
    rng: &mut R,
    gc_bank: &mut VecDeque<GarbleMaterial>,
) -> PsiOutput {
    let n = elements.len();
    assert_eq!(my_payload_shares.len(), n);
    let index_of: HashMap<u64, usize> = elements.iter().enumerate().map(|(j, &e)| (e, j)).collect();
    assert_eq!(index_of.len(), n, "sender elements must be distinct");
    let params = psi_params(receiver_size, n);
    let (bins, ell) = (params.bins, ring.bits() as usize);
    // Steps 1–2: ξ₁ and the first shared OEP (this side holds ξ₁).
    let mut xi1: Vec<usize> = (0..n + bins).collect();
    xi1.shuffle(rng);
    let mut xi1_inv = vec![0u64; n + bins];
    for (j, &v) in xi1.iter().enumerate() {
        xi1_inv[v] = j as u64;
    }
    let mut ext = my_payload_shares.to_vec();
    ext.resize(n + bins, 0);
    let zprime_shares = shared_oep_perm_holder(ch, &xi1, &ext, ring, ot_recv);
    // Step 3: binning + OPPRFs; the second one carries y_j's index ξ₁⁻¹(j).
    let index = |y| xi1_inv[index_of[&y]];
    let (s, w) = sender_opprfs(ch, elements, &params, kkrt, rng, index);
    // Step 4: garble the k circuit; the indicator masks are this side's
    // (negated) indicator shares. Inputs: every bin's mask, then per bin
    // s, w and the no-match index d = ξ₁⁻¹(N + b).
    let masks: Vec<u64> = (0..bins).map(|_| ring.random(rng)).collect();
    let ind_shares = masks.iter().map(|&r| ring.neg(r)).collect();
    let swd: Vec<u64> = (0..bins)
        .flat_map(|b| [s[b], w[b], xi1_inv[n + b]])
        .collect();
    let mut my_bits = words_to_bits(&masks, ell);
    my_bits.extend(words_to_bits(&swd, 64));
    let circuit = k_circuit(bins, ell);
    let mode = OutputMode::RevealToEvaluator;
    let out = garble_banked(ch, gc_bank, &circuit, &my_bits, ot_send, rng, mode);
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
    use crate::psi_receiver_finish;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_transport::{catch_protocol, run_protocol};

    use secyan_crypto::TweakHasher;

    const HASHER: TweakHasher = TweakHasher::Aes;

    /// The real receiver on a fresh set of endpoints: begin, then finish.
    fn receive(ch: &mut Channel, x: &[u64], my_shares: &[u64], ring: RingCtx) -> PsiOutput {
        let mut rng = StdRng::seed_from_u64(32);
        let mut kkrt = KkrtReceiver::setup(ch, &mut rng);
        let mut ot_r = OtReceiver::setup(ch, &mut rng, HASHER);
        let mut ot_s = OtSender::setup(ch, &mut rng, HASHER);
        let bank = &mut VecDeque::new();
        let (kkrt, ot_s, rng) = (&mut kkrt, &mut ot_s, &mut rng);
        let pending = shared_payload_psi_receiver_begin(
            ch, x, my_shares, ring, kkrt, &mut ot_r, ot_s, rng, bank,
        );
        psi_receiver_finish(ch, pending, ring, &mut ot_r)
    }

    /// The sender's endpoints, set up in the order complementing the
    /// receiver's: their OtReceiver pairs with our OtSender and vice versa.
    fn sender_setup(ch: &mut Channel) -> (StdRng, KkrtSender, OtSender, OtReceiver) {
        let mut rng = StdRng::seed_from_u64(33);
        let kkrt = KkrtSender::setup(ch, &mut rng);
        let ot_s = OtSender::setup(ch, &mut rng, HASHER);
        let ot_r = OtReceiver::setup(ch, &mut rng, HASHER);
        (rng, kkrt, ot_s, ot_r)
    }

    fn run(x: Vec<u64>, y: Vec<u64>, payloads: Vec<u64>) -> (PsiOutput, PsiOutput, RingCtx) {
        let ring = RingCtx::new(32);
        let mut setup = StdRng::seed_from_u64(31);
        let (recv_sh, send_sh) = ring.share_vec(&payloads, &mut setup);
        let x_len = x.len();
        let (r, s, _) = run_protocol(
            move |ch| receive(ch, &x, &recv_sh, ring),
            move |ch| {
                let (mut rng, mut kkrt, mut ot_s, mut ot_r) = sender_setup(ch);
                shared_payload_psi_sender(
                    ch,
                    &y,
                    x_len,
                    &send_sh,
                    ring,
                    &mut kkrt,
                    &mut ot_s,
                    &mut ot_r,
                    &mut rng,
                    &mut VecDeque::new(),
                )
            },
        );
        (r, s, ring)
    }

    /// The garbler picks the routing indices the k circuit reveals, so an
    /// index outside ξ₁'s range is hostile input: the receiver must end in
    /// a typed error, not in a foreign panic. The sender here follows the
    /// protocol up to the k circuit and feeds it an out-of-range no-match
    /// index d for every bin.
    #[test]
    fn out_of_range_routing_index_is_a_typed_error() {
        let ring = RingCtx::new(32);
        let (x, y) = (vec![1u64, 2, 3], vec![7u64, 8]);
        let (n, x_len) = (y.len(), x.len());
        let (got, (), _) = run_protocol(
            move |ch| catch_protocol(|| receive(ch, &x, &[0; 2], ring)),
            move |ch| {
                let (mut rng, mut kkrt, mut ot_s, mut ot_r) = sender_setup(ch);
                let params = psi_params(x_len, n);
                let slots = n + params.bins;
                let xi1: Vec<usize> = (0..slots).collect();
                shared_oep_perm_holder(ch, &xi1, &vec![0; slots], ring, &mut ot_r);
                let (s, w) = sender_opprfs(ch, &y, &params, &mut kkrt, &mut rng, |_| 0);
                let swd: Vec<u64> = (0..params.bins)
                    .flat_map(|b| [s[b], w[b], slots as u64])
                    .collect();
                let mut bits = vec![false; params.bins * 32];
                bits.extend(words_to_bits(&swd, 64));
                let (circuit, mode) = (k_circuit(params.bins, 32), OutputMode::RevealToEvaluator);
                let bank = &mut VecDeque::new();
                garble_banked(ch, bank, &circuit, &bits, &mut ot_s, &mut rng, mode);
            },
        );
        match got {
            Err(ProtocolError::Malformed { context }) => {
                assert!(context.contains("routing index"), "{context}")
            }
            other => panic!("expected a typed Malformed, got {other:?}"),
        }
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
