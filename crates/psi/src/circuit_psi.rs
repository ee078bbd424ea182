//! Circuit PSI with payloads (paper §5.3).
//!
//! Roles (independent of transport roles): the **receiver** holds the set X
//! being cuckoo-hashed and evaluates the garbled circuit; the **sender**
//! holds the set Y with one payload per element and garbles. For each bin b
//! of the receiver's cuckoo table, both parties obtain additive shares of
//!
//! * `Ind(x_b ∈ Y)` (as a 0/1 ring element), and
//! * the payload of the matching y (or 0 when there is no match),
//!
//! and nothing else — the intersection itself stays hidden, which is what
//! lets the paper chain PSI into semijoins (§6.2).
//!
//! Sender elements must be distinct: the Yannakakis reduce phase guarantees
//! this by aggregating before every semijoin.

use rand::Rng;
use secyan_circuit::{words_to_bits, Circuit};
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_gc::{
    evaluate_begin, evaluate_shared_finish, evaluator_ot_count, garble_shared_banked, take_eval,
    with_shared_rows, EvalMaterial, EvalPending, GarbleMaterial, SharedOutputSpec,
};
use secyan_oep::{oep_ot_count, shared_oep_perm_holder_finish, OepPending};
use secyan_ot::{KkrtReceiver, KkrtSender, KkrtSenderKey, OtReceiver, OtSender};
use secyan_transport::{Channel, ProtocolError, ReadExt, WriteExt};
use std::collections::{HashMap, VecDeque};

use crate::hashing::{bin_count, max_bin_size, CuckooTable, SimpleTable};
use crate::opprf::{
    opprf_evaluate_begin, opprf_evaluate_finish, opprf_program_with_key, OpprfEval, PsiItem,
};

/// Per-party result of a circuit PSI: one entry per cuckoo bin.
#[derive(Debug, Clone)]
pub struct PsiOutput {
    /// The receiver's cuckoo table (receiver side only) — needed to map
    /// bins back to elements downstream.
    pub cuckoo: Option<CuckooTable>,
    /// Shares of Ind(x_b ∈ Y) per bin.
    pub ind_shares: Vec<u64>,
    /// Shares of the matched payload (0 on no match) per bin.
    pub payload_shares: Vec<u64>,
}

/// The public parameters both parties derive identically. Public so the
/// offline planner (`secyan-core`'s query shapes) can reproduce the bin
/// and degree bounds from the public relation sizes alone.
pub struct PsiParams {
    pub bins: usize,
    pub degree: usize,
}

/// Derive the cuckoo/simple-hash parameters from the two public set sizes.
pub fn psi_params(receiver_size: usize, sender_size: usize) -> PsiParams {
    let bins = bin_count(receiver_size);
    PsiParams {
        bins,
        degree: max_bin_size(sender_size, bins),
    }
}

/// Everything one PSI draws that an offline phase can prepare, as a
/// function of the two public set sizes, the ring width and the flavour —
/// the layer's own account of its protocol, so a planner never re-derives
/// it: the circuit the sender garbles, the KKRT instances (PSI sender =
/// KKRT sender; a rejected cuckoo seed burns more, but that is
/// data-dependent and left to the inline fallback), and the OTs drawn in
/// each direction (GC evaluator labels plus, for shared payloads, the
/// three OEPs).
pub struct PsiCost {
    pub bins: usize,
    pub circuit: Circuit,
    pub kkrt: usize,
    /// OTs in which the PSI sender is the OT sender.
    pub ot_from_sender: usize,
    /// OTs in which the PSI receiver is the OT sender.
    pub ot_from_receiver: usize,
}

/// [`PsiCost`] of [`psi_sender`]/[`psi_receiver`] (plain payloads, §5.3)
/// when `shared_payloads` is false, of the
/// [`crate::shared_payload`] protocol (§5.5) when true.
pub fn psi_cost(
    receiver_size: usize,
    sender_size: usize,
    ell: usize,
    shared_payloads: bool,
) -> PsiCost {
    let bins = psi_params(receiver_size, sender_size).bins;
    let ext = sender_size + bins;
    let (circuit, oep_from_sender, oep_from_receiver) = if shared_payloads {
        // ξ₁ (sender routes, receiver sends), then ξ₂ (receiver routes).
        let circuit = crate::shared_payload::k_circuit(bins, ell);
        (circuit, oep_ot_count(ext, bins), oep_ot_count(ext, ext))
    } else {
        (matching_circuit(bins, ell).0, 0, 0)
    };
    PsiCost {
        bins,
        kkrt: 2 * bins,
        ot_from_sender: evaluator_ot_count(&circuit) + oep_from_sender,
        ot_from_receiver: oep_from_receiver,
        circuit,
    }
}

/// The per-bin matching circuit: shares of indicator and payload. Its
/// dimensions depend only on the public bin count and ring width.
pub fn matching_circuit(bins: usize, ell: usize) -> (Circuit, SharedOutputSpec) {
    with_shared_rows(bins, &[ell, ell], |c| {
        // Garbler (sender): s_b then w_b per bin; evaluator: o_b then p_b.
        let (sw, op) = (c.alice(bins, 128), c.bob(bins, 128));
        let matched = c.segment(bins, |b| {
            let [s, w] = [0, 64].map(|at| b.read(sw.slice_bits(at..at + 64)));
            let [o, p] = [0, 64].map(|at| b.read(op.slice_bits(at..at + 64)));
            let ind = b.eq_words(&o, &s);
            let z64 = b.xor_words(&p, &w);
            let z = b.resize_word(&z64, ell);
            let val = b.and_word_bit(&z, ind);
            b.output(ind);
            b.output_word(&val);
        });
        // The indicator leaves as the ring element 0 or 1.
        vec![matched.slice_bits(0..1), matched.slice_bits(1..1 + ell)]
    })
}

/// Split the interleaved `[ind, val, ind, val, ...]` share list.
fn split_shares(shares: Vec<u64>) -> (Vec<u64>, Vec<u64>) {
    let mut ind = Vec::with_capacity(shares.len() / 2);
    let mut val = Vec::with_capacity(shares.len() / 2);
    for pair in shares.chunks_exact(2) {
        ind.push(pair[0]);
        val.push(pair[1]);
    }
    (ind, val)
}

/// Seed attempts before the negotiation gives up. An honest run rejects a
/// seed with probability below 2^-40 ([`max_bin_size`]), so a second
/// attempt is already a once-in-a-lifetime event; a peer that keeps
/// rejecting (or keeps sending seeds) is faulty or hostile, and each turn
/// it is allowed burns 2·bins KKRT instances.
const MAX_SEED_ATTEMPTS: usize = 4;

/// Agree on a cuckoo/simple-hash seed whose bin loads respect the public
/// bound, *optimistically* overlapping the two KKRT batches with the
/// verdict: each attempt stages the seed **and** both OPPRF correction
/// batches before blocking on the sender's verdict, so an accepted first
/// attempt (the overwhelmingly common case) costs zero extra ping-pongs.
/// A rejected attempt discards the two in-flight evaluations — both
/// parties burn the same 2·bins banked KKRT instances, so bank budgets
/// stay mirrored; if the bank runs dry the batches transparently fall back
/// to fresh (still receiver-send-only) extensions. The retry count was
/// already public under the old send/verdict loop; after
/// [`MAX_SEED_ATTEMPTS`] rejections the run ends in a typed error.
///
/// Receiver side; returns the table and the two pending OPPRF evaluations
/// (membership first, payload second).
fn negotiate_cuckoo(
    ch: &mut Channel,
    elements: &[u64],
    params: &PsiParams,
    kkrt: &mut KkrtReceiver,
) -> (CuckooTable, OpprfEval, OpprfEval) {
    let mut seed = 0u64;
    for _ in 0..MAX_SEED_ATTEMPTS {
        let table = CuckooTable::build(elements, params.bins, seed);
        // taint-ok: adaptive retry — each seed attempt needs the peer's
        // verdict; the fast path already stages everything before blocking.
        ch.send_u64(table.seed);
        let queries: Vec<PsiItem> = table
            .bins
            .iter()
            .enumerate()
            .map(|(b, slot)| match slot {
                Some(e) => PsiItem::Real(*e),
                None => PsiItem::Dummy(b as u64),
            })
            .collect();
        let e1 = opprf_evaluate_begin(ch, kkrt, &queries, params.degree);
        let e2 = opprf_evaluate_begin(ch, kkrt, &queries, params.degree);
        if ch.recv_u64() == 1 {
            return (table, e1, e2);
        }
        seed = table.seed.wrapping_add(1);
    }
    ProtocolError::malformed(format!(
        "peer rejected {MAX_SEED_ATTEMPTS} cuckoo seeds in a row"
    ))
}

/// Sender side of the optimistic negotiation; consumes the receiver's
/// in-flight correction batches (in FIFO order, after the verdict is
/// staged) whether or not the seed is accepted, keeping the KKRT streams
/// of both parties aligned. Returns the simple-hash table and the two
/// evaluation keys (membership first, payload second).
fn negotiate_simple(
    ch: &mut Channel,
    elements: &[u64],
    params: &PsiParams,
    kkrt: &mut KkrtSender,
) -> (SimpleTable, KkrtSenderKey, KkrtSenderKey) {
    for _ in 0..MAX_SEED_ATTEMPTS {
        let seed = ch.recv_u64();
        let table = SimpleTable::build(elements, params.bins, seed);
        let ok = table.max_load() <= params.degree;
        // taint-ok: adaptive retry — the verdict answers the seed just
        // received; see negotiate_cuckoo for the round accounting.
        ch.send_u64(ok as u64);
        let k1 = kkrt.key_batch(ch, params.bins);
        let k2 = kkrt.key_batch(ch, params.bins);
        if ok {
            return (table, k1, k2);
        }
    }
    ProtocolError::malformed(format!(
        "{MAX_SEED_ATTEMPTS} cuckoo seeds in a row overloaded a bin"
    ))
}

/// `[a_0, b_0, a_1, b_1, …]`: two per-bin word vectors in the order the
/// flavours' circuits read them.
fn interleave(a: &[u64], b: &[u64]) -> Vec<u64> {
    a.iter().zip(b).flat_map(|(&a, &b)| [a, b]).collect()
}

/// The receiver's front half of both PSI flavours (§5.3, and step 3 of
/// §5.5): agree on the binning and finish the two OPPRF evaluations.
/// Returns the cuckoo table and the evaluator's input bits of the
/// flavour's circuit — per bin the membership word o_b, then the second
/// OPPRF's word p_b.
pub(crate) fn receiver_opprfs(
    ch: &mut Channel,
    elements: &[u64],
    params: &PsiParams,
    kkrt: &mut KkrtReceiver,
) -> (CuckooTable, Vec<bool>) {
    let (cuckoo, e1, e2) = negotiate_cuckoo(ch, elements, params, kkrt);
    let o = opprf_evaluate_finish(ch, e1);
    let p = opprf_evaluate_finish(ch, e2);
    (cuckoo, words_to_bits(&interleave(&o, &p), 64))
}

/// The sender's front half of both PSI flavours: agree on the binning,
/// then program the membership OPPRF (every element of bin b targets one
/// random s_b) and the second OPPRF (element y targets `second(y) ⊕ w_b`
/// for a random w_b). Returns s and w.
pub(crate) fn sender_opprfs<R: Rng + ?Sized>(
    ch: &mut Channel,
    elements: &[u64],
    params: &PsiParams,
    kkrt: &mut KkrtSender,
    rng: &mut R,
    second: impl Fn(u64) -> u64,
) -> (Vec<u64>, Vec<u64>) {
    let (simple, k1, k2) = negotiate_simple(ch, elements, params, kkrt);
    let mut program = |key, target: &dyn Fn(u64) -> u64| {
        let masks: Vec<u64> = (0..params.bins).map(|_| rng.gen()).collect();
        let programs: Vec<Vec<(u64, u64)>> = simple
            .bins
            .iter()
            .zip(&masks)
            .map(|(ys, &m)| ys.iter().map(|&y| (y, target(y) ^ m)).collect())
            .collect();
        opprf_program_with_key(ch, key, &programs, params.degree, rng);
        masks
    };
    let s = program(k1, &|_| 0);
    let w = program(k2, &second);
    (s, w)
}

/// Receiver-side in-flight PSI state between a flavour's `begin` and
/// [`psi_receiver_finish`]: everything this side must *send* has been
/// staged and the cuckoo table is already known, so a caller can derive
/// downstream routings from it and stage their corrections into the same
/// outbound super-frame.
pub struct PsiReceiverPending {
    pub(crate) cuckoo: CuckooTable,
    pub(crate) tail: ReceiverTail,
}

/// What a flavour's receiver still has to receive.
pub(crate) enum ReceiverTail {
    /// §5.3: the matching circuit, whose OT corrections are staged.
    Matching {
        circuit: Circuit,
        spec: SharedOutputSpec,
        my_bits: Vec<bool>,
        gc: EvalPending,
    },
    /// §5.5: the k circuit has run; the ξ₂-OEP's corrections are staged
    /// and its masked values outstanding.
    Routing {
        ind_shares: Vec<u64>,
        zprime_shares: Vec<u64>,
        oep: OepPending,
    },
}

impl PsiReceiverPending {
    /// The receiver's cuckoo table — available before the PSI completes,
    /// so downstream per-bin routings can be staged early.
    pub fn cuckoo(&self) -> &CuckooTable {
        &self.cuckoo
    }
}

/// First half of the circuit-PSI receiver: negotiate the cuckoo seed,
/// finish the two OPPRF evaluations, and stage (send-only) the matching
/// circuit's OT corrections. Returns with the outbound super-frame still
/// open: everything this side must *send* for the PSI has been staged, so
/// the caller can stage further dependency-free messages (e.g. the OSN
/// corrections of a cuckoo-derived OEP) before [`psi_receiver_finish`]
/// blocks on the garbler's labels.
pub fn psi_receiver_begin(
    ch: &mut Channel,
    elements: &[u64],
    sender_size: usize,
    ring: RingCtx,
    kkrt: &mut KkrtReceiver,
    ot: &mut OtReceiver,
    gc_bank: &mut VecDeque<EvalMaterial>,
) -> PsiReceiverPending {
    let params = psi_params(elements.len(), sender_size);
    let (cuckoo, my_bits) = receiver_opprfs(ch, elements, &params, kkrt);
    // The matching circuit: this party evaluates.
    let (circuit, spec) = matching_circuit(params.bins, ring.bits() as usize);
    let material = take_eval(gc_bank, &circuit);
    let gc = evaluate_begin(ch, &circuit, material, &my_bits, ot);
    let tail = ReceiverTail::Matching {
        circuit,
        spec,
        my_bits,
        gc,
    };
    PsiReceiverPending { cuckoo, tail }
}

/// Second half of either flavour's receiver: receive and evaluate the
/// matching circuit (§5.3), or finish the ξ₂-OEP walk (§5.5). Receive-only.
pub fn psi_receiver_finish(
    ch: &mut Channel,
    pending: PsiReceiverPending,
    ring: RingCtx,
    ot: &mut OtReceiver,
) -> PsiOutput {
    let (ind_shares, payload_shares) = match pending.tail {
        ReceiverTail::Matching {
            circuit,
            spec,
            my_bits,
            gc,
        } => split_shares(evaluate_shared_finish(
            ch, &circuit, gc, &spec, &my_bits, ot,
        )),
        ReceiverTail::Routing {
            ind_shares,
            zprime_shares,
            oep,
        } => {
            let payload = shared_oep_perm_holder_finish(ch, oep, &zprime_shares, ring, ot);
            (ind_shares, payload)
        }
    };
    PsiOutput {
        cuckoo: Some(pending.cuckoo),
        ind_shares,
        payload_shares,
    }
}

/// Receiver (cuckoo) side of circuit PSI. `elements` must be distinct;
/// `sender_size` is the public size of the sender's set. `gc_bank` holds
/// pre-received garbled tables in plan order (pass an empty deque for a
/// single-phase run): when its front matches the matching circuit the
/// evaluation consumes it, else the tables travel inline. Implemented as
/// [`psi_receiver_begin`] + [`psi_receiver_finish`].
#[expect(clippy::too_many_arguments)]
pub fn psi_receiver(
    ch: &mut Channel,
    elements: &[u64],
    sender_size: usize,
    ring: RingCtx,
    kkrt: &mut KkrtReceiver,
    ot: &mut OtReceiver,
    _hasher: TweakHasher,
    gc_bank: &mut VecDeque<EvalMaterial>,
) -> PsiOutput {
    let pending = psi_receiver_begin(ch, elements, sender_size, ring, kkrt, ot, gc_bank);
    psi_receiver_finish(ch, pending, ring, ot)
}

/// Sender side of circuit PSI. `items` are distinct `(element, payload)`
/// pairs with payloads already reduced into `ring`; `receiver_size` is the
/// public size of the receiver's set. `gc_bank` mirrors the receiver's:
/// pre-garbled material in plan order, consumed when its front matches.
#[expect(clippy::too_many_arguments)]
pub fn psi_sender<R: Rng + ?Sized>(
    ch: &mut Channel,
    items: &[(u64, u64)],
    receiver_size: usize,
    ring: RingCtx,
    kkrt: &mut KkrtSender,
    ot: &mut OtSender,
    _hasher: TweakHasher,
    rng: &mut R,
    gc_bank: &mut VecDeque<GarbleMaterial>,
) -> PsiOutput {
    let params = psi_params(receiver_size, items.len());
    let payload_of: HashMap<u64, u64> = items.iter().copied().collect();
    assert_eq!(
        payload_of.len(),
        items.len(),
        "sender elements must be distinct"
    );
    let elements: Vec<u64> = items.iter().map(|&(e, _)| e).collect();
    let (s, w) = sender_opprfs(ch, &elements, &params, kkrt, rng, |y| payload_of[&y]);
    // The matching circuit: this party garbles.
    let (circuit, spec) = matching_circuit(params.bins, ring.bits() as usize);
    let my_bits = words_to_bits(&interleave(&s, &w), 64);
    let shares = garble_shared_banked(ch, gc_bank, &circuit, &spec, &my_bits, ot, rng);
    let (ind_shares, payload_shares) = split_shares(shares);
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
    use secyan_transport::{catch_protocol, run_protocol};

    fn run_psi(x: Vec<u64>, y: Vec<(u64, u64)>) -> (PsiOutput, PsiOutput, RingCtx) {
        let hasher = TweakHasher::default();
        let ring = RingCtx::new(32);
        let x_len = x.len();
        let y_len = y.len();
        let (r, s, _) = run_protocol(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(21);
                let mut kkrt = KkrtReceiver::setup(ch, &mut rng);
                let mut ot = OtReceiver::setup(ch, &mut rng, hasher);
                psi_receiver(
                    ch,
                    &x,
                    y_len,
                    ring,
                    &mut kkrt,
                    &mut ot,
                    hasher,
                    &mut VecDeque::new(),
                )
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(22);
                let mut kkrt = KkrtSender::setup(ch, &mut rng);
                let mut ot = OtSender::setup(ch, &mut rng, hasher);
                psi_sender(
                    ch,
                    &y,
                    x_len,
                    ring,
                    &mut kkrt,
                    &mut ot,
                    hasher,
                    &mut rng,
                    &mut VecDeque::new(),
                )
            },
        );
        (r, s, ring)
    }

    /// A sender whose public load bound no seed can meet rejects every
    /// attempt: both sides stop after the same few seeds with a typed
    /// error — the receiver does not keep extending KKRT batches for as
    /// long as the peer says no, nor the sender for as long as seeds come.
    #[test]
    fn seed_negotiation_gives_up_after_a_few_rejections() {
        let x: Vec<u64> = (1..=5).collect();
        let params = |degree| PsiParams {
            bins: bin_count(5),
            degree,
        };
        let (r, s, _) = run_protocol(
            move |ch| {
                let mut kkrt = KkrtReceiver::setup(ch, &mut StdRng::seed_from_u64(23));
                let honest = params(max_bin_size(3, bin_count(5)));
                catch_protocol(|| negotiate_cuckoo(ch, &x, &honest, &mut kkrt).0.seed)
            },
            move |ch| {
                let mut kkrt = KkrtSender::setup(ch, &mut StdRng::seed_from_u64(24));
                catch_protocol(|| {
                    negotiate_simple(ch, &[2, 4, 6], &params(0), &mut kkrt)
                        .0
                        .seed
                })
            },
        );
        for (side, got) in [("receiver", r), ("sender", s)] {
            assert!(
                matches!(got, Err(ProtocolError::Malformed { .. })),
                "{side} ended with {got:?}"
            );
        }
    }

    #[test]
    fn intersection_and_payloads_reconstruct() {
        let x = vec![1u64, 2, 3, 4, 5];
        let y = vec![(2u64, 200u64), (4, 400), (6, 600)];
        let (r, s, ring) = run_psi(x, y);
        let cuckoo = r.cuckoo.as_ref().unwrap();
        let ind = ring.reconstruct_vec(&r.ind_shares, &s.ind_shares);
        let val = ring.reconstruct_vec(&r.payload_shares, &s.payload_shares);
        for (b, slot) in cuckoo.bins.iter().enumerate() {
            match slot {
                Some(e) if [2, 4].contains(e) => {
                    assert_eq!(ind[b], 1, "element {e}");
                    assert_eq!(val[b], e * 100);
                }
                _ => {
                    assert_eq!(ind[b], 0, "bin {b} slot {slot:?}");
                    assert_eq!(val[b], 0);
                }
            }
        }
    }

    #[test]
    fn disjoint_sets_yield_all_zero() {
        let (r, s, ring) = run_psi(vec![1, 2, 3], vec![(7, 70), (8, 80)]);
        let ind = ring.reconstruct_vec(&r.ind_shares, &s.ind_shares);
        let val = ring.reconstruct_vec(&r.payload_shares, &s.payload_shares);
        assert!(ind.iter().all(|&v| v == 0));
        assert!(val.iter().all(|&v| v == 0));
    }

    #[test]
    fn full_overlap() {
        let x = vec![10u64, 11, 12];
        let y: Vec<(u64, u64)> = x.iter().map(|&e| (e, e + 1000)).collect();
        let (r, s, ring) = run_psi(x.clone(), y);
        let cuckoo = r.cuckoo.as_ref().unwrap();
        let ind = ring.reconstruct_vec(&r.ind_shares, &s.ind_shares);
        let val = ring.reconstruct_vec(&r.payload_shares, &s.payload_shares);
        let matched: usize = ind.iter().map(|&v| v as usize).sum();
        assert_eq!(matched, 3);
        for (b, slot) in cuckoo.bins.iter().enumerate() {
            if let Some(e) = slot {
                assert_eq!(val[b], e + 1000);
            }
        }
    }

    #[test]
    fn shares_alone_look_uninformative() {
        // Neither share vector should equal the cleartext indicators.
        let (r, s, ring) = run_psi(vec![1, 2], vec![(1, 10), (2, 20)]);
        let ind = ring.reconstruct_vec(&r.ind_shares, &s.ind_shares);
        assert_ne!(r.ind_shares, ind);
        assert_ne!(s.ind_shares, ind);
    }
}
