//! Circuit PSI with payloads (paper §5.3).
//!
//! Roles (independent of transport roles): the **receiver** holds the set X
//! being cuckoo-hashed and evaluates the garbled circuit; the **sender**
//! holds the set Y with one payload per element and garbles. For each bin b
//! of the receiver's cuckoo table, both parties obtain additive shares of
//! the payload of the matching y, or of 0 when there is no match, and
//! nothing else — the intersection itself stays hidden, which is what
//! lets the paper chain PSI into semijoins (§6.2). The paper's circuit
//! also shares `Ind(x_b ∈ Y)`; the reduce-join reads only the payload,
//! whose zero already marks a dangling bin, so the circuits here leave
//! the indicator inside.
//!
//! The sender's OPPRF masks s_b, w_b enter the circuits only XORed into
//! the receiver's outputs o_b, p_b, so they are no garbler wires: they
//! shift the receiver's label corrections ([`secyan_gc::garble_banked`]),
//! and the circuits read o′ = o ⊕ s and p′ = p ⊕ w directly. The
//! matching circuit keeps only the low ℓ bits of p′, so the receiver
//! feeds only those.
//!
//! Sender elements must be distinct: the Yannakakis reduce phase guarantees
//! this by aggregating before every semijoin.

use rand::Rng;
use secyan_circuit::{u64_to_bits, Circuit};
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_gc::{
    evaluate_begin, evaluate_shared_finish, evaluator_ot_count, garble_shared_banked, take_eval,
    with_shared_rows, EvalMaterial, EvalPending, GarbleMaterial, SharedOutputSpec,
};
use secyan_oep::{oep_ot_count, shared_oep_perm_holder_finish, OepPending};
use secyan_ot::{KkrtReceiver, KkrtSender, KkrtSenderKey, OtReceiver, OtSender};
use secyan_transport::{Channel, ProtocolError};
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
    /// Always empty: the circuits share no indicator. Kept only for the
    /// benchmark probe, which reads its length.
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
/// KKRT sender), and the OTs drawn in
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
        let circuit = crate::shared_payload::k_circuit(bins);
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

/// The per-bin matching circuit: shares of the payload, gated by the
/// membership test. Its dimensions depend only on the public bin count
/// and ring width. Its only garbler inputs are the output masks.
pub fn matching_circuit(bins: usize, ell: usize) -> (Circuit, SharedOutputSpec) {
    with_shared_rows(bins, &[ell], |c| {
        // Evaluator (receiver), per bin: o′ then the low ℓ bits of p′.
        let op = c.bob(bins, 64 + ell);
        let payloads = c.segment(bins, |b| {
            let o = b.read(op.slice_bits(0..64));
            let p = b.read(op.slice_bits(64..64 + ell));
            let ind = b.is_zero_word(&o);
            let val = b.and_word_bit(&p, ind);
            b.output_word(&val);
        });
        vec![payloads]
    })
}

/// Receiver side of the binning: send the cuckoo seed, then begin both
/// OPPRF evaluations behind it. All of it is send-only, so the binning
/// costs no ping-pong before the hints arrive. Returns the table and the
/// two pending evaluations (membership first, payload second).
fn negotiate_cuckoo(
    ch: &mut Channel,
    elements: &[u64],
    params: &PsiParams,
    kkrt: &mut KkrtReceiver,
) -> (CuckooTable, OpprfEval, OpprfEval) {
    let table = CuckooTable::build(elements, params.bins, 0);
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
    (table, e1, e2)
}

/// Sender side of the binning: simple-hash under the receiver's seed and
/// key both KKRT batches (membership first, payload second). A seed that
/// loads a bin past the public bound — for an honest peer a chance below
/// 2^-40 ([`max_bin_size`]) — ends the run in a typed error: the hints
/// cannot hide such a bin, and asking for another seed would tell the
/// receiver that this one failed on the sender's set.
fn negotiate_simple(
    ch: &mut Channel,
    elements: &[u64],
    params: &PsiParams,
    kkrt: &mut KkrtSender,
) -> (SimpleTable, KkrtSenderKey, KkrtSenderKey) {
    let seed = ch.recv_u64();
    let table = SimpleTable::build(elements, params.bins, seed);
    if table.max_load() > params.degree {
        ProtocolError::malformed(format!(
            "cuckoo seed {seed} loads a bin past the public bound {}",
            params.degree
        ));
    }
    let k1 = kkrt.key_batch(ch, params.bins);
    let k2 = kkrt.key_batch(ch, params.bins);
    (table, k1, k2)
}

/// Per bin the 64 bits of `a_b`, then the low `width` bits of `b_b`: the
/// evaluator's column of a flavour's circuit from (o, p), and the
/// garbler's shift over it from (s, w).
pub(crate) fn bin_bits(a: &[u64], b: &[u64], width: usize) -> Vec<bool> {
    let per_bin = a.iter().zip(b);
    let bits = per_bin.flat_map(|(&a, &b)| [u64_to_bits(a, 64), u64_to_bits(b, width)]);
    bits.flatten().collect()
}

/// The receiver's front half of both PSI flavours (§5.3, and step 3 of
/// §5.5): agree on the binning and finish the two OPPRF evaluations.
/// Returns the cuckoo table, the membership words o and the second
/// OPPRF's words p, one per bin.
pub(crate) fn receiver_opprfs(
    ch: &mut Channel,
    elements: &[u64],
    params: &PsiParams,
    kkrt: &mut KkrtReceiver,
) -> (CuckooTable, Vec<u64>, Vec<u64>) {
    let (cuckoo, e1, e2) = negotiate_cuckoo(ch, elements, params, kkrt);
    let o = opprf_evaluate_finish(ch, e1);
    let p = opprf_evaluate_finish(ch, e2);
    (cuckoo, o, p)
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
        gc: EvalPending,
    },
    /// §5.5: the k circuit has run; the ξ₂-OEP's corrections are staged
    /// and its masked values outstanding.
    Routing {
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

/// First half of the circuit-PSI receiver: send the cuckoo seed,
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
    let (cuckoo, o, p) = receiver_opprfs(ch, elements, &params, kkrt);
    // The matching circuit: this party evaluates.
    let ell = ring.bits() as usize;
    let (circuit, spec) = matching_circuit(params.bins, ell);
    let my_bits = bin_bits(&o, &p, ell);
    let material = take_eval(gc_bank, &circuit);
    let gc = evaluate_begin(ch, &circuit, material, &my_bits, ot);
    let tail = ReceiverTail::Matching { circuit, spec, gc };
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
    let payload_shares = match pending.tail {
        ReceiverTail::Matching { circuit, spec, gc } => {
            evaluate_shared_finish(ch, &circuit, gc, &spec, ot)
        }
        ReceiverTail::Routing { zprime_shares, oep } => {
            shared_oep_perm_holder_finish(ch, oep, &zprime_shares, ring, ot)
        }
    };
    PsiOutput {
        cuckoo: Some(pending.cuckoo),
        ind_shares: Vec::new(),
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
    // The matching circuit: this party garbles, s and w folded into the
    // receiver's labels.
    let ell = ring.bits() as usize;
    let (circuit, spec) = matching_circuit(params.bins, ell);
    let shift = bin_bits(&s, &w, ell);
    let payload_shares = garble_shared_banked(ch, gc_bank, &circuit, &spec, &[], &shift, ot, rng);
    PsiOutput {
        cuckoo: None,
        ind_shares: Vec::new(),
        payload_shares,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_transport::{
        catch_protocol, channel_pair, recorded, run_protocol, run_protocol_on, Role,
    };

    fn run_psi(x: Vec<u64>, y: Vec<(u64, u64)>) -> (PsiOutput, PsiOutput, RingCtx) {
        let hasher = TweakHasher::default();
        let ring = RingCtx::new(32);
        let x_len = x.len();
        let y_len = y.len();
        let (r, s, _) = run_protocol(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(21);
                let mut ot_s = OtSender::setup(ch, &mut rng, hasher);
                let mut kkrt = KkrtReceiver::setup(ch, &mut ot_s);
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
                let mut ot_r = OtReceiver::setup(ch, &mut rng, hasher);
                let mut kkrt = KkrtSender::setup(ch, &mut ot_r, &mut rng);
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

    /// A sender whose public load bound no seed can meet aborts on the
    /// receiver's first seed, and both sides end typed. After KKRT setup
    /// the receiver has sent one seed word and the two correction batches
    /// staged behind it, the sender nothing: no verdict, no second seed.
    #[test]
    fn overloaded_bin_aborts_on_the_first_seed() {
        let x: Vec<u64> = (1..=5).collect();
        let params = |degree| PsiParams {
            bins: bin_count(5),
            degree,
        };
        let (pair, transcript) = recorded(channel_pair());
        let sent = |role: Role| -> Vec<usize> {
            let lengths = transcript.lengths().into_iter();
            lengths
                .filter(|&(r, _)| r == role)
                .map(|(_, n)| n)
                .collect()
        };
        let ((setup_r, r), (setup_s, s), _) = run_protocol_on(
            pair,
            |ch| {
                let mut ot = OtSender::setup(ch, &mut StdRng::seed_from_u64(23), TweakHasher::Aes);
                let mut kkrt = KkrtReceiver::setup(ch, &mut ot);
                let honest = params(max_bin_size(3, bin_count(5)));
                let setup = sent(Role::Alice).len();
                let got = catch_protocol(|| receiver_opprfs(ch, &x, &honest, &mut kkrt).1);
                (setup, got)
            },
            |ch| {
                let mut rng = StdRng::seed_from_u64(24);
                let mut ot = OtReceiver::setup(ch, &mut rng, TweakHasher::Aes);
                let mut kkrt = KkrtSender::setup(ch, &mut ot, &mut rng);
                let setup = sent(Role::Bob).len();
                let overloaded = params(0);
                let got = catch_protocol(|| {
                    negotiate_simple(ch, &[2, 4, 6], &overloaded, &mut kkrt)
                        .0
                        .seed
                });
                (setup, got)
            },
        );
        assert!(r.is_err(), "receiver ended with {r:?}");
        assert!(
            matches!(s, Err(ProtocolError::Malformed { .. })),
            "sender ended with {s:?}"
        );
        let front = sent(Role::Alice)[setup_r..].to_vec();
        assert_eq!(front.len(), 3, "receiver sent {front:?} after setup");
        assert_eq!(front[0], 8, "the seed word");
        assert_eq!(front[1], front[2], "two equal KKRT column bundles");
        let answers = sent(Role::Bob)[setup_s..].to_vec();
        assert!(answers.is_empty(), "the sender answered {answers:?}");
    }

    #[test]
    fn intersection_and_payloads_reconstruct() {
        let x = vec![1u64, 2, 3, 4, 5];
        let y = vec![(2u64, 200u64), (4, 400), (6, 600)];
        let (r, s, ring) = run_psi(x, y);
        let cuckoo = r.cuckoo.as_ref().unwrap();
        let val = ring.reconstruct_vec(&r.payload_shares, &s.payload_shares);
        for (b, slot) in cuckoo.bins.iter().enumerate() {
            match slot {
                Some(e) if [2, 4].contains(e) => assert_eq!(val[b], e * 100),
                _ => assert_eq!(val[b], 0, "bin {b} slot {slot:?}"),
            }
        }
    }

    #[test]
    fn disjoint_sets_yield_all_zero() {
        let (r, s, ring) = run_psi(vec![1, 2, 3], vec![(7, 70), (8, 80)]);
        let val = ring.reconstruct_vec(&r.payload_shares, &s.payload_shares);
        assert!(val.iter().all(|&v| v == 0));
    }

    #[test]
    fn full_overlap() {
        let x = vec![10u64, 11, 12];
        let y: Vec<(u64, u64)> = x.iter().map(|&e| (e, e + 1000)).collect();
        let (r, s, ring) = run_psi(x.clone(), y);
        let cuckoo = r.cuckoo.as_ref().unwrap();
        let val = ring.reconstruct_vec(&r.payload_shares, &s.payload_shares);
        assert_eq!(val.iter().filter(|&&v| v != 0).count(), 3);
        for (b, slot) in cuckoo.bins.iter().enumerate() {
            if let Some(e) = slot {
                assert_eq!(val[b], e + 1000);
            }
        }
    }

    #[test]
    fn shares_alone_look_uninformative() {
        // Neither share vector should equal the cleartext payloads.
        let (r, s, ring) = run_psi(vec![1, 2], vec![(1, 10), (2, 20)]);
        let val = ring.reconstruct_vec(&r.payload_shares, &s.payload_shares);
        assert_ne!(r.payload_shares, val);
        assert_ne!(s.payload_shares, val);
    }

    /// Both flavours' circuits output the payload side alone: the matching
    /// circuit one ℓ-bit share word per bin, the k circuit one 64-bit
    /// routing index per bin — no indicator word next to either.
    #[test]
    fn psi_circuits_output_one_word_per_bin() {
        for ell in [32, 64] {
            for (shared, width) in [(false, ell), (true, 64)] {
                let cost = psi_cost(100, 300, ell, shared);
                assert_eq!(cost.circuit.output_count(), cost.bins * width);
            }
        }
    }

    /// Total bytes of one PSI between 40 receiver and 60 sender elements
    /// at ring width `ell`, shared payloads or plain, and its bin count.
    fn psi_bytes(shared: bool, ell: u32) -> (usize, u64) {
        use crate::shared_payload::{shared_payload_psi_receiver_begin, shared_payload_psi_sender};
        let (hasher, ring) = (TweakHasher::Aes, RingCtx::new(ell));
        let x: Vec<u64> = (0..40).collect();
        let y: Vec<u64> = (20..80).collect();
        let (_, _, stats) = run_protocol(
            |ch| {
                let mut rng = StdRng::seed_from_u64(41);
                let mut ot_r = OtReceiver::setup(ch, &mut rng, hasher);
                let mut ot_s = OtSender::setup(ch, &mut rng, hasher);
                let mut kkrt = KkrtReceiver::setup(ch, &mut ot_s);
                let (kkrt, ot_r, bank) = (&mut kkrt, &mut ot_r, &mut VecDeque::new());
                let pending = match shared {
                    true => shared_payload_psi_receiver_begin(
                        ch, &x, &[0; 60], ring, kkrt, ot_r, &mut ot_s, &mut rng, bank,
                    ),
                    false => psi_receiver_begin(ch, &x, y.len(), ring, kkrt, ot_r, bank),
                };
                psi_receiver_finish(ch, pending, ring, ot_r);
            },
            |ch| {
                let mut rng = StdRng::seed_from_u64(42);
                let mut ot_s = OtSender::setup(ch, &mut rng, hasher);
                let mut ot_r = OtReceiver::setup(ch, &mut rng, hasher);
                let mut kkrt = KkrtSender::setup(ch, &mut ot_r, &mut rng);
                let (kkrt, ot_s, bank) = (&mut kkrt, &mut ot_s, &mut VecDeque::new());
                match shared {
                    true => shared_payload_psi_sender(
                        ch,
                        &y,
                        x.len(),
                        &[0; 60],
                        ring,
                        kkrt,
                        ot_s,
                        &mut ot_r,
                        &mut rng,
                        bank,
                    ),
                    false => {
                        let items: Vec<(u64, u64)> = y.iter().map(|&e| (e, e)).collect();
                        psi_sender(
                            ch,
                            &items,
                            x.len(),
                            ring,
                            kkrt,
                            ot_s,
                            hasher,
                            &mut rng,
                            bank,
                        )
                    }
                };
            },
        );
        (psi_params(x.len(), y.len()).bins, stats.total_bytes())
    }

    /// What a PSI bin no longer ships: the garbler's 128 labels of s_b and
    /// w_b (16 B each), and for the matching circuit at ℓ < 64 a 16 B
    /// column and a 16 B correction per payload bit it drops. The totals
    /// were recorded with the unfolded, full-width circuits.
    #[test]
    fn psi_ships_no_mask_labels_and_no_dropped_bits() {
        for (shared, ell, unfolded) in [
            (false, 32, 605_588),
            (false, 64, 736_352),
            (true, 32, 720_568),
            (true, 64, 748_208),
        ] {
            let (bins, bytes) = psi_bytes(shared, ell);
            let dropped = if shared { 0 } else { 64 - ell as usize };
            let saved = (16 * 128 + 32 * dropped) * bins;
            assert_eq!(unfolded - bytes, saved as u64, "shared {shared}, ℓ = {ell}");
        }
    }

    /// Both flavours' circuits take exactly the bits they read: the
    /// matching circuit the output masks from the garbler and o′ plus ℓ
    /// bits of p′ from the evaluator, the k circuit the no-match index d
    /// from the garbler and all of o′, p′ from the evaluator.
    #[test]
    fn psi_circuits_read_their_information_size() {
        for ell in [32, 64] {
            let cost = psi_cost(100, 300, ell, false);
            let c = &cost.circuit;
            assert_eq!(c.alice_inputs, cost.bins * ell);
            assert_eq!(c.bob_inputs, cost.bins * (64 + ell));
            let cost = psi_cost(100, 300, ell, true);
            let c = &cost.circuit;
            assert_eq!(c.alice_inputs, cost.bins * 64);
            assert_eq!(c.bob_inputs, cost.bins * 128);
        }
    }

    /// The matching circuit before the fold: s, w as garbler wires XORed
    /// into the evaluator's full 64-bit o, p.
    fn unfolded_matching_circuit(bins: usize, ell: usize) -> (Circuit, SharedOutputSpec) {
        with_shared_rows(bins, &[ell], |c| {
            let (sw, op) = (c.alice(bins, 128), c.bob(bins, 128));
            let payloads = c.segment(bins, |b| {
                let [s, w] = [0, 64].map(|at| b.read(sw.slice_bits(at..at + 64)));
                let [o, p] = [0, 64].map(|at| b.read(op.slice_bits(at..at + 64)));
                let ind = b.eq_words(&o, &s);
                let z64 = b.xor_words(&p, &w);
                let z = b.resize_word(&z64, ell);
                let val = b.and_word_bit(&z, ind);
                b.output_word(&val);
            });
            vec![payloads]
        })
    }

    /// The k circuit before the fold: s, w, d garbler wires per bin.
    fn unfolded_k_circuit(bins: usize) -> Circuit {
        let mut c = secyan_circuit::Rows::new();
        let (swd, op) = (c.alice(bins, 192), c.bob(bins, 128));
        let ks = c.segment(bins, |b| {
            let [s, w, d] = [0, 64, 128].map(|at| b.read(swd.slice_bits(at..at + 64)));
            let [o, p] = [0, 64].map(|at| b.read(op.slice_bits(at..at + 64)));
            let ind = b.eq_words(&o, &s);
            let unmasked = b.xor_words(&p, &w);
            let k = b.mux_words(ind, &unmasked, &d);
            b.output_word(&k);
        });
        c.output(ks);
        c.finish()
    }

    /// One garbled run per circuit of `runs` in one session, over fresh
    /// or banked tables: `(circuit, spec, garbler bits after the masks,
    /// shift, evaluator bits)`. Returns each run's output words: shares
    /// reconstructed when `spec` is given, else the revealed bits as
    /// 64-bit words.
    type GcRun = (
        Circuit,
        Option<SharedOutputSpec>,
        Vec<bool>,
        Vec<bool>,
        Vec<bool>,
    );
    fn run_gcs(runs: &[GcRun], banked: bool) -> Vec<Vec<u64>> {
        use secyan_circuit::bits_to_words;
        use secyan_gc::{
            evaluate_banked, evaluate_offline, evaluate_shared_banked, garble_banked,
            garble_offline,
        };
        let hasher = TweakHasher::Aes;
        let (ga, gb, _) = run_protocol(
            |ch| {
                let mut rng = StdRng::seed_from_u64(43);
                let mut ot = OtSender::setup(ch, &mut rng, hasher);
                let mut bank = VecDeque::new();
                for (c, _, _, _, _) in runs.iter().filter(|_| banked) {
                    bank.push_back(garble_offline(ch, c, &ot, &mut rng));
                }
                let (bank, ot, rng) = (&mut bank, &mut ot, &mut rng);
                let mut garble = |ch: &mut Channel, (c, spec, a, shift, _): &GcRun| match spec {
                    Some(spec) => garble_shared_banked(ch, bank, c, spec, a, shift, ot, rng),
                    None => {
                        garble_banked(ch, bank, c, a, shift, ot, rng);
                        Vec::new()
                    }
                };
                runs.iter().map(|r| garble(ch, r)).collect::<Vec<_>>()
            },
            |ch| {
                let mut rng = StdRng::seed_from_u64(44);
                let mut ot = OtReceiver::setup(ch, &mut rng, hasher);
                let mut bank = VecDeque::new();
                for (c, _, _, _, _) in runs.iter().filter(|_| banked) {
                    bank.push_back(evaluate_offline(ch, c));
                }
                let (bank, ot) = (&mut bank, &mut ot);
                let mut eval = |ch: &mut Channel, (c, spec, _, _, b): &GcRun| match spec {
                    Some(spec) => evaluate_shared_banked(ch, bank, c, spec, b, ot),
                    None => bits_to_words(&evaluate_banked(ch, bank, c, b, ot), 64),
                };
                runs.iter().map(|r| eval(ch, r)).collect::<Vec<_>>()
            },
        );
        let words = runs.iter().zip(ga.iter().zip(gb));
        let words = words.map(|((_, spec, ..), (a, b))| match spec {
            Some(spec) => {
                let ring = RingCtx::new(spec.widths[0] as u32);
                ring.reconstruct_vec(a, &b)
            }
            None => b,
        });
        words.collect()
    }

    /// The folded, narrowed circuits against the unfolded, full-width
    /// ones on the same random OPPRF words, every other bin a match: both
    /// flavours, ℓ ∈ {32, 64}, fresh and banked tables, each equal to the
    /// plaintext evaluator on the unfolded circuit and to the closed form.
    #[test]
    fn folded_circuits_match_the_unfolded_ones() {
        use secyan_circuit::{bits_to_words, evaluate, words_to_bits};
        let bins = 5;
        let mut rng = StdRng::seed_from_u64(45);
        let mut words = || -> Vec<u64> { (0..bins).map(|_| rng.gen()).collect() };
        let (s, w, p, d) = (words(), words(), words(), words());
        let mut o = words();
        for b in (0..bins).step_by(2) {
            o[b] = s[b];
        }
        let xor =
            |a: &[u64], b: &[u64]| -> Vec<u64> { a.iter().zip(b).map(|(a, b)| a ^ b).collect() };
        let (o_prime, p_prime) = (xor(&o, &s), xor(&p, &w));
        let sw = bin_bits(&s, &w, 64);
        let swd = (0..bins)
            .flat_map(|b| [s[b], w[b], d[b]])
            .collect::<Vec<_>>();
        let op = bin_bits(&o, &p, 64);
        for ell in [32, 64] {
            let mask = u64::MAX >> (64 - ell);
            let matched = |b: usize| o[b] == s[b];
            let want_matching: Vec<u64> = (0..bins)
                .map(|b| if matched(b) { p_prime[b] & mask } else { 0 })
                .collect();
            let want_k: Vec<u64> = (0..bins)
                .map(|b| if matched(b) { p_prime[b] } else { d[b] })
                .collect();
            let (old_m, old_spec) = unfolded_matching_circuit(bins, ell);
            let (new_m, new_spec) = matching_circuit(bins, ell);
            let (old_k, new_k) = (
                unfolded_k_circuit(bins),
                crate::shared_payload::k_circuit(bins),
            );
            // The plaintext evaluator on the unfolded circuits, masks zero.
            let mut alice = vec![false; bins * ell];
            alice.extend_from_slice(&sw);
            assert_eq!(
                bits_to_words(&evaluate(&old_m, &alice, &op), ell),
                want_matching
            );
            let alice = words_to_bits(&swd, 64);
            assert_eq!(bits_to_words(&evaluate(&old_k, &alice, &op), 64), want_k);
            let runs: [GcRun; 4] = [
                (old_m, Some(old_spec), sw.clone(), vec![], op.clone()),
                (
                    new_m,
                    Some(new_spec),
                    vec![],
                    bin_bits(&s, &w, ell),
                    bin_bits(&o, &p, ell),
                ),
                (old_k, None, words_to_bits(&swd, 64), vec![], op.clone()),
                (
                    new_k,
                    None,
                    words_to_bits(&d, 64),
                    bin_bits(&s, &w, 64),
                    op.clone(),
                ),
            ];
            // The folded circuits on o′, p′ in the clear, without a shift.
            let folded = |(c, spec, a, _, _): &GcRun, o: &[u64], p: &[u64], width| {
                let mut alice = vec![false; spec.as_ref().map_or(0, |s| s.total_bits())];
                alice.extend_from_slice(a);
                evaluate(c, &alice, &bin_bits(o, p, width))
            };
            let got = folded(&runs[1], &o_prime, &p_prime, ell);
            assert_eq!(bits_to_words(&got, ell), want_matching);
            let got = folded(&runs[3], &o_prime, &p_prime, 64);
            assert_eq!(bits_to_words(&got, 64), want_k);
            for banked in [false, true] {
                let got = run_gcs(&runs, banked);
                let want = [&want_matching, &want_matching, &want_k, &want_k];
                for (k, (got, want)) in got.iter().zip(want).enumerate() {
                    assert_eq!(got, want, "run {k}, ℓ = {ell}, banked {banked}");
                }
            }
        }
    }
}
