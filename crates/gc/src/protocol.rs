//! The two-party garbled-circuit protocol.
//!
//! One invocation = one garbled circuit: the garbler garbles under its
//! IKNP sender's Δ and ships tables + its own input labels; the evaluator
//! obtains its input labels through one label OT per wire, evaluates, and
//! decodes the outputs with the decode bits the garbler ships. A garbler
//! bit that the circuit reads only XORed into an evaluator wire needs no
//! wire of its own: it shifts that wire's label correction by k·Δ, so the
//! evaluator's label encodes c ⊕ k (free-XOR folded into the OT).
//! Constant rounds per invocation, as the paper requires of every building
//! block.

use rand::Rng;
use secyan_circuit::Circuit;
use secyan_crypto::{Block, Secret};
use secyan_ot::{OtReceiver, OtSender, RecvRows};
use secyan_transport::Channel;
use std::collections::VecDeque;

use crate::scheme::{eval_cells, garble_into, Garbling};

/// Garbler-side offline material: Δ and the input/output zero-labels of a
/// pre-garbled circuit whose tables have already been shipped to the
/// evaluator (they were written into the channel and are not kept). The
/// key material inside the [`Garbling`] is `Secret`-wrapped and zeroizes
/// when the material drops, used or not.
pub struct GarbleMaterial {
    garbling: Garbling,
    digest: u64,
}

/// Evaluator-side offline material: the table bytes as received during
/// the offline phase, 32 per AND. Tables are ciphertexts (public given the
/// wire), but the pairing digest keeps consumption aligned with the
/// garbler.
pub struct EvalMaterial {
    tables: Vec<u8>,
    digest: u64,
}

/// Pop the front of a garbler-side material queue iff it was pre-garbled
/// for exactly `circuit` (by [`Circuit::digest`], fixed when the circuit
/// was built). Anything else — empty queue, or a schedule the offline
/// planner did not foresee — returns `None`, routing the caller to the
/// inline fallback. Both parties derive the digest from
/// the same public circuit, so their pop-vs-fallback decisions mirror.
pub fn take_garble(
    queue: &mut VecDeque<GarbleMaterial>,
    circuit: &Circuit,
) -> Option<GarbleMaterial> {
    queue.pop_front_if(|m| m.digest == circuit.digest())
}

/// Evaluator-side counterpart of [`take_garble`].
pub fn take_eval(queue: &mut VecDeque<EvalMaterial>, circuit: &Circuit) -> Option<EvalMaterial> {
    queue.pop_front_if(|m| m.digest == circuit.digest())
}

/// OTs one run of `circuit` draws, garbler sending: one per evaluator
/// input wire (the online half's label transfer), whether the tables
/// were banked or travel inline.
pub fn evaluator_ot_count(circuit: &Circuit) -> usize {
    circuit.bob_inputs
}

/// Offline half of [`garble_circuit`]: garble under `ot`'s
/// [`OtSender::label_delta`] and ship the tables — the only message of the
/// protocol that is independent of both parties' private inputs. The
/// evaluator's labels later ride the same `ot`.
pub fn garble_offline<R: Rng + ?Sized>(
    ch: &mut Channel,
    circuit: &Circuit,
    ot: &OtSender,
    rng: &mut R,
) -> GarbleMaterial {
    // Garble straight into the channel's staging buffer: the tables are
    // one message, 32 bytes per AND in AND-index order, and exist nowhere
    // else on this side.
    let mut garbling = None;
    ch.send_with(32 * circuit.and_count() as usize, |buf| {
        let delta = ot.label_delta();
        garbling = Some(garble_into(
            circuit,
            delta,
            rng,
            buf.as_chunks_mut::<32>().0,
        ));
    });
    GarbleMaterial {
        garbling: garbling.expect("garbled above"),
        digest: circuit.digest(),
    }
}

/// Online half of [`garble_banked`]: input labels, decode bits and OT,
/// against material produced by [`garble_offline`] for the same circuit
/// (freshly, or matched by digest in [`take_garble`]) and `ot`.
fn garble_online(
    ch: &mut Channel,
    circuit: &Circuit,
    material: GarbleMaterial,
    my_inputs: &[bool],
    shift: &[bool],
    ot: &mut OtSender,
) {
    assert_eq!(my_inputs.len(), circuit.alice_inputs, "garbler input arity");
    let one_per_wire = shift.is_empty() || shift.len() == circuit.bob_inputs;
    assert!(one_per_wire, "shift arity");
    let g = material.garbling;
    // Garbler input labels, in a buffer that scrubs itself on every exit
    // path.
    let labels = my_inputs.iter().enumerate();
    let my_labels: Secret<Vec<u128>> =
        Secret::new(labels.map(|(i, &b)| g.input_label(i, b).0).collect());
    ch.send_u128_slice(my_labels.expose());
    // Decode bits for the evaluator.
    ch.send_bool_slice(&g.decode_bits());
    // Evaluator input labels: one correction per wire on the OT's own
    // correlation, whose Δ the circuit was garbled under, each wire's
    // zero-label shifted by its k·Δ.
    let wires = circuit.alice_inputs..circuit.alice_inputs + circuit.bob_inputs;
    let shift = shift.iter().copied().chain(std::iter::repeat(false));
    let shifted: Secret<Vec<Block>> =
        Secret::new(wires.zip(shift).map(|(j, k)| g.input_label(j, k)).collect());
    ot.send_labels(ch, shifted.expose());
}

/// Offline half of [`evaluate_circuit`]: receive the tables.
pub fn evaluate_offline(ch: &mut Channel, circuit: &Circuit) -> EvalMaterial {
    let mut tables = vec![0u8; 32 * circuit.and_count() as usize];
    ch.recv_into(&mut tables);
    EvalMaterial {
        tables,
        digest: circuit.digest(),
    }
}

/// Evaluator-side in-flight state between [`evaluate_begin`] and
/// [`evaluate_finish`]: the OT rows drawn for the evaluator's choice bits
/// and the tables (pre-received, or `None` when they travel inline and
/// will be received at finish time).
pub struct EvalPending {
    material: Option<EvalMaterial>,
    rows: RecvRows,
}

/// First half of the evaluator protocol: stage the OT request for
/// `my_inputs` (banked: correction bits; fresh: the column bundle) and
/// return without blocking. Everything the evaluator must *send* for this
/// circuit is staged here, so a caller can stage further
/// dependency-free messages (e.g. the OSN corrections of a follow-up OEP
/// whose routing is already known) into the same outbound super-frame
/// before [`evaluate_finish`] blocks on the garbler. The garbler reads the
/// request inside `ot.send_labels` only after staging tables, labels
/// and decode bits, so per-direction FIFO order is unchanged.
pub fn evaluate_begin(
    ch: &mut Channel,
    circuit: &Circuit,
    material: Option<EvalMaterial>,
    my_inputs: &[bool],
    ot: &mut OtReceiver,
) -> EvalPending {
    assert_eq!(my_inputs.len(), circuit.bob_inputs, "evaluator input arity");
    if let Some(m) = &material {
        assert_eq!(
            m.digest,
            circuit.digest(),
            "pre-received tables are for a different circuit"
        );
    }
    let rows = ot.begin_recv(ch, my_inputs);
    EvalPending { material, rows }
}

/// Second half of the evaluator protocol: receive tables (when they travel
/// inline), garbler labels, decode bits and the OT correction messages,
/// then evaluate and decode. Receive-only.
pub fn evaluate_finish(
    ch: &mut Channel,
    circuit: &Circuit,
    pending: EvalPending,
    ot: &mut OtReceiver,
) -> Vec<bool> {
    let EvalPending { material, rows } = pending;
    let tables = match material {
        Some(m) => m.tables,
        None => evaluate_offline(ch, circuit).tables,
    };
    // Active labels correlate with cleartext wires: one buffer sized up
    // front (so it never reallocates) and the evaluation's outputs, both
    // scrubbed on every exit path.
    let mut labels = Secret::new(Vec::with_capacity(
        circuit.alice_inputs + circuit.bob_inputs,
    ));
    let garbler_labels = Secret::new(ch.recv_u128_vec(circuit.alice_inputs));
    labels
        .expose_mut()
        .extend(garbler_labels.expose().iter().map(|&l| Block(l)));
    let decode = ch.recv_bool_vec(circuit.output_count());
    let my_labels = ot.finish_recv_labels(ch, rows);
    labels.expose_mut().extend_from_slice(my_labels.expose());
    let out_labels = Secret::new(eval_cells(circuit, tables.as_chunks().0, labels.expose()));
    let colors = out_labels.expose().iter().map(|l| l.lsb());
    colors.zip(&decode).map(|(c, &d)| c ^ d).collect()
}

/// Garbler side through a bank of pre-garbled material in plan order:
/// when the front of `bank` was garbled for exactly `circuit` its tables
/// already crossed the wire and only the online half runs; anything else
/// (empty bank, unforeseen circuit) garbles and ships inline first. Both
/// parties derive the digest from the same public circuit, so the
/// banked-vs-inline decision mirrors on the evaluator's side.
///
/// `shift` is empty, or one garbler bit k_j per evaluator input wire: the
/// evaluator's label on wire j then encodes c_j ⊕ k_j, as if the circuit
/// XORed a garbler wire into it — without that wire's label.
pub fn garble_banked<R: Rng + ?Sized>(
    ch: &mut Channel,
    bank: &mut VecDeque<GarbleMaterial>,
    circuit: &Circuit,
    my_inputs: &[bool],
    shift: &[bool],
    ot: &mut OtSender,
    rng: &mut R,
) {
    let material =
        take_garble(bank, circuit).unwrap_or_else(|| garble_offline(ch, circuit, ot, rng));
    garble_online(ch, circuit, material, my_inputs, shift, ot)
}

/// Evaluator-side counterpart of [`garble_banked`]. Either way the OT
/// correction bits are staged *before* blocking on the garbler
/// ([`evaluate_begin`] + [`evaluate_finish`]), so one GC evaluation costs
/// a single ping-pong on the wire.
pub fn evaluate_banked(
    ch: &mut Channel,
    bank: &mut VecDeque<EvalMaterial>,
    circuit: &Circuit,
    my_inputs: &[bool],
    ot: &mut OtReceiver,
) -> Vec<bool> {
    let pending = evaluate_begin(ch, circuit, take_eval(bank, circuit), my_inputs, ot);
    evaluate_finish(ch, circuit, pending, ot)
}

/// Garbler side. `my_inputs` are the cleartext values of the circuit's
/// Alice (garbler) input wires; only the evaluator learns the outputs.
/// [`garble_banked`] with nothing banked and nothing shifted.
pub fn garble_circuit<R: Rng + ?Sized>(
    ch: &mut Channel,
    circuit: &Circuit,
    my_inputs: &[bool],
    ot: &mut OtSender,
    rng: &mut R,
) {
    let bank = &mut VecDeque::new();
    garble_banked(ch, bank, circuit, my_inputs, &[], ot, rng)
}

/// Evaluator side. `my_inputs` are the cleartext values of the circuit's
/// Bob (evaluator) input wires. Returns the decoded outputs.
/// [`evaluate_banked`] with nothing banked.
pub fn evaluate_circuit(
    ch: &mut Channel,
    circuit: &Circuit,
    my_inputs: &[bool],
    ot: &mut OtReceiver,
) -> Vec<bool> {
    let bank = &mut VecDeque::new();
    evaluate_banked(ch, bank, circuit, my_inputs, ot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_circuit::{bits_to_u64, u64_to_bits, Builder};
    use secyan_crypto::TweakHasher;
    use secyan_transport::run_protocol;

    fn adder_circuit(bits: usize) -> Circuit {
        let mut b = Builder::new();
        let x = b.alice_word(bits);
        let y = b.bob_word(bits);
        let s = b.add_words(&x, &y);
        b.output_word(&s);
        b.finish()
    }

    /// One circuit garbled by Alice and evaluated by Bob; with
    /// `reveal_both` Bob sends the decoded outputs back, and Alice's
    /// result is what she reads.
    fn run_gc(
        circuit: &Circuit,
        a_bits: Vec<bool>,
        b_bits: Vec<bool>,
        reveal_both: bool,
    ) -> (Option<Vec<bool>>, Vec<bool>) {
        let ca = circuit.clone();
        let cb = circuit.clone();
        let (ra, rb, _) = run_protocol(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(100);
                let mut ot = OtSender::setup(ch, &mut rng, TweakHasher::Aes);
                garble_circuit(ch, &ca, &a_bits, &mut ot, &mut rng);
                reveal_both.then(|| ch.recv_bool_vec(ca.output_count()))
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(101);
                let mut ot = OtReceiver::setup(ch, &mut rng, TweakHasher::Aes);
                let out = evaluate_circuit(ch, &cb, &b_bits, &mut ot);
                if reveal_both {
                    ch.send_bool_slice(&out);
                }
                out
            },
        );
        (ra, rb)
    }

    #[test]
    fn reveal_to_evaluator() {
        let c = adder_circuit(32);
        let (ra, rb) = run_gc(
            &c,
            u64_to_bits(1_000_000, 32),
            u64_to_bits(2_345, 32),
            false,
        );
        assert!(ra.is_none());
        assert_eq!(bits_to_u64(&rb), 1_002_345);
    }

    #[test]
    fn reveal_both() {
        let c = adder_circuit(8);
        let (ra, rb) = run_gc(&c, u64_to_bits(200, 8), u64_to_bits(100, 8), true);
        // 300 mod 256 = 44.
        assert_eq!(bits_to_u64(&ra.unwrap()), 44);
        assert_eq!(bits_to_u64(&rb), 44);
    }

    #[test]
    fn multiple_circuits_one_session() {
        // The OT state amortizes across invocations, as the Yannakakis
        // driver requires.
        let c1 = adder_circuit(16);
        let c2 = adder_circuit(16);
        let (c1a, c2a) = (c1.clone(), c2.clone());
        let (_, rb, _) = run_protocol(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(5);
                let mut ot = OtSender::setup(ch, &mut rng, TweakHasher::Aes);
                for (c, x) in [(&c1a, 1u64), (&c2a, 2)] {
                    garble_circuit(ch, c, &u64_to_bits(x, 16), &mut ot, &mut rng);
                }
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(6);
                let mut ot = OtReceiver::setup(ch, &mut rng, TweakHasher::Aes);
                let mut outs = Vec::new();
                for (c, y) in [(&c1, 10u64), (&c2, 20)] {
                    let o = evaluate_circuit(ch, c, &u64_to_bits(y, 16), &mut ot);
                    outs.push(bits_to_u64(&o));
                }
                outs
            },
        );
        assert_eq!(rb, vec![11, 22]);
    }

    #[test]
    fn no_evaluator_inputs() {
        // A circuit whose inputs all belong to the garbler still runs.
        let mut b = Builder::new();
        let x = b.alice_word(8);
        let one = b.const_word(1, 8);
        let s = b.add_words(&x, &one);
        b.output_word(&s);
        let c = b.finish();
        let (_, rb) = run_gc(&c, u64_to_bits(41, 8), vec![], false);
        assert_eq!(bits_to_u64(&rb), 42);
    }
}
