//! The two-party garbled-circuit protocol.
//!
//! One invocation = one garbled circuit: the garbler garbles under its
//! IKNP sender's Δ and ships tables + its own input labels; the evaluator
//! obtains its input labels through one label OT per wire, evaluates, and
//! decodes the outputs with the decode bits the garbler ships.
//!
//! A circuit garbled inline waits for the evaluator's OT request and takes
//! the IKNP rows q_j as the evaluator wires' zero-labels: the evaluator's
//! rows t_j = q_j ⊕ c_j·Δ are its labels, and nothing more crosses for
//! them. Only tables banked before the rows existed need a 16-byte label
//! correction per evaluator wire. A garbler bit that the circuit reads
//! only XORed into an evaluator wire needs no wire of its own: it shifts
//! that wire's zero-label by k·Δ, so the evaluator's label encodes c ⊕ k
//! (free-XOR folded into the OT). Constant rounds per invocation, as the
//! paper requires of every building block.

use rand::Rng;
use secyan_circuit::Circuit;
use secyan_crypto::{Block, CtChoice, Secret};
use secyan_ot::{OtReceiver, OtSender, RecvRows};
use secyan_transport::Channel;
use std::collections::VecDeque;

use crate::scheme::{eval_cells, garble_into, random_labels, Garbling};

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

/// Pop the front of a material queue iff it was pre-garbled for exactly
/// `circuit` (by [`Circuit::digest`], fixed when the circuit was built).
/// Anything else — empty queue, or a schedule the offline planner did not
/// foresee — returns `None`, routing the caller to the inline fallback.
/// Both parties derive the digest from the same public circuit, so their
/// pop-vs-fallback decisions mirror.
fn take<M>(queue: &mut VecDeque<M>, circuit: &Circuit, digest: impl Fn(&M) -> u64) -> Option<M> {
    queue.pop_front_if(|m| digest(m) == circuit.digest())
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
/// evaluator's labels later ride the same `ot`, one correction per wire.
pub fn garble_offline<R: Rng + ?Sized>(
    ch: &mut Channel,
    circuit: &Circuit,
    ot: &OtSender,
    rng: &mut R,
) -> GarbleMaterial {
    let inputs = random_labels(circuit.alice_inputs + circuit.bob_inputs, rng);
    GarbleMaterial {
        garbling: send_tables(ch, circuit, ot, Secret::new(inputs.collect())),
        digest: circuit.digest(),
    }
}

/// Garble under `ot`'s Δ with the input zero-labels `inputs` straight into
/// the channel's staging buffer: the tables are one message, 32 bytes per
/// AND in AND-index order, and exist nowhere else on this side.
fn send_tables(
    ch: &mut Channel,
    circuit: &Circuit,
    ot: &OtSender,
    inputs: Secret<Vec<Block>>,
) -> Garbling {
    let mut garbling = None;
    ch.send_with(32 * circuit.and_count() as usize, |buf| {
        let cells = buf.as_chunks_mut::<32>().0;
        garbling = Some(garble_into(circuit, ot.label_delta(), inputs, cells));
    });
    garbling.expect("garbled above")
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

/// First half of the evaluator protocol: take the front of `bank` when it
/// was received for exactly `circuit` (the garbler's banked-vs-inline
/// test, mirrored), stage the OT request for `my_inputs` (banked:
/// correction bits; fresh: the column bundle) and return without
/// blocking. Everything the evaluator must *send* for this circuit is
/// staged here, so a caller can stage further dependency-free messages
/// (e.g. the OSN corrections of a follow-up OEP whose routing is already
/// known) into the same outbound super-frame before [`evaluate_finish`]
/// blocks on the garbler. The garbler reads the request before garbling
/// inline, or after staging its labels and decode bits against banked
/// tables; per-direction FIFO order holds either way.
pub fn evaluate_begin(
    ch: &mut Channel,
    bank: &mut VecDeque<EvalMaterial>,
    circuit: &Circuit,
    my_inputs: &[bool],
    ot: &mut OtReceiver,
) -> EvalPending {
    assert_eq!(my_inputs.len(), circuit.bob_inputs, "evaluator input arity");
    let material = take(bank, circuit, |m| m.digest);
    let rows = ot.begin_recv(ch, my_inputs);
    EvalPending { material, rows }
}

/// Second half of the evaluator protocol: receive tables (when they travel
/// inline), garbler labels, decode bits and, for banked tables, the label
/// corrections, then evaluate and decode. Receive-only. Inline tables
/// were garbled on this side's OT rows, which are then its labels.
pub fn evaluate_finish(
    ch: &mut Channel,
    circuit: &Circuit,
    pending: EvalPending,
    ot: &mut OtReceiver,
) -> Vec<bool> {
    let EvalPending { material, rows } = pending;
    // The garbler's `banked` test, mirrored: both follow the digest match.
    let banked = material.is_some();
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
    let my_labels = match banked {
        true => ot.finish_recv_labels(ch, rows),
        false => ot.finish_recv_rows(rows),
    };
    labels.expose_mut().extend_from_slice(my_labels.expose());
    let out_labels = Secret::new(eval_cells(circuit, tables.as_chunks().0, labels.expose()));
    let colors = out_labels.expose().iter().map(|l| l.lsb());
    colors.zip(&decode).map(|(c, &d)| c ^ d).collect()
}

/// Garbler side through a bank of pre-garbled material in plan order:
/// when the front of `bank` was garbled for exactly `circuit` its tables
/// already crossed the wire, and the evaluator's labels ride one
/// correction per wire on the OT's own correlation. Anything else (empty
/// bank, unforeseen circuit) draws the evaluator's rows first and garbles
/// inline on them as zero-labels, so no correction follows. Both parties
/// derive the digest from the same public circuit, so the banked-vs-inline
/// decision mirrors on the evaluator's side.
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
    assert_eq!(my_inputs.len(), circuit.alice_inputs, "garbler input arity");
    let one_per_wire = shift.is_empty() || shift.len() == circuit.bob_inputs;
    assert!(one_per_wire, "shift arity");
    let shift = shift.iter().copied().chain(std::iter::repeat(false));
    let material = take(bank, circuit, |m| m.digest);
    let banked = material.is_some();
    let g = match material {
        Some(m) => m.garbling,
        None => {
            // L⁰_j = q_j ⊕ k_j·Δ, so the evaluator's t_j = q_j ⊕ c_j·Δ
            // encodes c_j ⊕ k_j.
            let rows = ot.label_rows(ch, circuit.bob_inputs);
            let delta = ot.label_delta().expose_block();
            let shifted = rows.expose().iter().zip(shift.clone());
            let evaluator = shifted.map(|(&q, k)| q ^ delta.ct_masked(CtChoice::from_bool(k)));
            let inputs = random_labels(circuit.alice_inputs, rng).chain(evaluator);
            send_tables(ch, circuit, ot, Secret::new(inputs.collect()))
        }
    };
    // Garbler input labels, in a buffer that scrubs itself on every exit
    // path, then the decode bits.
    let labels = my_inputs.iter().enumerate();
    let my_labels: Secret<Vec<u128>> =
        Secret::new(labels.map(|(i, &b)| g.input_label(i, b).0).collect());
    ch.send_u128_slice(my_labels.expose());
    ch.send_bool_slice(&g.decode_bits());
    if banked {
        let wires = circuit.alice_inputs..circuit.alice_inputs + circuit.bob_inputs;
        let shifted: Secret<Vec<Block>> =
            Secret::new(wires.zip(shift).map(|(j, k)| g.input_label(j, k)).collect());
        ot.send_labels(ch, shifted.expose());
    }
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
    let pending = evaluate_begin(ch, bank, circuit, my_inputs, ot);
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
    use rand::{Rng, SeedableRng};
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

    /// Inline tables garble on the evaluator's OT rows, banked ones take a
    /// correction per evaluator wire; fresh or banked rows, shifted or not.
    /// The evaluator decodes f(a, b ⊕ k) either way, and during the run
    /// the garbler sends the inline tables, its labels and the packed
    /// decode bits, plus 16 bytes per evaluator wire only behind banked
    /// tables.
    #[test]
    fn inline_labels_ride_the_rows() {
        use secyan_circuit::evaluate;
        use secyan_transport::Phase;
        let c = adder_circuit(16);
        let (ands, outputs) = (c.and_count(), c.output_count() as u64);
        for tables_banked in [false, true] {
            for rows_banked in [false, true] {
                for shifted in [false, true] {
                    let case = format!(
                        "tables banked {tables_banked}, rows banked {rows_banked}, \
                         shifted {shifted}"
                    );
                    let mut rng = StdRng::seed_from_u64(7);
                    let a_bits: Vec<bool> = (0..c.alice_inputs).map(|_| rng.gen()).collect();
                    let b_bits: Vec<bool> = (0..c.bob_inputs).map(|_| rng.gen()).collect();
                    let shift: Vec<bool> = match shifted {
                        true => (0..c.bob_inputs).map(|_| rng.gen()).collect(),
                        false => Vec::new(),
                    };
                    let (ca, cb) = (c.clone(), c.clone());
                    let (a2, b2, s2) = (a_bits.clone(), b_bits.clone(), shift.clone());
                    let m = c.bob_inputs;
                    let (sent, got, _) = run_protocol(
                        move |ch| {
                            let mut rng = StdRng::seed_from_u64(8);
                            ch.set_phase(Phase::Offline);
                            let mut ot = OtSender::setup(ch, &mut rng, TweakHasher::Aes);
                            ot.bank(ch, if rows_banked { m } else { 0 });
                            let mut bank = VecDeque::new();
                            if tables_banked {
                                bank.push_back(garble_offline(ch, &ca, &ot, &mut rng));
                            }
                            ch.set_phase(Phase::Online);
                            let before = ch.stats().bytes_alice_to_bob;
                            garble_banked(ch, &mut bank, &ca, &a2, &s2, &mut ot, &mut rng);
                            assert_eq!(ot.bank_remaining(), 0);
                            ch.stats().bytes_alice_to_bob - before
                        },
                        move |ch| {
                            let mut rng = StdRng::seed_from_u64(9);
                            ch.set_phase(Phase::Offline);
                            let mut ot = OtReceiver::setup(ch, &mut rng, TweakHasher::Aes);
                            ot.bank(ch, if rows_banked { m } else { 0 }, &mut rng);
                            let mut bank = VecDeque::new();
                            if tables_banked {
                                bank.push_back(evaluate_offline(ch, &cb));
                            }
                            ch.set_phase(Phase::Online);
                            evaluate_banked(ch, &mut bank, &cb, &b2, &mut ot)
                        },
                    );
                    let shift = shift.iter().copied().chain(std::iter::repeat(false));
                    let moved: Vec<bool> = b_bits.iter().zip(shift).map(|(&b, k)| b ^ k).collect();
                    assert_eq!(got, evaluate(&c, &a_bits, &moved), "{case}");
                    let labels = 16 * c.alice_inputs as u64 + outputs.div_ceil(8);
                    let want = match tables_banked {
                        true => labels + 16 * m as u64,
                        false => 32 * ands + labels,
                    };
                    assert_eq!(sent, want, "{case}");
                }
            }
        }
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
