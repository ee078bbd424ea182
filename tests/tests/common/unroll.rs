//! Differential check of the (template × count) circuit form against its
//! flat unrolling, shared by `parallel_determinism.rs` and
//! `kernel_dispatch.rs` (each runs it under its own configurations).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secyan_circuit::{evaluate, BitRef, Builder, Circuit, Gate, Rows};
use secyan_crypto::{Block, TweakHasher};
use secyan_gc::scheme::{eval, garble};
use secyan_gc::EvalTables;

/// `circuit` with every segment's rows written out gate by gate through
/// the flat builder: one segment, one row, the same ANDs in the same
/// order over the same inputs.
pub fn unrolled(circuit: &Circuit) -> Circuit {
    let mut b = Builder::new();
    let mut slots: Vec<BitRef> = (0..circuit.alice_inputs).map(|_| b.alice_input()).collect();
    slots.extend((0..circuit.bob_inputs).map(|_| b.bob_input()));
    for seg in circuit.segments() {
        assert_eq!(slots.len(), seg.export_base);
        for row in 0..seg.count {
            let mut wires: Vec<BitRef> = seg.ports.iter().map(|p| slots[p.slot(row)]).collect();
            wires.resize(seg.num_wires, BitRef::Const(false));
            for g in &seg.gates {
                match *g {
                    Gate::Xor { a, b: c, out } => wires[out] = b.xor(wires[a], wires[c]),
                    Gate::And { a, b: c, out } => wires[out] = b.and(wires[a], wires[c]),
                    Gate::Inv { a, out } => wires[out] = b.not(wires[a]),
                }
            }
            slots.extend(seg.exports.iter().map(|&w| wires[w]));
        }
    }
    for slot in circuit.output_slots() {
        b.output(slots[slot]);
    }
    b.finish()
}

/// A scan with everything the operators use: a per-row segment, a carry
/// chain reading it one row ahead, and its final carry as the last output
/// — running sums of `a_r + b_r` (8 bits), each emitted only where Alice's
/// gate bit says so, then the final sum.
pub fn running_sums(n: usize) -> Circuit {
    let mut c = Rows::new();
    let (gate, a) = (c.alice(n - 1, 1), c.alice(n, 8));
    let bs = c.bob(n, 8);
    let vs = c.segment(n, |b| {
        let (x, y) = (b.read(a), b.read(bs));
        let v = b.add_words(&x, &y);
        b.output_word(&v);
    });
    let sums = c.scan(n - 1, vs.slice_rows(0..1), |b, sum| {
        let gate = b.read(gate).0[0];
        let next = b.read(vs.slice_rows(1..n));
        let out = b.and_word_bit(sum, gate);
        b.output_word(&out);
        b.add_words(sum, &next)
    });
    c.output(sums);
    c.finish()
}

/// Everything one fixed-seed garbling and evaluation produce.
pub type Garbled = (
    Vec<(Block, Block)>,
    Vec<Block>,
    Vec<Block>,
    Vec<bool>,
    Vec<Block>,
);

/// Garble and evaluate `circuit` and its unrolling from the same seed and
/// on the same random inputs: tables, input and output zero-labels, decode
/// bits and output labels must be byte-identical, and decode to what the
/// plaintext evaluator computes. Returns them for cross-configuration
/// comparison.
pub fn check_against_unrolling(circuit: &Circuit, seed: u64) -> Garbled {
    let flat = unrolled(circuit);
    assert_eq!(flat.segments().len(), 1);
    assert_eq!(flat.and_count(), circuit.and_count());
    let mut rng = StdRng::seed_from_u64(seed);
    let alice: Vec<bool> = (0..circuit.alice_inputs).map(|_| rng.gen()).collect();
    let bob: Vec<bool> = (0..circuit.bob_inputs).map(|_| rng.gen()).collect();
    let want = evaluate(circuit, &alice, &bob);
    assert_eq!(evaluate(&flat, &alice, &bob), want, "plaintext unrolling");
    let run = |c: &Circuit| -> Garbled {
        let hasher = TweakHasher::default();
        let g = garble(c, hasher, &mut StdRng::seed_from_u64(seed ^ 0x6a7b));
        let labels: Vec<Block> = (alice.iter().chain(&bob).enumerate())
            .map(|(i, &bit)| g.input_label(i, bit))
            .collect();
        let tables = EvalTables { tables: g.tables };
        let outs = eval(c, &tables, &labels, hasher);
        let decode: Vec<bool> = g
            .output_zero_labels
            .expose()
            .iter()
            .map(|l| l.lsb())
            .collect();
        let got: Vec<bool> = outs
            .iter()
            .zip(&decode)
            .map(|(l, &d)| l.lsb() ^ d)
            .collect();
        assert_eq!(got, want, "garbled evaluation against the plaintext oracle");
        let zeros = |s: &secyan_crypto::Secret<Vec<Block>>| s.expose().clone();
        (
            tables.tables,
            zeros(&g.input_zero_labels),
            zeros(&g.output_zero_labels),
            decode,
            outs,
        )
    };
    let rows = run(circuit);
    assert!(
        rows == run(&flat),
        "segments and their unrolling garble differently"
    );
    rows
}
