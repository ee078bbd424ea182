//! Circuit builder with symbolic constant/inversion folding.

use crate::ir::{Circuit, Col, Gate, Port};

/// A symbolic bit: either a known constant or a wire with an optional
/// pending inversion. Inversions are folded into consuming XORs for free
/// and only materialized as `Inv` gates when a consumer needs the plain
/// wire (AND inputs, outputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitRef {
    /// A compile-time-known bit; never becomes a wire unless output.
    Const(bool),
    /// Wire `id`, logically inverted if `inv`.
    Wire { id: usize, inv: bool },
}

/// A little-endian word of symbolic bits (bit 0 = least significant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Word(pub Vec<BitRef>);

impl Word {
    /// Bit width.
    pub fn bits(&self) -> usize {
        self.0.len()
    }
}

/// Incremental builder of one gate template: a whole flat circuit
/// ([`Builder::new`] … [`Builder::finish`]), or the row of a repeated
/// segment ([`crate::Rows::segment`], whose inputs are [`Builder::read`]).
///
/// Inputs must all be declared before any gates are added (the garbling
/// protocol assigns input labels positionally); the builder enforces this.
#[derive(Debug, Default)]
pub struct Builder {
    alice_inputs: usize,
    bob_inputs: usize,
    /// One per input wire: wires `0..ports.len()` are the inputs.
    pub(crate) ports: Vec<Port>,
    pub(crate) next_wire: usize,
    pub(crate) gates: Vec<Gate>,
    pub(crate) outputs: Vec<usize>,
    inputs_frozen: bool,
}

impl Builder {
    /// Fresh builder.
    pub fn new() -> Builder {
        Builder::default()
    }

    /// Bind a column as template inputs, one wire per bit: row r of the
    /// segment reads row r of `col`. (A flat circuit's inputs are the
    /// one-row columns at their own wire index.)
    pub fn read(&mut self, col: Col) -> Word {
        assert!(
            !self.inputs_frozen,
            "all inputs must be declared before the first gate"
        );
        let bit = |j| {
            let first = col.first + j;
            self.ports.push(Port {
                first,
                next: first + col.stride,
                stride: col.stride,
            });
            self.next_wire += 1;
            BitRef::Wire {
                id: self.next_wire - 1,
                inv: false,
            }
        };
        Word((0..col.width).map(bit).collect())
    }

    /// Declare one input bit for Alice (the garbler side).
    pub fn alice_input(&mut self) -> BitRef {
        self.alice_word(1).0[0]
    }

    /// Declare one input bit for Bob (the evaluator side).
    pub fn bob_input(&mut self) -> BitRef {
        self.bob_word(1).0[0]
    }

    /// The next `bits` wires as inputs of a flat circuit.
    fn flat_word(&mut self, bits: usize) -> Word {
        self.read(Col {
            first: self.next_wire,
            stride: 0,
            width: bits,
            rows: 1,
        })
    }

    /// Declare an ℓ-bit Alice input word.
    pub fn alice_word(&mut self, bits: usize) -> Word {
        let word = self.flat_word(bits);
        assert_eq!(
            self.bob_inputs, 0,
            "declare all Alice inputs before Bob inputs"
        );
        self.alice_inputs += bits;
        word
    }

    /// Declare an ℓ-bit Bob input word.
    pub fn bob_word(&mut self, bits: usize) -> Word {
        self.bob_inputs += bits;
        self.flat_word(bits)
    }

    /// A constant bit (no wire is created).
    pub fn constant(&self, b: bool) -> BitRef {
        BitRef::Const(b)
    }

    /// A constant ℓ-bit word.
    pub fn const_word(&self, value: u64, bits: usize) -> Word {
        Word(
            (0..bits)
                .map(|i| BitRef::Const(value >> i & 1 == 1))
                .collect(),
        )
    }

    fn fresh_wire(&mut self) -> usize {
        self.inputs_frozen = true;
        let id = self.next_wire;
        self.next_wire += 1;
        id
    }

    /// Materialize a `BitRef` into a plain wire (resolving inversions;
    /// panics on constants, which callers must fold first).
    fn plain(&mut self, b: BitRef) -> usize {
        match b {
            BitRef::Const(_) => unreachable!("constants are folded before materialization"),
            BitRef::Wire { id, inv: false } => id,
            BitRef::Wire { id, inv: true } => {
                let out = self.fresh_wire();
                self.gates.push(Gate::Inv { a: id, out });
                out
            }
        }
    }

    /// `a XOR b`.
    pub fn xor(&mut self, a: BitRef, b: BitRef) -> BitRef {
        match (a, b) {
            (BitRef::Const(x), BitRef::Const(y)) => BitRef::Const(x ^ y),
            (BitRef::Const(c), BitRef::Wire { id, inv })
            | (BitRef::Wire { id, inv }, BitRef::Const(c)) => BitRef::Wire { id, inv: inv ^ c },
            (BitRef::Wire { id: ia, inv: va }, BitRef::Wire { id: ib, inv: vb }) => {
                if ia == ib {
                    return BitRef::Const(va ^ vb);
                }
                let out = self.fresh_wire();
                self.gates.push(Gate::Xor { a: ia, b: ib, out });
                BitRef::Wire {
                    id: out,
                    inv: va ^ vb,
                }
            }
        }
    }

    /// `NOT a` (free: just flips the symbolic inversion flag).
    pub fn not(&mut self, a: BitRef) -> BitRef {
        match a {
            BitRef::Const(b) => BitRef::Const(!b),
            BitRef::Wire { id, inv } => BitRef::Wire { id, inv: !inv },
        }
    }

    /// `a AND b`.
    pub fn and(&mut self, a: BitRef, b: BitRef) -> BitRef {
        match (a, b) {
            (BitRef::Const(false), _) | (_, BitRef::Const(false)) => BitRef::Const(false),
            (BitRef::Const(true), x) | (x, BitRef::Const(true)) => x,
            (wa @ BitRef::Wire { id: ia, inv: va }, wb @ BitRef::Wire { id: ib, inv: vb }) => {
                if ia == ib {
                    return if va == vb { wa } else { BitRef::Const(false) };
                }
                let pa = self.plain(wa);
                let pb = self.plain(wb);
                let out = self.fresh_wire();
                self.gates.push(Gate::And { a: pa, b: pb, out });
                BitRef::Wire {
                    id: out,
                    inv: false,
                }
            }
        }
    }

    /// `a OR b` (one AND gate: a ⊕ b ⊕ ab).
    pub fn or(&mut self, a: BitRef, b: BitRef) -> BitRef {
        let x = self.xor(a, b);
        let y = self.and(a, b);
        self.xor(x, y)
    }

    /// `sel ? t : f` (one AND gate: f ⊕ sel·(t ⊕ f)).
    pub fn mux(&mut self, sel: BitRef, t: BitRef, f: BitRef) -> BitRef {
        let d = self.xor(t, f);
        let m = self.and(sel, d);
        self.xor(f, m)
    }

    /// Mark a bit as a circuit output (materializing it if symbolic).
    ///
    /// Constant outputs are materialized via `w ⊕ w` on an input wire, so
    /// they require at least one declared input.
    pub fn output(&mut self, b: BitRef) {
        let wire = match b {
            BitRef::Const(c) => {
                assert!(
                    self.next_wire > 0,
                    "cannot output a constant from a circuit with no inputs"
                );
                let zero = self.fresh_wire();
                self.gates.push(Gate::Xor {
                    a: 0,
                    b: 0,
                    out: zero,
                });
                if c {
                    let one = self.fresh_wire();
                    self.gates.push(Gate::Inv { a: zero, out: one });
                    one
                } else {
                    zero
                }
            }
            w @ BitRef::Wire { .. } => self.plain(w),
        };
        self.outputs.push(wire);
    }

    /// Output a whole word, LSB first.
    pub fn output_word(&mut self, w: &Word) {
        for &b in &w.0 {
            self.output(b);
        }
    }

    /// Finalize into an immutable flat [`Circuit`]: one segment, one row,
    /// every output a circuit output.
    pub fn finish(self) -> Circuit {
        let mut c = Circuit::default();
        (c.alice_inputs, c.bob_inputs) = (self.alice_inputs, self.bob_inputs);
        let width = self.outputs.len();
        c.outputs.push(Col {
            first: c.num_slots(),
            stride: width,
            width,
            rows: 1,
        });
        c.push(1, self);
        c.seal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;

    fn eval1(c: &Circuit, a: &[bool], b: &[bool]) -> bool {
        evaluate(c, a, b)[0]
    }

    #[test]
    fn xor_truth_table() {
        for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut bld = Builder::new();
            let a = bld.alice_input();
            let b = bld.bob_input();
            let o = bld.xor(a, b);
            bld.output(o);
            let c = bld.finish();
            assert_eq!(eval1(&c, &[x], &[y]), x ^ y);
        }
    }

    #[test]
    fn and_or_mux_truth_tables() {
        for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut bld = Builder::new();
            let a = bld.alice_input();
            let b = bld.bob_input();
            let and = bld.and(a, b);
            let or = bld.or(a, b);
            let t = bld.constant(true);
            let f = bld.constant(false);
            let mux = bld.mux(a, t, f); // mux(a, 1, 0) == a
            bld.output(and);
            bld.output(or);
            bld.output(mux);
            let c = bld.finish();
            let out = evaluate(&c, &[x], &[y]);
            assert_eq!(out, vec![x & y, x | y, x]);
        }
    }

    #[test]
    fn inversion_is_folded_through_xor() {
        let mut bld = Builder::new();
        let a = bld.alice_input();
        let b = bld.bob_input();
        let na = bld.not(a);
        let o = bld.xor(na, b); // == !(a ^ b)
        bld.output(o);
        let c = bld.finish();
        // One XOR gate, one materialized INV for the output; zero ANDs.
        assert_eq!(c.and_count(), 0);
        assert!(eval1(&c, &[false], &[false]));
        assert!(!eval1(&c, &[true], &[false]));
    }

    #[test]
    fn constant_folding_eliminates_gates() {
        let mut bld = Builder::new();
        let a = bld.alice_input();
        let zero = bld.constant(false);
        let one = bld.constant(true);
        let x = bld.and(a, zero); // const false
        let y = bld.and(a, one); // a
        let z = bld.xor(x, y); // a
        bld.output(z);
        let c = bld.finish();
        assert_eq!(c.segments()[0].gates.len(), 0);
        assert!(eval1(&c, &[true], &[]));
        assert!(!eval1(&c, &[false], &[]));
    }

    #[test]
    fn same_wire_and_simplifies() {
        let mut bld = Builder::new();
        let a = bld.alice_input();
        let na = bld.not(a);
        let o = bld.and(a, na); // always false
        bld.output(o);
        let c = bld.finish();
        assert_eq!(c.and_count(), 0);
        assert!(!eval1(&c, &[true], &[]));
        assert!(!eval1(&c, &[false], &[]));
    }

    #[test]
    fn constant_output_materializes() {
        let mut bld = Builder::new();
        let _a = bld.alice_input();
        let one = bld.constant(true);
        bld.output(one);
        let c = bld.finish();
        assert!(eval1(&c, &[false], &[]));
        assert!(eval1(&c, &[true], &[]));
    }

    #[test]
    #[should_panic(expected = "before the first gate")]
    fn inputs_after_gates_panic() {
        let mut bld = Builder::new();
        let a = bld.alice_input();
        let b = bld.bob_input();
        let _ = bld.xor(a, b);
        let _ = bld.alice_input();
    }
}
