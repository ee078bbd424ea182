//! Row-repeated circuits: state the repetition instead of unrolling it.
//!
//! Every operator circuit of the secure protocol is one small gadget per
//! tuple or per bin. [`Rows`] assembles such a circuit as segments of
//! (template × count): input words are declared per *column* (`rows`
//! consecutive words, in wire order), a segment's row template is built
//! with the ordinary [`Builder`] over the columns it [`Builder::read`]s,
//! and what the template outputs exists once per row — a column again,
//! for later segments to read or to declare as circuit outputs. The
//! unrolled circuit — segment after segment, row after row, gates in
//! template order — has the AND gates the flat builder would emit, in the
//! same order over the same inputs.

use crate::builder::{Builder, Word};
use crate::ir::{Circuit, Col};

/// A circuit under construction as row-repeated segments.
#[derive(Debug, Default)]
pub struct Rows {
    circuit: Circuit,
}

impl Rows {
    /// Fresh, empty circuit.
    pub fn new() -> Rows {
        Rows::default()
    }

    fn column(&mut self, rows: usize, width: usize) -> Col {
        assert!(
            self.circuit.segments.is_empty(),
            "all inputs must be declared before the first segment"
        );
        Col {
            first: self.circuit.num_slots(),
            stride: width,
            width,
            rows,
        }
    }

    /// Declare `rows` consecutive `width`-bit input words for Alice (the
    /// garbler side), next in wire order.
    pub fn alice(&mut self, rows: usize, width: usize) -> Col {
        assert_eq!(self.circuit.bob_inputs, 0, "Alice's inputs come first");
        let col = self.column(rows, width);
        self.circuit.alice_inputs += rows * width;
        col
    }

    /// Declare `rows` consecutive `width`-bit input words for Bob (the
    /// evaluator side), next in wire order.
    pub fn bob(&mut self, rows: usize, width: usize) -> Col {
        let col = self.column(rows, width);
        self.circuit.bob_inputs += rows * width;
        col
    }

    /// Append a segment of `count` independent rows. `body` builds the row
    /// template: [`Builder::read`] its inputs, [`Builder::output`] what
    /// the row produces. Returns the outputs as a column.
    pub fn segment(&mut self, count: usize, body: impl FnOnce(&mut Builder)) -> Col {
        let body = |b: &mut Builder, _: &Word| {
            body(b);
            Word(Vec::new())
        };
        self.repeat(count, Col::default(), body).0
    }

    /// Append a segment whose rows run in order, each handing a carry word
    /// to the next: row 0 receives `init` (a single row), row r what row
    /// r − 1 returned from `body`. Returns a column of `count + 1` words of
    /// the carry's width: what each row output, then the carry leaving the
    /// last row (`init` alone when `count` is 0).
    pub fn scan(
        &mut self,
        count: usize,
        init: Col,
        body: impl FnOnce(&mut Builder, &Word) -> Word,
    ) -> Col {
        let (outputs, last) = self.repeat(count, init, body);
        if count == 0 {
            return last;
        }
        assert_eq!(outputs.width, last.width, "a scan emits carry-wide words");
        // A gate-less row re-exports the final carry right behind the last
        // row's exports, where the column's next word lives.
        self.segment(1, |b| {
            let carry = b.read(last);
            b.output_word(&carry);
        });
        Col {
            rows: count + 1,
            ..outputs
        }
    }

    /// `count` rows of the template `body` builds; returns the rows'
    /// outputs and the carry leaving the last row.
    fn repeat(
        &mut self,
        count: usize,
        init: Col,
        body: impl FnOnce(&mut Builder, &Word) -> Word,
    ) -> (Col, Col) {
        let mut b = Builder::new();
        let carry_in = b.read(init);
        let carry_out = body(&mut b, &carry_in);
        assert!(init.rows <= 1, "the carry starts from a single row");
        assert_eq!(carry_in.bits(), carry_out.bits(), "carry width");
        // The carry rides behind the row's own outputs; rows after the
        // first read it from the previous row's export.
        let width = b.outputs.len();
        b.output_word(&carry_out);
        let (first, stride) = (self.circuit.num_slots(), b.outputs.len());
        for (k, port) in b.ports[..init.width].iter_mut().enumerate() {
            (port.next, port.stride) = (first + width + k, stride);
        }
        let outputs = Col {
            first,
            stride,
            width,
            rows: count,
        };
        if count == 0 {
            return (outputs, init);
        }
        self.circuit.push(count, b);
        let last = Col {
            first: first + (count - 1) * stride + width,
            rows: 1,
            ..init
        };
        (outputs, last)
    }

    /// Declare the words of `col` circuit outputs, row by row, after those
    /// declared so far.
    pub fn output(&mut self, col: Col) {
        self.circuit.outputs.push(col);
    }

    /// Finalize into an immutable [`Circuit`].
    pub fn finish(self) -> Circuit {
        self.circuit.seal()
    }
}
