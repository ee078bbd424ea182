//! Circuit intermediate representation: segments of (template × count).

use crate::builder::Builder;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::ops::Range;

/// A gate over a template's local wire indices. Gates appear in
/// topological order: a gate's inputs are either template inputs or
/// outputs of earlier gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate {
    /// `out = a ^ b` — free under free-XOR garbling.
    Xor { a: usize, b: usize, out: usize },
    /// `out = a & b` — two ciphertexts under half-gates.
    And { a: usize, b: usize, out: usize },
    /// `out = !a` — free under free-XOR garbling.
    Inv { a: usize, out: usize },
}

/// One AND gate scheduled in a level: local wire indices plus its position
/// in the template's AND-gate sequence (the per-row table/tweak offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AndRef {
    /// Left input wire.
    pub a: usize,
    /// Right input wire.
    pub b: usize,
    /// Output wire.
    pub out: usize,
    /// Index in the template's AND-gate order.
    pub idx: usize,
}

/// One batched step of a template's garbling schedule: the free gates that
/// become ready with it, then its mutually independent ANDs. Half-gates
/// garbling is sequential only through wire dependencies — an AND's table
/// depends on its two input labels and its position-derived tweak alone —
/// so all ANDs of a level, across every row of a tile, hash in one batch
/// while the canonical gate order (the AND index, the hash tweak) stays
/// fixed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Level {
    /// Free gates (XOR/INV) that settle in this level, in template order.
    pub free: Vec<Gate>,
    /// AND gates whose inputs settle strictly before this level's ANDs
    /// run; mutually independent, safe to process in any order.
    pub ands: Vec<AndRef>,
}

/// Partition `gates` (over `num_wires` local wires) into levels.
///
/// Wire w settles at depth d(w): inputs at 0; a free gate settles at its
/// input depth (XOR at the max of its two); an AND gate at input depth + 1
/// (it must wait for a batched step). Level k then holds the free gates
/// with depth k and the AND gates with depth k + 1, which by construction
/// read only wires of depth ≤ k.
fn levelize(num_wires: usize, gates: &[Gate]) -> Vec<Level> {
    let mut depth = vec![0usize; num_wires];
    let mut levels: Vec<Level> = Vec::new();
    let mut idx = 0usize;
    for &g in gates {
        let (k, and) = match g {
            Gate::Xor { a, b, out } => {
                depth[out] = depth[a].max(depth[b]);
                (depth[out], None)
            }
            Gate::Inv { a, out } => {
                depth[out] = depth[a];
                (depth[out], None)
            }
            Gate::And { a, b, out } => {
                let k = depth[a].max(depth[b]);
                depth[out] = k + 1;
                let and = AndRef { a, b, out, idx };
                idx += 1;
                (k, Some(and))
            }
        };
        if levels.len() <= k {
            levels.resize_with(k + 1, Level::default);
        }
        match and {
            Some(and) => levels[k].ands.push(and),
            None => levels[k].free.push(g),
        }
    }
    levels
}

/// A word that exists once per row, in the circuit's *slot space*: circuit
/// inputs occupy slots `0..alice + bob` (Alice's first), each segment's
/// per-row outputs a block after them. Bit j of row r is slot
/// `first + r·stride + j`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Col {
    pub first: usize,
    pub stride: usize,
    pub width: usize,
    pub rows: usize,
}

impl Col {
    /// The same words over a sub-range of the rows.
    pub fn slice_rows(self, rows: Range<usize>) -> Col {
        assert!(rows.start <= rows.end && rows.end <= self.rows);
        Col {
            first: self.first + rows.start * self.stride,
            rows: rows.len(),
            ..self
        }
    }

    /// Bits `bits` of every row's word.
    pub fn slice_bits(self, bits: Range<usize>) -> Col {
        assert!(bits.start <= bits.end && bits.end <= self.width);
        Col {
            first: self.first + bits.start,
            width: bits.len(),
            ..self
        }
    }
}

/// Where a template input wire's value lives, row by row: row 0 reads slot
/// `first`, row r ≥ 1 reads `next + (r − 1)·stride` — affine for inputs and
/// earlier segments' rows, and a scan's carry when `next` is the segment's
/// own previous-row export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Port {
    pub first: usize,
    pub next: usize,
    pub stride: usize,
}

impl Port {
    /// The slot row `row` reads.
    pub fn slot(&self, row: usize) -> usize {
        match row {
            0 => self.first,
            r => self.next + (r - 1) * self.stride,
        }
    }
}

/// One gate template — local wires `0..num_wires`, inputs first, level
/// schedule computed once — repeated `count` times. Row r binds template
/// input i to slot `ports[i].slot(r)` and copies local wire `exports[k]`
/// to slot `export_base + r·exports.len() + k`; its ANDs take the global
/// indices `and_base + r·ands ..`, row-major — the hash tweak, and so the
/// compatibility contract with the flat unrolling.
#[derive(Debug, Clone)]
pub struct Segment {
    pub num_wires: usize,
    /// Gates in topological order — the order that numbers the ANDs.
    pub gates: Vec<Gate>,
    /// The same gates partitioned for batched garbling.
    pub levels: Vec<Level>,
    /// AND gates per row.
    pub ands: usize,
    pub count: usize,
    pub ports: Vec<Port>,
    pub exports: Vec<usize>,
    pub export_base: usize,
    pub and_base: u64,
    /// Some port reads this segment's own previous row: rows must run in
    /// order, one at a time.
    pub carry: bool,
}

/// A boolean circuit with two-party inputs, as an ordered list of
/// [`Segment`]s. A [`Builder`]-made flat circuit is the one-segment,
/// count-1 case of the same type. The circuit is public to both parties —
/// only the input *values* are private.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    /// Number of Alice (garbler-side) input wires; they are slots `0..n_a`.
    pub alice_inputs: usize,
    /// Number of Bob (evaluator-side) input wires; slots `n_a..n_a + n_b`.
    pub bob_inputs: usize,
    pub(crate) segments: Vec<Segment>,
    /// Output words, in the order the protocol will decode them: each
    /// column row by row.
    pub(crate) outputs: Vec<Col>,
    ands: u64,
    digest: u64,
}

/// Gate-count summary of the unrolled circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CircuitStats {
    pub and_gates: u64,
    pub xor_gates: u64,
    pub inv_gates: u64,
    pub wires: u64,
    pub outputs: u64,
}

impl Circuit {
    /// Size of the slot space: inputs plus every segment's exports. Also
    /// where the next segment's exports start while the circuit is built.
    pub fn num_slots(&self) -> usize {
        let inputs = self.alice_inputs + self.bob_inputs;
        let exports = |s: &Segment| s.export_base + s.count * s.exports.len();
        self.segments.last().map_or(inputs, exports)
    }

    /// Append `count` rows of the template `b` built; its outputs are the
    /// rows' exports.
    pub(crate) fn push(&mut self, count: usize, b: Builder) {
        let export_base = self.num_slots();
        let ands = b.gates.iter().filter(|g| matches!(g, Gate::And { .. }));
        let ands = ands.count();
        self.segments.push(Segment {
            levels: levelize(b.next_wire, &b.gates),
            carry: b.ports.iter().any(|p| count > 1 && p.next >= export_base),
            num_wires: b.next_wire,
            gates: b.gates,
            ands,
            count,
            ports: b.ports,
            exports: b.outputs,
            export_base,
            and_base: self.ands,
        });
        self.ands += (count * ands) as u64;
    }

    /// Fix the fingerprint once the last segment is in.
    pub(crate) fn seal(mut self) -> Circuit {
        let mut h = DefaultHasher::new();
        (self.alice_inputs, self.bob_inputs, &self.outputs).hash(&mut h);
        for s in &self.segments {
            (s.count, s.num_wires, &s.ports, &s.gates, &s.exports).hash(&mut h);
        }
        self.digest = h.finish();
        debug_assert_eq!(self.validate(), Ok(()));
        self
    }

    /// The segments, in execution (and AND-index) order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of AND gates of the unrolled circuit — the
    /// communication/computation cost driver.
    pub fn and_count(&self) -> u64 {
        self.ands
    }

    /// Output slots, in the order the protocol will decode them.
    pub fn output_slots(&self) -> impl Iterator<Item = usize> + '_ {
        let row = |c: &Col, r: usize| c.first + r * c.stride..c.first + r * c.stride + c.width;
        (self.outputs.iter()).flat_map(move |c| (0..c.rows).flat_map(move |r| row(c, r)))
    }

    /// Number of output wires.
    pub fn output_count(&self) -> usize {
        self.outputs.iter().map(|c| c.rows * c.width).sum()
    }

    /// A structural fingerprint fixed at construction, used to pair
    /// pre-garbled material with the circuit an online call presents. Each
    /// party derives it locally from the same public circuit, so it is a
    /// bookkeeping key, not a security boundary — and process-local: the
    /// hash behind it may differ between Rust releases, so it must never
    /// be persisted or sent to the peer.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Full gate-count statistics of the unrolled circuit.
    pub fn stats(&self) -> CircuitStats {
        let mut s = CircuitStats {
            wires: (self.alice_inputs + self.bob_inputs) as u64,
            outputs: self.output_count() as u64,
            ..Default::default()
        };
        for seg in &self.segments {
            let invs = seg.gates.iter().filter(|g| matches!(g, Gate::Inv { .. }));
            let (n, invs) = (seg.count as u64, invs.count());
            s.wires += n * (seg.num_wires - seg.ports.len()) as u64;
            s.and_gates += n * seg.ands as u64;
            s.inv_gates += n * invs as u64;
            s.xor_gates += n * (seg.gates.len() - seg.ands - invs) as u64;
        }
        s
    }

    /// Check structural sanity: topological order within each template,
    /// every port reading a slot settled before its row runs, in-range
    /// exports and outputs. Builder-produced circuits always pass.
    pub fn validate(&self) -> Result<(), String> {
        let mut settled = self.alice_inputs + self.bob_inputs;
        for (i, s) in self.segments.iter().enumerate() {
            let bad = |what: &str| Err(format!("segment {i}: {what}"));
            // Ports are affine past row 0: rows 0, 1 and the last bound them.
            for r in [0, 1, s.count.saturating_sub(1)] {
                let limit = settled + r * s.exports.len();
                if r < s.count && s.ports.iter().any(|p| p.slot(r) >= limit) {
                    return bad("a port reads an unsettled slot");
                }
            }
            let mut defined = vec![false; s.num_wires];
            defined[..s.ports.len()].fill(true);
            for g in &s.gates {
                let (a, b, out) = match *g {
                    Gate::Xor { a, b, out } | Gate::And { a, b, out } => (a, b, out),
                    Gate::Inv { a, out } => (a, a, out),
                };
                let in_range = a.max(b).max(out) < s.num_wires;
                if !in_range || !defined[a] || !defined[b] || defined[out] {
                    return bad("a gate is out of topological order");
                }
                defined[out] = true;
            }
            if s.exports.iter().any(|&w| w >= s.num_wires || !defined[w]) {
                return bad("an undefined wire is exported");
            }
            settled += s.count * s.exports.len();
        }
        match self.output_slots().find(|&slot| slot >= settled) {
            Some(slot) => Err(format!("output reads out-of-range slot {slot}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// in0 & in1 -> w2; w2 & in1 -> w3; w3 ^ in0 -> w4
    fn chain() -> (usize, Vec<Gate>) {
        let gates = vec![
            Gate::And { a: 0, b: 1, out: 2 },
            Gate::And { a: 2, b: 1, out: 3 },
            Gate::Xor { a: 3, b: 0, out: 4 },
        ];
        (5, gates)
    }

    /// n independent ANDs over 2n inputs, then a XOR-reduce chain.
    fn wide(n: usize) -> (usize, Vec<Gate>) {
        let mut gates = Vec::new();
        let w = 2 * n;
        for i in 0..n {
            gates.push(Gate::And {
                a: 2 * i,
                b: 2 * i + 1,
                out: w + i,
            });
        }
        let mut acc = w;
        for i in 1..n {
            gates.push(Gate::Xor {
                a: acc,
                b: w + i,
                out: w + n + i - 1,
            });
            acc = w + n + i - 1;
        }
        (w + 2 * n, gates)
    }

    /// The schedule must be a permutation of the gates where every gate's
    /// inputs settle before it runs: free gates of level k may read same-
    /// level free outputs listed earlier plus level <k AND outputs; AND
    /// gates of level k read only wires settled by end of level k's frees.
    fn assert_valid_schedule(n_in: usize, num_wires: usize, gates: &[Gate]) {
        let levels = levelize(num_wires, gates);
        let mut settled = vec![false; num_wires];
        for s in settled.iter_mut().take(n_in) {
            *s = true;
        }
        let mut seen_gates = 0usize;
        let mut seen_ands = std::collections::HashSet::new();
        for level in &levels {
            for g in &level.free {
                match *g {
                    Gate::Xor { a, b, out } => {
                        assert!(settled[a] && settled[b], "xor inputs unsettled");
                        settled[out] = true;
                    }
                    Gate::Inv { a, out } => {
                        assert!(settled[a], "inv input unsettled");
                        settled[out] = true;
                    }
                    Gate::And { .. } => panic!("AND listed as free"),
                }
                seen_gates += 1;
            }
            // ANDs read only wires settled before any same-level AND writes.
            for and in &level.ands {
                assert!(settled[and.a] && settled[and.b], "and inputs unsettled");
                assert!(seen_ands.insert(and.idx), "duplicate AND index");
            }
            for and in &level.ands {
                settled[and.out] = true;
                seen_gates += 1;
            }
        }
        assert_eq!(seen_gates, gates.len(), "schedule drops gates");
    }

    #[test]
    fn chain_levels_are_sequential() {
        let (w, gates) = chain();
        let levels = levelize(w, &gates);
        assert!(levels.iter().all(|l| l.ands.len() <= 1));
        assert!(levels.len() >= 2);
        assert_valid_schedule(2, w, &gates);
    }

    #[test]
    fn wide_circuit_is_one_batched_level() {
        let (w, gates) = wide(64);
        assert_eq!(levelize(w, &gates)[0].ands.len(), 64);
        assert_valid_schedule(128, w, &gates);
    }

    #[test]
    fn and_indices_follow_template_order() {
        let (w, gates) = chain();
        let idxs: Vec<usize> = levelize(w, &gates)
            .iter()
            .flat_map(|l| l.ands.iter().map(|a| a.idx))
            .collect();
        assert_eq!(idxs, vec![0, 1]);
    }
}
