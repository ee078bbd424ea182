//! The garbling scheme: free-XOR, half-gates, point-and-permute.
//!
//! Channel-free: [`garble`] turns a circuit into tables + label metadata on
//! the garbler side, [`eval`] consumes tables + input labels on the
//! evaluator side. The two-party protocol in [`crate::protocol`] moves the
//! bytes.
//!
//! A circuit is a list of (template × count) segments, and both kernels
//! walk it the same way: a *tile* of rows at a time — sized so the tile's
//! wire labels stay in cache — gather the rows' input labels, run the
//! template's levels over the whole tile with one batched hash per level,
//! copy the exported labels out, scrub the scratch, next tile.

use rand::Rng;
use secyan_circuit::{AndRef, Circuit, Gate, Segment};
use secyan_crypto::{Block, CtChoice, CtEq, Secret, TweakHasher, Zeroize};
use secyan_par as par;
use std::ops::Range;

/// Label scratch one tile may occupy (rows × template wires × 16 B): small
/// enough to stay in a core's private L2 next to the tables streaming by.
const TILE_BYTES: usize = 256 << 10;

/// Rows per tile of `seg`. A scan's rows each wait for the previous row's
/// carry, so they cannot share a level step.
fn tile_rows(seg: &Segment) -> usize {
    match seg.carry {
        true => 1,
        false => (TILE_BYTES / 16 / seg.num_wires.max(1)).clamp(1, seg.count),
    }
}

/// Garbler-side result of garbling a circuit.
///
/// Δ and the zero-labels are the scheme's key material: anyone holding a
/// wire label *and* Δ can flip the encoded bit, and the input zero-labels
/// decode every garbler input. They live in [`Secret`] wrappers — no
/// `Debug`, zeroized on drop — and leave only through the explicit label
/// accessors below. The tables are ciphertexts and stay public.
pub struct Garbling {
    /// The global free-XOR offset Δ (lsb forced to 1 for point-and-permute).
    pub delta: Secret<Block>,
    /// Zero-label of every input wire, in wire order (Alice inputs first).
    pub input_zero_labels: Secret<Vec<Block>>,
    /// Zero-label of every output wire, in output order.
    pub output_zero_labels: Secret<Vec<Block>>,
    /// Two ciphertexts per AND gate, in AND-index order. Empty when the
    /// tables were written straight into a channel's staging buffer.
    pub tables: Vec<(Block, Block)>,
}

impl Garbling {
    /// The label encoding bit `b` on input wire `i`, selected branchlessly
    /// (the bit is a party's private input).
    pub fn input_label(&self, i: usize, b: bool) -> Block {
        let delta = self.delta.expose_block().ct_masked(CtChoice::from_bool(b));
        self.input_zero_labels.expose()[i] ^ delta
    }

    /// Decode bits: lsb of each output zero-label. The evaluator XORs these
    /// with the color bits of its output labels to learn the outputs.
    pub fn decode_bits(&self) -> Vec<bool> {
        self.output_zero_labels
            .expose()
            .iter()
            .map(|l| l.lsb())
            .collect()
    }

    /// Decode an output label the evaluator computed back to a cleartext
    /// bit (garbler-side check; panics on a label that matches neither).
    /// Both candidates are compared with [`CtEq`] — no short-circuit on key
    /// material.
    pub fn decode_output(&self, idx: usize, label: Block) -> bool {
        let zero = self.output_zero_labels.expose()[idx];
        let one = zero ^ self.delta.expose_block();
        let is_zero = label.ct_eq(&zero);
        let is_one = label.ct_eq(&one);
        assert!(
            is_zero.or(is_one).to_bool(),
            "output label matches neither candidate"
        );
        is_one.to_bool()
    }
}

/// Evaluator-side view of the tables (what travels over the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalTables {
    /// Two ciphertexts per AND gate, in AND-index order.
    pub tables: Vec<(Block, Block)>,
}

/// Storage of one AND gate's two ciphertexts: the typed pair of
/// [`Garbling`]/[`EvalTables`], or its 32 bytes in a channel buffer.
pub(crate) trait Cell: Send + Sync {
    fn put(&mut self, t_g: Block, t_e: Block);
    fn get(&self) -> (Block, Block);
}

impl Cell for (Block, Block) {
    fn put(&mut self, t_g: Block, t_e: Block) {
        *self = (t_g, t_e);
    }
    fn get(&self) -> (Block, Block) {
        *self
    }
}

impl Cell for [u8; 32] {
    fn put(&mut self, t_g: Block, t_e: Block) {
        self[..16].copy_from_slice(&t_g.to_bytes());
        self[16..].copy_from_slice(&t_e.to_bytes());
    }
    fn get(&self) -> (Block, Block) {
        let half = |h: &[u8]| Block::from_bytes(h.try_into().expect("16 bytes"));
        (half(&self[..16]), half(&self[16..]))
    }
}

/// A tile mid-run, as one level's AND step sees it: `rows` rows of
/// `stride` wire labels each, whose ANDs take the global indices
/// `first_and + r·ands_per_row + idx`, and the level's hash inputs and
/// outputs — one batch per level × tile.
struct Tile<'a> {
    wires: &'a mut [Block],
    stride: usize,
    rows: usize,
    first_and: usize,
    ands_per_row: usize,
    xs: &'a mut Vec<Block>,
    hs: &'a mut Vec<Block>,
    tweaks: &'a mut Vec<u64>,
}

impl Tile<'_> {
    /// Hash N blocks per (row, AND) of `ands` in one batch: `inputs` names
    /// them, the first half under tweak `2·index`, the rest `2·index + 1`.
    fn hash_level<const N: usize>(
        &mut self,
        ands: &[AndRef],
        inputs: impl Fn(Block, Block) -> [Block; N],
    ) {
        self.xs.clear();
        self.tweaks.clear();
        for (r, row) in self.wires.chunks_exact(self.stride).enumerate() {
            for and in ands {
                let j = 2 * (self.first_and + r * self.ands_per_row + and.idx) as u64;
                self.xs.extend(inputs(row[and.a], row[and.b]));
                self.tweaks
                    .extend((0..N).map(|i| j + u64::from(i >= N / 2)));
            }
        }
        self.hs.resize(self.xs.len(), Block::ZERO);
        TweakHasher::Aes.hash_each_into(self.xs, self.tweaks, self.hs);
    }
}

/// Walk `circuit` tile by tile over `slots` (its slot space: input labels
/// filled in, exports to be computed). Per tile: gather the rows' port
/// labels into the scratch, run the template's levels — free gates row by
/// row (`flip` is what an INV XORs in), then `and_step` on the level's
/// ANDs across the whole tile — copy the exports out and scrub the
/// scratch. `cells` holds one entry per AND for the garbler to fill and is
/// empty for the evaluator; `and_step` gets the tile's share.
///
/// Tiles of a segment are independent (a scan's aside), so with more than
/// one thread they fan out across the pool in contiguous row ranges.
/// Every label and table is a pure function of the input labels and the
/// global AND index, so the result is the same at any thread count.
fn for_each_tile<T: Cell>(
    circuit: &Circuit,
    slots: &mut [Block],
    mut cells: &mut [T],
    flip: Block,
    and_step: &(impl Fn(&[AndRef], &mut Tile, &mut [T]) + Sync),
) {
    let wide = |s: &Segment| !s.carry && s.count >= 2 * tile_rows(s);
    let parallel = par::threads() > 1 && circuit.segments().iter().any(wide);
    par::with_pool_if(parallel, |pool| {
        for seg in circuit.segments() {
            let (settled, mut exports) = slots.split_at_mut(seg.export_base);
            let n_cells = seg.ands.min(cells.len());
            // Static partition by rows: at least one full tile per part.
            let parts = match seg.carry {
                true => 1,
                false => pool.workers().min(seg.count / tile_rows(seg)).max(1),
            };
            let mut jobs = Vec::with_capacity(parts);
            let mut row = 0;
            for p in 0..parts {
                let n = seg.count / parts + usize::from(p < seg.count % parts);
                let e = exports.split_off_mut(..n * seg.exports.len());
                let c = cells.split_off_mut(..n * n_cells);
                jobs.push((row..row + n, e.expect("in range"), c.expect("in range")));
                row += n;
            }
            let settled: &[Block] = settled;
            pool.chunks_mut(&mut jobs, 1, 1, |_, jobs| {
                for (rows, exports, cells) in jobs {
                    run_rows(seg, settled, rows.clone(), exports, cells, flip, and_step);
                }
            });
        }
    });
}

/// Rows `rows` of `seg`, tile by tile (see [`for_each_tile`]). `settled`
/// is the slot space below the segment's exports, `exports`/`cells` the
/// rows' own share of the exports and table cells.
fn run_rows<T: Cell>(
    seg: &Segment,
    settled: &[Block],
    rows: Range<usize>,
    exports: &mut [Block],
    cells: &mut [T],
    flip: Block,
    and_step: &impl Fn(&[AndRef], &mut Tile, &mut [T]),
) {
    let (stride, n_exp, tile) = (seg.num_wires.max(1), seg.exports.len(), tile_rows(seg));
    let n_cells = cells.len() / rows.len();
    // Reused from tile to tile, sized up front so nothing reallocates with
    // labels inside; `Secret` scrubs whatever is left on drop.
    let widest = seg.levels.iter().map(|l| l.ands.len()).max().unwrap_or(0);
    let mut scratch = Secret::new(vec![Block::ZERO; tile * stride]);
    let mut xs = Secret::new(Vec::with_capacity(4 * tile * widest));
    let mut hs = Secret::new(Vec::with_capacity(4 * tile * widest));
    let mut tweaks = Vec::with_capacity(4 * tile * widest);
    for t0 in rows.clone().step_by(tile) {
        let n = tile.min(rows.end - t0);
        let (done, todo) = exports.split_at_mut((t0 - rows.start) * n_exp);
        let mut view = Tile {
            wires: &mut scratch.expose_mut()[..n * stride],
            stride,
            rows: n,
            first_and: seg.and_base as usize + t0 * seg.ands,
            ands_per_row: seg.ands,
            xs: xs.expose_mut(),
            hs: hs.expose_mut(),
            tweaks: &mut tweaks,
        };
        for (r, row) in view.wires.chunks_exact_mut(stride).enumerate() {
            for (wire, port) in row.iter_mut().zip(&seg.ports) {
                // A slot at or past `settled` is a scan's carry: the
                // previous row's export.
                let s = port.slot(t0 + r);
                *wire = match s.checked_sub(settled.len()) {
                    None => settled[s],
                    Some(own) => done[own - rows.start * n_exp],
                };
            }
        }
        for level in &seg.levels {
            for row in view.wires.chunks_exact_mut(stride) {
                for g in &level.free {
                    match *g {
                        Gate::Xor { a, b, out } => row[out] = row[a] ^ row[b],
                        Gate::Inv { a, out } => row[out] = row[a] ^ flip,
                        Gate::And { .. } => unreachable!("AND scheduled as free gate"),
                    }
                }
            }
            if !level.ands.is_empty() {
                let at = (t0 - rows.start) * n_cells;
                and_step(&level.ands, &mut view, &mut cells[at..at + n * n_cells]);
                // Labels and their hashes are key material (garbling) or
                // wire-value-correlated (evaluating): scrub before reuse.
                view.xs.zeroize();
                view.hs.zeroize();
            }
        }
        for (row, out) in view
            .wires
            .chunks_exact(stride)
            .zip(todo.chunks_exact_mut(n_exp.max(1)))
        {
            for (slot, &w) in out.iter_mut().zip(&seg.exports) {
                *slot = row[w];
            }
        }
        // The next tile starts from an all-zero scratch.
        scratch.expose_mut().zeroize();
    }
}

/// Garble `circuit`, drawing labels from `rng`: Δ, then the input
/// zero-labels in wire order.
pub fn garble<R: Rng + ?Sized>(circuit: &Circuit, _hasher: TweakHasher, rng: &mut R) -> Garbling {
    let mut tables = vec![(Block::ZERO, Block::ZERO); circuit.and_count() as usize];
    let mut garbling = garble_into(circuit, rng, &mut tables);
    garbling.tables = tables;
    garbling
}

/// [`garble`] writing the table of AND `i` into `cells[i]` — a channel's
/// staging buffer, say — and leaving [`Garbling::tables`] empty.
pub(crate) fn garble_into<T: Cell, R: Rng + ?Sized>(
    circuit: &Circuit,
    rng: &mut R,
    cells: &mut [T],
) -> Garbling {
    assert_eq!(cells.len() as u64, circuit.and_count(), "one cell per AND");
    let delta = Block::random(rng).with_lsb(true);
    let n_in = circuit.alice_inputs + circuit.bob_inputs;
    // Zero-labels of the whole slot space — key material, scrubbed on drop.
    let mut zero = Secret::new(vec![Block::ZERO; circuit.num_slots()]);
    for z in zero.expose_mut().iter_mut().take(n_in) {
        *z = Block::random(rng);
    }
    let and_step =
        |ands: &[AndRef], tile: &mut Tile, cells: &mut [T]| garble_level(ands, tile, cells, delta);
    for_each_tile(circuit, zero.expose_mut(), cells, delta, &and_step);
    let zero = zero.expose();
    let output_zero_labels = circuit.output_slots().map(|s| zero[s]).collect();
    Garbling {
        delta: Secret::new(delta),
        input_zero_labels: Secret::new(zero[..n_in].to_vec()),
        output_zero_labels: Secret::new(output_zero_labels),
        tables: Vec::new(),
    }
}

/// The garbling loop: one level's AND gates across a tile. All four
/// hashes of every gate go through the AES kernel as one batch, then the
/// half-gates algebra fills in output zero-labels and table cells.
fn garble_level<T: Cell>(ands: &[AndRef], tile: &mut Tile, cells: &mut [T], delta: Block) {
    tile.hash_level(ands, |wa0, wb0| [wa0, wa0 ^ delta, wb0, wb0 ^ delta]);
    for r in 0..tile.rows {
        let row = &mut tile.wires[r * tile.stride..][..tile.stride];
        // Indexed by position rather than zipped with the hashes: the gate
        // descriptors are public topology and must not alias the secret
        // label buffers in the dataflow (xtask taint).
        for (i, and) in ands.iter().enumerate() {
            let at = 4 * (r * ands.len() + i);
            let h: [Block; 4] = tile.hs[at..at + 4].try_into().expect("4 hashes");
            let (w, t_g, t_e) = garble_and_from_hashes(row[and.a], row[and.b], delta, h);
            row[and.out] = w;
            cells[r * tile.ands_per_row + and.idx].put(t_g, t_e);
        }
    }
}

/// The algebra of one garbled AND given its four batched hashes
/// (`[H(wa0,j_g), H(wa1,j_g), H(wb0,j_e), H(wb1,j_e)]`): the output
/// zero-label and the two table ciphertexts.
///
/// The permute bits p_a, p_b are secret (they encode the label↔bit map), so
/// the conditional XORs of the half-gates construction are done with
/// [`Block::ct_masked`] rather than `if` — the gate garbles in the same
/// instruction sequence whatever the permute bits are.
fn garble_and_from_hashes(
    wa0: Block,
    wb0: Block,
    delta: Block,
    h: [Block; 4],
) -> (Block, Block, Block) {
    let pa = CtChoice::from_bool(wa0.lsb());
    let pb = CtChoice::from_bool(wb0.lsb());
    let [h_a0, h_a1, h_b0, h_b1] = h;
    // Generator half-gate.
    let t_g = h_a0 ^ h_a1 ^ delta.ct_masked(pb);
    let w_g = h_a0 ^ t_g.ct_masked(pa);
    // Evaluator half-gate.
    let t_e = h_b0 ^ h_b1 ^ wa0;
    let w_e = h_b0 ^ (t_e ^ wa0).ct_masked(pb);
    (w_g ^ w_e, t_g, t_e)
}

/// Evaluate garbled `circuit` given one label per input wire. Returns one
/// label per output wire.
pub fn eval(
    circuit: &Circuit,
    tables: &EvalTables,
    input_labels: &[Block],
    _hasher: TweakHasher,
) -> Vec<Block> {
    eval_cells(circuit, &tables.tables, input_labels)
}

/// [`eval`] over any table storage — the received bytes as they are.
pub(crate) fn eval_cells<T: Cell>(
    circuit: &Circuit,
    tables: &[T],
    input_labels: &[Block],
) -> Vec<Block> {
    let n_in = circuit.alice_inputs + circuit.bob_inputs;
    assert_eq!(input_labels.len(), n_in, "one label per input wire");
    assert_eq!(tables.len() as u64, circuit.and_count());
    // Active labels of the whole slot space — correlated with cleartext
    // wire values, scrubbed on drop.
    let mut active = Secret::new(vec![Block::ZERO; circuit.num_slots()]);
    active.expose_mut()[..n_in].copy_from_slice(input_labels);
    let and_step = |ands: &[AndRef], tile: &mut Tile, _: &mut [T]| eval_level(ands, tile, tables);
    // INV is free: the garbler flipped the semantics of the labels.
    for_each_tile(
        circuit,
        active.expose_mut(),
        &mut [],
        Block::ZERO,
        &and_step,
    );
    let active = active.expose();
    circuit.output_slots().map(|s| active[s]).collect()
}

/// The evaluation loop: one level's AND gates across a tile, both hashes
/// of every gate in one batch, then the table algebra.
fn eval_level<T: Cell>(ands: &[AndRef], tile: &mut Tile, tables: &[T]) {
    tile.hash_level(ands, |wa, wb| [wa, wb]);
    for r in 0..tile.rows {
        let row = &mut tile.wires[r * tile.stride..][..tile.stride];
        let first = tile.first_and + r * tile.ands_per_row;
        for (i, and) in ands.iter().enumerate() {
            let (t_g, t_e) = tables[first + and.idx].get();
            let at = 2 * (r * ands.len() + i);
            let (h_g, h_e) = (tile.hs[at], tile.hs[at + 1]);
            row[and.out] = eval_and_from_hashes(row[and.a], row[and.b], t_g, t_e, h_g, h_e);
        }
    }
}

/// The algebra of one evaluated AND given its two batched hashes. The
/// color bits gate the table ciphertexts through `ct_masked` — the labels
/// are correlated with the cleartext wire values, so no control flow may
/// depend on them.
fn eval_and_from_hashes(
    wa: Block,
    wb: Block,
    t_g: Block,
    t_e: Block,
    h_g: Block,
    h_e: Block,
) -> Block {
    let w_g = h_g ^ t_g.ct_masked(CtChoice::from_bool(wa.lsb()));
    let w_e = h_e ^ (t_e ^ wa).ct_masked(CtChoice::from_bool(wb.lsb()));
    w_g ^ w_e
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_circuit::{bits_to_u64, evaluate as plain_eval, u64_to_bits, Builder, Rows};

    /// Garble + evaluate `circuit` on cleartext inputs; compare to plaintext.
    fn check(circuit: &Circuit, alice: &[bool], bob: &[bool], seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = garble(circuit, TweakHasher::Aes, &mut rng);
        let labels: Vec<Block> = alice
            .iter()
            .chain(bob)
            .enumerate()
            .map(|(i, &b)| g.input_label(i, b))
            .collect();
        let tables = EvalTables {
            tables: g.tables.clone(),
        };
        let out_labels = eval(circuit, &tables, &labels, TweakHasher::Aes);
        let expect = plain_eval(circuit, alice, bob);
        // Decode both ways: garbler-side exact check and evaluator-side
        // color-bit decode.
        let decode = g.decode_bits();
        for (i, &lbl) in out_labels.iter().enumerate() {
            assert_eq!(g.decode_output(i, lbl), expect[i], "garbler decode {i}");
            assert_eq!(lbl.lsb() ^ decode[i], expect[i], "color decode {i}");
        }
    }

    #[test]
    fn single_gates_exhaustive() {
        for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
            for op in 0..4 {
                let mut b = Builder::new();
                let a = b.alice_input();
                let c = b.bob_input();
                let o = match op {
                    0 => b.and(a, c),
                    1 => b.xor(a, c),
                    2 => b.or(a, c),
                    _ => {
                        let n = b.not(a);
                        b.and(n, c)
                    }
                };
                b.output(o);
                let circ = b.finish();
                check(&circ, &[x], &[y], 1 + op as u64);
            }
        }
    }

    #[test]
    fn adder_circuit_matches_plaintext() {
        let mut b = Builder::new();
        let x = b.alice_word(32);
        let y = b.bob_word(32);
        let s = b.add_words(&x, &y);
        b.output_word(&s);
        let circ = b.finish();
        for (x, y) in [(3u64, 5u64), (0xffff_ffff, 1), (123456, 654321)] {
            check(&circ, &u64_to_bits(x, 32), &u64_to_bits(y, 32), 7);
        }
    }

    #[test]
    fn multiplier_circuit_matches_plaintext() {
        let mut b = Builder::new();
        let x = b.alice_word(16);
        let y = b.bob_word(16);
        let s = b.mul_words(&x, &y);
        b.output_word(&s);
        let circ = b.finish();
        check(&circ, &u64_to_bits(1234, 16), &u64_to_bits(4321, 16), 8);
    }

    #[test]
    fn eval_output_value_via_colors() {
        // End-to-end decode of a word output using only evaluator knowledge.
        let mut b = Builder::new();
        let x = b.alice_word(16);
        let y = b.bob_word(16);
        let s = b.sub_words(&x, &y);
        b.output_word(&s);
        let circ = b.finish();
        let mut rng = StdRng::seed_from_u64(9);
        let g = garble(&circ, TweakHasher::Aes, &mut rng);
        let labels: Vec<Block> = u64_to_bits(500, 16)
            .iter()
            .chain(&u64_to_bits(123, 16))
            .enumerate()
            .map(|(i, &bit)| g.input_label(i, bit))
            .collect();
        let outs = eval(
            &circ,
            &EvalTables {
                tables: g.tables.clone(),
            },
            &labels,
            TweakHasher::Aes,
        );
        let decode = g.decode_bits();
        let bits: Vec<bool> = outs
            .iter()
            .zip(&decode)
            .map(|(l, &d)| l.lsb() ^ d)
            .collect();
        assert_eq!(bits_to_u64(&bits), 500 - 123);
    }

    #[test]
    fn garbling_is_thread_count_invariant() {
        // Rows enough for several tiles per worker; same RNG seed, so
        // tables/labels must match bit for bit.
        let mut rows = Rows::new();
        let (x, y) = (rows.alice(64, 32), rows.bob(64, 32));
        let products = rows.segment(64, |b| {
            let (x, y) = (b.read(x), b.read(y));
            let p = b.mul_words(&x, &y);
            b.output_word(&p);
        });
        rows.output(products);
        let circ = rows.finish();
        assert!(
            circ.segments()[0].count >= 8 * super::tile_rows(&circ.segments()[0]),
            "test circuit too small to exercise the parallel path"
        );
        let run_at = |t: usize| {
            par::set_threads(t);
            let mut rng = StdRng::seed_from_u64(77);
            let g = garble(&circ, TweakHasher::Aes, &mut rng);
            let labels: Vec<Block> = (0..64 * 64).map(|i| g.input_label(i, i % 3 == 0)).collect();
            let outs = eval(
                &circ,
                &EvalTables {
                    tables: g.tables.clone(),
                },
                &labels,
                TweakHasher::Aes,
            );
            par::set_threads(0);
            let decode = g.decode_bits();
            (g.tables, decode, outs)
        };
        let serial = run_at(1);
        for t in [2, 4] {
            assert_eq!(run_at(t), serial, "thread count {t} diverged");
        }
    }

    #[test]
    fn each_tile_starts_from_a_scrubbed_scratch() {
        // One AND straight off the inputs per row, rows for three tiles.
        let mut rows = Rows::new();
        let n = 2 * (super::TILE_BYTES / 16 / 3) + 5;
        let (x, y) = (rows.alice(n, 1), rows.bob(n, 1));
        let ands = rows.segment(n, |b| {
            let (x, y) = (b.read(x).0[0], b.read(y).0[0]);
            let z = b.and(x, y);
            b.output(z);
        });
        rows.output(ands);
        let circ = rows.finish();
        let tiles = std::sync::atomic::AtomicUsize::new(0);
        // Stand in for a level's AND step: on entry everything past the
        // two gathered input labels must still be zero; leave every wire,
        // hash input and hash output dirty, as a real step would.
        let and_step = |_: &[AndRef], tile: &mut Tile, _: &mut [(Block, Block)]| {
            tiles.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            for row in tile.wires.chunks_exact(tile.stride) {
                assert!(row[2..].iter().all(|w| *w == Block::ZERO), "dirty scratch");
            }
            assert!(tile
                .xs
                .iter()
                .chain(tile.hs.iter())
                .all(|b| *b == Block::ZERO));
            tile.wires.fill(Block(u128::MAX));
            tile.xs.resize(4 * tile.rows, Block(u128::MAX));
            tile.hs.resize(4 * tile.rows, Block(u128::MAX));
        };
        let mut slots = vec![Block(7); circ.num_slots()];
        for_each_tile(&circ, &mut slots, &mut [], Block::ZERO, &and_step);
        assert!(
            tiles.into_inner() >= 3,
            "three tiles or more, one level each"
        );
    }

    proptest::proptest! {
        #[test]
        fn prop_garbled_eq_plaintext(x in 0u64..1<<16, y in 0u64..1<<16, seed: u64) {
            let mut b = Builder::new();
            let xw = b.alice_word(16);
            let yw = b.bob_word(16);
            let sum = b.add_words(&xw, &yw);
            let prod = b.mul_words(&xw, &yw);
            let eqb = b.eq_words(&xw, &yw);
            let lt = b.lt_words(&xw, &yw);
            b.output_word(&sum);
            b.output_word(&prod);
            b.output(eqb);
            b.output(lt);
            let circ = b.finish();
            check(&circ, &u64_to_bits(x, 16), &u64_to_bits(y, 16), seed);
        }
    }
}
