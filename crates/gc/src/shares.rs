//! Yao-to-arithmetic share conversion (paper §5.2).
//!
//! The secure Yannakakis operators feed secret-shared annotations *into*
//! garbled circuits and need the results back *as shares*, never in the
//! clear.
//!
//! * **Shared inputs** need nothing from this module: a value
//!   v = v_A + v_B (mod 2^ℓ) enters as one input word per party and one
//!   `add_words` reconstructs it — the paper's "(⟦v⟧₁ + ⟦v⟧₂) computed
//!   inside the circuit" pattern (Example 5.1).
//!
//! * **Shared outputs** ([`with_shared_rows`], [`with_shared_outputs`] and
//!   the run helpers): for each output word W the garbler feeds a fresh
//!   random mask r as an extra input; the circuit reveals W + r (mod 2^ℓ)
//!   to the evaluator only. The evaluator's share is W + r, the garbler's
//!   is −r: a fresh additive sharing of W, with neither party learning W.
//!   This is the standard Yao-share → arithmetic-share conversion the
//!   paper cites from ABY.

use rand::Rng;
use secyan_circuit::{bits_to_u64, u64_to_bits, Builder, Circuit, Col, Rows, Word};
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_ot::{OtReceiver, OtSender};
use secyan_transport::Channel;

use crate::protocol::{
    evaluate_begin, evaluate_finish, garble_banked, take_eval, EvalMaterial, EvalPending,
    GarbleMaterial, OutputMode,
};
use std::collections::VecDeque;

/// Widths of the output words that must leave the circuit as arithmetic
/// shares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedOutputSpec {
    pub widths: Vec<usize>,
}

impl SharedOutputSpec {
    /// Spec for `n` words of `bits` bits each.
    pub fn uniform(n: usize, bits: usize) -> SharedOutputSpec {
        SharedOutputSpec {
            widths: vec![bits; n],
        }
    }

    /// Total output bits.
    pub fn total_bits(&self) -> usize {
        self.widths.iter().sum()
    }
}

/// Add each word (zero-extended to its width) to its slice of the garbler's
/// `mask` and output the sums: the one mask adder of both circuit forms.
fn output_masked(b: &mut Builder, words: &[Word], mask: Word, widths: &[usize]) {
    assert_eq!(words.len(), widths.len(), "output word count");
    let mut mask = mask.0;
    for (word, &w) in words.iter().zip(widths) {
        assert!(word.bits() <= w, "output word width");
        let rest = mask.split_off(w);
        let word = b.resize_word(word, w);
        let sum = b.add_words(&word, &Word(mask));
        b.output_word(&sum);
        mask = rest;
    }
}

/// Build a circuit whose result words leave as arithmetic shares.
///
/// `f` declares the circuit's own inputs and computes the result words
/// (no wider than `spec` says). This helper prepends one garbler mask word
/// per output and appends the mask adders, so the *same* function produces
/// the identical circuit on both sides.
pub fn with_shared_outputs(
    spec: &SharedOutputSpec,
    f: impl FnOnce(&mut Builder) -> Vec<Word>,
) -> Circuit {
    let mut b = Builder::new();
    let mask = b.alice_word(spec.total_bits());
    let words = f(&mut b);
    output_masked(&mut b, &words, mask, &spec.widths);
    b.finish()
}

/// Row form of [`with_shared_outputs`]: `n` rows, each leaving words of
/// `widths` as arithmetic shares. `body` declares the circuit's own input
/// columns and segments and returns the result words as `n`-row columns,
/// one per width. The mask column comes first in wire order and the mask
/// adders are one trailing segment reading those columns: the flat form's
/// AND order exactly.
pub fn with_shared_rows(
    n: usize,
    widths: &[usize],
    body: impl FnOnce(&mut Rows) -> Vec<Col>,
) -> (Circuit, SharedOutputSpec) {
    let mut rows = Rows::new();
    let masks = rows.alice(n, widths.iter().sum());
    let cols = body(&mut rows);
    assert!(cols.iter().all(|col| col.rows == n), "output row count");
    let masked = rows.segment(n, |b| {
        let mask = b.read(masks);
        let words: Vec<Word> = cols.iter().map(|&col| b.read(col)).collect();
        output_masked(b, &words, mask, widths);
    });
    rows.output(masked);
    let widths = widths.iter().copied().cycle().take(n * widths.len());
    let spec = SharedOutputSpec {
        widths: widths.collect(),
    };
    (rows.finish(), spec)
}

/// Garbler side of a shared-output circuit through a bank of pre-garbled
/// material (see [`garble_banked`]). `my_inputs` are the bits of the
/// circuit's own garbler inputs (excluding masks, which this function draws
/// from `rng` — they are garbler inputs, so banking them was never
/// needed). Returns the garbler's arithmetic shares, one per output word.
pub fn garble_shared_banked<R: Rng + ?Sized>(
    ch: &mut Channel,
    bank: &mut VecDeque<GarbleMaterial>,
    circuit: &Circuit,
    spec: &SharedOutputSpec,
    my_inputs: &[bool],
    ot: &mut OtSender,
    rng: &mut R,
) -> Vec<u64> {
    let (mask_bits, shares) = draw_masks(spec, my_inputs, rng);
    let mode = OutputMode::RevealToEvaluator;
    let out = garble_banked(ch, bank, circuit, &mask_bits, ot, rng, mode);
    debug_assert!(out.is_none());
    shares
}

/// [`garble_shared_banked`] with nothing banked.
pub fn garble_shared<R: Rng + ?Sized>(
    ch: &mut Channel,
    circuit: &Circuit,
    spec: &SharedOutputSpec,
    my_inputs: &[bool],
    ot: &mut OtSender,
    _hasher: TweakHasher,
    rng: &mut R,
) -> Vec<u64> {
    let bank = &mut VecDeque::new();
    garble_shared_banked(ch, bank, circuit, spec, my_inputs, ot, rng)
}

/// Prepend the fresh random mask words to the garbler's own inputs; the
/// garbler's shares are the mask negations.
fn draw_masks<R: Rng + ?Sized>(
    spec: &SharedOutputSpec,
    my_inputs: &[bool],
    rng: &mut R,
) -> (Vec<bool>, Vec<u64>) {
    let mut mask_bits = Vec::new();
    let mut shares = Vec::with_capacity(spec.widths.len());
    for &w in &spec.widths {
        let ring = RingCtx::new(w as u32);
        let r = ring.random(rng);
        mask_bits.extend(u64_to_bits(r, w));
        shares.push(ring.neg(r));
    }
    mask_bits.extend_from_slice(my_inputs);
    (mask_bits, shares)
}

/// Second half of the shared-output evaluator, after [`evaluate_begin`]
/// staged the OT corrections for `my_inputs`: receive and evaluate,
/// returning the evaluator's arithmetic shares, one per output word.
pub fn evaluate_shared_finish(
    ch: &mut Channel,
    circuit: &Circuit,
    pending: EvalPending,
    spec: &SharedOutputSpec,
    my_inputs: &[bool],
    ot: &mut OtReceiver,
) -> Vec<u64> {
    let bits = evaluate_finish(
        ch,
        circuit,
        pending,
        my_inputs,
        ot,
        OutputMode::RevealToEvaluator,
    )
    .expect("shared-output circuits reveal to the evaluator");
    unpack_shares(spec, &bits)
}

/// Evaluator side of a shared-output circuit through a bank of
/// pre-received tables (see [`crate::protocol::evaluate_banked`]). Returns
/// the evaluator's arithmetic shares, one per output word.
pub fn evaluate_shared_banked(
    ch: &mut Channel,
    bank: &mut VecDeque<EvalMaterial>,
    circuit: &Circuit,
    spec: &SharedOutputSpec,
    my_inputs: &[bool],
    ot: &mut OtReceiver,
) -> Vec<u64> {
    let material = take_eval(bank, circuit);
    let pending = evaluate_begin(ch, circuit, material, my_inputs, ot);
    evaluate_shared_finish(ch, circuit, pending, spec, my_inputs, ot)
}

/// [`evaluate_shared_banked`] with nothing banked.
pub fn evaluate_shared(
    ch: &mut Channel,
    circuit: &Circuit,
    spec: &SharedOutputSpec,
    my_inputs: &[bool],
    ot: &mut OtReceiver,
    _hasher: TweakHasher,
) -> Vec<u64> {
    let bank = &mut VecDeque::new();
    evaluate_shared_banked(ch, bank, circuit, spec, my_inputs, ot)
}

/// Split the revealed masked-output bits back into per-word shares.
fn unpack_shares(spec: &SharedOutputSpec, bits: &[bool]) -> Vec<u64> {
    let mut shares = Vec::with_capacity(spec.widths.len());
    let mut pos = 0;
    for &w in &spec.widths {
        shares.push(bits_to_u64(&bits[pos..pos + w]));
        pos += w;
    }
    debug_assert_eq!(pos, bits.len());
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_transport::run_protocol;

    /// Circuit: multiply a shared input by a garbler-private factor,
    /// outputting the product as shares — the §6.2 annotation-product shape.
    fn product_circuit(bits: usize) -> (Circuit, SharedOutputSpec) {
        let spec = SharedOutputSpec::uniform(1, bits);
        let c = with_shared_outputs(&spec, |b| {
            let factor = b.alice_word(bits);
            let (va, vb) = (b.alice_word(bits), b.bob_word(bits));
            let v = b.add_words(&va, &vb);
            vec![b.mul_words(&v, &factor)]
        });
        (c, spec)
    }

    #[test]
    fn shared_product_reconstructs() {
        let bits = 32;
        let ring = RingCtx::new(32);
        let mut setup_rng = StdRng::seed_from_u64(42);
        let secret = 777u64;
        let factor = 1001u64;
        let (sa, sb) = ring.share(secret, &mut setup_rng);
        let (c, spec) = product_circuit(bits);
        let (c2, spec2) = (c.clone(), spec.clone());
        let (ga, gb, _) = run_protocol(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(1);
                let mut ot = OtSender::setup(ch, &mut rng, TweakHasher::Aes);
                let mut inputs = u64_to_bits(factor, bits);
                inputs.extend(u64_to_bits(sa, bits));
                garble_shared(ch, &c, &spec, &inputs, &mut ot, TweakHasher::Aes, &mut rng)
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(2);
                let mut ot = OtReceiver::setup(ch, &mut rng, TweakHasher::Aes);
                evaluate_shared(
                    ch,
                    &c2,
                    &spec2,
                    &u64_to_bits(sb, bits),
                    &mut ot,
                    TweakHasher::Aes,
                )
            },
        );
        assert_eq!(ring.reconstruct(ga[0], gb[0]), ring.mul(secret, factor));
        // Individual shares are not the product itself (overwhelmingly).
        assert_ne!(ga[0], ring.mul(secret, factor));
    }

    #[test]
    fn multiple_output_words() {
        // Two shared outputs of different widths in one circuit.
        let spec = SharedOutputSpec {
            widths: vec![16, 8],
        };
        let c = with_shared_outputs(&spec, |b| {
            let x = b.alice_word(16);
            let y = b.bob_word(8);
            let y16 = b.resize_word(&y, 16);
            let sum = b.add_words(&x, &y16);
            let y2 = b.add_words(&y, &y);
            vec![sum, y2]
        });
        let spec2 = spec.clone();
        let c2 = c.clone();
        let (ga, gb, _) = run_protocol(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(3);
                let mut ot = OtSender::setup(ch, &mut rng, TweakHasher::Aes);
                garble_shared(
                    ch,
                    &c,
                    &spec,
                    &u64_to_bits(1000, 16),
                    &mut ot,
                    TweakHasher::Aes,
                    &mut rng,
                )
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(4);
                let mut ot = OtReceiver::setup(ch, &mut rng, TweakHasher::Aes);
                evaluate_shared(
                    ch,
                    &c2,
                    &spec2,
                    &u64_to_bits(77, 8),
                    &mut ot,
                    TweakHasher::Aes,
                )
            },
        );
        let r16 = RingCtx::new(16);
        let r8 = RingCtx::new(8);
        assert_eq!(r16.reconstruct(ga[0], gb[0]), 1077);
        assert_eq!(r8.reconstruct(ga[1], gb[1]), 154);
    }
}
