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
//! * **Shared outputs** ([`with_shared_rows`]): every output word is an
//!   ℓ-bit ring word. For each output word W the garbler feeds a fresh
//!   random mask r as an extra input; the circuit reveals W + r (mod 2^ℓ)
//!   to the evaluator only. The evaluator's share is W + r, the garbler's
//!   is −r: a fresh additive sharing of W, with neither party learning W.
//!   This is the standard Yao-share → arithmetic-share conversion the
//!   paper cites from ABY. The garbler runs [`garble_shared_banked`]; the
//!   evaluator runs the plain evaluator and reads its output bits as
//!   ℓ-bit words ([`secyan_circuit::bits_to_words`]).
//!
//! The flat forms [`with_shared_outputs`], [`garble_shared`] and
//! [`evaluate_shared`], sized by a [`SharedOutputSpec`], serve the
//! benchmark's garbling probe.

use rand::Rng;
use secyan_circuit::{bits_to_words, words_to_bits, Builder, Circuit, Col, Rows, Word};
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_ot::{OtReceiver, OtSender};
use secyan_transport::Channel;

use crate::protocol::{evaluate_circuit, garble_banked, GarbleMaterial};
use std::collections::VecDeque;

/// The flat form's shared outputs: `words` words of `bits` bits each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedOutputSpec {
    pub words: usize,
    pub bits: usize,
}

impl SharedOutputSpec {
    /// Spec for `n` words of `bits` bits each.
    pub fn uniform(n: usize, bits: usize) -> SharedOutputSpec {
        SharedOutputSpec { words: n, bits }
    }

    /// Total output bits.
    pub fn total_bits(&self) -> usize {
        self.words * self.bits
    }
}

/// Add each word (zero-extended to `bits`) to its `bits`-wide slice of the
/// garbler's `mask` and output the sums: the one mask adder of both
/// circuit forms.
fn output_masked(b: &mut Builder, words: &[Word], mask: Word, bits: usize) {
    assert_eq!(words.len() * bits, mask.bits(), "output word count");
    for (word, mask) in words.iter().zip(mask.0.chunks(bits)) {
        assert!(word.bits() <= bits, "output word width");
        let word = b.resize_word(word, bits);
        let sum = b.add_words(&word, &Word(mask.to_vec()));
        b.output_word(&sum);
    }
}

/// Build a circuit whose result words leave as arithmetic shares.
///
/// `f` declares the circuit's own inputs and computes the `spec.words`
/// result words (no wider than `spec.bits`). This helper prepends one
/// garbler mask word per output and appends the mask adders, so the
/// *same* function produces the identical circuit on both sides.
pub fn with_shared_outputs(
    spec: &SharedOutputSpec,
    f: impl FnOnce(&mut Builder) -> Vec<Word>,
) -> Circuit {
    let mut b = Builder::new();
    let mask = b.alice_word(spec.total_bits());
    let words = f(&mut b);
    output_masked(&mut b, &words, mask, spec.bits);
    b.finish()
}

/// `n` rows, each leaving one `bits`-bit ring word as arithmetic shares.
/// `body` declares the circuit's own input columns and segments and
/// returns the result word as an `n`-row column. The mask column comes
/// first in wire order and the mask adders are one trailing segment
/// reading both columns: the flat form's AND order exactly.
pub fn with_shared_rows(n: usize, bits: usize, body: impl FnOnce(&mut Rows) -> Col) -> Circuit {
    let mut rows = Rows::new();
    let masks = rows.alice(n, bits);
    let col = body(&mut rows);
    assert_eq!(col.rows, n, "output row count");
    let masked = rows.segment(n, |b| {
        let (mask, word) = (b.read(masks), b.read(col));
        output_masked(b, &[word], mask, bits);
    });
    rows.output(masked);
    rows.finish()
}

/// Garbler side of a shared-output circuit through a bank of pre-garbled
/// material (see [`garble_banked`], which takes `shift`). `my_inputs` are
/// the bits of the circuit's own garbler inputs: this function draws one
/// mask per output word from `rng` and feeds them first (they are garbler
/// inputs, so banking them was never needed). Returns the garbler's
/// arithmetic shares in `ring`, the mask negations, one per output word.
#[expect(clippy::too_many_arguments)]
pub fn garble_shared_banked<R: Rng + ?Sized>(
    ch: &mut Channel,
    bank: &mut VecDeque<GarbleMaterial>,
    circuit: &Circuit,
    ring: RingCtx,
    my_inputs: &[bool],
    shift: &[bool],
    ot: &mut OtSender,
    rng: &mut R,
) -> Vec<u64> {
    let bits = ring.bits() as usize;
    let masks: Vec<u64> = (0..circuit.output_count() / bits)
        .map(|_| ring.random(rng))
        .collect();
    let mut inputs = words_to_bits(&masks, bits);
    inputs.extend_from_slice(my_inputs);
    garble_banked(ch, bank, circuit, &inputs, shift, ot, rng);
    masks.iter().map(|&r| ring.neg(r)).collect()
}

/// Flat form of [`garble_shared_banked`]: nothing banked, nothing
/// shifted, the ring of `spec.bits`.
pub fn garble_shared<R: Rng + ?Sized>(
    ch: &mut Channel,
    circuit: &Circuit,
    spec: &SharedOutputSpec,
    my_inputs: &[bool],
    ot: &mut OtSender,
    _hasher: TweakHasher,
    rng: &mut R,
) -> Vec<u64> {
    let ring = RingCtx::new(spec.bits as u32);
    let bank = &mut VecDeque::new();
    garble_shared_banked(ch, bank, circuit, ring, my_inputs, &[], ot, rng)
}

/// Flat evaluator of a shared-output circuit: its output bits read as
/// `spec.bits`-bit words, the evaluator's arithmetic shares.
pub fn evaluate_shared(
    ch: &mut Channel,
    circuit: &Circuit,
    spec: &SharedOutputSpec,
    my_inputs: &[bool],
    ot: &mut OtReceiver,
    _hasher: TweakHasher,
) -> Vec<u64> {
    bits_to_words(&evaluate_circuit(ch, circuit, my_inputs, ot), spec.bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_circuit::u64_to_bits;
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
        // Two shared 16-bit outputs in one circuit, one computed 8 bits
        // wide and zero-extended.
        let spec = SharedOutputSpec::uniform(2, 16);
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
        assert_eq!(r16.reconstruct(ga[0], gb[0]), 1077);
        assert_eq!(r16.reconstruct(ga[1], gb[1]), 154);
    }
}
