//! Cross-hasher agreement: the fixed-key AES tweakable hash is a drop-in
//! substitute for the SHA-256 construction. Garbling the same circuit under
//! `TweakHasher::Aes` and `TweakHasher::Sha256` must produce identical
//! cleartext outputs *and* identical transcript shapes — the hash choice
//! changes ciphertext bytes, never message count, length, or direction.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use secyan_circuit::{bits_to_u64, u64_to_bits, Builder, Circuit};
use secyan_crypto::TweakHasher;
use secyan_gc::{evaluate_circuit, garble_circuit, OutputMode};
use secyan_ot::{OtReceiver, OtSender};
use secyan_transport::{channel_pair_with_transcript, run_protocol_on, Role};

/// A circuit exercising every gate kind: sum, product, equality, less-than.
fn mixed_circuit(bits: usize) -> Circuit {
    let mut b = Builder::new();
    let x = b.alice_word(bits);
    let y = b.bob_word(bits);
    let sum = b.add_words(&x, &y);
    let prod = b.mul_words(&x, &y);
    let eq = b.eq_words(&x, &y);
    let lt = b.lt_words(&x, &y);
    b.output_word(&sum);
    b.output_word(&prod);
    b.output(eq);
    b.output(lt);
    b.finish()
}

/// Run the two-party GC protocol on `(x, y)` under `hasher`, recording the
/// transcript. Returns (garbler outputs, evaluator outputs, transcript).
fn run_gc(
    x: u64,
    y: u64,
    bits: usize,
    hasher: TweakHasher,
) -> (Vec<bool>, Vec<bool>, Vec<(Role, usize)>) {
    let circ = mixed_circuit(bits);
    let circ2 = circ.clone();
    let xb = u64_to_bits(x, bits);
    let yb = u64_to_bits(y, bits);
    let (a_out, b_out, _) = run_protocol_on(
        channel_pair_with_transcript(),
        move |ch| {
            let mut rng = StdRng::seed_from_u64(7001);
            let mut ot = OtSender::setup(ch, &mut rng, hasher);
            let out = garble_circuit(
                ch,
                &circ,
                &xb,
                &mut ot,
                hasher,
                &mut rng,
                OutputMode::RevealBoth,
            )
            .expect("reveal-both returns to garbler");
            (out, ch.transcript_lengths())
        },
        move |ch| {
            let mut rng = StdRng::seed_from_u64(7002);
            let mut ot = OtReceiver::setup(ch, &mut rng, hasher);
            evaluate_circuit(ch, &circ2, &yb, &mut ot, hasher, OutputMode::RevealBoth)
                .expect("reveal-both returns to evaluator")
        },
    );
    let (garbler_out, transcript) = a_out;
    (garbler_out, b_out, transcript)
}

/// Decode the mixed circuit's outputs into (sum, prod, eq, lt).
fn decode(bits: usize, out: &[bool]) -> (u64, u64, bool, bool) {
    (
        bits_to_u64(&out[..bits]),
        bits_to_u64(&out[bits..2 * bits]),
        out[2 * bits],
        out[2 * bits + 1],
    )
}

#[test]
fn aes_and_sha256_garblings_agree() {
    const BITS: usize = 16;
    for (x, y) in [(1234u64, 4321u64), (0, 0), (65535, 1), (40000, 40000)] {
        let (a_sha, b_sha, t_sha) = run_gc(x, y, BITS, TweakHasher::Sha256);
        let (a_aes, b_aes, t_aes) = run_gc(x, y, BITS, TweakHasher::Aes);
        // Identical cleartext outputs, on both sides.
        assert_eq!(a_sha, a_aes, "garbler outputs differ for ({x}, {y})");
        assert_eq!(b_sha, b_aes, "evaluator outputs differ for ({x}, {y})");
        assert_eq!(a_aes, b_aes, "parties disagree for ({x}, {y})");
        // And they are the *right* outputs.
        let mask = (1u64 << BITS) - 1;
        let (sum, prod, eq, lt) = decode(BITS, &a_aes);
        assert_eq!(sum, (x + y) & mask);
        assert_eq!(prod, (x * y) & mask);
        assert_eq!(eq, x == y);
        assert_eq!(lt, x < y);
        // Identical transcript shape: same message count, and every message
        // has the same direction and byte length under either hasher.
        assert_eq!(
            t_sha.len(),
            t_aes.len(),
            "message counts differ for ({x}, {y})"
        );
        for (i, (ms, ma)) in t_sha.iter().zip(&t_aes).enumerate() {
            assert_eq!(ms, ma, "transcript message {i} differs for ({x}, {y})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Property form: for random inputs, Aes and Sha256 garblings agree on
    /// the decoded outputs and on the transcript length sequence.
    #[test]
    fn prop_hashers_agree(x in 0u64..1 << 12, y in 0u64..1 << 12) {
        const BITS: usize = 12;
        let (a_sha, b_sha, t_sha) = run_gc(x, y, BITS, TweakHasher::Sha256);
        let (a_aes, b_aes, t_aes) = run_gc(x, y, BITS, TweakHasher::Aes);
        prop_assert_eq!(&a_sha, &a_aes);
        prop_assert_eq!(&b_sha, &b_aes);
        prop_assert_eq!(t_sha, t_aes);
    }
}
