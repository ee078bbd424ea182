//! Plaintext circuit evaluation — the correctness oracle for garbling.

use crate::ir::{Circuit, Gate};

/// Evaluate `circuit` on cleartext inputs, returning the output bits in
/// declaration order. Input slices must match the declared input counts.
pub fn evaluate(circuit: &Circuit, alice: &[bool], bob: &[bool]) -> Vec<bool> {
    assert_eq!(alice.len(), circuit.alice_inputs, "alice input arity");
    assert_eq!(bob.len(), circuit.bob_inputs, "bob input arity");
    let mut slots = vec![false; circuit.num_slots()];
    slots[..alice.len()].copy_from_slice(alice);
    slots[alice.len()..alice.len() + bob.len()].copy_from_slice(bob);
    for seg in circuit.segments() {
        let mut wires = vec![false; seg.num_wires];
        for row in 0..seg.count {
            for (w, port) in seg.ports.iter().enumerate() {
                wires[w] = slots[port.slot(row)];
            }
            for g in &seg.gates {
                match *g {
                    Gate::Xor { a, b, out } => wires[out] = wires[a] ^ wires[b],
                    Gate::And { a, b, out } => wires[out] = wires[a] & wires[b],
                    Gate::Inv { a, out } => wires[out] = !wires[a],
                }
            }
            let out = seg.export_base + row * seg.exports.len();
            for (k, &w) in seg.exports.iter().enumerate() {
                slots[out + k] = wires[w];
            }
        }
    }
    circuit.output_slots().map(|s| slots[s]).collect()
}

/// Convert a u64 to `bits` little-endian booleans.
pub fn u64_to_bits(v: u64, bits: usize) -> Vec<bool> {
    (0..bits).map(|i| v >> i & 1 == 1).collect()
}

/// Convert little-endian booleans back to a u64 (panics if over 64 bits).
pub fn bits_to_u64(bits: &[bool]) -> u64 {
    assert!(bits.len() <= 64);
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | (b as u64) << i)
}

/// The `width` low bits of every word, little-endian, in word order: how a
/// vector of ring elements enters a circuit's input wires.
pub fn words_to_bits(words: &[u64], width: usize) -> Vec<bool> {
    let mut bits = Vec::with_capacity(words.len() * width);
    for &w in words {
        bits.extend((0..width).map(|i| w >> i & 1 == 1));
    }
    bits
}

/// Inverse of [`words_to_bits`]: consecutive `width`-bit words of `bits`
/// (a shorter tail is one last word).
pub fn bits_to_words(bits: &[bool], width: usize) -> Vec<u64> {
    bits.chunks(width).map(bits_to_u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_conversions_roundtrip() {
        for v in [0u64, 1, 42, u64::MAX, 1 << 63] {
            assert_eq!(bits_to_u64(&u64_to_bits(v, 64)), v);
        }
        assert_eq!(bits_to_u64(&u64_to_bits(0xff, 4)), 0xf);
        let words = [5u64, 0, 0x1ff, 77];
        let bits = words_to_bits(&words, 8);
        assert_eq!(bits[..8], u64_to_bits(5, 8));
        assert_eq!(bits_to_words(&bits, 8), [5, 0, 0xff, 77]);
        assert!(bits_to_words(&[], 8).is_empty());
    }
}
