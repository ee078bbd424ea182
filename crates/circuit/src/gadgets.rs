//! Word-level gadgets: the arithmetic the secure protocol garbles.
//!
//! Everything operates on little-endian [`Word`]s over Z_{2^ℓ} with
//! wrap-around semantics. AND-gate counts (the cost driver): add/sub are
//! ℓ−1 ANDs, mul is ~ℓ²/2 + ℓ·(ℓ−1) ANDs, eq is ℓ−1 ANDs, mux is ℓ ANDs.

use crate::builder::{BitRef, Builder, Word};

impl Builder {
    /// Bitwise XOR of equal-width words (free).
    pub fn xor_words(&mut self, a: &Word, b: &Word) -> Word {
        assert_eq!(a.bits(), b.bits());
        Word(
            a.0.iter()
                .zip(&b.0)
                .map(|(&x, &y)| self.xor(x, y))
                .collect(),
        )
    }

    /// `a + b` mod 2^ℓ (ripple-carry, one AND per bit except the last).
    pub fn add_words(&mut self, a: &Word, b: &Word) -> Word {
        self.add_with_carry(a, b, BitRef::Const(false))
    }

    /// `a - b` mod 2^ℓ — implemented as `a + !b + 1`.
    pub fn sub_words(&mut self, a: &Word, b: &Word) -> Word {
        let nb = Word(b.0.iter().map(|&x| self.not(x)).collect());
        self.add_with_carry(a, &nb, BitRef::Const(true))
    }

    fn add_with_carry(&mut self, a: &Word, b: &Word, mut carry: BitRef) -> Word {
        assert_eq!(a.bits(), b.bits());
        let n = a.bits();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let (x, y) = (a.0[i], b.0[i]);
            let xc = self.xor(x, carry);
            let yc = self.xor(y, carry);
            let s = self.xor(xc, y);
            out.push(s);
            if i + 1 < n {
                // carry' = carry ⊕ ((x ⊕ carry) ∧ (y ⊕ carry)) — the
                // single-AND full adder.
                let t = self.and(xc, yc);
                carry = self.xor(carry, t);
            }
        }
        Word(out)
    }

    /// `a * b` mod 2^ℓ (schoolbook shift-and-add).
    pub fn mul_words(&mut self, a: &Word, b: &Word) -> Word {
        assert_eq!(a.bits(), b.bits());
        let n = a.bits();
        let mut acc = self.const_word(0, n);
        for j in 0..n {
            // Partial product (a << j) & b_j, truncated to ℓ bits.
            let mut partial = vec![BitRef::Const(false); n];
            for i in 0..n - j {
                partial[i + j] = self.and(a.0[i], b.0[j]);
            }
            acc = self.add_words(&acc, &Word(partial));
        }
        acc
    }

    /// 1-bit equality of words (ℓ−1 ANDs via an AND-tree of XNORs).
    pub fn eq_words(&mut self, a: &Word, b: &Word) -> BitRef {
        assert_eq!(a.bits(), b.bits());
        let diffs: Vec<BitRef> = (0..a.bits())
            .map(|i| {
                let x = self.xor(a.0[i], b.0[i]);
                self.not(x)
            })
            .collect();
        self.and_tree(&diffs)
    }

    /// 1 iff the word is zero (ℓ−1 ANDs).
    pub fn is_zero_word(&mut self, a: &Word) -> BitRef {
        let inv: Vec<BitRef> = a.0.iter().map(|&x| self.not(x)).collect();
        self.and_tree(&inv)
    }

    /// 1 iff the word is nonzero.
    pub fn is_nonzero_word(&mut self, a: &Word) -> BitRef {
        let z = self.is_zero_word(a);
        self.not(z)
    }

    /// Unsigned `a < b` (final borrow of a ripple subtractor; ℓ ANDs).
    pub fn lt_words(&mut self, a: &Word, b: &Word) -> BitRef {
        assert_eq!(a.bits(), b.bits());
        // borrow' = b_i ⊕ ((a_i ⊕ b_i) ∧ (b_i ⊕ borrow))  — wait, use the
        // standard identity: borrow_{i+1} = ((a_i ⊕ borrow_i) ∧ (b_i ⊕
        // borrow_i)) ⊕ a_i ⊕ borrow_i ⊕ ... Simplest correct form:
        // borrow' = (!a & b) | (borrow & !(a ^ b)), computed with one AND
        // via borrow' = borrow ⊕ ((a ⊕ borrow) ∧ (b ⊕ borrow)) ⊕ (a ⊕ b)?
        // We instead use the subtract-with-carry trick: a - b = a + !b + 1;
        // a < b  ⇔  the final carry out is 0.
        let nb = Word(b.0.iter().map(|&x| self.not(x)).collect());
        let carry_out = self.carry_out(a, &nb, BitRef::Const(true));
        self.not(carry_out)
    }

    /// Carry out of `a + b + carry_in` (ℓ ANDs).
    fn carry_out(&mut self, a: &Word, b: &Word, mut carry: BitRef) -> BitRef {
        assert_eq!(a.bits(), b.bits());
        for i in 0..a.bits() {
            let xc = self.xor(a.0[i], carry);
            let yc = self.xor(b.0[i], carry);
            let t = self.and(xc, yc);
            carry = self.xor(carry, t);
        }
        carry
    }

    /// Unsigned integer division `a / b` (restoring division, ~2ℓ² ANDs).
    /// Division by zero yields all-ones, like a saturating sentinel; the
    /// composition layer never divides by zero on real groups.
    pub fn div_words(&mut self, a: &Word, b: &Word) -> Word {
        assert_eq!(a.bits(), b.bits());
        let n = a.bits();
        // Remainder register, built up from a's bits MSB-first.
        let mut rem = self.const_word(0, n);
        let mut quot = vec![BitRef::Const(false); n];
        for i in (0..n).rev() {
            // rem = (rem << 1) | a_i.
            let mut shifted = vec![a.0[i]];
            shifted.extend_from_slice(&rem.0[..n - 1]);
            rem = Word(shifted);
            // If rem >= b: rem -= b, quotient bit 1.
            let lt = self.lt_words(&rem, b);
            let ge = self.not(lt);
            let diff = self.sub_words(&rem, b);
            rem = self.mux_words(ge, &diff, &rem);
            quot[i] = ge;
        }
        // Division by zero: every step sets ge (rem >= 0 is always true),
        // giving the all-ones sentinel naturally.
        Word(quot)
    }

    /// `sel ? t : f` word-wise (ℓ ANDs).
    pub fn mux_words(&mut self, sel: BitRef, t: &Word, f: &Word) -> Word {
        assert_eq!(t.bits(), f.bits());
        Word(
            t.0.iter()
                .zip(&f.0)
                .map(|(&x, &y)| self.mux(sel, x, y))
                .collect(),
        )
    }

    /// Multiply a word by a single bit: `bit ? a : 0` (ℓ ANDs).
    pub fn and_word_bit(&mut self, a: &Word, bit: BitRef) -> Word {
        Word(a.0.iter().map(|&x| self.and(x, bit)).collect())
    }

    /// Balanced AND-tree over bits (n−1 ANDs, depth ⌈log n⌉).
    pub fn and_tree(&mut self, bits: &[BitRef]) -> BitRef {
        match bits.len() {
            0 => BitRef::Const(true),
            1 => bits[0],
            n => {
                let (lo, hi) = bits.split_at(n / 2);
                let l = self.and_tree(lo);
                let r = self.and_tree(hi);
                self.and(l, r)
            }
        }
    }

    /// Truncate or zero-extend a word to `bits`.
    pub fn resize_word(&mut self, a: &Word, bits: usize) -> Word {
        let mut v = a.0.clone();
        v.truncate(bits);
        while v.len() < bits {
            v.push(BitRef::Const(false));
        }
        Word(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{bits_to_u64, evaluate, u64_to_bits};
    use crate::ir::Circuit;

    /// Build a 2-input word circuit with `f`, evaluate on (x, y), return u64.
    fn run_binop(
        bits: usize,
        x: u64,
        y: u64,
        f: impl Fn(&mut Builder, &Word, &Word) -> Word,
    ) -> u64 {
        let mut bld = Builder::new();
        let a = bld.alice_word(bits);
        let b = bld.bob_word(bits);
        let o = f(&mut bld, &a, &b);
        bld.output_word(&o);
        let c: Circuit = bld.finish();
        c.validate().unwrap();
        let out = evaluate(&c, &u64_to_bits(x, bits), &u64_to_bits(y, bits));
        bits_to_u64(&out)
    }

    fn run_pred(
        bits: usize,
        x: u64,
        y: u64,
        f: impl Fn(&mut Builder, &Word, &Word) -> BitRef,
    ) -> bool {
        let mut bld = Builder::new();
        let a = bld.alice_word(bits);
        let b = bld.bob_word(bits);
        let o = f(&mut bld, &a, &b);
        bld.output(o);
        let c = bld.finish();
        evaluate(&c, &u64_to_bits(x, bits), &u64_to_bits(y, bits))[0]
    }

    const CASES: [(u64, u64); 8] = [
        (0, 0),
        (1, 1),
        (5, 3),
        (3, 5),
        (0xffff_ffff, 1),
        (123_456_789, 987_654_321),
        (0x8000_0000, 0x8000_0000),
        (0xdead_beef, 0xcafe_f00d),
    ];

    #[test]
    fn add_matches_wrapping_add() {
        for (x, y) in CASES {
            let got = run_binop(32, x, y, |b, a, c| b.add_words(a, c));
            assert_eq!(got, (x.wrapping_add(y)) & 0xffff_ffff, "{x} + {y}");
        }
    }

    #[test]
    fn sub_matches_wrapping_sub() {
        for (x, y) in CASES {
            let got = run_binop(32, x, y, |b, a, c| b.sub_words(a, c));
            assert_eq!(got, (x.wrapping_sub(y)) & 0xffff_ffff, "{x} - {y}");
        }
    }

    #[test]
    fn mul_matches_wrapping_mul() {
        for (x, y) in CASES {
            let got = run_binop(32, x, y, |b, a, c| b.mul_words(a, c));
            assert_eq!(got, (x.wrapping_mul(y)) & 0xffff_ffff, "{x} * {y}");
        }
    }

    #[test]
    fn comparisons_match() {
        for (x, y) in CASES {
            assert_eq!(run_pred(32, x, y, |b, a, c| b.eq_words(a, c)), x == y);
            assert_eq!(run_pred(32, x, y, |b, a, c| b.lt_words(a, c)), x < y);
        }
    }

    #[test]
    fn zero_tests_match() {
        for v in [0u64, 1, 0xffff_ffff] {
            assert_eq!(run_pred(32, v, 0, |b, a, _| b.is_zero_word(a)), v == 0);
            assert_eq!(run_pred(32, v, 0, |b, a, _| b.is_nonzero_word(a)), v != 0);
        }
    }

    #[test]
    fn div_matches_integer_division() {
        for (x, y) in [
            (100u64, 7u64),
            (0, 5),
            (13, 13),
            (12, 13),
            (0xffff, 1),
            (7, 100),
        ] {
            let got = run_binop(16, x, y, |b, a, c| b.div_words(a, c));
            assert_eq!(got, x / y, "{x} / {y}");
        }
    }

    #[test]
    fn div_by_zero_saturates() {
        assert_eq!(run_binop(8, 42, 0, |b, a, c| b.div_words(a, c)), 0xff);
    }

    #[test]
    fn mux_selects() {
        for sel in [0u64, 1] {
            let mut bld = Builder::new();
            let s = bld.alice_input();
            let t = bld.bob_word(8);
            let f = bld.const_word(99, 8);
            let o = bld.mux_words(s, &t, &f);
            bld.output_word(&o);
            let c = bld.finish();
            let out = evaluate(&c, &[sel == 1], &u64_to_bits(42, 8));
            assert_eq!(bits_to_u64(&out), if sel == 1 { 42 } else { 99 });
        }
    }

    #[test]
    fn and_gate_budget_for_add() {
        // Documented cost model: ℓ−1 ANDs for an adder.
        let mut bld = Builder::new();
        let a = bld.alice_word(32);
        let b = bld.bob_word(32);
        let o = bld.add_words(&a, &b);
        bld.output_word(&o);
        assert_eq!(bld.finish().and_count(), 31);
    }

    #[test]
    fn and_tree_is_conjunction() {
        for n in 0..6 {
            let mut bld = Builder::new();
            let _pad = bld.alice_input(); // ensures const outputs materialize
            let bits: Vec<BitRef> = (0..n).map(|_| bld.bob_input()).collect();
            let all = bld.and_tree(&bits);
            bld.output(all);
            let c = bld.finish();
            for pattern in 0..1u32 << n {
                let ins: Vec<bool> = (0..n).map(|i| pattern >> i & 1 == 1).collect();
                let out = evaluate(&c, &[false], &ins);
                assert_eq!(out[0], ins.iter().all(|&b| b), "and n={n} p={pattern}");
            }
        }
    }

    #[test]
    fn resize_word_extends_and_truncates() {
        let got = run_binop(16, 0xabcd, 0, |b, a, _| {
            let w = b.resize_word(a, 8);
            b.resize_word(&w, 16)
        });
        assert_eq!(got, 0xcd);
    }

    proptest::proptest! {
        #[test]
        fn prop_arith_matches_u64(x: u64, y: u64) {
            let m = 0xffff_ffffu64;
            proptest::prop_assert_eq!(
                run_binop(32, x & m, y & m, |b, a, c| b.add_words(a, c)),
                x.wrapping_add(y) & m
            );
            proptest::prop_assert_eq!(
                run_binop(32, x & m, y & m, |b, a, c| b.mul_words(a, c)),
                (x & m).wrapping_mul(y & m) & m
            );
            proptest::prop_assert_eq!(
                run_pred(32, x & m, y & m, |b, a, c| b.lt_words(a, c)),
                (x & m) < (y & m)
            );
        }
    }
}
