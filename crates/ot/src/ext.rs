//! The OT-extension engine shared by IKNP and KKRT.
//!
//! Both protocols are the same matrix trick at different widths: the
//! receiver expands two PRG streams per column, masks one with a column of
//! its code matrix and ships the masked columns as one message; the sender
//! expands its one stream per column, folds in the received column under
//! its secret bit `s_i`, and both transpose to per-instance rows. The
//! sender's row is then `q_j = t_j ⊕ (code_j & s)` against the receiver's
//! `t_j`. IKNP instantiates this at 16-byte rows with the repetition code
//! (every column carries the packed choice bits), KKRT at 64-byte rows
//! with a pseudorandom code; what each does with the rows — hashing,
//! masking, derandomisation — lives in [`crate::iknp`] / [`crate::kkrt`].
//!
//! [`Bank`] holds IKNP's precomputed rows on either side; KKRT always
//! extends inline (see [`crate::kkrt`] for why).

use secyan_crypto::transpose::BitMatrix;
use secyan_crypto::{Block, CtChoice, Prg, Secret, Zeroize};
use secyan_transport::{Channel, WriteExt};
use std::marker::PhantomData;

/// One row of the extension matrix: `8 * BYTES` bits, bit `i` at byte
/// `i / 8`, position `i % 8`. Rows leave the transpose in their final type,
/// so IKNP gets `Block`s without a conversion pass.
pub(crate) trait Row: Copy + Zeroize {
    const BYTES: usize;

    /// Read a row from exactly `BYTES` bytes.
    fn load(bytes: &[u8]) -> Self;

    /// Bit `i`, in the least-significant bit of the result (the other bits
    /// are unspecified).
    fn bit(&self, i: usize) -> u8;
}

impl Row for Block {
    const BYTES: usize = 16;

    fn load(bytes: &[u8]) -> Self {
        Block(u128::from_le_bytes(bytes.try_into().expect("16-byte row")))
    }

    fn bit(&self, i: usize) -> u8 {
        (self.0 >> i) as u8
    }
}

impl<const N: usize> Row for [u8; N] {
    const BYTES: usize = N;

    fn load(bytes: &[u8]) -> Self {
        bytes.try_into().expect("N-byte row")
    }

    fn bit(&self, i: usize) -> u8 {
        self[i / 8] >> (i % 8)
    }
}

/// `secret`'s bits as the choice bits of the OTs that seed an
/// [`ExtSender`]: bit `i` picks column `i`'s seed.
pub(crate) fn choice_bits<R: Row>(secret: &R) -> Secret<Vec<bool>> {
    // ct-ok: branchless bit extraction — `& 1 == 1` compiles to a mask
    // test, and the resulting bools feed a branchless OT receive.
    Secret::new((0..8 * R::BYTES).map(|i| secret.bit(i) & 1 == 1).collect())
}

/// Sender half of the engine: the *receiving* side of the seeding OTs
/// under the secret correlation bits `s`, one PRG per column seeded with
/// `k_{s_i}`.
pub(crate) struct ExtSender<R: Row> {
    /// Leaking `s` breaks every instance derived from this setup.
    s: Secret<R>,
    prgs: Vec<Prg>,
}

impl<R: Row> ExtSender<R> {
    /// Bootstrap from `seeds`, one per column: the outputs of the OTs run
    /// under [`choice_bits`]`(&s)`, zeroized on drop once every column PRG
    /// is keyed. `label` domain-separates the column PRGs.
    pub fn new(label: &[u8], s: R, seeds: Secret<Vec<Block>>) -> Self {
        let prg = |k| Prg::from_secret(label, &Secret::new(k));
        let prgs = seeds.expose().iter().map(|&k| prg(k)).collect();
        ExtSender {
            s: Secret::new(s),
            prgs,
        }
    }

    pub fn s(&self) -> &Secret<R> {
        &self.s
    }

    /// Extend `m` instances: read the receiver's masked column bundle and
    /// return the correlated rows `q_j = t_j ⊕ (code_j & s)`. Empty batches
    /// are communication-free.
    pub fn extend(&mut self, ch: &mut Channel, m: usize) -> Vec<R> {
        if m == 0 {
            return Vec::new();
        }
        let row_bytes = m.div_ceil(8);
        // The receiver ships all masked columns as ONE message.
        let mut u_all = vec![0u8; self.prgs.len() * row_bytes];
        ch.recv_into(&mut u_all);
        // Column i of Q: G(k_{s_i}) ⊕ s_i · u_i. The s_i correlation is
        // applied branchlessly: every column does the same XOR loop against
        // u masked by an all-ones/all-zeros byte derived from s_i.
        let mut q = BitMatrix::zero(self.prgs.len(), m);
        let s = self.s.expose();
        for (i, prg) in self.prgs.iter_mut().enumerate() {
            let row = q.row_mut(i);
            prg.fill(row);
            let s_i = CtChoice::from_lsb(s.bit(i)).mask_u8();
            for (c, &ub) in row.iter_mut().zip(&u_all[i * row_bytes..]) {
                *c ^= ub & s_i;
            }
        }
        gather(&q.transpose(), m)
    }
}

/// Receiver half of the engine: the *sending* side of the seeding OTs, a
/// PRG pair per column seeded with both of its keys.
pub(crate) struct ExtReceiver<R: Row> {
    prgs: Vec<(Prg, Prg)>,
    _row: PhantomData<R>,
}

impl<R: Row> ExtReceiver<R> {
    /// Bootstrap from one seed pair per column, zeroized on drop once the
    /// PRGs are keyed; `label` must match the sender's.
    pub fn new(label: &[u8], pairs: Secret<Vec<(Block, Block)>>) -> Self {
        let prg = |k| Prg::from_secret(label, &Secret::new(k));
        let prgs = pairs.expose().iter().map(|&(k0, k1)| (prg(k0), prg(k1)));
        ExtReceiver {
            prgs: prgs.collect(),
            _row: PhantomData,
        }
    }

    /// Extend `m` instances under the code matrix whose column `i` (packed,
    /// `⌈m/8⌉` bytes) is `code_col(i)`: send the masked column bundle and
    /// return the row preimages `t_j`. Empty batches are communication-free.
    pub fn extend<'c>(
        &mut self,
        ch: &mut Channel,
        m: usize,
        code_col: impl Fn(usize) -> &'c [u8],
    ) -> Vec<R> {
        if m == 0 {
            return Vec::new();
        }
        let width = self.prgs.len();
        let row_bytes = m.div_ceil(8);
        // Per column: t0 = G(k0), u = G(k1) ⊕ t0 ⊕ code column. The masked
        // columns go out as ONE message, which the sender reads with a
        // single `recv_into`. The code bits are the receiver's secret, so
        // they are folded in without branching on them.
        let mut t = BitMatrix::zero(width, m);
        let mut u_all = vec![0u8; width * row_bytes];
        let us = u_all.chunks_exact_mut(row_bytes);
        for (i, ((prg0, prg1), u)) in self.prgs.iter_mut().zip(us).enumerate() {
            let t0 = t.row_mut(i);
            prg0.fill(t0);
            prg1.fill(u);
            for ((uk, &t0k), &ck) in u.iter_mut().zip(&*t0).zip(code_col(i)) {
                *uk ^= t0k ^ ck;
            }
        }
        ch.send_bytes(&u_all);
        gather(&t.transpose(), m)
    }
}

/// Pull the `m` rows out of a transposed matrix.
fn gather<R: Row>(rows: &BitMatrix, m: usize) -> Vec<R> {
    (0..m).map(|j| R::load(rows.row(j))).collect()
}

/// A bank of precomputed instances, filled offline and consumed online in
/// order. Strictly single-use: entries are zeroized inside the bank as they
/// leave, and whatever is left zeroizes on drop.
pub(crate) struct Bank<T: Zeroize> {
    items: Secret<Vec<T>>,
    /// Instance index of the first entry: its endpoint's extension count
    /// when the bank was filled.
    first: u64,
    cursor: usize,
}

impl<T: Zeroize + Copy> Bank<T> {
    pub fn new(items: Vec<T>, first: u64) -> Self {
        Bank {
            items: Secret::new(items),
            first,
            cursor: 0,
        }
    }

    /// Unconsumed instances left.
    pub fn remaining(&self) -> usize {
        self.items.expose().len() - self.cursor
    }

    /// The banked-vs-inline rule, the same public test on both parties: a
    /// bank serves a batch only when it holds all of it. Empty batches
    /// always go inline, where they are communication-free — a zero-length
    /// correction message would not be.
    pub fn covers(&self, m: usize) -> bool {
        m > 0 && self.remaining() >= m
    }

    /// Take the next `m` entries, with the instance index of the first.
    pub fn take(&mut self, m: usize) -> (u64, Secret<Vec<T>>) {
        let first = self.first + self.cursor as u64;
        let out = self.items.expose()[self.cursor..self.cursor + m].to_vec();
        self.discard(m);
        (first, Secret::new(out))
    }

    /// Discard entries until at most `cap` remain. Exhaustion tests use
    /// this to model a bank drained mid-run; discarded entries are scrubbed
    /// exactly like consumed ones.
    pub fn shed_to(&mut self, cap: usize) {
        self.discard(self.remaining().saturating_sub(cap));
    }

    fn discard(&mut self, m: usize) {
        let end = self.cursor + m;
        for x in &mut self.items.expose_mut()[self.cursor..end] {
            x.zeroize();
        }
        self.cursor = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `take` hands out the entries and leaves zeros behind; `shed_to`
    /// scrubs what it drops the same way.
    fn check_bank<T: Zeroize + Copy + PartialEq + std::fmt::Debug>(items: Vec<T>, zero: T) {
        assert!(items.iter().all(|x| *x != zero));
        let n = items.len();
        let mut bank = Bank::new(items.clone(), 100);
        assert_eq!(bank.remaining(), n);
        let (first, taken) = bank.take(3);
        assert_eq!((first, &taken.expose()[..]), (100, &items[..3]));
        assert_eq!(bank.remaining(), n - 3);
        // Consumed-on-take: the bank's copies are gone, the rest untouched.
        assert!(bank.items.expose()[..3].iter().all(|x| *x == zero));
        assert_eq!(bank.items.expose()[3..], items[3..]);
        bank.shed_to(2);
        assert_eq!(bank.remaining(), 2);
        assert!(bank.items.expose()[..n - 2].iter().all(|x| *x == zero));
        bank.shed_to(5);
        assert_eq!(bank.remaining(), 2, "shed never grows the bank");
        let (first, taken) = bank.take(2);
        assert_eq!(
            (first, &taken.expose()[..]),
            (100 + n as u64 - 2, &items[n - 2..])
        );
        assert!(bank.items.expose().iter().all(|x| *x == zero));
    }

    #[test]
    fn bank_take_zeroizes_consumed_entries() {
        // The two element types in use: IKNP sender / receiver.
        check_bank((1..=8u128).map(Block).collect(), Block::ZERO);
        check_bank(
            (1..=8u128).map(|i| (true, Block(i))).collect(),
            (false, Block::ZERO),
        );
    }
}
