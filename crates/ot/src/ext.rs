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
//! [`Bank`] is the one container for precomputed instances of either
//! protocol on either side.

use rand::Rng;
use secyan_crypto::transpose::BitMatrix;
use secyan_crypto::{Block, CtChoice, Prg, Secret, Zeroize};
use secyan_par as par;
use secyan_transport::{Channel, WriteExt};
use std::marker::PhantomData;

/// Minimum batch size (in instances) before the column expansion uses the
/// worker pool; below this the per-column PRG work is too small to amortize
/// a dispatch.
pub(crate) const OT_PAR_MIN: usize = 4096;

/// Minimum columns per worker when the expansion does parallelize.
const COLS_PER_PART: usize = 16;

/// Minimum extracted rows per worker for the post-transpose row gather.
const ROWS_PER_PART: usize = 4096;

/// One row of the extension matrix: `8 * BYTES` bits, bit `i` at byte
/// `i / 8`, position `i % 8`. Rows leave the transpose in their final type,
/// so IKNP gets `Block`s without a conversion pass.
pub(crate) trait Row: Copy + Send + Sync + Zeroize {
    const BYTES: usize;
    const ZERO: Self;

    /// Read a row from exactly `BYTES` bytes.
    fn load(bytes: &[u8]) -> Self;

    /// Bit `i`, in the least-significant bit of the result (the other bits
    /// are unspecified).
    fn bit(&self, i: usize) -> u8;
}

impl Row for Block {
    const BYTES: usize = 16;
    const ZERO: Self = Block::ZERO;

    fn load(bytes: &[u8]) -> Self {
        Block(u128::from_le_bytes(bytes.try_into().expect("16-byte row")))
    }

    fn bit(&self, i: usize) -> u8 {
        (self.0 >> i) as u8
    }
}

impl<const N: usize> Row for [u8; N] {
    const BYTES: usize = N;
    const ZERO: Self = [0; N];

    fn load(bytes: &[u8]) -> Self {
        bytes.try_into().expect("N-byte row")
    }

    fn bit(&self, i: usize) -> u8 {
        self[i / 8] >> (i % 8)
    }
}

/// Sender half of the engine: base-OT *receiver* under the secret
/// correlation bits `s`, one PRG per column seeded with `k_{s_i}`.
pub(crate) struct ExtSender<R: Row> {
    /// Leaking `s` breaks every instance derived from this setup.
    s: Secret<R>,
    prgs: Vec<Prg>,
}

impl<R: Row> ExtSender<R> {
    /// Bootstrap with the caller-drawn `s`; `label` domain-separates the
    /// column PRGs.
    pub fn setup<G: Rng>(ch: &mut Channel, rng: &mut G, label: &[u8], s: R) -> Self {
        // ct-ok: branchless bit extraction — `& 1 == 1` compiles to a mask
        // test, and the resulting bools feed the branchless base-OT receive.
        let choices: Vec<bool> = (0..8 * R::BYTES).map(|i| s.bit(i) & 1 == 1).collect();
        // The base-OT seeds are zeroized as each PRG consumes its seed.
        let seeds = crate::base::receive(ch, &choices, rng);
        let prgs = seeds.iter().map(|k| Prg::from_secret(label, k)).collect();
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
        // u masked by an all-ones/all-zeros byte derived from s_i. Columns
        // are independent given the received bundle, so large batches
        // expand across the worker pool (partitioned by column index —
        // public — with each worker owning its columns' rows of Q).
        let mut q = BitMatrix::zero(self.prgs.len(), m);
        let s = self.s.expose();
        par::with_pool_if(par::threads() > 1 && m >= OT_PAR_MIN, |pool| {
            pool.zip_chunks_mut(
                &mut self.prgs,
                q.as_bytes_mut(),
                row_bytes,
                COLS_PER_PART,
                |i, prg, row| {
                    prg.fill(row);
                    let s_i = CtChoice::from_lsb(s.bit(i)).mask_u8();
                    for (c, &ub) in row.iter_mut().zip(&u_all[i * row_bytes..]) {
                        *c ^= ub & s_i;
                    }
                },
            );
        });
        gather(&q.transpose(), m)
    }
}

/// Receiver half of the engine: base-OT *sender*, a PRG pair per column
/// seeded with both base-OT keys.
pub(crate) struct ExtReceiver<R: Row> {
    prgs: Vec<(Prg, Prg)>,
    _row: PhantomData<R>,
}

impl<R: Row> ExtReceiver<R> {
    /// Bootstrap; `label` must match the sender's.
    pub fn setup<G: Rng>(ch: &mut Channel, rng: &mut G, label: &[u8]) -> Self {
        // Seed pairs are zeroized on drop as each PRG consumes its seed.
        let pairs = crate::base::send(ch, 8 * R::BYTES, rng);
        let prgs = pairs
            .iter()
            .map(|(k0, k1)| (Prg::from_secret(label, k0), Prg::from_secret(label, k1)))
            .collect();
        ExtReceiver {
            prgs,
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
        code_col: impl Fn(usize) -> &'c [u8] + Sync,
    ) -> Vec<R> {
        if m == 0 {
            return Vec::new();
        }
        let width = self.prgs.len();
        let row_bytes = m.div_ceil(8);
        // Per column: t0 = G(k0), u = G(k1) ⊕ t0 ⊕ code column. Both
        // streams for all columns land in one interleaved scratch (t0 then
        // u per column) so the expansion can split across the worker pool
        // by column index; the masked columns then go out as ONE message,
        // which the sender reads with a single `recv_into`. The code bits
        // are the receiver's secret, so they are folded in without
        // branching on them.
        let mut cols = vec![0u8; width * 2 * row_bytes];
        par::with_pool_if(par::threads() > 1 && m >= OT_PAR_MIN, |pool| {
            pool.zip_chunks_mut(
                &mut self.prgs,
                &mut cols,
                2 * row_bytes,
                COLS_PER_PART,
                |i, (prg0, prg1), chunk| {
                    let (t0, u) = chunk.split_at_mut(row_bytes);
                    prg0.fill(t0);
                    prg1.fill(u);
                    for ((uk, &t0k), &ck) in u.iter_mut().zip(&*t0).zip(code_col(i)) {
                        *uk ^= t0k ^ ck;
                    }
                },
            );
        });
        let mut t = BitMatrix::zero(width, m);
        let mut u_all = vec![0u8; width * row_bytes];
        for i in 0..width {
            let chunk = &cols[i * 2 * row_bytes..(i + 1) * 2 * row_bytes];
            t.row_mut(i).copy_from_slice(&chunk[..row_bytes]);
            u_all[i * row_bytes..(i + 1) * row_bytes].copy_from_slice(&chunk[row_bytes..]);
        }
        // The t0 streams are the outputs' preimages; scrub the scratch.
        cols.zeroize();
        ch.send_bytes(&u_all);
        gather(&t.transpose(), m)
    }
}

/// Pull the `m` rows out of a transposed matrix, across the pool for large
/// batches.
fn gather<R: Row>(rows: &BitMatrix, m: usize) -> Vec<R> {
    let mut out = vec![R::ZERO; m];
    par::with_pool_if(par::threads() > 1 && m >= 2 * ROWS_PER_PART, |pool| {
        pool.chunks_mut(&mut out, 1, ROWS_PER_PART, |off, chunk| {
            for (k, r) in chunk.iter_mut().enumerate() {
                *r = R::load(rows.row(off + k));
            }
        });
    });
    out
}

/// A bank of precomputed instances, filled offline and consumed online in
/// order. Strictly single-use: entries are zeroized inside the bank as they
/// leave, and whatever is left zeroizes on drop.
pub(crate) struct Bank<T: Zeroize> {
    items: Secret<Vec<T>>,
    cursor: usize,
}

impl<T: Zeroize + Copy> Bank<T> {
    pub fn new(items: Vec<T>) -> Self {
        Bank {
            items: Secret::new(items),
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

    /// Take the next `m` entries.
    pub fn take(&mut self, m: usize) -> Vec<T> {
        let out = self.items.expose()[self.cursor..self.cursor + m].to_vec();
        self.discard(m);
        out
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
        let mut bank = Bank::new(items.clone());
        assert_eq!(bank.remaining(), n);
        assert_eq!(bank.take(3), items[..3]);
        assert_eq!(bank.remaining(), n - 3);
        // Consumed-on-take: the bank's copies are gone, the rest untouched.
        assert!(bank.items.expose()[..3].iter().all(|x| *x == zero));
        assert_eq!(bank.items.expose()[3..], items[3..]);
        bank.shed_to(2);
        assert_eq!(bank.remaining(), 2);
        assert!(bank.items.expose()[..n - 2].iter().all(|x| *x == zero));
        bank.shed_to(5);
        assert_eq!(bank.remaining(), 2, "shed never grows the bank");
        assert_eq!(bank.take(2), items[n - 2..]);
        assert!(bank.items.expose().iter().all(|x| *x == zero));
    }

    #[test]
    fn bank_take_zeroizes_consumed_entries() {
        // The four element types in use: IKNP sender / receiver, KKRT
        // sender / receiver.
        let word = |i: u8| [i; 64];
        check_bank(
            (1..=8u128).map(|i| (Block(i), Block(i << 64))).collect(),
            (Block::ZERO, Block::ZERO),
        );
        check_bank(
            (1..=8u128).map(|i| (true, Block(i))).collect(),
            (false, Block::ZERO),
        );
        check_bank((1..=8).map(word).collect(), word(0));
        check_bank(
            (1..=8).map(|i| (word(i), word(i + 100))).collect(),
            (word(0), word(0)),
        );
    }
}
