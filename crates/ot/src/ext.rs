//! The OT-extension engine shared by IKNP and KKRT.
//!
//! Both protocols are the same matrix trick at different widths: the
//! receiver expands two streams per column, masks one with a column of its
//! code matrix and ships the masked columns as one message; the sender
//! expands its one stream per column, folds in the received column under
//! its secret bit `s_i`, and both transpose to per-instance rows. The
//! sender's row is then `q_j = t_j ⊕ (code_j & s)` against the receiver's
//! `t_j`. IKNP instantiates this at 16-byte rows with the repetition code
//! (every column carries the packed choice bits), KKRT at 64-byte rows
//! with a pseudorandom code; what each does with the rows — hashing,
//! masking, derandomisation — lives in [`crate::iknp`] / [`crate::kkrt`].
//!
//! A column's stream is the fixed-key AES hash in counter mode
//! ([`TweakHasher::stream_into`]): block `c` of the column keyed by the
//! seed-OT output `k_i` is `H(k_i, domain | ctr + c)`. Each endpoint keeps
//! its seeds and one block counter, which both sides advance by
//! ⌈⌈m/8⌉/16⌉ on every non-empty extension of `m` instances; a partial
//! tail block is discarded, never reused. There is no per-column state and
//! no keying at setup. DESIGN.md §3 has the security argument.
//!
//! [`Bank`] holds IKNP's precomputed rows on either side; KKRT always
//! extends inline (see [`crate::kkrt`] for why).

use secyan_crypto::transpose::BitMatrix;
use secyan_crypto::{Block, CtChoice, Secret, TweakHasher, Zeroize};
use secyan_transport::Channel;

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
/// under the secret correlation bits `s`, column `i` expanded from
/// `k_{s_i}`.
pub(crate) struct ExtSender<R: Row> {
    /// Leaking `s` breaks every instance derived from this setup.
    s: Secret<R>,
    /// One stream key per column.
    seeds: Secret<Vec<Block>>,
    /// Stream tweak of every column's next block: the engine's domain
    /// joined to the blocks drawn so far.
    ctr: u64,
}

impl<R: Row> ExtSender<R> {
    /// Bootstrap from `seeds`, one per column: the outputs of the OTs run
    /// under [`choice_bits`]`(&s)`. `domain` (in
    /// [`secyan_crypto::STREAM_DOMAIN`], low 61 bits clear)
    /// separates this engine's streams from every other's; it must match
    /// the receiver's.
    pub fn new(domain: u64, s: R, seeds: Secret<Vec<Block>>) -> Self {
        ExtSender {
            s: Secret::new(s),
            seeds,
            ctr: domain,
        }
    }

    pub fn s(&self) -> &Secret<R> {
        &self.s
    }

    /// Extend `m` instances: read the receiver's masked column bundle and
    /// return the correlated rows `q_j = t_j ⊕ (code_j & s)`. Empty batches
    /// draw no stream.
    pub fn extend(&mut self, ch: &mut Channel, m: usize) -> Vec<R> {
        if m == 0 {
            return Vec::new();
        }
        let width = 8 * R::BYTES;
        let row_bytes = m.div_ceil(8);
        // The receiver ships all masked columns as ONE message.
        let mut u_all = vec![0u8; width * row_bytes];
        ch.recv_into(&mut u_all);
        // Column i of Q: G(k_{s_i}) ⊕ s_i · u_i. The s_i correlation is
        // applied branchlessly: every column does the same XOR loop against
        // u masked by an all-ones/all-zeros byte derived from s_i.
        let mut q = BitMatrix::zero(width, m);
        self.ctr += TweakHasher::Aes.stream_into(self.seeds.expose(), self.ctr, q.as_bytes_mut());
        let s = self.s.expose();
        for (i, u) in u_all.chunks_exact(row_bytes).enumerate() {
            let s_i = CtChoice::from_lsb(s.bit(i)).mask_u8();
            for (c, &ub) in q.row_mut(i).iter_mut().zip(u) {
                *c ^= ub & s_i;
            }
        }
        gather(&q.transpose(), m)
    }
}

/// Receiver half of the engine: the *sending* side of the seeding OTs,
/// both keys of every column.
pub(crate) struct ExtReceiver {
    /// `k0` of every column, then `k1` of every column: one stream fill
    /// writes `t` and, behind it, the bundle `u` is masked into.
    seeds: Secret<Vec<Block>>,
    /// As [`ExtSender`]'s, and always equal to it.
    ctr: u64,
}

impl ExtReceiver {
    /// Bootstrap from one seed pair per column, zeroized on drop; `domain`
    /// must match the sender's.
    pub fn new(domain: u64, pairs: Secret<Vec<(Block, Block)>>) -> Self {
        let pairs = pairs.expose();
        let k0 = pairs.iter().map(|k| k.0);
        ExtReceiver {
            seeds: Secret::new(k0.chain(pairs.iter().map(|k| k.1)).collect()),
            ctr: domain,
        }
    }

    /// Extend `m` instances under the code matrix whose column `i` (packed,
    /// `⌈m/8⌉` bytes) is `code_col(i)`: send the masked column bundle and
    /// return the row preimages `t_j`, `R` being the sender's row type.
    /// Empty batches draw no stream.
    pub fn extend<'c, R: Row>(
        &mut self,
        ch: &mut Channel,
        m: usize,
        code_col: impl Fn(usize) -> &'c [u8],
    ) -> Vec<R> {
        if m == 0 {
            return Vec::new();
        }
        let row_bytes = m.div_ceil(8);
        let half = 8 * R::BYTES * row_bytes;
        // Per column: t0 = G(k0), u = G(k1) ⊕ t0 ⊕ code column. The masked
        // columns go out as ONE message, which the sender reads with a
        // single `recv_into`. The code bits are the receiver's secret, so
        // they are folded in without branching on them.
        let mut tu = vec![0u8; 2 * half];
        self.ctr += TweakHasher::Aes.stream_into(self.seeds.expose(), self.ctr, &mut tu);
        let (t, u) = tu.split_at_mut(half);
        let cols = u.chunks_exact_mut(row_bytes).zip(t.chunks(row_bytes));
        for (i, (u, t0)) in cols.enumerate() {
            for ((uk, &t0k), &ck) in u.iter_mut().zip(t0).zip(code_col(i)) {
                *uk ^= t0k ^ ck;
            }
        }
        ch.stage(&tu[half..]);
        tu.truncate(half);
        gather(&BitMatrix::from_bytes(8 * R::BYTES, m, tu).transpose(), m)
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
    /// bank serves a batch only when it holds all of it.
    pub fn covers(&self, m: usize) -> bool {
        self.remaining() >= m
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
    use secyan_crypto::STREAM_DOMAIN;
    use secyan_transport::run_protocol;

    /// Bit `j` of column `i` of the stream keyed by `key` at `tweak`, by
    /// the stream's definition.
    fn stream_bit(key: Block, tweak: u64, j: usize) -> u8 {
        let block = TweakHasher::Aes.hash(key, tweak + (j / 128) as u64);
        (block.0 >> (j % 128)) as u8 & 1
    }

    /// IKNP-shaped extensions of 300, 0, 1 and 129 instances on one setup:
    /// the rows keep `q_j ⊕ t_j = c_j·s`, every column is its stream at the
    /// block counter, and the counter moves by ⌈⌈m/8⌉/16⌉ blocks per
    /// extension — not at all on the empty one.
    #[test]
    fn columns_follow_the_block_counter() {
        const SIZES: [usize; 4] = [300, 0, 1, 129];
        let pairs: Vec<(Block, Block)> = (0..128u128)
            .map(|i| (Block(i.wrapping_mul(0x9e37_79b9) + 1), Block(i * 5 + 2)))
            .collect();
        let s = Block(0x0123_4567_89ab_cdef_fedc_ba98_7654_3211);
        let seeds: Vec<Block> = (0..128)
            .map(|i| {
                if s.bit(i) & 1 == 1 {
                    pairs[i].1
                } else {
                    pairs[i].0
                }
            })
            .collect();
        let choices = |m: usize| -> Vec<bool> { (0..m).map(|j| j % 3 == 1).collect() };
        let keys = pairs.clone();
        let (sent, received, _) = run_protocol(
            move |ch| {
                let mut ext = ExtSender::<Block>::new(STREAM_DOMAIN, s, Secret::new(seeds));
                SIZES.map(|m| (ext.ctr, ext.extend(ch, m)))
            },
            move |ch| {
                let mut ext = ExtReceiver::new(STREAM_DOMAIN, Secret::new(keys));
                SIZES.map(|m| {
                    let mut packed = vec![0u8; m.div_ceil(8)];
                    for (j, &c) in choices(m).iter().enumerate() {
                        packed[j / 8] |= u8::from(c) << (j % 8);
                    }
                    let ctr = ext.ctr;
                    let t: Vec<Block> = ext.extend(ch, m, |_| &packed[..]);
                    (ctr, t)
                })
            },
        );
        let mut want_ctr = STREAM_DOMAIN;
        for (k, ((ctr_q, q), (ctr_t, t))) in sent.iter().zip(&received).enumerate() {
            assert_eq!((*ctr_q, *ctr_t), (want_ctr, want_ctr), "extension {k}");
            let m = SIZES[k];
            assert_eq!((q.len(), t.len()), (m, m));
            for (j, &c) in choices(m).iter().enumerate() {
                let want = if c { s } else { Block::ZERO };
                assert_eq!(q[j] ^ t[j], want, "extension {k}, row {j}");
                for (i, &(k0, _)) in pairs.iter().enumerate() {
                    let bit = stream_bit(k0, want_ctr, j);
                    assert_eq!(t[j].bit(i) & 1, bit, "extension {k}, row {j}, column {i}");
                }
            }
            want_ctr += [3, 0, 1, 2][k];
        }
    }

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
