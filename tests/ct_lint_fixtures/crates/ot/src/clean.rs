//! Clean code in the secret scope: none of this may be flagged. Each item
//! is the hygienic twin of a seeded violation, plus the suppression path.

/// Constant-time comparison: no `==` on the secret, no branch.
pub fn key_compare_ct(key: u128, other: u128) -> u8 {
    let x = key ^ other;
    let folded = (x | x.wrapping_neg()) >> 127;
    1u8 ^ (folded as u8)
}

/// Branchless select: arithmetic masking instead of `if choice`.
pub fn select_ct(choice_mask: u128, a: u128, b: u128) -> u128 {
    b ^ (choice_mask & (a ^ b))
}

/// Public sizes of secret collections are fine.
pub fn count_ok(labels: &[u128], seeds: &[u128]) -> bool {
    labels.len() == seeds.len() && !labels.is_empty()
}

/// Branching on public values is fine, even next to secret names.
pub fn public_branch(n: usize, pads: &[u128]) -> u128 {
    let mut acc = 0u128;
    if n > 16 {
        for p in pads {
            acc ^= p;
        }
    }
    acc
}

/// `unsafe` with a SAFETY justification passes.
pub fn justified(p: *const u8) -> u8 {
    // SAFETY: the caller hands us a pointer derived from a live reference
    // in the fixture harness; reads of one byte are in bounds.
    unsafe { *p }
}

/// Secret words inside strings or comments must not trip the ident rules
/// (the label of a key seed share choice is discussed here freely).
pub fn strings_ok(x: u64) -> bool {
    let tag = "key label seed == delta";
    tag.len() as u64 == x
}

/// The *length* of an exposed value is public shape — branching on it is
/// fine (`.len()` / `.is_empty()` / `.capacity()` launder size, not value).
pub fn branch_on_public_len(s: Secret<Vec<u8>>) -> usize {
    let n = s.expose().len();
    if n > 0 {
        return n;
    }
    0
}

/// Loop bounds from public shape metadata.
pub fn loop_public(counts: &[usize]) -> usize {
    let mut acc = 0;
    for n in counts {
        acc += n;
    }
    acc
}

/// Indexing with a public counter is fine, even on a table that also
/// stores masked data.
pub fn index_public(table: &[u8], round: usize) -> u8 {
    table[round % table.len()]
}

/// Constant-time use of a secret: XOR-fold without branch, loop, or index.
pub fn fold_secret(s: Secret<u64>, acc: u64) -> u64 {
    let x = s.expose();
    acc ^ x
}

/// A condition continued onto a second line, public on both: the twin of
/// `seeded_violations.rs`'s `branch_continued`.
impl Receiver {
    pub fn branch_continued_public(&self, n: u64) -> u64 {
        if n > 0
            && self.rounds > 1 {
            return 1;
        }
        0
    }
}

/// A streamed column's length is public shape: the twin of
/// `seeded_violations.rs`'s `stream_column_leaks`.
pub fn stream_column_public(col_seeds: Secret<Vec<Block>>, tweak: u64) -> usize {
    let mut column = vec![0u8; 32];
    TweakHasher::Aes.stream_into(col_seeds.expose(), tweak, &mut column);
    println!("{:?}", column.len());
    if column.len() > 16 {
        return column.len();
    }
    0
}

/// Reviewed declassification: the findings are real but justified, so an
/// inline suppression keeps them (BRANCH and EQ on one line) out of the
/// report.
pub fn reviewed_declass(s: Secret<u64>) -> u64 {
    let out = s.expose();
    // ct-ok: protocol output, declassified by design in this fixture.
    if out == 0 {
        return 1;
    }
    out
}

#[cfg(test)]
mod tests {
    /// Inside tests everything is allowed: compare, print, branch.
    #[test]
    fn test_freedom() {
        let key = 3u128;
        let choice = true;
        assert!(key == 3);
        if choice {
            println!("key = {:?}", key);
        }
    }
}
