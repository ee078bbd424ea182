//! Outside the secret-scope crates (crates/relation is plaintext query
//! planning), marker-named identifiers are ordinary public values — a
//! relation's join `key` is public metadata, not a cryptographic key. Only
//! dataflow from a source call and UNSAFE apply here.

/// `key` here is a join key — public table data. Not flagged.
pub fn join_key_eq(key: u64, other: u64) -> bool {
    key == other
}

/// Branching on join keys is the whole point of a query engine.
pub fn partition(keys: &[u64]) -> usize {
    let mut n = 0;
    for &key in keys {
        if key % 2 == 0 {
            n += 1;
        }
    }
    n
}

/// Branching on a join key during plan construction is fine.
pub fn pick_side(key: u64, share: u64) -> u64 {
    if key > share {
        return key - share;
    }
    share - key
}

/// Loops and indexing over marker-named publics are fine too.
pub fn sum_shares(shares: &[u64]) -> u64 {
    let mut acc = 0;
    for i in 0..shares.len() {
        acc += shares[i];
    }
    acc
}

/// But unjustified unsafe is still flagged everywhere.
pub fn still_checked(p: *const u64) -> u64 {
    // ct-expect: UNSAFE
    unsafe { *p }
}
