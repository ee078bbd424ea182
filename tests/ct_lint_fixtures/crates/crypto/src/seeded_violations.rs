//! Seeded violations inside the (fixture) crypto crate: every rule in the
//! catalogue must fire exactly where annotated.

const SBOX: [u8; 256] = [0; 256];

/// INDEX (a): a const table indexed by data — the software-AES pattern.
pub fn table_lookup(x: u8) -> u8 {
    // ct-expect: INDEX
    SBOX[x as usize]
}

/// INDEX (b): secret-marker identifier used as an index.
pub fn secret_indexed(v: &[u8], choice_bit: usize) -> u8 {
    // ct-expect: INDEX
    v[choice_bit]
}

/// EQ: variable-time comparison on key material.
pub fn key_compare(key: u128, other: u128) -> bool {
    // ct-expect: EQ
    key == other
}

/// EQ on a derived PartialEq over a secret-named type (and DEBUG for
/// the derived Debug).
// ct-expect: EQ DEBUG
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireLabel(pub u128);

/// BRANCH: control flow on a secret.
pub fn branch_on_choice(choice: bool, a: u128, b: u128) -> u128 {
    // ct-expect: BRANCH
    if choice {
        a
    } else {
        b
    }
}

/// BRANCH via match.
pub fn match_on_share(share: u64) -> u64 {
    // ct-expect: BRANCH
    match share {
        0 => 1,
        _ => 0,
    }
}

/// DEBUG: format-printing a secret.
pub fn debug_print(seed: u128) {
    // ct-expect: DEBUG
    println!("prg seed = {:?}", seed);
}

/// UNSAFE: an unsafe block with no justification comment.
pub fn unsound_doc(p: *const u8) -> u8 {
    // ct-expect: UNSAFE
    unsafe { *p }
}
