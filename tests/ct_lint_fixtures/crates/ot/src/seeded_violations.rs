//! Seeded violations in the secret scope: every annotated line must be
//! flagged by `cargo xtask ct-lint --fixtures`, and nothing else may fire.
//! Each item has a hygienic twin in `clean.rs`.

/// Two-hop flow: the exposed value moves through two `let`s before the
/// branch — no marker name on the branch line, so only dataflow sees it.
pub fn branch_on_secret(s: Secret<u64>) -> u64 {
    let a = s.expose();
    let b = a + 1;
    // ct-expect: BRANCH
    if b > 0 {
        return 1;
    }
    0
}

/// Secret loop trip count: iteration count is timing-visible.
pub fn loop_on_secret(s: Secret<usize>) -> usize {
    let n = s.expose();
    let mut acc = 0;
    // ct-expect: LOOP
    for i in 0..n {
        acc += i;
    }
    acc
}

/// Secret table index: the memory address leaks through the cache.
pub fn index_on_secret(s: Secret<usize>, table: &[u8]) -> u8 {
    let i = s.expose();
    // ct-expect: INDEX
    table[i]
}

/// Marker-named parameters taint in secret-scope crates even without an
/// explicit source call; the `==` inside the condition is its own sink.
pub fn marker_branch(delta: u128) -> u128 {
    // ct-expect: BRANCH EQ
    if delta & 1 == 1 {
        return 3;
    }
    0
}

/// Match on a secret (the scrutinee is a branch) and index through the arm
/// binding (the binding inherits the scrutinee's taint).
pub fn match_on_secret(s: Secret<Option<usize>>, v: &[u8]) -> u8 {
    let o = s.expose();
    // ct-expect: BRANCH
    match o {
        // ct-expect: INDEX
        Some(i) => v[i],
        None => 0,
    }
}

/// Taint survives a closure boundary: the iterator receiver feeds the
/// closure parameter.
pub fn closure_branch(s: Secret<Vec<u64>>) -> u64 {
    let vals = s.expose();
    // ct-expect: BRANCH
    vals.iter().map(|x| if *x > 0 { 1 } else { 0 }).sum()
}

/// A secret condition continued onto a second line: the whole condition
/// up to its `{` is the sink, reported at the `if`. Twin in `clean.rs`.
impl Receiver {
    pub fn branch_continued(&self, n: u64) -> u64 {
        // ct-expect: BRANCH
        if n > 0
            && self.choice_bit {
            return 1;
        }
        0
    }
}

/// A column seed handed to the stream entry taints the column it fills:
/// formatting the column or branching on it leaks the seed's stream.
/// Twin in `clean.rs`.
pub fn stream_column_leaks(col_seeds: Secret<Vec<Block>>, tweak: u64) -> u8 {
    let mut column = vec![0u8; 32];
    TweakHasher::Aes.stream_into(col_seeds.expose(), tweak, &mut column);
    // ct-expect: DEBUG
    println!("{:?}", column);
    // ct-expect: BRANCH
    if column[0] > 0 {
        return 1;
    }
    0
}
