//! Cuckoo and simple hashing for PSI binning.
//!
//! The receiver cuckoo-hashes her set into B = ⌈1.27·M⌉ bins using 3 hash
//! functions (at most one element per bin); the sender simple-hashes each of
//! his elements into *all three* of its candidate bins. Then x ∈ Y iff the
//! bin holding x on the receiver side contains x on the sender side —
//! turning set intersection into B independent small-set membership tests.
//!
//! Every sender-side bin's hint has the size of a public load bound,
//! [`crate::params::max_bin_size`], so nothing about the data leaks
//! through hint sizes.
//! The bound is the exact union bound over the bins of the binomial load
//! tail at σ = 40; if a load ever exceeds it (probability ≤ 2^{-σ}), the
//! run ends in a typed error rather than retrying, since a fresh seed
//! would tell the receiver that the old one overloaded the sender's set.

use secyan_crypto::sha256::{digest_to_u64, Sha256};

/// Number of cuckoo hash functions.
pub const NUM_HASHES: usize = 3;

/// Hash an element to its `idx`-th candidate bin under `seed`.
pub fn bin_of(element: u64, idx: usize, seed: u64, bins: usize) -> usize {
    let mut h = Sha256::new();
    h.update(b"psi-bin");
    h.update(&seed.to_le_bytes());
    h.update(&[idx as u8]);
    h.update(&element.to_le_bytes());
    (digest_to_u64(&h.finalize()) % bins as u64) as usize
}

/// The receiver's cuckoo table: at most one element per bin.
#[derive(Debug, Clone)]
pub struct CuckooTable {
    /// `Some(element)` or empty.
    pub bins: Vec<Option<u64>>,
    /// The public hash seed that produced a successful placement.
    pub seed: u64,
}

impl CuckooTable {
    /// Place `elements` (distinct) into `bins` bins, retrying with
    /// incremented seeds on (rare) failure. `seed0` is the first seed tried
    /// and travels to the other party so both sides agree on the bins.
    pub fn build(elements: &[u64], bins: usize, seed0: u64) -> CuckooTable {
        assert!(bins >= elements.len(), "need at least one bin per element");
        let mut seed = seed0;
        loop {
            // ct-ok: the cuckoo hash seed is public — it is sent to the
            // other party so both sides derive the same bin mapping.
            if let Some(t) = Self::try_build(elements, bins, seed) {
                return t;
            }
            seed = seed.wrapping_add(1);
        }
    }

    fn try_build(elements: &[u64], bins: usize, seed: u64) -> Option<CuckooTable> {
        let mut table: Vec<Option<u64>> = vec![None; bins];
        // Random-walk insertion with an eviction budget.
        let budget = 64 + 8 * usize::BITS as usize;
        for &e in elements {
            let mut cur = e;
            let mut hash_idx = 0usize;
            let mut steps = 0;
            loop {
                let b = bin_of(cur, hash_idx, seed, bins);
                match table[b] {
                    None => {
                        table[b] = Some(cur);
                        break;
                    }
                    Some(occupant) => {
                        table[b] = Some(cur);
                        cur = occupant;
                        // Kick the occupant to the candidate bin after the
                        // one it occupied (deterministic rotation keeps the
                        // walk reproducible across retries).
                        let occ_idx = (0..NUM_HASHES)
                            // ct-ok: same public cuckoo seed; bin placement
                            // is revealed to both parties by construction.
                            .find(|&i| bin_of(occupant, i, seed, bins) == b)
                            .expect("occupant was placed in a candidate bin");
                        hash_idx = (occ_idx + 1) % NUM_HASHES;
                        steps += 1;
                        if steps > budget {
                            return None;
                        }
                    }
                }
            }
        }
        Some(CuckooTable { bins: table, seed })
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True if the table has no bins.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }
}

/// The sender's simple-hashing table: every element appears in each of its
/// candidate bins (deduplicated within a bin).
#[derive(Debug, Clone)]
pub struct SimpleTable {
    pub bins: Vec<Vec<u64>>,
    pub seed: u64,
}

impl SimpleTable {
    /// Hash `elements` into `bins` bins under `seed` (the seed received
    /// from the cuckoo side).
    pub fn build(elements: &[u64], bins: usize, seed: u64) -> SimpleTable {
        let mut table: Vec<Vec<u64>> = vec![Vec::new(); bins];
        for &e in elements {
            let mut seen = [usize::MAX; NUM_HASHES];
            for idx in 0..NUM_HASHES {
                let b = bin_of(e, idx, seed, bins);
                if !seen[..idx].contains(&b) {
                    table[b].push(e);
                }
                seen[idx] = b;
            }
        }
        SimpleTable { bins: table, seed }
    }

    /// The largest actual bin load.
    pub fn max_load(&self) -> usize {
        self.bins.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{bin_count, max_bin_size};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    #[test]
    fn cuckoo_places_every_element_once() {
        let mut rng = StdRng::seed_from_u64(1);
        for m in [1usize, 5, 50, 400] {
            let elements: HashSet<u64> = (0..).map(|_| rng.gen()).take(m).collect();
            let elements: Vec<u64> = elements.into_iter().collect();
            let bins = bin_count(elements.len());
            let t = CuckooTable::build(&elements, bins, 7);
            let placed: Vec<u64> = t.bins.iter().flatten().copied().collect();
            assert_eq!(placed.len(), elements.len(), "m={m}");
            let placed_set: HashSet<u64> = placed.iter().copied().collect();
            assert_eq!(placed_set.len(), elements.len());
            // Every element sits in one of its candidate bins.
            for (b, slot) in t.bins.iter().enumerate() {
                if let Some(e) = slot {
                    let candidates: Vec<usize> = (0..NUM_HASHES)
                        .map(|i| bin_of(*e, i, t.seed, bins))
                        .collect();
                    assert!(candidates.contains(&b), "element {e} in wrong bin");
                }
            }
        }
    }

    #[test]
    fn simple_table_contains_matching_bins() {
        // The PSI invariant: if x is cuckoo-placed in bin b, then x appears
        // in the sender's bin b whenever x ∈ Y.
        let mut rng = StdRng::seed_from_u64(2);
        let shared: Vec<u64> = (0..100).map(|_| rng.gen()).collect();
        let x: Vec<u64> = shared.iter().copied().take(60).collect();
        let y: Vec<u64> = shared.iter().copied().skip(30).collect();
        let bins = bin_count(x.len());
        let cuckoo = CuckooTable::build(&x, bins, 3);
        let simple = SimpleTable::build(&y, bins, cuckoo.seed);
        for (b, slot) in cuckoo.bins.iter().enumerate() {
            if let Some(e) = slot {
                if y.contains(e) {
                    assert!(simple.bins[b].contains(e), "bin {b}");
                }
            }
        }
    }

    #[test]
    fn max_bin_size_holds_empirically() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [10usize, 100, 1000] {
            let bins = bin_count(n);
            let bound = max_bin_size(n, bins);
            for trial in 0..20 {
                let y: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
                let t = SimpleTable::build(&y, bins, trial);
                assert!(
                    t.max_load() <= bound,
                    "n={n} bound={bound} load={}",
                    t.max_load()
                );
            }
        }
    }

    #[test]
    fn bin_count_matches_paper_factor() {
        assert_eq!(bin_count(100), 127);
        assert_eq!(bin_count(0), 1);
        assert_eq!(bin_count(1), 2);
    }

    #[test]
    fn simple_hash_dedups_within_bin() {
        // An element whose candidate bins collide appears only once there.
        for seed in 0..50u64 {
            let t = SimpleTable::build(&[42], 2, seed);
            for bin in &t.bins {
                assert!(bin.len() <= 1);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::params::bin_count;
    use proptest::prelude::*;
    use std::collections::HashSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Cuckoo placement always succeeds (possibly after reseeding) and
        /// places every element exactly once in one of its candidate bins.
        #[test]
        fn prop_cuckoo_places_all(elements in proptest::collection::hash_set(any::<u64>(), 1..200)) {
            let elements: Vec<u64> = elements.into_iter().collect();
            let bins = bin_count(elements.len());
            let t = CuckooTable::build(&elements, bins, 0);
            let placed: HashSet<u64> = t.bins.iter().flatten().copied().collect();
            prop_assert_eq!(placed.len(), elements.len());
            for (b, slot) in t.bins.iter().enumerate() {
                if let Some(e) = slot {
                    let ok = (0..NUM_HASHES).any(|i| bin_of(*e, i, t.seed, bins) == b);
                    prop_assert!(ok, "element {} strayed from its candidate bins", e);
                }
            }
        }

        /// The PSI invariant under simple hashing: a shared element is
        /// always found in the bin where cuckoo placed it.
        #[test]
        fn prop_matching_bins(shared in proptest::collection::hash_set(any::<u64>(), 1..100), seed: u64) {
            let x: Vec<u64> = shared.iter().copied().collect();
            let bins = bin_count(x.len());
            let cuckoo = CuckooTable::build(&x, bins, seed);
            let simple = SimpleTable::build(&x, bins, cuckoo.seed);
            for (b, slot) in cuckoo.bins.iter().enumerate() {
                if let Some(e) = slot {
                    prop_assert!(simple.bins[b].contains(e));
                }
            }
        }
    }
}
