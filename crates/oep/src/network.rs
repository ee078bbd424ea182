//! Permutation networks and the extended-permutation decomposition.
//!
//! An arbitrary-size (AS-)Waksman network (Beauquier–Darrot) on n wires
//! realizes any permutation with Σᵢ₌₁ⁿ ⌈log₂ i⌉ = n⌈log₂ n⌉ − 2^⌈log₂ n⌉ + 1
//! binary switches, on exactly n wires: the topology depends only on the
//! (public) size, as obliviousness requires. An *extended* permutation
//! (duplicates allowed) decomposes as permute → duplicate-chain → permute,
//! following Mohassel–Sadeghian, each stage at its own size.

/// A switching network: an ordered list of conditional swaps over an array
/// of `size` positions. Control bit `true` = swap.
#[derive(Debug, Clone)]
pub struct PermNetwork {
    size: usize,
    /// `(i, j)` position pairs, in evaluation order.
    switches: Vec<(usize, usize)>,
}

impl PermNetwork {
    /// The AS-Waksman network on exactly `n` wires.
    pub fn new(n: usize) -> PermNetwork {
        let mut switches = Vec::new();
        build_waksman(0, 1, n, &mut switches);
        PermNetwork { size: n, switches }
    }

    /// Wire count.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The switch list (position pairs in evaluation order).
    pub fn switches(&self) -> &[(usize, usize)] {
        &self.switches
    }

    /// Compute control bits realizing `perm`, a bijection on `0..size`,
    /// where `perm[o] = i` means output position `o` receives input
    /// position `i`'s value.
    pub fn route(&self, perm: &[usize]) -> Vec<bool> {
        assert_eq!(perm.len(), self.size, "perm length");
        let mut seen = vec![false; self.size];
        let bijective = perm.iter().all(|&i| !std::mem::replace(&mut seen[i], true));
        assert!(bijective, "perm is not a bijection");
        let mut bits = Vec::with_capacity(self.switches.len());
        route_waksman(perm, &mut bits);
        debug_assert_eq!(bits.len(), self.switches.len());
        bits
    }

    /// Apply the network to `values` under `bits` (plaintext reference
    /// semantics; the oblivious evaluation lives in [`crate::osn`]).
    pub fn apply<T: Clone>(&self, values: &[T], bits: &[bool]) -> Vec<T> {
        assert_eq!(values.len(), self.size);
        assert_eq!(bits.len(), self.switches.len());
        let mut v = values.to_vec();
        for (&(i, j), &b) in self.switches.iter().zip(bits) {
            if b {
                v.swap(i, j);
            }
        }
        v
    }
}

/// Recursive AS-Waksman topology over positions `offset + k·stride`,
/// `k = 0..n`: ⌊n/2⌋ input switches on the pairs (2k, 2k+1); the even leg
/// (⌈n/2⌉ wires, an odd n's unpaired last wire passing straight into it)
/// and the odd leg (⌊n/2⌋) as subnetworks; then the output switches on
/// the same pairs, all but the last pair (or an odd n's lone last output),
/// which is fixed straight. S(n) = S(⌊n/2⌋) + S(⌈n/2⌉) + n − 1.
fn build_waksman(offset: usize, stride: usize, n: usize, out: &mut Vec<(usize, usize)>) {
    if n < 2 {
        return;
    }
    let pair = |k: usize| (offset + 2 * k * stride, offset + (2 * k + 1) * stride);
    out.extend((0..n / 2).map(pair));
    build_waksman(offset, 2 * stride, n.div_ceil(2), out);
    build_waksman(offset + stride, 2 * stride, n / 2, out);
    out.extend((0..n.div_ceil(2) - 1).map(pair));
}

/// Looping-algorithm routing of [`build_waksman`]'s topology. `perm[o] = i`
/// (bijection on 0..n). Emits bits in the order the switches were built.
fn route_waksman(perm: &[usize], bits: &mut Vec<bool>) {
    let n = perm.len();
    if n < 2 {
        return;
    }
    let (half, even) = (n / 2, n.div_ceil(2));
    // inv[i] = o with perm[o] = i.
    let mut inv = vec![0usize; n];
    for (o, &i) in perm.iter().enumerate() {
        inv[i] = o;
    }
    let mut in_bits: Vec<Option<bool>> = vec![None; half];
    let mut out_bits: Vec<Option<bool>> = vec![None; even];
    // Fix an undecided output switch, chase the induced constraints through
    // input switches until the cycle closes. The fixed last output pair
    // goes first; for odd n its chain ends at the unpaired input, which
    // also enters the even leg.
    for start in (0..even).rev() {
        if out_bits[start].is_some() {
            continue;
        }
        out_bits[start] = Some(false);
        // Output 2·start is served by the even leg; follow the chain.
        let mut o = 2 * start;
        loop {
            let i = perm[o];
            // An odd n's unpaired input enters the even leg straight.
            if i / 2 == half {
                break;
            }
            // Input i must enter the even leg: cross iff i is odd.
            in_bits[i / 2] = Some(i % 2 == 1);
            // Its partner enters the odd leg, which reaches output 2j+1
            // when straight: cross iff o2 is even.
            let o2 = inv[i ^ 1];
            let (j, need) = (o2 / 2, o2.is_multiple_of(2));
            if let Some(existing) = out_bits[j] {
                debug_assert_eq!(existing, need, "routing conflict");
                break;
            }
            out_bits[j] = Some(need);
            // The other output of switch j is served by the even leg.
            o = o2 ^ 1;
        }
    }
    let out_bits: Vec<bool> = out_bits.into_iter().map(|b| b.unwrap_or(false)).collect();
    // Leg position j carries the final output 2j + (crossed ⊕ leg); its
    // value originates at input perm[o], which enters at leg position
    // perm[o]/2.
    let leg = |side: usize, len: usize| -> Vec<usize> {
        let o = |j: usize| 2 * j + (usize::from(out_bits[j]) ^ side);
        (0..len).map(|j| perm[o(j)] / 2).collect()
    };
    bits.extend(in_bits.into_iter().map(|b| b.unwrap_or(false)));
    route_waksman(&leg(0, even), bits);
    route_waksman(&leg(1, half), bits);
    bits.extend_from_slice(&out_bits[..even - 1]);
}

/// The permute–duplicate–permute decomposition of an extended permutation
/// ξ : \[n_out\] → \[n_in\], each stage at its own size:
/// 1. `p1` routes `k = max(n_in, n_out)` wires (the inputs, then filler
///    up to k): the first occurrence of every needed input goes to the
///    start of its duplication run, every run below n_out,
/// 2. the duplication chain over positions 0..n_out copies position t−1
///    into position t wherever `dup_bits[t − 1]` is set,
/// 3. `p2` routes the n_out run positions to their output positions.
#[derive(Debug, Clone)]
pub struct EpNetwork {
    /// Wire count of the first permutation stage.
    pub k: usize,
    pub n_in: usize,
    pub n_out: usize,
    pub p1: PermNetwork,
    pub p2: PermNetwork,
}

/// Alice-side routing of an [`EpNetwork`]: the control bits of all stages.
#[derive(Debug, Clone)]
pub struct EpRouting {
    pub p1_bits: Vec<bool>,
    pub dup_bits: Vec<bool>,
    pub p2_bits: Vec<bool>,
}

impl EpNetwork {
    /// Topology for maps \[n_out\] → \[n_in\]; depends only on the public
    /// sizes.
    pub fn new(n_in: usize, n_out: usize) -> EpNetwork {
        let k = n_in.max(n_out);
        EpNetwork {
            k,
            n_in,
            n_out,
            p1: PermNetwork::new(k),
            p2: PermNetwork::new(n_out),
        }
    }

    /// Switches of the duplication chain: one per position 1..n_out.
    pub fn dup_count(&self) -> usize {
        self.n_out.saturating_sub(1)
    }

    /// Binary switches across all three stages: one OT each in the
    /// oblivious evaluation ([`crate::osn`]), with the value holder as OT
    /// sender. A function of the public sizes only — this is the exact
    /// per-OEP figure offline planners bank: S(k) + (n_out − 1) + S(n_out).
    pub fn switch_count(&self) -> usize {
        self.p1.switches().len() + self.dup_count() + self.p2.switches().len()
    }

    /// Compute the routing for a concrete map `xi` (`xi[o] < n_in`).
    pub fn route(&self, xi: &[usize]) -> EpRouting {
        assert_eq!(xi.len(), self.n_out);
        // Sort output positions by source input (stable), grouping
        // duplicates into runs.
        let mut order: Vec<usize> = (0..self.n_out).collect();
        order.sort_by_key(|&o| xi[o]);
        let src = |t: usize| xi[order[t]];
        let dup_bits: Vec<bool> = (1..self.n_out).map(|t| src(t - 1) == src(t)).collect();
        // Stage 1: run position t takes input src(t) if it starts its run;
        // the other inputs fill the remaining positions in order.
        let mut p1_perm = vec![usize::MAX; self.k];
        let mut used = vec![false; self.k];
        for t in 0..self.n_out {
            assert!(src(t) < self.n_in, "xi entry out of range");
            if t == 0 || !dup_bits[t - 1] {
                p1_perm[t] = src(t);
                used[src(t)] = true;
            }
        }
        let mut free = (0..self.k).filter(|&i| !used[i]);
        for slot in p1_perm.iter_mut().filter(|s| **s == usize::MAX) {
            *slot = free.next().expect("free input");
        }
        // Stage 2: output position order[t] receives run position t.
        let mut p2_perm = vec![0; self.n_out];
        for (t, &o) in order.iter().enumerate() {
            p2_perm[o] = t;
        }
        EpRouting {
            p1_bits: self.p1.route(&p1_perm),
            dup_bits,
            p2_bits: self.p2.route(&p2_perm),
        }
    }

    /// Plaintext reference semantics: apply the routed network to values.
    pub fn apply<T: Clone + Default>(&self, values: &[T], routing: &EpRouting) -> Vec<T> {
        assert_eq!(values.len(), self.n_in);
        let mut v = values.to_vec();
        v.resize(self.k, T::default());
        let mut v = self.p1.apply(&v, &routing.p1_bits);
        v.truncate(self.n_out);
        for t in 1..self.n_out {
            if routing.dup_bits[t - 1] {
                v[t] = v[t - 1].clone();
            }
        }
        self.p2.apply(&v, &routing.p2_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{seq::SliceRandom, Rng, SeedableRng};

    /// Σᵢ₌₁ⁿ ⌈log₂ i⌉, the AS-Waksman switch count.
    fn waksman_count(n: usize) -> usize {
        (1..=n)
            .map(|i| i.next_power_of_two().trailing_zeros() as usize)
            .sum()
    }

    /// Route `perm` through a fresh network and check every output.
    fn check_perm(perm: &[usize]) {
        let n = perm.len();
        let net = PermNetwork::new(n);
        let values: Vec<u64> = (0..n as u64).map(|v| v * 7 + 1).collect();
        let got = net.apply(&values, &net.route(perm));
        for (o, &i) in perm.iter().enumerate() {
            assert_eq!(got[o], values[i], "n={n} perm={perm:?}");
        }
    }

    /// A random map \[n_out\] → \[n_in\] through the EP network.
    fn check_ep(n_in: usize, n_out: usize, rng: &mut StdRng) {
        let net = EpNetwork::new(n_in, n_out);
        let xi: Vec<usize> = (0..n_out).map(|_| rng.gen_range(0..n_in)).collect();
        let values: Vec<u64> = (0..n_in as u64).map(|v| v + 1000).collect();
        let got = net.apply(&values, &net.route(&xi));
        let want: Vec<u64> = xi.iter().map(|&src| values[src]).collect();
        assert_eq!(got, want, "n_in={n_in} n_out={n_out} xi={xi:?}");
    }

    #[test]
    fn waksman_routes_every_small_permutation() {
        // Exhaustive over all permutations of sizes 0..=7: both parities,
        // both leg splits.
        fn perms(n: usize) -> Vec<Vec<usize>> {
            if n == 0 {
                return vec![vec![]];
            }
            let mut out = Vec::new();
            for p in perms(n - 1) {
                for pos in 0..=p.len() {
                    let mut q = p.clone();
                    q.insert(pos, n - 1);
                    out.push(q);
                }
            }
            out
        }
        for n in 0..=7 {
            perms(n).iter().for_each(|perm| check_perm(perm));
        }
    }

    #[test]
    fn waksman_routes_random_permutations() {
        let mut rng = StdRng::seed_from_u64(17);
        for n in (1..=300).chain([572, 1_000, 4_097]) {
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut rng);
            check_perm(&perm);
        }
    }

    #[test]
    fn switch_count_is_n_log_n() {
        // AS-Waksman on 8 wires: 8·3 − 8 + 1 = 17 switches.
        assert_eq!(PermNetwork::new(8).switches().len(), 17);
        for n in 0..=4_096 {
            let (got, want) = (PermNetwork::new(n).switches().len(), waksman_count(n));
            assert_eq!(got, want, "n = {n}");
            if n > 0 {
                let lg = n.next_power_of_two().trailing_zeros() as usize;
                assert_eq!(want, n * lg + 1 - n.next_power_of_two(), "n = {n}");
            }
        }
    }

    /// Each stage at its own size: S(max(n_in, n_out)) + (n_out − 1) +
    /// S(n_out).
    #[test]
    fn ep_network_stages_have_their_logical_sizes() {
        for (n_in, n_out) in [
            (572, 450),
            (450, 450),
            (16, 150),
            (191, 150),
            (1, 1),
            (5, 0),
        ] {
            let net = EpNetwork::new(n_in, n_out);
            assert_eq!(net.k, n_in.max(n_out));
            assert_eq!(net.p2.size(), n_out);
            let want = waksman_count(net.k) + n_out.saturating_sub(1) + waksman_count(n_out);
            assert_eq!(net.switch_count(), want, "{n_in} → {n_out}");
        }
    }

    #[test]
    fn ep_network_identity_and_duplicates() {
        let net = EpNetwork::new(4, 6);
        let xi = vec![2, 0, 0, 3, 2, 2];
        let routing = net.route(&xi);
        let values = vec![10u64, 20, 30, 40];
        let got = net.apply(&values, &routing);
        assert_eq!(got, vec![30, 10, 10, 40, 30, 30]);
    }

    #[test]
    fn ep_network_shrinking_map() {
        // More inputs than outputs; some inputs dropped.
        let net = EpNetwork::new(8, 3);
        let xi = vec![7, 7, 1];
        let routing = net.route(&xi);
        let values: Vec<u64> = (0..8).map(|v| v * 100).collect();
        assert_eq!(net.apply(&values, &routing), vec![700, 700, 100]);
    }

    /// Shrinking, expanding and size-keeping maps at both parities.
    #[test]
    fn ep_network_random_maps() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..50 {
            let n_in = rng.gen_range(1..40);
            let n_out = rng.gen_range(1..40);
            check_ep(n_in, n_out, &mut rng);
        }
        for n in 1..=33 {
            check_ep(n, n, &mut rng);
            check_ep(n, 2 * n + 1, &mut rng);
            check_ep(2 * n + 1, n, &mut rng);
        }
    }

    #[test]
    fn singleton_sizes() {
        let net = EpNetwork::new(1, 1);
        assert_eq!(net.switch_count(), 0);
        let routing = net.route(&[0]);
        assert_eq!(net.apply(&[42u64], &routing), vec![42]);
    }

    /// Random permutations and EP maps at every size up to 4 096, in
    /// release: `cargo test --release -p secyan-oep -- --ignored
    /// waksman_routes_every_size_deep`.
    #[test]
    #[ignore]
    fn waksman_routes_every_size_deep() {
        let mut rng = StdRng::seed_from_u64(4_096);
        for n in 1..=4_096 {
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut rng);
            check_perm(&perm);
            let other = rng.gen_range(1..=4_096);
            check_ep(n, other, &mut rng);
            check_ep(other, n, &mut rng);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any permutation of any size up to 64 routes correctly.
        #[test]
        fn prop_waksman_routes_any_permutation(perm in proptest::collection::vec(0usize..64, 1..64)
            .prop_map(|v| {
                // Turn an arbitrary vector into a permutation by sorting
                // indices by value (stable, hence bijective).
                let n = v.len();
                let mut idx: Vec<usize> = (0..n).collect();
                idx.sort_by_key(|&i| (v[i], i));
                idx
            })) {
            let n = perm.len();
            let net = PermNetwork::new(n);
            let bits = net.route(&perm);
            let values: Vec<u64> = (0..n as u64).map(|x| x * 31 + 5).collect();
            let got = net.apply(&values, &bits);
            for (o, &i) in perm.iter().enumerate() {
                prop_assert_eq!(got[o], values[i]);
            }
        }

        /// Any extended permutation (duplicates, drops, expansion) applies
        /// correctly through the permute–duplicate–permute decomposition.
        #[test]
        fn prop_ep_network_any_map(
            n_in in 1usize..40,
            xi_raw in proptest::collection::vec(0usize..1000, 1..40),
        ) {
            let xi: Vec<usize> = xi_raw.iter().map(|&v| v % n_in).collect();
            let net = EpNetwork::new(n_in, xi.len());
            let routing = net.route(&xi);
            let values: Vec<u64> = (0..n_in as u64).map(|v| v + 7).collect();
            let got = net.apply(&values, &routing);
            for (o, &src) in xi.iter().enumerate() {
                prop_assert_eq!(got[o], values[src]);
            }
        }
    }
}
