//! Permutation networks and the extended-permutation decomposition.
//!
//! A Beneš network on n = 2^k wires realizes any permutation with
//! n·(log₂ n − ½) binary switches. Arbitrary sizes are padded up to the
//! next power of two — the topology depends only on the (public) size, as
//! obliviousness requires. An *extended* permutation (duplicates allowed)
//! decomposes as permute → duplicate-chain → permute, following
//! Mohassel–Sadeghian.

/// A switching network: an ordered list of conditional swaps over an array
/// of `size` positions. Control bit `true` = swap.
#[derive(Debug, Clone)]
pub struct PermNetwork {
    size: usize,
    /// `(i, j)` position pairs, in evaluation order.
    switches: Vec<(usize, usize)>,
}

impl PermNetwork {
    /// Build the Beneš network topology for `n` logical wires (padded to a
    /// power of two internally).
    pub fn new(n: usize) -> PermNetwork {
        let size = n.next_power_of_two().max(1);
        let mut switches = Vec::new();
        build_benes(0, 1, size, &mut switches);
        PermNetwork { size, switches }
    }

    /// Padded size (power of two).
    pub fn size(&self) -> usize {
        self.size
    }

    /// The switch list (position pairs in evaluation order).
    pub fn switches(&self) -> &[(usize, usize)] {
        &self.switches
    }

    /// Compute control bits realizing `perm`, where `perm[o] = i` means
    /// output position `o` receives input position `i`'s value.
    /// `perm` must be a bijection on `0..n` for some n ≤ size; missing
    /// positions are routed identically.
    pub fn route(&self, perm: &[usize]) -> Vec<bool> {
        assert!(perm.len() <= self.size);
        // Extend to a bijection on the padded size: unused inputs map to
        // the unused output positions in order.
        let mut full = vec![usize::MAX; self.size];
        let mut used = vec![false; self.size];
        for (o, &i) in perm.iter().enumerate() {
            assert!(i < perm.len(), "perm entry out of range");
            assert!(!used[i], "perm is not a bijection");
            used[i] = true;
            full[o] = i;
        }
        let mut free_inputs = (0..self.size).filter(|&i| !used[i]);
        for slot in full.iter_mut() {
            if *slot == usize::MAX {
                *slot = free_inputs.next().expect("padding input available");
            }
        }
        let mut bits = Vec::with_capacity(self.switches.len());
        route_benes(&full, &mut bits);
        debug_assert_eq!(bits.len(), self.switches.len());
        bits
    }

    /// Apply the network to `values` under `bits` (plaintext reference
    /// semantics; the oblivious evaluation lives in [`crate::osn`]).
    pub fn apply<T: Clone>(&self, values: &[T], bits: &[bool], pad: T) -> Vec<T> {
        assert!(values.len() <= self.size);
        assert_eq!(bits.len(), self.switches.len());
        let mut v: Vec<T> = values.to_vec();
        v.resize(self.size, pad);
        for (&(i, j), &b) in self.switches.iter().zip(bits) {
            if b {
                v.swap(i, j);
            }
        }
        v
    }
}

/// Recursive Beneš topology over positions `offset + k·stride`,
/// `k = 0..n`. Input layer, two half-size subnetworks (even/odd legs),
/// output layer.
fn build_benes(offset: usize, stride: usize, n: usize, out: &mut Vec<(usize, usize)>) {
    if n < 2 {
        return;
    }
    if n == 2 {
        out.push((offset, offset + stride));
        return;
    }
    for k in 0..n / 2 {
        out.push((offset + 2 * k * stride, offset + (2 * k + 1) * stride));
    }
    build_benes(offset, 2 * stride, n / 2, out);
    build_benes(offset + stride, 2 * stride, n / 2, out);
    for k in 0..n / 2 {
        out.push((offset + 2 * k * stride, offset + (2 * k + 1) * stride));
    }
}

/// Recursive Beneš routing. `perm[o] = i` (bijection on 0..n, n a power of
/// two). Emits bits in the same order `build_benes` emits switches.
fn route_benes(perm: &[usize], bits: &mut Vec<bool>) {
    let n = perm.len();
    if n < 2 {
        return;
    }
    if n == 2 {
        bits.push(perm[0] == 1);
        return;
    }
    let half = n / 2;
    // inv[i] = o with perm[o] = i.
    let mut inv = vec![0usize; n];
    for (o, &i) in perm.iter().enumerate() {
        inv[i] = o;
    }
    let mut in_bits: Vec<Option<bool>> = vec![None; half];
    let mut out_bits: Vec<Option<bool>> = vec![None; half];
    // Standard looping algorithm: fix an undecided output switch, chase the
    // induced constraints through input switches until the cycle closes.
    for start in 0..half {
        if out_bits[start].is_some() {
            continue;
        }
        out_bits[start] = Some(false);
        // Output 2·start is served by the upper subnetwork; follow the
        // constraint chain.
        let mut o = 2 * start; // this output must come via UPPER
        loop {
            let i = perm[o];
            // Input i must be routed to the upper subnetwork:
            // straight sends even leg up, so cross iff i is odd.
            let k = i / 2;
            in_bits[k] = Some(i % 2 == 1);
            // The partner input goes to the lower subnetwork.
            let partner = i ^ 1;
            let o2 = inv[partner]; // this output comes via LOWER
            let j = o2 / 2;
            // Lower reaches output 2j+1 when straight; cross iff o2 even.
            let need = o2.is_multiple_of(2);
            if let Some(existing) = out_bits[j] {
                debug_assert_eq!(existing, need, "routing conflict");
                break;
            }
            out_bits[j] = Some(need);
            // The other output of switch j is served by the upper subnet.
            o = o2 ^ 1;
        }
    }
    let in_bits: Vec<bool> = in_bits.into_iter().map(|b| b.unwrap_or(false)).collect();
    let out_bits: Vec<bool> = out_bits.into_iter().map(|b| b.unwrap_or(false)).collect();
    // Subnetwork permutations. Upper subnet output position j carries the
    // final output 2j (straight) or 2j+1 (crossed); its value originates at
    // input perm[o], which sits at upper-subnet input position perm[o]/2.
    let mut upper = vec![0usize; half];
    let mut lower = vec![0usize; half];
    for j in 0..half {
        let o_up = 2 * j + out_bits[j] as usize;
        let o_lo = 2 * j + 1 - out_bits[j] as usize;
        upper[j] = perm[o_up] / 2;
        lower[j] = perm[o_lo] / 2;
    }
    bits.extend_from_slice(&in_bits);
    route_benes(&upper, bits);
    route_benes(&lower, bits);
    bits.extend_from_slice(&out_bits);
}

/// The permute–duplicate–permute decomposition of an extended permutation
/// ξ : \[n_out\] → \[n_in\].
///
/// All three stages operate on `k = max(n_in, n_out)` logical wires:
/// 1. `p1` routes the first occurrence of every needed input to the start
///    of its duplication run,
/// 2. the duplication chain copies position k−1 into position k wherever
///    `dup_bits[k]` is set,
/// 3. `p2` routes run positions to their final output positions.
#[derive(Debug, Clone)]
pub struct EpNetwork {
    /// Logical wire count of every stage.
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
        let k = n_in.max(n_out).max(1);
        EpNetwork {
            k,
            n_in,
            n_out,
            p1: PermNetwork::new(k),
            p2: PermNetwork::new(k),
        }
    }

    /// Padded stage width.
    pub fn width(&self) -> usize {
        self.p1.size()
    }

    /// Binary switches across all three stages: one OT each in the
    /// oblivious evaluation ([`crate::osn`]), with the value holder as OT
    /// sender. A function of the public sizes only — this is the exact
    /// per-OEP figure offline planners bank.
    pub fn switch_count(&self) -> usize {
        self.p1.switches().len() + (self.width() - 1) + self.p2.switches().len()
    }

    /// Compute the routing for a concrete map `xi` (`xi[o] < n_in`).
    pub fn route(&self, xi: &[usize]) -> EpRouting {
        assert_eq!(xi.len(), self.n_out);
        let k = self.k;
        // Sort output positions by source input (stable), grouping
        // duplicates into runs.
        let mut order: Vec<usize> = (0..self.n_out).collect();
        order.sort_by_key(|&o| xi[o]);
        // Stage 1 permutation: position t takes input xi[order[t]] if t is
        // first-of-run; remaining inputs fill the other positions.
        let mut p1_perm = vec![usize::MAX; k];
        let mut dup_bits = vec![false; self.width()];
        for t in 0..self.n_out {
            let src = xi[order[t]];
            assert!(src < self.n_in, "xi entry out of range");
            let first = t == 0 || xi[order[t - 1]] != src;
            if first {
                p1_perm[t] = src;
            } else {
                dup_bits[t] = true;
            }
        }
        // Mark used inputs.
        let mut used = vec![false; k];
        for &src in p1_perm.iter().filter(|&&s| s != usize::MAX) {
            used[src] = true;
        }
        let mut free = (0..k).filter(|&i| !used[i]);
        for slot in p1_perm.iter_mut() {
            if *slot == usize::MAX {
                *slot = free.next().expect("free input");
            }
        }
        // Stage 2: output position order[t] receives run position t.
        let mut p2_perm = vec![usize::MAX; k];
        for (t, &o) in order.iter().enumerate() {
            p2_perm[o] = t;
        }
        let mut taken = vec![false; k];
        for &t in p2_perm.iter().filter(|&&t| t != usize::MAX) {
            taken[t] = true;
        }
        let mut free = (0..k).filter(|&t| !taken[t]);
        for slot in p2_perm.iter_mut() {
            if *slot == usize::MAX {
                *slot = free.next().expect("free run position");
            }
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
        let mut v = self.p1.apply(values, &routing.p1_bits, T::default());
        for t in 1..v.len() {
            if routing.dup_bits[t] {
                v[t] = v[t - 1].clone();
            }
        }
        let v = self.p2.apply(&v, &routing.p2_bits, T::default());
        v[..self.n_out].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{seq::SliceRandom, Rng, SeedableRng};

    #[test]
    fn benes_routes_every_small_permutation() {
        // Exhaustive over all permutations of sizes 1..=5 (covers padding).
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
        for n in 1..=5 {
            let net = PermNetwork::new(n);
            for perm in perms(n) {
                let bits = net.route(&perm);
                let values: Vec<u64> = (0..n as u64).collect();
                let got = net.apply(&values, &bits, u64::MAX);
                for (o, &i) in perm.iter().enumerate() {
                    assert_eq!(got[o], i as u64, "n={n} perm={perm:?}");
                }
            }
        }
    }

    #[test]
    fn benes_routes_random_large_permutations() {
        let mut rng = StdRng::seed_from_u64(17);
        for n in [8usize, 13, 64, 100, 257] {
            let net = PermNetwork::new(n);
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut rng);
            let bits = net.route(&perm);
            let values: Vec<u64> = (0..n as u64).map(|v| v * 7 + 1).collect();
            let got = net.apply(&values, &bits, 0);
            for (o, &i) in perm.iter().enumerate() {
                assert_eq!(got[o], values[i], "n={n}");
            }
        }
    }

    #[test]
    fn switch_count_is_n_log_n() {
        let net = PermNetwork::new(8);
        // Beneš on 8 wires: 8/2 * (2*3 - 1) = 20 switches.
        assert_eq!(net.switches().len(), 20);
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

    #[test]
    fn ep_network_random_maps() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..50 {
            let n_in = rng.gen_range(1..40);
            let n_out = rng.gen_range(1..40);
            let net = EpNetwork::new(n_in, n_out);
            let xi: Vec<usize> = (0..n_out).map(|_| rng.gen_range(0..n_in)).collect();
            let routing = net.route(&xi);
            let values: Vec<u64> = (0..n_in as u64).map(|v| v + 1000).collect();
            let got = net.apply(&values, &routing);
            for (o, &src) in xi.iter().enumerate() {
                assert_eq!(got[o], values[src], "n_in={n_in} n_out={n_out} xi={xi:?}");
            }
        }
    }

    #[test]
    fn singleton_sizes() {
        let net = EpNetwork::new(1, 1);
        let routing = net.route(&[0]);
        assert_eq!(net.apply(&[42u64], &routing), vec![42]);
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
        fn prop_benes_routes_any_permutation(perm in proptest::collection::vec(0usize..64, 1..64)
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
            let got = net.apply(&values, &bits, u64::MAX);
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
