//! The PSI's public parameters, in one place.
//!
//! Each is a function of public sizes and the statistical security
//! parameter σ, and its doc comment states the bound it meets. Both
//! parties derive every value from the same public sizes, so they agree
//! without a message; [`crate::hashing`] and [`crate::circuit_psi`] call
//! these and define no width of their own.

use crate::hashing::NUM_HASHES;

/// Statistical security parameter: each parameter below fails with
/// probability at most 2^-σ.
pub const SIGMA: u32 = 40;

/// Number of cuckoo bins B = ⌈1.27·M⌉ for M receiver elements: the
/// paper's footnote 3, the expansion PSZ18 (Pinkas–Schneider–Zohner)
/// measure for three hash functions in the large-n regime.
pub fn bin_count(m: usize) -> usize {
    ((m as f64 * 1.27).ceil() as usize).max(1)
}

/// Public bound D on a simple-hashing bin's load when `balls` sender
/// elements go to their candidate bins among `bins`: the smallest D with
/// bins · Pr[Bin(balls, q) > D] ≤ 2^-σ, where q = 1 − (1 − 1/bins)³.
///
/// An element lands in a given bin with probability exactly q, because
/// [`crate::SimpleTable`] stores it once however many of its
/// `NUM_HASHES` candidates collide there; a bin's load is therefore
/// Bin(balls, q), and by the union bound over the bins no load exceeds D
/// except with probability 2^-σ. A run that does sees a typed abort.
pub fn max_bin_size(balls: usize, bins: usize) -> usize {
    load_bound(balls, bins, SIGMA)
}

/// [`max_bin_size`] at statistical parameter `sigma`.
///
/// Computed with `+ − × ÷` and comparisons only, in a fixed order, so
/// every IEEE-754 platform derives the same D: the binomial weights
/// relative to the mode, w_{k+1} = w_k · (n − k)/(k + 1) · q/(1 − q), and
/// the tail scanned down from k = n until it leaves the budget.
fn load_bound(balls: usize, bins: usize, sigma: u32) -> usize {
    if bins <= 1 {
        // Every element lands in the one bin.
        return balls.max(1);
    }
    // q = hit / b^h and 1 − q = miss / b^h, with h = NUM_HASHES: integers.
    let b = bins as u128;
    let (cube, miss) = (b.pow(NUM_HASHES as u32), (b - 1).pow(NUM_HASHES as u32));
    let hit = cube - miss;
    let odds = hit as f64 / miss as f64;
    // The weights peak at the mode ⌊(n + 1)·q⌋, so none exceeds 1 and
    // none that matters underflows.
    let mode = ((balls as u128 + 1) * hit / cube).min(balls as u128) as usize;
    let mut w = vec![0.0f64; balls + 1];
    w[mode] = 1.0;
    for k in mode..balls {
        w[k + 1] = w[k] * (balls - k) as f64 / (k + 1) as f64 * odds;
    }
    for k in (1..=mode).rev() {
        w[k - 1] = w[k] * k as f64 / (balls - k + 1) as f64 / odds;
    }
    let total: f64 = w.iter().rev().sum();
    let mut budget = total;
    for _ in 0..sigma {
        budget *= 0.5;
    }
    // Invariant: `tail` = Σ_{k > d} w_k, and d meets the budget.
    let (mut d, mut tail) = (balls, 0.0);
    while d > 0 && bins as f64 * (tail + w[d]) <= budget {
        tail += w[d];
        d -= 1;
    }
    d.max(1)
}

/// Bits of the membership word o′ a PSI circuit compares to zero:
/// min(64, σ + ⌈log₂ bins⌉). A non-member's o′ is pseudorandom, so it
/// passes the test with probability 2^-w, and some bin of `bins` does
/// with probability at most bins · 2^-w ≤ 2^-σ.
pub fn membership_bits(bins: usize) -> usize {
    (SIGMA as usize + ceil_log2(bins)).min(64)
}

/// Bits of a §5.5 routing index into `slots` = N + B extended payload
/// slots: ⌈log₂ slots⌉, at least one. Every index the protocol routes is
/// below `slots`, so it fits; a hostile garbler can still reveal one in
/// [slots, 2^i), which the receiver checks.
pub fn index_bits(slots: usize) -> usize {
    ceil_log2(slots).max(1)
}

fn ceil_log2(n: usize) -> usize {
    n.next_power_of_two().trailing_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::SimpleTable;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// (receiver, sender) sizes: the workloads' PSIs (Q3's two, Q18's,
    /// chain3's), then more.
    const SIZES: [(usize, usize); 10] = [
        (450, 1_752),
        (450, 45),
        (150, 588),
        (24, 48),
        (45, 1_752),
        (100, 1_000),
        (1_000, 100),
        (10, 10),
        (2, 5),
        (1, 1),
    ];

    /// Known answers, each from an exact rational computation of the
    /// binomial tail.
    #[test]
    fn load_bound_known_answers() {
        let at_40 = [42, 10, 41, 25, 167, 68, 11, 10, 5, 1];
        let at_8 = [25, 4, 24, 13, 126, 45, 5, 7, 5, 1];
        for (k, &(receiver, sender)) in SIZES.iter().enumerate() {
            let bins = bin_count(receiver);
            assert_eq!(max_bin_size(sender, bins), at_40[k], "{receiver}, {sender}");
            assert_eq!(load_bound(sender, bins, 8), at_8[k], "σ = 8 at {sender}");
        }
    }

    /// The mode-relative computation against the tail summed directly
    /// from C(n, k)·q^k·(1 − q)^(n−k), where n is small enough for that
    /// to be exact in f64.
    #[test]
    fn load_bound_agrees_with_a_direct_tail_sum() {
        let direct = |n: usize, bins: usize, sigma: i32| -> usize {
            let q = 1.0 - (1.0 - 1.0 / bins as f64).powi(3);
            let pmf = |k: usize| {
                let choose = (0..k).fold(1.0, |c, j| c * (n - j) as f64 / (j + 1) as f64);
                choose * q.powi(k as i32) * (1.0 - q).powi((n - k) as i32)
            };
            let budget = 2f64.powi(-sigma) / bins as f64;
            let tail = |d: usize| (d + 1..=n).map(pmf).sum::<f64>();
            (1..=n).find(|&d| tail(d) <= budget).unwrap_or(1)
        };
        for n in [1usize, 2, 5, 9, 17, 30, 48] {
            for bins in [2usize, 3, 7, 13, 31, 64, 127] {
                for sigma in [4u32, 8, 20, 40] {
                    let want = direct(n, bins, sigma as i32);
                    assert_eq!(
                        load_bound(n, bins, sigma),
                        want,
                        "n {n}, bins {bins}, σ {sigma}"
                    );
                }
            }
        }
    }

    /// The largest bin load of a seeded simple table, per trial, for `n`
    /// random sender elements in `bins` bins.
    fn max_loads(n: usize, bins: usize, trials: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(n as u64 ^ bins as u64);
        let mut max_load = |seed: u64| {
            let y: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            SimpleTable::build(&y, bins, seed).max_load()
        };
        (0..trials).map(&mut max_load).collect()
    }

    /// At σ = 8, where failures are countable: loads past the bound stay
    /// within the 2^-8 budget with slack (the union bound at these sizes
    /// is under a third of it), and a bound three below it overflows well
    /// past the budget, so the formula errs on the safe side, not by much.
    fn simulate_weak_sigma(trials: u64) {
        for (receiver, sender) in [(30, 60), (50, 50)] {
            let bins = bin_count(receiver);
            let bound = load_bound(sender, bins, 8);
            let loads = max_loads(sender, bins, trials);
            let past = |d: usize| loads.iter().filter(|&&l| l > d).count() as u64;
            let budget = trials >> 8;
            let (over, under) = (past(bound), past(bound - 3));
            assert!(over <= budget, "{over} of {trials} past D = {bound}");
            assert!(under > 4 * budget, "{under} of {trials} past D − 3");
        }
    }

    #[test]
    fn load_bound_holds_at_a_weak_sigma() {
        simulate_weak_sigma(1 << 10);
    }

    /// The same at 2^14 trials: run in release (`--ignored load_bound`).
    #[test]
    #[ignore]
    fn load_bound_holds_at_a_weak_sigma_deep() {
        simulate_weak_sigma(1 << 14);
    }

    #[test]
    fn widths_at_the_workloads_sizes() {
        assert_eq!(membership_bits(bin_count(450)), 50);
        assert_eq!(membership_bits(bin_count(150)), 48);
        assert_eq!(membership_bits(1 << 30), 64);
        assert_eq!(index_bits(48 + bin_count(24)), 7);
        assert_eq!(index_bits(1), 1);
        assert_eq!(index_bits(64), 6);
        assert_eq!(index_bits(65), 7);
    }
}
