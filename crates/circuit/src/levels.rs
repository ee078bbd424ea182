//! Topological levelization of a gate template for batched garbling.
//!
//! Half-gates garbling is sequential only through wire dependencies: an
//! AND gate's table depends on nothing but its two input labels and its
//! own (position-derived) tweak. Partitioning a template's gate list into
//! *levels* — where every gate in level k reads only wires settled in
//! levels < k — lets all AND gates of a level, across every row of a tile,
//! hash in one batch while the canonical gate order (and thus the AND
//! index, the hash tweak) stays fixed.
//!
//! Free gates (XOR/INV) cost no cryptography: each [`Level`] carries the
//! free gates that become ready with it (run in template order) followed
//! by the level's AND gates (mutually independent). The schedule is a
//! function of the template alone and is computed once, when the template
//! is built.

use crate::ir::Gate;

/// One AND gate scheduled in a level: local wire indices plus its position
/// in the template's AND-gate sequence (the per-row table/tweak offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AndRef {
    /// Left input wire.
    pub a: usize,
    /// Right input wire.
    pub b: usize,
    /// Output wire.
    pub out: usize,
    /// Index in the template's AND-gate order.
    pub idx: usize,
}

/// One batched step of the schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Level {
    /// Free gates (XOR/INV) that settle in this level, in template order.
    pub free: Vec<Gate>,
    /// AND gates whose inputs settle strictly before this level's ANDs
    /// run; mutually independent, safe to process in any order.
    pub ands: Vec<AndRef>,
}

/// Partition `gates` (over `num_wires` local wires) into levels.
///
/// Wire w settles at depth d(w): inputs at 0; a free gate settles at its
/// input depth (XOR at the max of its two); an AND gate at input depth + 1
/// (it must wait for a batched step). Level k then holds the free gates
/// with depth k and the AND gates with depth k + 1, which by construction
/// read only wires of depth ≤ k.
pub(crate) fn levelize(num_wires: usize, gates: &[Gate]) -> Vec<Level> {
    let mut depth = vec![0usize; num_wires];
    let mut levels: Vec<Level> = Vec::new();
    let mut idx = 0usize;
    for &g in gates {
        let (k, and) = match g {
            Gate::Xor { a, b, out } => {
                depth[out] = depth[a].max(depth[b]);
                (depth[out], None)
            }
            Gate::Inv { a, out } => {
                depth[out] = depth[a];
                (depth[out], None)
            }
            Gate::And { a, b, out } => {
                let k = depth[a].max(depth[b]);
                depth[out] = k + 1;
                let and = AndRef { a, b, out, idx };
                idx += 1;
                (k, Some(and))
            }
        };
        if levels.len() <= k {
            levels.resize_with(k + 1, Level::default);
        }
        match and {
            Some(and) => levels[k].ands.push(and),
            None => levels[k].free.push(g),
        }
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;

    /// in0 & in1 -> w2; w2 & in1 -> w3; w3 ^ in0 -> w4
    fn chain() -> (usize, Vec<Gate>) {
        let gates = vec![
            Gate::And { a: 0, b: 1, out: 2 },
            Gate::And { a: 2, b: 1, out: 3 },
            Gate::Xor { a: 3, b: 0, out: 4 },
        ];
        (5, gates)
    }

    /// n independent ANDs over 2n inputs, then a XOR-reduce chain.
    fn wide(n: usize) -> (usize, Vec<Gate>) {
        let mut gates = Vec::new();
        let w = 2 * n;
        for i in 0..n {
            gates.push(Gate::And {
                a: 2 * i,
                b: 2 * i + 1,
                out: w + i,
            });
        }
        let mut acc = w;
        for i in 1..n {
            gates.push(Gate::Xor {
                a: acc,
                b: w + i,
                out: w + n + i - 1,
            });
            acc = w + n + i - 1;
        }
        (w + 2 * n, gates)
    }

    /// The schedule must be a permutation of the gates where every gate's
    /// inputs settle before it runs: free gates of level k may read same-
    /// level free outputs listed earlier plus level <k AND outputs; AND
    /// gates of level k read only wires settled by end of level k's frees.
    fn assert_valid_schedule(n_in: usize, num_wires: usize, gates: &[Gate]) {
        let levels = levelize(num_wires, gates);
        let mut settled = vec![false; num_wires];
        for s in settled.iter_mut().take(n_in) {
            *s = true;
        }
        let mut seen_gates = 0usize;
        let mut seen_ands = std::collections::HashSet::new();
        for level in &levels {
            for g in &level.free {
                match *g {
                    Gate::Xor { a, b, out } => {
                        assert!(settled[a] && settled[b], "xor inputs unsettled");
                        settled[out] = true;
                    }
                    Gate::Inv { a, out } => {
                        assert!(settled[a], "inv input unsettled");
                        settled[out] = true;
                    }
                    Gate::And { .. } => panic!("AND listed as free"),
                }
                seen_gates += 1;
            }
            // ANDs read only wires settled before any same-level AND writes.
            for and in &level.ands {
                assert!(settled[and.a] && settled[and.b], "and inputs unsettled");
                assert!(seen_ands.insert(and.idx), "duplicate AND index");
            }
            for and in &level.ands {
                settled[and.out] = true;
                seen_gates += 1;
            }
        }
        assert_eq!(seen_gates, gates.len(), "schedule drops gates");
    }

    #[test]
    fn chain_levels_are_sequential() {
        let (w, gates) = chain();
        let levels = levelize(w, &gates);
        assert!(levels.iter().all(|l| l.ands.len() <= 1));
        assert!(levels.len() >= 2);
        assert_valid_schedule(2, w, &gates);
    }

    #[test]
    fn wide_circuit_is_one_batched_level() {
        let (w, gates) = wide(64);
        assert_eq!(levelize(w, &gates)[0].ands.len(), 64);
        assert_valid_schedule(128, w, &gates);
    }

    #[test]
    fn and_indices_follow_template_order() {
        let (w, gates) = chain();
        let idxs: Vec<usize> = levelize(w, &gates)
            .iter()
            .flat_map(|l| l.ands.iter().map(|a| a.idx))
            .collect();
        assert_eq!(idxs, vec![0, 1]);
    }
}
