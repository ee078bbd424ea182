//! Oblivious projection-aggregation (paper §6.1).
//!
//! Computes π⊕_F(R) or the support projection π¹_F(R) of a
//! [`SecureRelation`] whose annotations are secret-shared. The owner sorts
//! locally, a shared OEP re-aligns the annotation shares with the sorted
//! order, and a chain of garbled merge gates sweeps group aggregates into
//! each group's last row — all other rows become dummies with
//! zero-annotation shares, so the output has the *same public size* as the
//! input and leaks nothing about the number of groups.
//!
//! When the annotations are still owner-known (`is_plain`, §6.5) the whole
//! operator collapses to local computation plus dummy padding.

use crate::session::Session;
use crate::shape::{Draws, RelHeader};
use crate::srel::SecureRelation;
use secyan_circuit::{words_to_bits, Circuit, Word};
use secyan_gc::with_shared_rows;

/// Which projection-aggregation to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// π⊕: sum the group's annotations.
    Sum,
    /// π¹: 1 if the group contains any nonzero annotation, else 0.
    Support,
}

/// The merge-gate chain circuit. Garbler = relation owner.
///
/// Inputs (after the shared-output masks): garbler's N−1 equality bits and
/// N share words, then the evaluator's N share words. Outputs: N shared
/// words in sorted order, nonzero only at group ends.
pub(crate) fn merge_circuit(n: usize, ell: usize, kind: AggKind) -> Circuit {
    with_shared_rows(n, ell, |c| {
        let eq = c.alice(n - 1, 1);
        let (a, bs) = (c.alice(n, ell), c.bob(n, ell));
        let mut xs = c.segment(n, |b| {
            let (x, y) = (b.read(a), b.read(bs));
            let v = b.add_words(&x, &y);
            b.output_word(&v);
        });
        // π¹ sweeps the values' nonzero indicators along instead.
        if kind == AggKind::Support {
            xs = c.segment(n, |b| {
                let v = b.read(xs);
                let ind = b.is_nonzero_word(&v);
                b.output(ind);
            });
        }
        // One merge gate per adjacent pair, carrying the running group
        // aggregate: a row emits it when its group ends there (else 0) and
        // hands on the next group's start or the extended aggregate; the
        // last row's word is the aggregate leaving the chain. A support
        // bit leaves as the ring element 0 or 1.
        c.scan(n - 1, xs.slice_rows(0..1), |b, z| {
            let eq = b.read(eq).0[0];
            let next = b.read(xs.slice_rows(1..n));
            let neq = b.not(eq);
            let out = b.and_word_bit(z, neq);
            b.output_word(&out);
            let keep = b.and_word_bit(z, eq);
            match kind {
                AggKind::Sum => b.add_words(&keep, &next),
                AggKind::Support => Word(vec![b.or(keep.0[0], next.0[0])]),
            }
        })
    })
}

/// How one projection-aggregation runs. A function of the input's public
/// header, the target attributes and the aggregate alone, so both parties
/// — and the offline planner — always pick the same path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AggPath {
    /// §6.5: annotations still owner-known → purely local computation.
    Local,
    /// No rows: nothing to do.
    Empty,
    /// A grand total (empty grouping) under SUM is linear in the
    /// annotations, so each party folds its own shares locally — zero
    /// communication, zero rounds.
    LinearTotal,
    /// The general case: shared OEP into sorted order, then the
    /// merge-gate chain garbled by the owner.
    Merge,
}

/// The public step [`oblivious_project_agg`] is about to run.
pub(crate) struct AggStep {
    /// Header of the output: same owner and public size as the input.
    pub out: RelHeader,
    pub path: AggPath,
    kind: AggKind,
    ell: usize,
}

pub(crate) fn agg_step(rel: &RelHeader, attrs: &[String], kind: AggKind, ell: usize) -> AggStep {
    let path = if rel.is_plain {
        AggPath::Local
    } else if rel.size == 0 {
        AggPath::Empty
    } else if attrs.is_empty() && kind == AggKind::Sum {
        AggPath::LinearTotal
    } else {
        AggPath::Merge
    };
    let out = RelHeader {
        schema: attrs.to_vec(),
        ..rel.clone()
    };
    AggStep {
        out,
        path,
        kind,
        ell,
    }
}

impl AggStep {
    fn circuit(&self) -> Circuit {
        merge_circuit(self.out.size, self.ell, self.kind)
    }

    pub(crate) fn draws(&self) -> Draws {
        let mut d = Draws::default();
        if self.path == AggPath::Merge {
            let (n, owner) = (self.out.size, self.out.owner);
            d.oep(owner, n, n);
            d.garble(self.circuit(), owner);
        }
        d
    }
}

/// Oblivious π⊕_attrs(R) / π¹_attrs(R). Both parties call this with the
/// same public arguments; the output relation keeps the owner and the
/// public size N of the input.
pub fn oblivious_project_agg(
    sess: &mut Session,
    rel: &SecureRelation,
    attrs: &[String],
    kind: AggKind,
) -> SecureRelation {
    let ell = sess.ring.bits() as usize;
    let step = agg_step(&rel.header, attrs, kind, ell);
    let n = rel.header.size;
    match step.path {
        AggPath::Local => local_project_agg(sess, rel, step.out, kind),
        AggPath::Empty => SecureRelation {
            header: step.out,
            rows: rel.rows.as_ref().map(|_| Vec::new()),
            annot_shares: Vec::new(),
        },
        AggPath::LinearTotal => {
            // Dummy annotations are shares of 0, so folding them in is
            // harmless. The single real output row sits at the public last
            // position; every other row is a dummy whose shares reconstruct
            // to 0, matching the merge-chain output contract.
            let total = rel
                .annot_shares
                .iter()
                .fold(0u64, |acc, &v| sess.ring.add(acc, v));
            let mut shares = vec![0u64; n];
            shares[n - 1] = total;
            let rows = rel.rows.as_ref().map(|_| {
                let mut rows = vec![(Vec::new(), true); n];
                rows[n - 1].1 = false;
                rows
            });
            SecureRelation {
                header: step.out,
                rows,
                annot_shares: shares,
            }
        }
        AggPath::Merge => merge_project_agg(sess, rel, attrs, step),
    }
}

/// The general path: a shared OEP re-aligns the annotation shares with
/// the owner's sorted order, then the merge-gate chain — garbled by the
/// owner — sweeps each group's aggregate into its last row.
fn merge_project_agg(
    sess: &mut Session,
    rel: &SecureRelation,
    attrs: &[String],
    step: AggStep,
) -> SecureRelation {
    let (n, owner) = (rel.header.size, rel.header.owner);
    let circuit = step.circuit();
    // Owner side: real rows sorted by the projected key, dummies last and
    // each its own singleton group; the equality chain over that order;
    // and the output rows — group ends are real, all others dummy.
    let mine = rel.rows.as_ref().map(|rows| {
        let pos = rel.positions(attrs);
        let proj = |i: usize| -> Vec<u64> { pos.iter().map(|&p| rows[i].0[p]).collect() };
        let dummy = |i: usize| rows[i].1;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (dummy(i), proj(i)));
        let eq: Vec<bool> = (0..n - 1)
            .map(|i| {
                let (a, b) = (order[i], order[i + 1]);
                !dummy(a) && !dummy(b) && proj(a) == proj(b)
            })
            .collect();
        let rows = (0..n)
            .map(|i| {
                let is_end = i == n - 1 || !eq[i];
                (proj(order[i]), dummy(order[i]) || !is_end)
            })
            .collect();
        ((order, eq), rows)
    });
    let (keys, rows) = mine.unzip();
    let (order, eq): (Option<Vec<usize>>, Option<Vec<bool>>) = keys.unzip();
    let my_sorted = sess.oep(owner, order.as_deref(), n, &rel.annot_shares);
    let mut my_bits = eq.unwrap_or_default();
    my_bits.extend(words_to_bits(&my_sorted, step.ell));
    let annot_shares = sess.garble_shared(&circuit, owner, &my_bits);
    SecureRelation {
        header: step.out,
        rows,
        annot_shares,
    }
}

/// §6.5: the owner aggregates locally, padding the result back to the
/// public input size with dummies. No communication.
fn local_project_agg(
    sess: &mut Session,
    rel: &SecureRelation,
    header: RelHeader,
    kind: AggKind,
) -> SecureRelation {
    let n = rel.header.size;
    let Some(in_rows) = &rel.rows else {
        return SecureRelation {
            header,
            rows: None,
            annot_shares: vec![0; n],
        };
    };
    let pos = rel.positions(&header.schema);
    // One row per group in order of first appearance, the group's
    // aggregate accumulating in place.
    let mut rows: Vec<(Vec<u64>, bool)> = Vec::new();
    let mut annots: Vec<u64> = Vec::new();
    let mut group: std::collections::HashMap<Vec<u64>, usize> = Default::default();
    for ((t, _), &v) in in_rows
        .iter()
        .zip(&rel.annot_shares)
        .filter(|((_, d), _)| !d)
    {
        let key: Vec<u64> = pos.iter().map(|&p| t[p]).collect();
        let g = *group.entry(key).or_insert_with_key(|key| {
            rows.push((key.clone(), false));
            annots.push(0);
            rows.len() - 1
        });
        annots[g] = match kind {
            AggKind::Sum => sess.ring.add(annots[g], v),
            AggKind::Support => annots[g] | u64::from(v != 0),
        };
    }
    rows.resize(n, (vec![0; header.schema.len()], true));
    annots.resize(n, 0);
    SecureRelation {
        header,
        rows: Some(rows),
        annot_shares: annots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secyan_crypto::RingCtx;
    use secyan_relation::{NaturalRing, Relation};
    use secyan_transport::{run_protocol, CommStats, Role};
    use std::collections::HashMap;

    /// Run oblivious aggregation end-to-end and reconstruct (key → value),
    /// with what the whole run cost on the wire.
    fn run_agg(
        rows: Vec<(Vec<u64>, u64)>,
        schema: Vec<&str>,
        attrs: Vec<&str>,
        kind: AggKind,
        force_shared: bool,
    ) -> (HashMap<Vec<u64>, u64>, CommStats) {
        let schema: Vec<String> = schema.into_iter().map(|s| s.to_string()).collect();
        let attrs: Vec<String> = attrs.into_iter().map(|s| s.to_string()).collect();
        let rel = Relation::from_rows(NaturalRing::paper_default(), schema.clone(), rows);
        let (sch_a, sch_b) = (schema.clone(), schema);
        let (at_a, at_b) = (attrs.clone(), attrs);
        let ((out_a, rows), out_b, stats) = run_protocol(
            move |ch| {
                let mut sess = crate::session::Session::new(
                    ch,
                    RingCtx::new(32),
                    secyan_crypto::TweakHasher::Aes,
                    71,
                );
                let mut r =
                    SecureRelation::load_all(&mut sess, vec![(Role::Alice, sch_a, Some(&rel))])
                        .remove(0);
                if force_shared {
                    r.ensure_shared(&mut sess);
                }
                let mut out = oblivious_project_agg(&mut sess, &r, &at_a, kind);
                out.ensure_shared(&mut sess);
                (out.annot_shares, out.rows.unwrap())
            },
            move |ch| {
                let mut sess = crate::session::Session::new(
                    ch,
                    RingCtx::new(32),
                    secyan_crypto::TweakHasher::Aes,
                    72,
                );
                let mut r =
                    SecureRelation::load_all(&mut sess, vec![(Role::Alice, sch_b, None)]).remove(0);
                if force_shared {
                    r.ensure_shared(&mut sess);
                }
                let mut out = oblivious_project_agg(&mut sess, &r, &at_b, kind);
                out.ensure_shared(&mut sess);
                out.annot_shares
            },
        );
        let ring = RingCtx::new(32);
        let mut result = HashMap::new();
        for (i, (tuple, dummy)) in rows.into_iter().enumerate() {
            let v = ring.reconstruct(out_a[i], out_b[i]);
            if dummy {
                assert_eq!(v, 0, "dummy row {i} must carry a zero annotation");
            } else {
                assert!(result.insert(tuple, v).is_none());
            }
        }
        (result, stats)
    }

    /// Also the §6.5 ablation: owner-known annotations aggregate locally
    /// (no OEP, no merge circuit), so the plain arm costs strictly fewer
    /// bytes and super-rounds than forcing the shared path.
    #[test]
    fn sum_groups_correctly() {
        let mut cost = Vec::new();
        for force_shared in [false, true] {
            let (got, stats) = run_agg(
                vec![
                    (vec![1, 10], 5),
                    (vec![2, 20], 7),
                    (vec![1, 30], 11),
                    (vec![2, 40], 1),
                    (vec![3, 50], 9),
                ],
                vec!["g", "x"],
                vec!["g"],
                AggKind::Sum,
                force_shared,
            );
            let want: HashMap<Vec<u64>, u64> = [(vec![1], 16), (vec![2], 8), (vec![3], 9)]
                .into_iter()
                .collect();
            assert_eq!(got, want, "force_shared={force_shared}");
            cost.push((stats.total_bytes(), stats.super_rounds));
        }
        let (plain, shared) = (cost[0], cost[1]);
        assert!(
            plain.0 < shared.0 && plain.1 < shared.1,
            "(bytes, super-rounds) plain {plain:?} vs shared {shared:?}"
        );
    }

    #[test]
    fn support_is_binary() {
        for force_shared in [false, true] {
            let (got, _) = run_agg(
                vec![
                    (vec![1], 0),
                    (vec![1], 0),
                    (vec![2], 3),
                    (vec![2], 4),
                    (vec![3], 0),
                ],
                vec!["g"],
                vec!["g"],
                AggKind::Support,
                force_shared,
            );
            // Group 1: all zero → support 0 (its row reconstructs to 0, so
            // it is indistinguishable from a dummy and dropped from the
            // map only if flagged; the oblivious path flags group ends as
            // real, so key [1] appears with value 0).
            assert_eq!(got.get(&vec![2u64]), Some(&1));
            assert_eq!(got.get(&vec![1u64]).copied().unwrap_or(0), 0);
            assert_eq!(got.get(&vec![3u64]).copied().unwrap_or(0), 0);
        }
    }

    #[test]
    fn grand_total_empty_attrs() {
        let (got, _) = run_agg(
            vec![(vec![1], 5), (vec![2], 6), (vec![3], 7)],
            vec!["x"],
            vec![],
            AggKind::Sum,
            true,
        );
        assert_eq!(got.get(&vec![]), Some(&18));
    }

    #[test]
    fn single_row_relation() {
        let (got, _) = run_agg(
            vec![(vec![9], 42)],
            vec!["x"],
            vec!["x"],
            AggKind::Sum,
            true,
        );
        assert_eq!(got.get(&vec![9u64]), Some(&42));
    }
}
