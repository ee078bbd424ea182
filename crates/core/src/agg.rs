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
use secyan_gc::{with_shared_rows, SharedOutputSpec};

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
pub(crate) fn merge_circuit(n: usize, ell: usize, kind: AggKind) -> (Circuit, SharedOutputSpec) {
    with_shared_rows(n, &[ell], |c| {
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
        let merged = c.scan(n - 1, xs.slice_rows(0..1), |b, z| {
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
        });
        vec![merged]
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
    fn circuit(&self) -> (Circuit, SharedOutputSpec) {
        merge_circuit(self.out.size, self.ell, self.kind)
    }

    pub(crate) fn draws(&self) -> Draws {
        let mut d = Draws::default();
        if self.path == AggPath::Merge {
            let (n, owner) = (self.out.size, self.out.owner);
            d.oep(owner, n, n);
            d.garble(self.circuit().0, owner);
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
    let step = agg_step(&rel.header(), attrs, kind, ell);
    let mine = rel.is_mine(sess);
    let n = rel.size;
    match step.path {
        AggPath::Local => local_project_agg(sess, rel, step.out, kind),
        AggPath::Empty => SecureRelation::shared(step.out, mine.then(Vec::new), Vec::new()),
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
            let rows = mine.then(|| {
                let mut rows = vec![(Vec::new(), true); n];
                rows[n - 1].1 = false;
                rows
            });
            SecureRelation::shared(step.out, rows, shares)
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
    let (n, owner) = (rel.size, rel.owner);
    let (circuit, spec) = step.circuit();
    // Owner side: real rows sorted by the projected key, dummies last and
    // each its own singleton group; the equality chain over that order;
    // and the output rows — group ends are real, all others dummy.
    let mine = rel.is_mine(sess).then(|| {
        let pos = rel.positions(attrs);
        let tuples = rel.tuples.as_ref().expect("owner side");
        let dummies = rel.dummy.as_ref().expect("owner side");
        let proj = |i: usize| -> Vec<u64> { pos.iter().map(|&p| tuples[i][p]).collect() };
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| (dummies[i], proj(i)).cmp(&(dummies[j], proj(j))));
        let eq: Vec<bool> = (0..n - 1)
            .map(|i| {
                let (a, b) = (order[i], order[i + 1]);
                !dummies[a] && !dummies[b] && proj(a) == proj(b)
            })
            .collect();
        let rows = (0..n)
            .map(|i| {
                let is_end = i == n - 1 || !eq[i];
                (proj(order[i]), dummies[order[i]] || !is_end)
            })
            .collect();
        ((order, eq), rows)
    });
    let (keys, rows) = mine.unzip();
    let (order, eq): (Option<Vec<usize>>, Option<Vec<bool>>) = keys.unzip();
    let my_sorted = sess.oep(owner, order.as_deref(), n, &rel.annot_shares);
    let mut my_bits = eq.unwrap_or_default();
    my_bits.extend(words_to_bits(&my_sorted, step.ell));
    let out_shares = sess.garble_shared(&circuit, &spec, owner, &my_bits);
    SecureRelation::shared(step.out, rows, out_shares)
}

/// §6.5: the owner aggregates locally, padding the result back to the
/// public input size with dummies. No communication.
fn local_project_agg(
    sess: &mut Session,
    rel: &SecureRelation,
    out: RelHeader,
    kind: AggKind,
) -> SecureRelation {
    let n = rel.size;
    if !rel.is_mine(sess) {
        return SecureRelation::plain(out, None);
    }
    let pos = rel.positions(&out.schema);
    let tuples = rel.tuples.as_ref().expect("owner side");
    let dummies = rel.dummy.as_ref().expect("owner side");
    let plain = rel.plain_annots.as_ref().expect("plain annots");
    let mut groups: std::collections::HashMap<Vec<u64>, u64> = std::collections::HashMap::new();
    let mut order: Vec<Vec<u64>> = Vec::new();
    for i in 0..n {
        if dummies[i] {
            continue;
        }
        let key: Vec<u64> = pos.iter().map(|&p| tuples[i][p]).collect();
        let v = plain[i];
        match groups.get_mut(&key) {
            Some(acc) => {
                *acc = match kind {
                    AggKind::Sum => sess.ring.add(*acc, v),
                    AggKind::Support => {
                        if *acc == 1 || v != 0 {
                            1
                        } else {
                            0
                        }
                    }
                }
            }
            None => {
                let init = match kind {
                    AggKind::Sum => v,
                    AggKind::Support => (v != 0) as u64,
                };
                groups.insert(key.clone(), init);
                order.push(key);
            }
        }
    }
    let mut rows: Vec<(Vec<u64>, bool, u64)> = order
        .into_iter()
        .map(|key| {
            let v = groups[&key];
            (key, false, v)
        })
        .collect();
    rows.resize(n, (vec![0; out.schema.len()], true, 0));
    SecureRelation::plain(out, Some(rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use secyan_crypto::RingCtx;
    use secyan_relation::{NaturalRing, Relation};
    use secyan_transport::{run_protocol, Role};
    use std::collections::HashMap;

    /// Run oblivious aggregation end-to-end and reconstruct (key → value).
    fn run_agg(
        rows: Vec<(Vec<u64>, u64)>,
        schema: Vec<&str>,
        attrs: Vec<&str>,
        kind: AggKind,
        force_shared: bool,
    ) -> HashMap<Vec<u64>, u64> {
        let schema: Vec<String> = schema.into_iter().map(|s| s.to_string()).collect();
        let attrs: Vec<String> = attrs.into_iter().map(|s| s.to_string()).collect();
        let rel = Relation::from_rows(NaturalRing::paper_default(), schema.clone(), rows);
        let (sch_a, sch_b) = (schema.clone(), schema);
        let (at_a, at_b) = (attrs.clone(), attrs);
        let ((out_a, tuples, dummy), out_b, _) = run_protocol(
            move |ch| {
                let mut sess = crate::session::Session::new(
                    ch,
                    RingCtx::new(32),
                    secyan_crypto::TweakHasher::Aes,
                    71,
                );
                let mut r = SecureRelation::load(&mut sess, Role::Alice, sch_a, Some(&rel));
                if force_shared {
                    r.ensure_shared(&mut sess);
                }
                let mut out = oblivious_project_agg(&mut sess, &r, &at_a, kind);
                out.ensure_shared(&mut sess);
                (
                    out.annot_shares.clone(),
                    out.tuples.clone().unwrap(),
                    out.dummy.clone().unwrap(),
                )
            },
            move |ch| {
                let mut sess = crate::session::Session::new(
                    ch,
                    RingCtx::new(32),
                    secyan_crypto::TweakHasher::Aes,
                    72,
                );
                let mut r = SecureRelation::load(&mut sess, Role::Alice, sch_b, None);
                if force_shared {
                    r.ensure_shared(&mut sess);
                }
                let mut out = oblivious_project_agg(&mut sess, &r, &at_b, kind);
                out.ensure_shared(&mut sess);
                out.annot_shares.clone()
            },
        );
        let ring = RingCtx::new(32);
        let mut result = HashMap::new();
        for i in 0..tuples.len() {
            let v = ring.reconstruct(out_a[i], out_b[i]);
            if dummy[i] {
                assert_eq!(v, 0, "dummy row {i} must carry a zero annotation");
            } else {
                assert!(result.insert(tuples[i].clone(), v).is_none());
            }
        }
        result
    }

    #[test]
    fn sum_groups_correctly() {
        for force_shared in [false, true] {
            let got = run_agg(
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
        }
    }

    #[test]
    fn support_is_binary() {
        for force_shared in [false, true] {
            let got = run_agg(
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
        let got = run_agg(
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
        let got = run_agg(
            vec![(vec![9], 42)],
            vec!["x"],
            vec!["x"],
            AggKind::Sum,
            true,
        );
        assert_eq!(got.get(&vec![9u64]), Some(&42));
    }
}
