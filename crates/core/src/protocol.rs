//! The secure Yannakakis driver (paper §6.4).
//!
//! Both parties run this function with the same public [`SecureQuery`];
//! each passes its own relations' data. Control flow — which operator runs
//! on which node, in which order — is a function of the public plan only,
//! as obliviousness demands. The three phases mirror
//! `secyan_relation::yannakakis` exactly:
//!
//! 1. **Reduce**: bottom-up, each node is either folded into its parent
//!    (π⊕ + reduce-join) or kept with its non-output attributes
//!    aggregated away.
//! 2. **Semijoin**: bottom-up then top-down passes mark dangling tuples by
//!    zeroing their annotation shares (nothing is physically removed —
//!    sizes are public).
//! 3. **Full join**: reveal supports, local join, OEP + product circuit
//!    (§6.3). When the aggregates are revealed and the reduce phase leaves
//!    a single node (e.g. TPC-H Q3), the driver skips phases 2–3 and
//!    reveals that node directly. When they stay shared for composition
//!    (§7), the walk always ends in the join, which leaves the product
//!    tree's outputs as shares — or, for a single survivor, its OEP's
//!    aligned shares, which are fresh already.

use crate::agg::{oblivious_project_agg, AggKind};
use crate::join::{oblivious_join, reveal_rows};
use crate::query::SecureQuery;
use crate::semijoin::oblivious_reduce_join;
use crate::session::Session;
use crate::srel::SecureRelation;
use secyan_relation::{NaturalRing, Relation};
use secyan_transport::Role;

/// The result of a secure query. The receiver knows the tuples; row i's
/// aggregate is either revealed to it (`values[i]`, with `annot_shares`
/// empty) or left split between the parties for composition (§7:
/// `annot_shares[i]` on both sides, with `values` empty). The other
/// party's copy has empty tuples/values and only the public `out_size`.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub schema: Vec<String>,
    pub tuples: Vec<Vec<u64>>,
    pub values: Vec<u64>,
    pub annot_shares: Vec<u64>,
    pub out_size: usize,
}

/// Whoever answers the driver's operator calls. A [`Session`] executes
/// them on [`SecureRelation`]s; `shape.rs`'s recorder answers with the
/// headers of the steps the same operators would run. The walk below is
/// written against this seam once, so the schedule a shape is planned
/// from *is* the schedule that executes.
pub(crate) trait Operators {
    type Rel: Clone;
    type Output;
    fn schema(rel: &Self::Rel) -> &[String];
    /// π⊕ / π¹ of `rel` onto `attrs` (§6.1).
    fn project_agg(&mut self, rel: &Self::Rel, attrs: &[String], kind: AggKind) -> Self::Rel;
    /// `rf ⋈⊗ rg` keeping `rf`'s tuples (§6.2).
    fn reduce_join(&mut self, rf: &Self::Rel, rg: Self::Rel) -> Self::Rel;
    /// Reveal the single surviving relation's rows and aggregates.
    fn reveal(&mut self, rel: &mut Self::Rel, receiver: Role) -> Self::Output;
    /// The full join of the survivors (§6.3), aggregates revealed or
    /// shared.
    fn join(&mut self, rels: &mut [Self::Rel], receiver: Role, reveal: bool) -> Self::Output;
}

impl Operators for Session<'_> {
    type Rel = SecureRelation;
    type Output = QueryResult;

    fn schema(rel: &SecureRelation) -> &[String] {
        &rel.schema
    }

    fn project_agg(
        &mut self,
        rel: &SecureRelation,
        attrs: &[String],
        kind: AggKind,
    ) -> SecureRelation {
        oblivious_project_agg(self, rel, attrs, kind)
    }

    fn reduce_join(&mut self, rf: &SecureRelation, rg: SecureRelation) -> SecureRelation {
        oblivious_reduce_join(self, rf, rg)
    }

    fn reveal(&mut self, rel: &mut SecureRelation, receiver: Role) -> QueryResult {
        let rows = reveal_rows(self, rel, receiver, true).unwrap_or_default();
        let (tuples, values): (Vec<_>, Vec<_>) = rows.into_iter().flatten().unzip();
        QueryResult {
            schema: rel.schema.clone(),
            out_size: tuples.len(),
            tuples,
            values,
            annot_shares: Vec::new(),
        }
    }

    fn join(&mut self, rels: &mut [SecureRelation], receiver: Role, reveal: bool) -> QueryResult {
        oblivious_join(self, rels, receiver, reveal)
    }
}

/// Run the secure Yannakakis protocol, revealing the results to
/// `receiver`. `my_relations[i]` is `Some` iff this party owns relation i.
pub fn secure_yannakakis(
    sess: &mut Session,
    query: &SecureQuery,
    my_relations: &[Option<Relation<NaturalRing>>],
    receiver: Role,
) -> QueryResult {
    let rels = load(sess, query, my_relations);
    walk(sess, query, rels, receiver, true)
}

/// Like [`secure_yannakakis`] but leaving the aggregates in shared form
/// for composition (§7): the receiver's `tuples[i]` pairs with
/// `annot_shares[i]` on both sides, and a row whose shares reconstruct to
/// zero contributes nothing, exactly as in the §7 AVG example.
pub fn secure_yannakakis_shared(
    sess: &mut Session,
    query: &SecureQuery,
    my_relations: &[Option<Relation<NaturalRing>>],
    receiver: Role,
) -> QueryResult {
    let rels = load(sess, query, my_relations);
    walk(sess, query, rels, receiver, false)
}

/// Load: one batched declaration round for every relation in the plan.
fn load(
    sess: &mut Session,
    query: &SecureQuery,
    my_relations: &[Option<Relation<NaturalRing>>],
) -> Vec<SecureRelation> {
    assert_eq!(my_relations.len(), query.len());
    let specs = (0..query.len())
        .map(|i| {
            (
                query.owners[i],
                query.schemas[i].clone(),
                my_relations[i].as_ref(),
            )
        })
        .collect();
    SecureRelation::load_all(sess, specs)
}

/// The whole driver over loaded relations: phases 1–2, then the reveal
/// (one survivor, e.g. Q3, aggregates revealed) or the full join (several
/// survivors, or aggregates left shared).
pub(crate) fn walk<O: Operators>(
    ops: &mut O,
    query: &SecureQuery,
    rels: Vec<O::Rel>,
    receiver: Role,
    reveal: bool,
) -> O::Output {
    let (mut rels, survivors) = reduce_and_semijoin(ops, query, rels);
    if reveal && survivors.len() == 1 {
        return ops.reveal(&mut rels[survivors[0]], receiver);
    }
    ops.join(&mut fold(query, &rels, &survivors), receiver, reveal)
}

/// The attributes of `schema` that `keep` keeps, in schema order.
fn filter_attrs(schema: &[String], keep: impl Fn(&String) -> bool) -> Vec<String> {
    schema.iter().filter(|a| keep(a)).cloned().collect()
}

/// `rf ⋉⊗ rg` (§6.2): the support projection of `rg` on the shared
/// attributes, then a reduce-join.
pub(crate) fn semijoin<O: Operators>(ops: &mut O, rf: &O::Rel, rg: &O::Rel) -> O::Rel {
    let join_attrs = filter_attrs(O::schema(rf), |a| O::schema(rg).contains(a));
    let support = ops.project_agg(rg, &join_attrs, AggKind::Support);
    ops.reduce_join(rf, support)
}

/// Phases 1 and 2 (public control flow — schemas only). Returns the
/// per-node relations (folded nodes left in place but dead) and the
/// surviving node indices.
fn reduce_and_semijoin<O: Operators>(
    ops: &mut O,
    query: &SecureQuery,
    mut rels: Vec<O::Rel>,
) -> (Vec<O::Rel>, Vec<usize>) {
    let tree = &query.tree;
    let root = tree.root();
    let mut removed = vec![false; query.len()];
    let mut kept_below = vec![false; query.len()];

    // Phase 1: reduce.
    for i in tree.bottom_up() {
        let parent = tree.parent(i);
        let f_prime = filter_attrs(O::schema(&rels[i]), |a| {
            query.output.contains(a) || parent.is_some_and(|p| O::schema(&rels[p]).contains(a))
        });
        let mergeable = parent
            .filter(|&p| !kept_below[i] && f_prime.iter().all(|a| O::schema(&rels[p]).contains(a)));
        if let Some(p) = mergeable {
            let folded = ops.project_agg(&rels[i], &f_prime, AggKind::Sum);
            rels[p] = ops.reduce_join(&rels[p], folded);
            removed[i] = true;
        } else {
            if f_prime.len() != O::schema(&rels[i]).len() {
                rels[i] = ops.project_agg(&rels[i], &f_prime, AggKind::Sum);
            }
            if let Some(p) = parent {
                kept_below[p] = true;
            }
        }
    }
    let survivors: Vec<usize> = (0..query.len()).filter(|&i| !removed[i]).collect();

    // Phase 2: semijoins over survivors (skipped when only the root is
    // left).
    if survivors.len() > 1 {
        let non_root = |order: Vec<usize>| order.into_iter().filter(|&i| !removed[i] && i != root);
        for i in non_root(tree.bottom_up()) {
            let p = tree.parent(i).expect("non-root");
            rels[p] = semijoin(ops, &rels[p], &rels[i]);
        }
        for i in non_root(tree.top_down()) {
            let p = tree.parent(i).expect("non-root");
            rels[i] = semijoin(ops, &rels[i], &rels[p]);
        }
    }
    (rels, survivors)
}

/// The survivors in fold order: top-down from the root, so every prefix of
/// the fold is connected in the tree (the join is commutative, so this is
/// as good as bottom-up and simpler to compute).
fn fold<R: Clone>(query: &SecureQuery, rels: &[R], survivors: &[usize]) -> Vec<R> {
    query
        .tree
        .top_down()
        .into_iter()
        .filter(|i| survivors.contains(i))
        .map(|i| rels[i].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use secyan_crypto::{RingCtx, TweakHasher};
    use secyan_relation::naive::naive_join_aggregate;
    use secyan_relation::JoinTree;
    use secyan_transport::run_protocol;
    use std::collections::HashMap;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// Run the secure protocol end-to-end and return the receiver's
    /// (tuple → value) map, canonicalized over the output schema order.
    fn run_secure(
        query: SecureQuery,
        alice_rels: Vec<Option<Relation<NaturalRing>>>,
        bob_rels: Vec<Option<Relation<NaturalRing>>>,
    ) -> (Vec<String>, HashMap<Vec<u64>, u64>) {
        let q2 = query.clone();
        let (res, _, _) = run_protocol(
            move |ch| {
                let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::Aes, 101);
                secure_yannakakis(&mut sess, &query, &alice_rels, Role::Alice)
            },
            move |ch| {
                let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::Aes, 102);
                secure_yannakakis(&mut sess, &q2, &bob_rels, Role::Alice)
            },
        );
        let mut map = HashMap::new();
        for (t, &v) in res.tuples.iter().zip(&res.values) {
            let prev = map.insert(t.clone(), v);
            assert!(prev.is_none(), "duplicate output tuple {t:?}");
        }
        (res.schema, map)
    }

    /// Canonicalize a plaintext result against a given schema order.
    fn expect_map(
        rels: &[Relation<NaturalRing>],
        output: &[String],
        schema: &[String],
    ) -> HashMap<Vec<u64>, u64> {
        let want = naive_join_aggregate(rels, output);
        let pos: Vec<usize> = schema
            .iter()
            .map(|a| want.schema.iter().position(|s| s == a).expect("attr"))
            .collect();
        want.tuples
            .iter()
            .zip(&want.annots)
            .map(|(t, &v)| (pos.iter().map(|&p| t[p]).collect(), v))
            .collect()
    }

    fn example_1_1() -> Vec<Relation<NaturalRing>> {
        let ring = NaturalRing::paper_default();
        vec![
            Relation::from_rows(
                ring,
                strings(&["person"]),
                vec![(vec![1], 80), (vec![2], 50), (vec![3], 70)],
            ),
            Relation::from_rows(
                ring,
                strings(&["person", "disease"]),
                vec![
                    (vec![1, 10], 1000),
                    (vec![1, 11], 500),
                    (vec![2, 10], 2000),
                    (vec![9, 10], 400), // dangling person
                ],
            ),
            Relation::from_rows(
                ring,
                strings(&["disease", "class"]),
                vec![(vec![10, 7], 1), (vec![11, 8], 1), (vec![12, 9], 1)],
            ),
        ]
    }

    #[test]
    fn example_1_1_end_to_end() {
        // Alice = insurance (R1, R3), Bob = hospital (R2) — the paper's
        // exact scenario. The reduce phase collapses the whole chain, so
        // this exercises the single-survivor reveal path.
        let rels = example_1_1();
        let query = SecureQuery::new(
            vec![
                strings(&["person"]),
                strings(&["person", "disease"]),
                strings(&["disease", "class"]),
            ],
            vec![Role::Alice, Role::Bob, Role::Alice],
            JoinTree::chain(3),
            strings(&["class"]),
        );
        let (schema, got) = run_secure(
            query,
            vec![Some(rels[0].clone()), None, Some(rels[2].clone())],
            vec![None, Some(rels[1].clone()), None],
        );
        let want = expect_map(&rels, &strings(&["class"]), &schema);
        assert_eq!(got, want);
    }

    #[test]
    fn group_by_join_attribute_full_join_path() {
        // Output includes attributes from two nodes, so the reduce phase
        // keeps several survivors and the full-join path runs.
        let ring = NaturalRing::paper_default();
        let r1 = Relation::from_rows(
            ring,
            strings(&["a", "b"]),
            vec![(vec![1, 10], 2), (vec![2, 20], 3), (vec![3, 10], 5)],
        );
        let r2 = Relation::from_rows(
            ring,
            strings(&["b", "c"]),
            vec![(vec![10, 100], 7), (vec![20, 200], 11), (vec![30, 300], 13)],
        );
        let out = strings(&["a", "b", "c"]);
        let query = SecureQuery::new(
            vec![strings(&["a", "b"]), strings(&["b", "c"])],
            vec![Role::Alice, Role::Bob],
            JoinTree::chain(2),
            out.clone(),
        );
        let (schema, got) = run_secure(
            query,
            vec![Some(r1.clone()), None],
            vec![None, Some(r2.clone())],
        );
        let want = expect_map(&[r1, r2], &out, &schema);
        assert_eq!(got, want);
    }

    #[test]
    fn three_relations_with_survivors() {
        // Chain of 3 with group-by on the two outer join attributes:
        // exercises reduce + semijoin + full join together.
        let ring = NaturalRing::paper_default();
        let r1 = Relation::from_rows(
            ring,
            strings(&["a", "b"]),
            vec![
                (vec![1, 5], 1),
                (vec![2, 5], 2),
                (vec![3, 6], 3),
                (vec![4, 7], 4),
            ],
        );
        let r2 = Relation::from_rows(
            ring,
            strings(&["b", "c"]),
            vec![(vec![5, 8], 10), (vec![6, 9], 20), (vec![6, 8], 30)],
        );
        let r3 = Relation::from_rows(
            ring,
            strings(&["c", "d"]),
            vec![(vec![8, 1], 100), (vec![9, 1], 200), (vec![9, 2], 300)],
        );
        let out = strings(&["b", "c"]);
        // Rooted at R2(b,c) so both output attributes' TOPs sit at the
        // root, witnessing free-connexity.
        let query = SecureQuery::new(
            vec![
                strings(&["a", "b"]),
                strings(&["b", "c"]),
                strings(&["c", "d"]),
            ],
            vec![Role::Alice, Role::Bob, Role::Alice],
            JoinTree::new(vec![Some(1), None, Some(1)]),
            out.clone(),
        );
        let (schema, got) = run_secure(
            query,
            vec![Some(r1.clone()), None, Some(r3.clone())],
            vec![None, Some(r2.clone()), None],
        );
        let want = expect_map(&[r1, r2, r3], &out, &schema);
        assert_eq!(got, want);
    }

    #[test]
    fn count_star_scalar_query() {
        // O = ∅: the secure COUNT(*)-style scalar aggregate.
        let ring = NaturalRing::paper_default();
        let r1 = Relation::from_rows(
            ring,
            strings(&["a"]),
            vec![(vec![1], 1), (vec![2], 1), (vec![3], 1)],
        );
        let r2 = Relation::from_rows(
            ring,
            strings(&["a", "b"]),
            vec![
                (vec![1, 1], 1),
                (vec![1, 2], 1),
                (vec![3, 1], 1),
                (vec![4, 4], 1),
            ],
        );
        let out: Vec<String> = vec![];
        let query = SecureQuery::new(
            vec![strings(&["a"]), strings(&["a", "b"])],
            vec![Role::Alice, Role::Bob],
            JoinTree::chain(2),
            out.clone(),
        );
        let (_, got) = run_secure(
            query,
            vec![Some(r1.clone()), None],
            vec![None, Some(r2.clone())],
        );
        assert_eq!(got.get(&vec![]), Some(&3));
    }

    #[test]
    fn bob_as_receiver_owner_side_reveal() {
        // The receiver owns the final relation: owner == receiver path.
        let ring = NaturalRing::paper_default();
        let r1 = Relation::from_rows(ring, strings(&["a"]), vec![(vec![1], 5), (vec![2], 6)]);
        let r2 = Relation::from_rows(
            ring,
            strings(&["a", "g"]),
            vec![(vec![1, 77], 10), (vec![2, 88], 100), (vec![2, 77], 1)],
        );
        let out = strings(&["g"]);
        let query = SecureQuery::new(
            vec![strings(&["a"]), strings(&["a", "g"])],
            vec![Role::Alice, Role::Bob],
            JoinTree::chain(2),
            out.clone(),
        );
        let q2 = query.clone();
        let (_, res, _) = run_protocol(
            move |ch| {
                let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::Aes, 103);
                secure_yannakakis(&mut sess, &query, &[Some(r1.clone()), None], Role::Bob)
            },
            move |ch| {
                let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::Aes, 104);
                secure_yannakakis(&mut sess, &q2, &[None, Some(r2.clone())], Role::Bob)
            },
        );
        let mut got: Vec<(Vec<u64>, u64)> = res
            .tuples
            .iter()
            .cloned()
            .zip(res.values.iter().copied())
            .collect();
        got.sort();
        // g=77: 5·10 + 6·1 = 56; g=88: 6·100 = 600.
        assert_eq!(got, vec![(vec![77], 56), (vec![88], 600)]);
    }
}
