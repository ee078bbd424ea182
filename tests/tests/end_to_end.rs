//! Cross-crate integration tests: the full secure Yannakakis stack against
//! the plaintext oracle, including the heavyweight Q9 decomposition and
//! adversarial data shapes.

use secyan_crypto::{RingCtx, TweakHasher};
use secyan_relation::{naive::naive_join_aggregate, JoinTree, NaturalRing, Relation};
use secyan_tpch::queries::{canonical, run_plaintext_instance, run_secure_instance, PaperQuery};
use secyan_tpch::{Database, Scale};
use secyan_transport::{run_protocol, Role};

fn strings(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

fn run_paper_query(q: PaperQuery, mb: f64, seed: u64) {
    let ring = NaturalRing::paper_default();
    let db = Database::generate(Scale::mb(mb), seed);
    let spec = q.build(&db, ring);
    let want = canonical(run_plaintext_instance(&spec, ring));
    assert!(!want.is_empty(), "{} at {mb} MB has no rows", q.name());
    let (sa, sb) = (spec.clone(), spec.clone());
    let (got, _, _) = run_protocol(
        move |ch| {
            let mut sess =
                secyan_core::Session::new(ch, RingCtx::new(32), TweakHasher::default(), 1);
            run_secure_instance(&mut sess, &sa)
        },
        move |ch| {
            let mut sess =
                secyan_core::Session::new(ch, RingCtx::new(32), TweakHasher::default(), 2);
            run_secure_instance(&mut sess, &sb)
        },
    );
    assert_eq!(canonical(got), want, "{} at {mb} MB", q.name());
}

#[test]
fn q9_full_decomposition_secure() {
    // 50 secure Yannakakis instances (25 nations × two sums) plus the
    // on-shares difference — the paper's heaviest query.
    run_paper_query(PaperQuery::Q9, 0.02, 5);
}

#[test]
fn all_five_queries_at_smoke_scale() {
    for q in PaperQuery::all() {
        // Seeds whose databases give every query a non-empty answer.
        let (mb, seed) = match q {
            PaperQuery::Q9 => (0.005, 5),
            _ => (0.03, 16),
        };
        run_paper_query(q, mb, seed);
    }
}

#[test]
fn larger_q3_with_different_seeds() {
    for seed in [1, 2] {
        run_paper_query(PaperQuery::Q3, 0.08, seed);
    }
}

/// A query where one party owns everything: the same-party operator
/// variants carry the whole plan.
#[test]
fn single_owner_query() {
    let ring = NaturalRing::paper_default();
    let r1 = Relation::from_rows(
        ring,
        strings(&["a", "b"]),
        vec![(vec![1, 5], 3), (vec![2, 6], 4), (vec![3, 5], 5)],
    );
    let r2 = Relation::from_rows(
        ring,
        strings(&["b", "c"]),
        vec![(vec![5, 7], 10), (vec![6, 8], 20)],
    );
    let query = secyan_core::SecureQuery::new(
        vec![strings(&["a", "b"]), strings(&["b", "c"])],
        vec![Role::Bob, Role::Bob],
        JoinTree::chain(2),
        strings(&["c"]),
    );
    let want = naive_join_aggregate(&[r1.clone(), r2.clone()], &strings(&["c"]));
    let q2 = query.clone();
    let (res, _, _) = run_protocol(
        move |ch| {
            let mut sess =
                secyan_core::Session::new(ch, RingCtx::new(32), TweakHasher::default(), 5);
            secyan_core::secure_yannakakis(&mut sess, &query, &[None, None], Role::Alice)
        },
        move |ch| {
            let mut sess =
                secyan_core::Session::new(ch, RingCtx::new(32), TweakHasher::default(), 6);
            secyan_core::secure_yannakakis(&mut sess, &q2, &[Some(r1), Some(r2)], Role::Alice)
        },
    );
    let mut got: Vec<(Vec<u64>, u64)> = res.tuples.into_iter().zip(res.values).collect();
    got.sort();
    assert_eq!(got, want.canonical());
}

/// Empty-result queries terminate cleanly and reveal nothing.
#[test]
fn disjoint_relations_empty_result() {
    let ring = NaturalRing::paper_default();
    let r1 = Relation::from_rows(ring, strings(&["a"]), vec![(vec![1], 2), (vec![2], 3)]);
    let r2 = Relation::from_rows(
        ring,
        strings(&["a", "g"]),
        vec![(vec![8, 1], 5), (vec![9, 2], 6)],
    );
    let query = secyan_core::SecureQuery::new(
        vec![strings(&["a"]), strings(&["a", "g"])],
        vec![Role::Alice, Role::Bob],
        JoinTree::chain(2),
        strings(&["g"]),
    );
    let q2 = query.clone();
    let (res, _, _) = run_protocol(
        move |ch| {
            let mut sess =
                secyan_core::Session::new(ch, RingCtx::new(32), TweakHasher::default(), 7);
            secyan_core::secure_yannakakis(&mut sess, &query, &[Some(r1), None], Role::Alice)
        },
        move |ch| {
            let mut sess =
                secyan_core::Session::new(ch, RingCtx::new(32), TweakHasher::default(), 8);
            secyan_core::secure_yannakakis(&mut sess, &q2, &[None, Some(r2)], Role::Alice)
        },
    );
    assert!(res.tuples.is_empty());
    assert!(res.values.is_empty());
}

/// Heavy skew: one join value shared by many tuples on both sides (the
/// case where bounded-multiplicity protocols like Senate degenerate; the
/// paper stresses secure Yannakakis needs no such bound).
#[test]
fn skewed_multiplicity_query() {
    let ring = NaturalRing::paper_default();
    let r1_rows: Vec<(Vec<u64>, u64)> = (0..30).map(|i| (vec![1, i], 1)).collect();
    let r2_rows: Vec<(Vec<u64>, u64)> = (0..20).map(|i| (vec![1, 100 + i], 2)).collect();
    let r1 = Relation::from_rows(ring, strings(&["k", "x"]), r1_rows);
    let r2 = Relation::from_rows(ring, strings(&["k", "y"]), r2_rows);
    let query = secyan_core::SecureQuery::new(
        vec![strings(&["k", "x"]), strings(&["k", "y"])],
        vec![Role::Alice, Role::Bob],
        JoinTree::chain(2),
        vec![],
    );
    let want = naive_join_aggregate(&[r1.clone(), r2.clone()], &[]);
    let q2 = query.clone();
    let (res, _, _) = run_protocol(
        move |ch| {
            let mut sess =
                secyan_core::Session::new(ch, RingCtx::new(32), TweakHasher::default(), 9);
            secyan_core::secure_yannakakis(&mut sess, &query, &[Some(r1), None], Role::Alice)
        },
        move |ch| {
            let mut sess =
                secyan_core::Session::new(ch, RingCtx::new(32), TweakHasher::default(), 10);
            secyan_core::secure_yannakakis(&mut sess, &q2, &[None, Some(r2)], Role::Alice)
        },
    );
    // 30 × 20 = 600 combinations of annotation 1·2.
    assert_eq!(res.values, vec![want.annots[0]]);
    assert_eq!(res.values, vec![1200]);
}
