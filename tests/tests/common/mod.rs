//! Fixtures shared between integration-test binaries.

use secyan_relation::{JoinTree, NaturalRing, Relation};
use secyan_testkit::{AggKind, Instance};
use secyan_transport::Role;

/// The benchmark chain3 instance (mirrors `secyan-bench`'s shape: three
/// relations of 24/48/24 rows, alternating ownership, scalar SUM).
pub fn chain3_bench_instance() -> Instance {
    let ring = secyan_crypto::RingCtx::new(64);
    let nat = NaturalRing(ring);
    let strings = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
    let (n1, n2, n3) = (24u64, 48u64, 24u64);
    let relations = vec![
        Relation::from_rows(
            nat,
            strings(&["a"]),
            (0..n1).map(|i| (vec![i], i % 7 + 1)).collect(),
        ),
        Relation::from_rows(
            nat,
            strings(&["a", "b"]),
            (0..n2).map(|i| (vec![i % n1, i % 31], i % 5 + 1)).collect(),
        ),
        Relation::from_rows(
            nat,
            strings(&["b"]),
            (0..n3).map(|i| (vec![i % 31], i % 3 + 1)).collect(),
        ),
    ];
    Instance {
        seed: 42,
        ell: 64,
        agg: AggKind::Sum,
        schemas: vec![strings(&["a"]), strings(&["a", "b"]), strings(&["b"])],
        owners: vec![Role::Alice, Role::Bob, Role::Alice],
        tree: JoinTree::chain(3),
        output: Vec::new(),
        relations,
    }
}
