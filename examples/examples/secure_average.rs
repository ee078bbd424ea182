//! Query composition (§7): a secure AVG via two Yannakakis runs.
//!
//! `avg` has no semiring, so the paper decomposes it: compute SUM and
//! COUNT as two join-aggregate queries *in shared form*, then one garbled
//! division circuit reveals only the quotients. This example averages
//! treatment costs per disease class over the Example-1.1 schema — neither
//! party ever sees the intermediate sums or counts.
//!
//! ```text
//! cargo run --release -p secyan-examples --example secure_average
//! ```

use secyan_core::ext::{align_shared_groups, reveal_ratios};
use secyan_core::protocol::secure_yannakakis_shared;
use secyan_core::{SecureQuery, Session};
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_relation::{JoinTree, NaturalRing, Relation};
use secyan_transport::{run_protocol, Role};

fn main() {
    // Bob's hospital records: R2(person, disease | cost).
    let r2_rows = vec![
        (vec![1u64, 1u64], 1000u64),
        (vec![2, 1], 3000),
        (vec![3, 1], 2000),
        (vec![1, 2], 500),
        (vec![2, 2], 700),
    ];
    // Alice: disease → class mapping, R3(disease, class | 1).
    let r3_rows = vec![(vec![1u64, 10u64], 1u64), (vec![2, 20], 1)];

    // The class domain is public (it is part of the agreed schema).
    let class_domain: Vec<Vec<u64>> = vec![vec![10], vec![20]];

    // Two queries over the same join, differing only in annotations:
    // SUM uses cost, COUNT uses 1.
    let build_query = || {
        SecureQuery::new(
            vec![
                vec!["disease".into()],
                vec!["disease".into(), "class".into()],
            ],
            vec![Role::Bob, Role::Alice],
            JoinTree::chain(2),
            vec!["class".into()],
        )
    };

    let run_party = move |role: Role| {
        let r2_rows = r2_rows.clone();
        let r3_rows = r3_rows.clone();
        let class_domain = class_domain.clone();
        move |ch: &mut secyan_transport::Channel| {
            let mut sess = Session::new(
                ch,
                RingCtx::new(32),
                TweakHasher::Aes,
                role.is_alice() as u64,
            );
            let mut aligned = Vec::new();
            for count_mode in [false, true] {
                // Bob's relation: disease with cost (or 1 for COUNT).
                let r2 = Relation::from_rows(
                    NaturalRing::paper_default(),
                    vec!["disease".into()],
                    r2_rows
                        .iter()
                        .map(|(t, c)| (vec![t[1]], if count_mode { 1 } else { *c }))
                        .collect(),
                );
                let r3 = Relation::from_rows(
                    NaturalRing::paper_default(),
                    vec!["disease".into(), "class".into()],
                    r3_rows.clone(),
                );
                let my_rels = match role {
                    Role::Alice => vec![None, Some(r3)],
                    Role::Bob => vec![Some(r2), None],
                };
                let res =
                    secure_yannakakis_shared(&mut sess, &build_query(), &my_rels, Role::Alice);
                aligned.push(align_shared_groups(
                    &mut sess,
                    &res.tuples,
                    &res.annot_shares,
                    &class_domain,
                    Role::Alice,
                ));
            }
            // avg = sum / count, with two fixed-point decimals (×100).
            reveal_ratios(&mut sess, &aligned[0], &aligned[1], 100, Role::Alice)
        }
    };

    let (avgs, _, _) = run_protocol(run_party(Role::Alice), run_party(Role::Bob));

    println!("Average treatment cost per class (Alice's view):");
    for (class, avg) in [(10u64, avgs[0]), (20, avgs[1])] {
        println!("  class {class}: {:.2}", avg as f64 / 100.0);
    }
    // class 10: (1000 + 3000 + 2000) / 3 = 2000.00
    // class 20: (500 + 700) / 2        =  600.00
    assert_eq!(avgs, vec![200_000, 60_000]);
    println!("\nNeither party ever saw the per-class SUM or COUNT. ✓");
}
