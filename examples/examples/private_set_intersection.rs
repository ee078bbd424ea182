//! Using the PSI substrate directly: circuit PSI with payloads (§5.3).
//!
//! Two advertisers hold customer lists; one also holds per-customer spend.
//! They compute shares of "is this customer common?" and of the matched
//! spend — then (by choice, not by protocol necessity) open only the
//! *total* spend over the intersection, never the membership of any
//! individual.
//!
//! ```text
//! cargo run --release -p secyan-examples --example private_set_intersection
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_psi::{psi_receiver, psi_sender};
use secyan_transport::{run_protocol, ReadExt, WriteExt};

fn main() {
    let hasher = TweakHasher::default();
    let ring = RingCtx::new(32);
    // Alice's customer ids.
    let alice_ids: Vec<u64> = vec![11, 23, 42, 57, 64, 99, 100, 123];
    // Bob's customers with their annual spend.
    let bob_items: Vec<(u64, u64)> =
        vec![(23, 1_500), (42, 800), (77, 9_999), (100, 2_700), (200, 50)];
    let (a_len, b_len) = (alice_ids.len(), bob_items.len());
    let expected_total = 1_500 + 800 + 2_700;

    let (alice_total, bob_view, stats) = run_protocol(
        move |ch| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut kkrt = secyan_ot::KkrtReceiver::setup(ch, &mut rng);
            let mut ot = secyan_ot::OtReceiver::setup(ch, &mut rng, hasher);
            let out = psi_receiver(
                ch,
                &alice_ids,
                b_len,
                ring,
                &mut kkrt,
                &mut ot,
                hasher,
                &mut std::collections::VecDeque::new(),
            );
            // Sum the payload shares locally: a share of the intersection
            // total. Opening just this one scalar reveals the total only.
            let my_sum = out
                .payload_shares
                .iter()
                .fold(0u64, |acc, &s| ring.add(acc, s));
            let their_sum = ch.recv_u64();
            ring.add(my_sum, their_sum)
        },
        move |ch| {
            let mut rng = StdRng::seed_from_u64(2);
            let mut kkrt = secyan_ot::KkrtSender::setup(ch, &mut rng);
            let mut ot = secyan_ot::OtSender::setup(ch, &mut rng, hasher);
            let out = psi_sender(
                ch,
                &bob_items,
                a_len,
                ring,
                &mut kkrt,
                &mut ot,
                hasher,
                &mut rng,
                &mut std::collections::VecDeque::new(),
            );
            let my_sum = out
                .payload_shares
                .iter()
                .fold(0u64, |acc, &s| ring.add(acc, s));
            ch.send_u64(my_sum);
            // Bob's shares alone are uniform noise:
            out.payload_shares
        },
    );

    println!("Alice learned: total spend over the intersection = {alice_total}");
    println!(
        "Bob's view of the per-bin payload shares (uniform noise): {:?} ...",
        &bob_view[..4.min(bob_view.len())]
    );
    println!(
        "Traffic: {:.1} KB over {} rounds.",
        stats.total_bytes() as f64 / 1e3,
        stats.rounds
    );
    assert_eq!(alice_total, expected_total);
    println!("\nMatches the expected {expected_total}. Neither party learned *which* customers overlap. ✓");
}
