//! Chou–Orlandi "simplest OT" over the Z_{2^127−1} multiplicative group.
//!
//! Produces `n` independent 1-out-of-2 OTs of 128-bit keys. The sender
//! obtains `(k0_i, k1_i)`; the receiver, holding choice bits `c_i`, obtains
//! `k_{c_i}`. Used only to bootstrap IKNP extension (κ instances per
//! direction; KKRT takes its seeds from IKNP), so its performance and the
//! simulation-grade group hardness are irrelevant to the benchmark shapes
//! (see DESIGN.md §3).

use rand::Rng;
use secyan_crypto::mersenne::Fp;
use secyan_crypto::sha256::{digest_to_u128, Sha256};
use secyan_crypto::{Block, CtChoice, CtSelect, Secret};
use secyan_transport::Channel;

/// Derive a key from a group element with index domain separation. The key
/// seeds OT extension; it goes straight into the caller's `Secret` vector.
fn derive_key(i: usize, e: Fp) -> Block {
    let mut h = Sha256::new();
    h.update(b"secyan-base-ot");
    h.update(&(i as u64).to_le_bytes());
    h.update(&e.value().to_le_bytes());
    Block(digest_to_u128(&h.finalize()))
}

/// Sender side: returns `n` key pairs (zeroized on drop).
pub fn send<R: Rng>(ch: &mut Channel, n: usize, rng: &mut R) -> Secret<Vec<(Block, Block)>> {
    // a ← Z, A = g^a.
    let a: u128 = rng.gen::<u128>() >> 1;
    let big_a = Fp::G.pow(a);
    ch.send(big_a.value().to_le_bytes().to_vec());
    let bs = ch.recv_u128_vec(n);
    let a_inv = big_a.inv();
    let pairs = bs.iter().enumerate().map(|(i, &braw)| {
        let b = Fp::new(braw);
        (derive_key(i, b.pow(a)), derive_key(i, b.mul(a_inv).pow(a)))
    });
    Secret::new(pairs.collect())
}

/// Receiver side: returns `k_{c_i}` for each choice bit (zeroized on drop).
///
/// The B = g^b · A^c blinding is computed branchlessly: both candidates are
/// evaluated and the choice bit only drives a [`CtSelect`] on the canonical
/// representatives, so no control flow or memory access depends on `c`.
pub fn receive<R: Rng>(ch: &mut Channel, choices: &[bool], rng: &mut R) -> Secret<Vec<Block>> {
    let mut raw = [0u8; 16];
    ch.recv_into(&mut raw);
    let big_a = Fp::new(u128::from_le_bytes(raw));
    let mut bs = Vec::with_capacity(choices.len());
    let mut keys = Secret::new(Vec::with_capacity(choices.len()));
    for (i, &c) in choices.iter().enumerate() {
        let b: u128 = rng.gen::<u128>() >> 1;
        let g_b = Fp::G.pow(b);
        let blinded = g_b.mul(big_a);
        let big_b = u128::ct_select(CtChoice::from_bool(c), blinded.value(), g_b.value());
        bs.push(big_b);
        keys.expose_mut().push(derive_key(i, big_a.pow(b)));
    }
    ch.send_u128_slice(&bs);
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_transport::run_protocol;

    #[test]
    fn receiver_gets_chosen_key_only() {
        let choices = vec![false, true, true, false, true];
        let c2 = choices.clone();
        let (pairs, got, _) = run_protocol(
            move |ch| send(ch, 5, &mut StdRng::seed_from_u64(1)),
            move |ch| receive(ch, &c2, &mut StdRng::seed_from_u64(2)),
        );
        let (pairs, got) = (pairs.expose(), got.expose());
        assert_eq!(pairs.len(), 5);
        for (i, &c) in choices.iter().enumerate() {
            let (k0, k1) = pairs[i];
            assert_ne!(k0, k1);
            assert_eq!(got[i], if c { k1 } else { k0 }, "ot {i}");
            // And the receiver's key differs from the unchosen one.
            assert_ne!(got[i], if c { k0 } else { k1 });
        }
    }

    #[test]
    fn keys_are_independent_across_instances() {
        let (pairs, _, _) = run_protocol(
            |ch| send(ch, 8, &mut StdRng::seed_from_u64(3)),
            |ch| receive(ch, &[false; 8], &mut StdRng::seed_from_u64(4)),
        );
        let mut all: Vec<Block> = pairs.expose().iter().flat_map(|&(a, b)| [a, b]).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 16);
    }

    #[test]
    fn zero_instances_is_fine() {
        let (pairs, got, _) = run_protocol(
            |ch| send(ch, 0, &mut StdRng::seed_from_u64(5)),
            |ch| receive(ch, &[], &mut StdRng::seed_from_u64(6)),
        );
        assert!(pairs.expose().is_empty());
        assert!(got.expose().is_empty());
    }
}
