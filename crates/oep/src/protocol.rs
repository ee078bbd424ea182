//! The user-facing OEP protocol (paper §5.4).
//!
//! **Shared OEP** — the values are themselves secret-shared (the usual
//! situation for intermediate annotations), Alice additionally holds
//! ξ : \[N\] → \[M\]; they end with fresh shares of x_{ξ(i)}. Following the
//! paper: push Bob's shares through the oblivious switching network, then
//! Alice locally adds her own permuted shares; the OSN's fresh masks
//! re-randomize everything, so neither party links old and new shares.
//!
//! **Plain OEP** — Bob knows x₁..x_M in the clear — is the special case
//! where Alice's shares are all zero.

use rand::Rng;
use secyan_crypto::RingCtx;
use secyan_ot::{OtReceiver, OtSender};
use secyan_transport::Channel;

use crate::network::{EpNetwork, EpRouting};
use crate::osn::{osn_perm_holder_begin, osn_perm_holder_finish, osn_value_holder, OsnPending};

/// OTs one OEP over maps \[n_out\] → \[n_in\] draws, value holder sending:
/// the switch count of the network both sides derive from those sizes,
/// S(max(n_in, n_out)) + (n_out − 1) + S(n_out) with S(n) = Σᵢ₌₁ⁿ ⌈log₂ i⌉.
pub fn oep_ot_count(n_in: usize, n_out: usize) -> usize {
    EpNetwork::new(n_in, n_out).switch_count()
}

/// Permutation-holder state between [`shared_oep_perm_holder_begin`] and
/// [`shared_oep_perm_holder_finish`]: the derived network, routing, ξ, and
/// the staged OSN corrections.
pub struct OepPending {
    net: EpNetwork,
    routing: EpRouting,
    xi: Vec<usize>,
    osn: OsnPending,
}

/// First half of the permutation-holder side: derive the network from the
/// public dimensions (`xi[o]` is the input index feeding output `o`;
/// `n_in` is the public input length), route ξ through it, and stage the
/// OT correction bits. Send-only — the caller can stage further
/// dependency-free messages (e.g. a later operator's corrections) into
/// the same outbound super-frame before [`shared_oep_perm_holder_finish`]
/// blocks on the other side's masked values.
pub fn shared_oep_perm_holder_begin(
    ch: &mut Channel,
    xi: &[usize],
    n_in: usize,
    ot: &mut OtReceiver,
) -> OepPending {
    let net = EpNetwork::new(n_in, xi.len());
    let routing = net.route(xi);
    let osn = osn_perm_holder_begin(ch, &routing, ot);
    OepPending {
        net,
        routing,
        xi: xi.to_vec(),
        osn,
    }
}

/// Second half of the permutation-holder side: receive and walk the
/// network (receive-only), then locally add the ξ-permutation of
/// `my_shares`.
pub fn shared_oep_perm_holder_finish(
    ch: &mut Channel,
    pending: OepPending,
    my_shares: &[u64],
    ring: RingCtx,
    ot: &mut OtReceiver,
) -> Vec<u64> {
    assert_eq!(my_shares.len(), pending.net.n_in, "share vector arity");
    let OepPending {
        net,
        routing,
        xi,
        osn,
    } = pending;
    let fresh = osn_perm_holder_finish(ch, &net, &routing, osn, ring, ot);
    // Locally add the permutation of her own shares (she knows ξ).
    fresh
        .iter()
        .zip(&xi)
        .map(|(&f, &src)| ring.add(f, my_shares[src]))
        .collect()
}

/// Shared OEP, permutation-holder side: Alice holds ξ *and* her shares of
/// the input vector. Returns Alice's shares of the permuted vector.
pub fn shared_oep_perm_holder(
    ch: &mut Channel,
    xi: &[usize],
    my_shares: &[u64],
    ring: RingCtx,
    ot: &mut OtReceiver,
) -> Vec<u64> {
    let pending = shared_oep_perm_holder_begin(ch, xi, my_shares.len(), ot);
    shared_oep_perm_holder_finish(ch, pending, my_shares, ring, ot)
}

/// Shared OEP, other side: Bob holds only his shares of the input vector
/// (or, for plain OEP, the values themselves). Returns Bob's shares of the
/// permuted vector.
pub fn shared_oep_other<R: Rng + ?Sized>(
    ch: &mut Channel,
    my_shares: &[u64],
    n_out: usize,
    ring: RingCtx,
    ot: &mut OtSender,
    rng: &mut R,
) -> Vec<u64> {
    let net = EpNetwork::new(my_shares.len(), n_out);
    osn_value_holder(ch, &net, my_shares, ring, ot, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_crypto::TweakHasher;
    use secyan_transport::run_protocol;

    /// The one hasher choice shared by every OT setup in these tests.
    const HASHER: TweakHasher = TweakHasher::Aes;

    /// The benchmark's OEP shapes at their logical sizes: TPC-H Q3's
    /// 572 → 450 is S(572) + 449 + S(450) = 4 697 + 449 + 3 539, its
    /// 450 → 450 is 3 539 + 449 + 3 539.
    #[test]
    fn oep_ot_count_at_logical_sizes() {
        assert_eq!(oep_ot_count(572, 450), 8_685);
        assert_eq!(oep_ot_count(450, 450), 7_527);
        assert_eq!(oep_ot_count(16, 150), 2_039);
        assert_eq!(oep_ot_count(191, 150), 2_367);
    }

    #[test]
    fn shared_oep_permutes_the_secret() {
        let ring = RingCtx::new(32);
        let mut setup = StdRng::seed_from_u64(1);
        let secrets: Vec<u64> = (0..12).map(|i| 100 + i).collect();
        let (alice_in, bob_in) = ring.share_vec(&secrets, &mut setup);
        let xi = vec![3usize, 3, 0, 11, 7, 7, 7, 2];
        let xi2 = xi.clone();
        let (a_out, b_out, _) = run_protocol(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(2);
                let mut ot = OtReceiver::setup(ch, &mut rng, HASHER);
                shared_oep_perm_holder(ch, &xi, &alice_in, ring, &mut ot)
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(3);
                let mut ot = OtSender::setup(ch, &mut rng, HASHER);
                shared_oep_other(ch, &bob_in, 8, ring, &mut ot, &mut rng)
            },
        );
        let got = ring.reconstruct_vec(&a_out, &b_out);
        let want: Vec<u64> = xi2.iter().map(|&i| secrets[i]).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn shared_oep_refreshes_shares() {
        // Identity permutation must still produce *different* shares
        // (fresh randomness), per the paper's remark.
        let ring = RingCtx::new(32);
        let mut setup = StdRng::seed_from_u64(4);
        let secrets = vec![5u64, 6, 7];
        let (alice_in, bob_in) = ring.share_vec(&secrets, &mut setup);
        let a_in = alice_in.clone();
        let b_in = bob_in.clone();
        let (a_out, b_out, _) = run_protocol(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(5);
                let mut ot = OtReceiver::setup(ch, &mut rng, HASHER);
                shared_oep_perm_holder(ch, &[0, 1, 2], &alice_in, ring, &mut ot)
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(6);
                let mut ot = OtSender::setup(ch, &mut rng, HASHER);
                shared_oep_other(ch, &bob_in, 3, ring, &mut ot, &mut rng)
            },
        );
        assert_eq!(ring.reconstruct_vec(&a_out, &b_out), secrets);
        assert_ne!(a_out, a_in);
        assert_ne!(b_out, b_in);
    }

    #[test]
    fn plain_oep_matches_indexing() {
        let ring = RingCtx::new(16);
        let values = vec![11u64, 22, 33];
        let xi = vec![2usize, 0, 2, 1, 1];
        let v2 = values.clone();
        let xi2 = xi.clone();
        let (a_out, b_out, _) = run_protocol(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(7);
                let mut ot = OtReceiver::setup(ch, &mut rng, HASHER);
                // Plain OEP: Bob knows the values, Alice's shares are zero.
                shared_oep_perm_holder(ch, &xi, &[0; 3], ring, &mut ot)
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(8);
                let mut ot = OtSender::setup(ch, &mut rng, HASHER);
                shared_oep_other(ch, &v2, 5, ring, &mut ot, &mut rng)
            },
        );
        let got = ring.reconstruct_vec(&a_out, &b_out);
        let want: Vec<u64> = xi2.iter().map(|&i| values[i]).collect();
        assert_eq!(got, want);
    }
}
