//! Oblivious switching: evaluating a routed network on masked values.
//!
//! Bob (the value holder) walks his values through the network under
//! additive masks; Alice (the routing holder) obtains, via one correlated
//! word OT per switch, exactly the mask correction matching her control
//! bit. A switch's choice-0 pad is its straight correction, so Bob's fresh
//! masks are that pad plus the masks the switch reads, and he sends only
//! crossed − straight: one ⌈ℓ/8⌉-byte word per output the switch routes,
//! two for a permutation switch and one for a duplication switch. At the
//! end Alice holds `x_{route(i)} + m_i` and Bob holds `−m_i`: a fresh
//! additive sharing of the routed vector. Bob learns nothing about the
//! control bits (OT security); Alice learns nothing about the values
//! (everything she sees is masked by uniform pads).
//!
//! One OT extension and one correction message for the whole network, plus
//! one message of masked values — constant rounds, Õ(n log n) traffic.

use rand::Rng;
use secyan_crypto::RingCtx;
use secyan_ot::{OtReceiver, OtSender, RecvRows};
use secyan_transport::Channel;

use crate::network::{EpNetwork, EpRouting};

/// Correction words per switch, in network order: two for a permutation
/// switch (one per output), one for a duplication switch, whose second
/// output is its input passed through.
fn switch_words(net: &EpNetwork) -> impl Fn(usize) -> usize {
    let dup = net.p1.switches().len()..net.p1.switches().len() + net.width() - 1;
    move |s| if dup.contains(&s) { 1 } else { 2 }
}

/// Bob's side: push `values` (padded internally) through the extended
/// permutation network. Returns Bob's output shares (one per output).
pub(crate) fn osn_value_holder<R: Rng + ?Sized>(
    ch: &mut Channel,
    net: &EpNetwork,
    values: &[u64],
    ring: RingCtx,
    ot: &mut OtSender,
    rng: &mut R,
) -> Vec<u64> {
    assert_eq!(values.len(), net.n_in);
    let width = net.width();
    // Current mask of every position; Bob tracks masks, Alice tracks
    // masked values.
    let mut masks: Vec<u64> = (0..width).map(|_| ring.random(rng)).collect();
    // Initial masked values to Alice (pad positions carry masked zeros).
    let mut padded = values.to_vec();
    padded.resize(width, 0);
    let init: Vec<u64> = padded
        .iter()
        .zip(&masks)
        .map(|(&x, &m)| ring.add(x, m))
        .collect();
    ch.send_u64_slice(&init);

    // One word OT per switch: a switch's choice-0 pad `r` is its straight
    // correction, so its fresh output masks are `r` plus the masks it
    // reads, and the word sent per output is crossed − straight. Walked in
    // network order, in which every switch reads settled masks.
    let swap = |&(i, j): &(usize, usize)| (i, j, true);
    let dups = (1..width).map(|t| (t - 1, t, false));
    let (p1, p2) = (net.p1.switches().iter(), net.p2.switches().iter());
    let switches: Vec<_> = p1.map(swap).chain(dups).chain(p2.map(swap)).collect();
    ot.send_words(ch, ring, switches.len(), switch_words(net), |r| {
        let steps = switches.iter().zip(r);
        let deltas = steps.map(|(&(i, j, is_swap), r)| {
            if is_swap {
                // Straight: out_i = in_i, out_j = in_j; crossed swaps them.
                let delta = [ring.sub(masks[i], masks[j]), ring.sub(masks[j], masks[i])];
                masks[i] = ring.add(masks[i], r[0]);
                masks[j] = ring.add(masks[j], r[1]);
                delta
            } else {
                // Position j keeps its value or copies i = j − 1's.
                let delta = [ring.sub(masks[j], masks[i]), 0];
                masks[j] = ring.add(masks[j], r[0]);
                delta
            }
        });
        deltas.collect()
    });
    // Bob's shares: −(final mask) on the first n_out positions.
    masks[..net.n_out].iter().map(|&m| ring.neg(m)).collect()
}

/// Routing-holder state between [`osn_perm_holder_begin`] and
/// [`osn_perm_holder_finish`]: the OT rows drawn for the switch controls.
pub(crate) struct OsnPending {
    rows: RecvRows,
}

/// First half of the routing-holder side: stage the OT request for every
/// switch. Send-only — the routing is known before any incoming
/// data, so the corrections ride the current outbound super-frame, and a
/// caller may stage further dependency-free messages before
/// [`osn_perm_holder_finish`] blocks on the masked values. The value
/// holder reads the request inside `ot.send_words` only after staging
/// init, so per-direction FIFO order is unchanged.
pub(crate) fn osn_perm_holder_begin(
    ch: &mut Channel,
    routing: &EpRouting,
    ot: &mut OtReceiver,
) -> OsnPending {
    let mut choices: Vec<bool> = Vec::new();
    choices.extend_from_slice(&routing.p1_bits);
    choices.extend_from_slice(&routing.dup_bits[1..]);
    choices.extend_from_slice(&routing.p2_bits);
    OsnPending {
        rows: ot.begin_recv(ch, &choices),
    }
}

/// Second half of the routing-holder side: receive the masked values and
/// correction messages, then walk the network. Receive-only.
pub(crate) fn osn_perm_holder_finish(
    ch: &mut Channel,
    net: &EpNetwork,
    routing: &EpRouting,
    pending: OsnPending,
    ring: RingCtx,
    ot: &mut OtReceiver,
) -> Vec<u64> {
    let width = net.width();
    let mut vals = ch.recv_u64_vec(width);
    let corrections = ot.finish_recv_words(ch, ring, pending.rows, switch_words(net));
    let corrections = corrections.expose();
    let n_p1 = net.p1.switches().len();
    let n_dup = width - 1;
    let first = &corrections[..n_p1];
    perm_stage(&net.p1, &routing.p1_bits, first, ring, &mut vals);
    // Duplication chain: each position may read its predecessor's fresh
    // value.
    for t in 1..width {
        let [c1, _] = corrections[n_p1 + t - 1];
        let src = if routing.dup_bits[t] {
            vals[t - 1]
        } else {
            vals[t]
        };
        vals[t] = ring.add(src, c1);
    }
    let last = &corrections[n_p1 + n_dup..];
    perm_stage(&net.p2, &routing.p2_bits, last, ring, &mut vals);
    vals.truncate(net.n_out);
    vals
}

/// One permutation stage on the routing holder's side: every switch, in
/// network order, writes its two corrected outputs.
fn perm_stage(
    net: &crate::network::PermNetwork,
    bits: &[bool],
    corrections: &[[u64; 2]],
    ring: RingCtx,
    vals: &mut [u64],
) {
    for (s, &(i, j)) in net.switches().iter().enumerate() {
        let [c1, c2] = corrections[s];
        let (src1, src2) = if bits[s] {
            (vals[j], vals[i])
        } else {
            (vals[i], vals[j])
        };
        (vals[i], vals[j]) = (ring.add(src1, c1), ring.add(src2, c2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_crypto::TweakHasher;
    use secyan_transport::{run_protocol, run_protocol_captured, Role};

    /// The one hasher choice shared by every OT setup in these tests.
    const HASHER: TweakHasher = TweakHasher::Aes;

    /// The routing holder's two halves back to back.
    fn osn_perm_holder(
        ch: &mut Channel,
        net: &EpNetwork,
        routing: &EpRouting,
        ring: RingCtx,
        ot: &mut OtReceiver,
    ) -> Vec<u64> {
        let pending = osn_perm_holder_begin(ch, routing, ot);
        osn_perm_holder_finish(ch, net, routing, pending, ring, ot)
    }

    fn run_osn(values: Vec<u64>, xi: Vec<usize>, ell: u32) -> Vec<u64> {
        let ring = RingCtx::new(ell);
        let net = EpNetwork::new(values.len(), xi.len());
        let net2 = net.clone();
        let (bob_sh, alice_sh, _) = run_protocol(
            move |ch| {
                // Bob-as-Alice-thread naming aside: this closure is the
                // value holder.
                let mut rng = StdRng::seed_from_u64(7);
                let mut ot = OtSender::setup(ch, &mut rng, HASHER);
                osn_value_holder(ch, &net, &values, ring, &mut ot, &mut rng)
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(8);
                let mut ot = OtReceiver::setup(ch, &mut rng, HASHER);
                let routing = net2.route(&xi);
                osn_perm_holder(ch, &net2, &routing, ring, &mut ot)
            },
        );
        ring.reconstruct_vec(&alice_sh, &bob_sh)
    }

    /// The value holder's switch corrections are one message of one
    /// ⌈ℓ/8⌉-byte word per routed output — two per permutation switch, one
    /// per duplication switch — right after its masked values, and the
    /// routed vector still reconstructs.
    #[test]
    fn switch_batch_is_one_ring_width_message() {
        let (values, xi) = (vec![3u64, 1, 4, 1, 5], vec![4usize, 4, 0, 2, 1, 3, 3]);
        for ell in [1u32, 20, 32, 64] {
            let ring = RingCtx::new(ell);
            let net = EpNetwork::new(values.len(), xi.len());
            let (net2, vals, map) = (net.clone(), values.clone(), xi.clone());
            let (bob_sh, alice_sh, _, handle) = run_protocol_captured(
                move |ch| {
                    let mut rng = StdRng::seed_from_u64(7);
                    let mut ot = OtSender::setup(ch, &mut rng, HASHER);
                    osn_value_holder(ch, &net2, &vals, ring, &mut ot, &mut rng)
                },
                move |ch| {
                    let mut rng = StdRng::seed_from_u64(8);
                    let mut ot = OtReceiver::setup(ch, &mut rng, HASHER);
                    let net = EpNetwork::new(5, map.len());
                    osn_perm_holder(ch, &net, &net.route(&map), ring, &mut ot)
                },
            );
            let want: Vec<u64> = xi.iter().map(|&i| ring.reduce(values[i])).collect();
            assert_eq!(ring.reconstruct_vec(&alice_sh, &bob_sh), want, "ℓ = {ell}");
            let messages = handle.messages();
            let sent = messages.iter().filter(|(r, _)| *r == Role::Alice);
            let sent: Vec<usize> = sent.map(|(_, m)| m.len()).collect();
            let perm = net.p1.switches().len() + net.p2.switches().len();
            let (dup, word) = (net.width() - 1, ell.div_ceil(8) as usize);
            let want = [8 * net.width(), 2 * word * perm + word * dup];
            assert_eq!(sent[sent.len() - 2..], want, "ℓ = {ell}");
        }
    }

    #[test]
    fn identity_map() {
        let got = run_osn(vec![10, 20, 30, 40], vec![0, 1, 2, 3], 32);
        assert_eq!(got, vec![10, 20, 30, 40]);
    }

    #[test]
    fn permutation_with_duplicates_and_drops() {
        let got = run_osn(vec![10, 20, 30, 40, 50], vec![4, 4, 0, 2], 32);
        assert_eq!(got, vec![50, 50, 10, 30]);
    }

    #[test]
    fn expanding_map() {
        let got = run_osn(vec![7, 9], vec![1, 1, 0, 1, 0, 0, 1], 16);
        assert_eq!(got, vec![9, 9, 7, 9, 7, 7, 9]);
    }

    #[test]
    fn single_element() {
        assert_eq!(run_osn(vec![42], vec![0], 32), vec![42]);
    }

    #[test]
    fn random_maps_reconstruct() {
        let mut rng = StdRng::seed_from_u64(99);
        use rand::Rng;
        for _ in 0..10 {
            let n_in = rng.gen_range(1..30);
            let n_out = rng.gen_range(1..30);
            let ring = RingCtx::new(32);
            let values: Vec<u64> = (0..n_in).map(|_| ring.random(&mut rng)).collect();
            let xi: Vec<usize> = (0..n_out).map(|_| rng.gen_range(0..n_in)).collect();
            let want: Vec<u64> = xi.iter().map(|&i| values[i]).collect();
            assert_eq!(run_osn(values, xi, 32), want);
        }
    }
}
