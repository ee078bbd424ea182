//! Oblivious switching: evaluating a routed network on masked values.
//!
//! Bob (the value holder) walks his values through the network under
//! additive masks; Alice (the routing holder) obtains, via one correlated
//! word OT per switch, exactly the mask correction matching her control
//! bit. Bob first sends his k = max(n_in, n_out) masked values (zeros past
//! n_in), one ⌈ℓ/8⌉-byte word each. A switch's choice-0 pad is its
//! straight correction, so Bob's fresh masks are that pad plus the masks
//! the switch reads, and he sends only crossed − straight: one
//! ⌈ℓ/8⌉-byte word per output the switch routes, two for a permutation
//! switch and one for a duplication switch. At the end Alice holds
//! `x_{route(i)} + m_i` and Bob holds `−m_i`: a fresh additive sharing of
//! the routed vector. Bob learns nothing about the control bits (OT
//! security); Alice learns nothing about the values (everything she sees
//! is masked by uniform pads).
//!
//! One OT extension and one correction message for the whole network, plus
//! one message of masked values — constant rounds, Õ(n log n) traffic.

use rand::Rng;
use secyan_crypto::RingCtx;
use secyan_ot::{OtReceiver, OtSender, RecvRows};
use secyan_transport::Channel;

use crate::network::{EpNetwork, EpRouting, PermNetwork};

/// Correction words per switch, in network order: two for a permutation
/// switch (one per output), one for a duplication switch, whose second
/// output is its input passed through.
fn switch_words(net: &EpNetwork) -> impl Fn(usize) -> usize {
    let dup = net.p1.switches().len()..net.p1.switches().len() + net.dup_count();
    move |s| if dup.contains(&s) { 1 } else { 2 }
}

/// Bob's side: push `values` through the extended permutation network.
/// Returns Bob's output shares (one per output).
pub(crate) fn osn_value_holder<R: Rng + ?Sized>(
    ch: &mut Channel,
    net: &EpNetwork,
    values: &[u64],
    ring: RingCtx,
    ot: &mut OtSender,
    rng: &mut R,
) -> Vec<u64> {
    assert_eq!(values.len(), net.n_in);
    // Current mask of every position; Bob tracks masks, Alice tracks
    // masked values.
    let mut masks: Vec<u64> = (0..net.k).map(|_| ring.random(rng)).collect();
    // Initial masked values to Alice (filler positions carry masked zeros).
    let init: Vec<u64> = (0..net.k)
        .map(|p| ring.add(values.get(p).copied().unwrap_or(0), masks[p]))
        .collect();
    ch.send_word_slice(&init, ring.word_bytes());

    // One word OT per switch: a switch's choice-0 pad `r` is its straight
    // correction, so its fresh output masks are `r` plus the masks it
    // reads, and the word sent per output is crossed − straight. Walked in
    // network order, in which every switch reads settled masks.
    let swap = |&(i, j): &(usize, usize)| (i, j, true);
    let dups = (1..net.n_out).map(|t| (t - 1, t, false));
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
    choices.extend_from_slice(&routing.dup_bits);
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
    let mut vals = ch.recv_word_vec(net.k, ring.word_bytes());
    let corrections = ot.finish_recv_words(ch, ring, pending.rows, switch_words(net));
    let corrections = corrections.expose();
    let n_p1 = net.p1.switches().len();
    let first = &corrections[..n_p1];
    perm_stage(&net.p1, &routing.p1_bits, first, ring, &mut vals);
    // Duplication chain over the run positions: each may read its
    // predecessor's fresh value.
    vals.truncate(net.n_out);
    for t in 1..net.n_out {
        let [c1, _] = corrections[n_p1 + t - 1];
        let src = if routing.dup_bits[t - 1] {
            vals[t - 1]
        } else {
            vals[t]
        };
        vals[t] = ring.add(src, c1);
    }
    let last = &corrections[n_p1 + net.dup_count()..];
    perm_stage(&net.p2, &routing.p2_bits, last, ring, &mut vals);
    vals
}

/// One permutation stage on the routing holder's side: every switch, in
/// network order, writes its two corrected outputs.
fn perm_stage(
    net: &PermNetwork,
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
    use rand::{Rng, SeedableRng};
    use secyan_crypto::TweakHasher;
    use secyan_transport::{run_protocol_captured, Role, TranscriptHandle};

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

    /// One OSN after OT setup, the value holder on the Alice thread: the
    /// reconstructed outputs, the transcript, and the bytes each side sent
    /// after setup (value holder, routing holder).
    fn run_osn_captured(
        values: Vec<u64>,
        xi: Vec<usize>,
        ell: u32,
    ) -> (Vec<u64>, TranscriptHandle, [u64; 2]) {
        let ring = RingCtx::new(ell);
        let net = EpNetwork::new(values.len(), xi.len());
        let net2 = net.clone();
        let ((bob_sh, holder), (alice_sh, router), _, handle) = run_protocol_captured(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(7);
                let mut ot = OtSender::setup(ch, &mut rng, HASHER);
                let before = ch.stats();
                let out = osn_value_holder(ch, &net, &values, ring, &mut ot, &mut rng);
                ch.flush();
                (out, ch.stats().since(&before).bytes_alice_to_bob)
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(8);
                let mut ot = OtReceiver::setup(ch, &mut rng, HASHER);
                let before = ch.stats();
                let routing = net2.route(&xi);
                let out = osn_perm_holder(ch, &net2, &routing, ring, &mut ot);
                ch.flush();
                (out, ch.stats().since(&before).bytes_bob_to_alice)
            },
        );
        (
            ring.reconstruct_vec(&alice_sh, &bob_sh),
            handle,
            [holder, router],
        )
    }

    /// The lengths of the messages `dir` sent, in order.
    fn sent_lengths(handle: &TranscriptHandle, dir: Role) -> Vec<usize> {
        let sent = handle.lengths().into_iter().filter(|&(r, _)| r == dir);
        sent.map(|(_, len)| len).collect()
    }

    fn run_osn(values: Vec<u64>, xi: Vec<usize>, ell: u32) -> Vec<u64> {
        run_osn_captured(values, xi, ell).0
    }

    /// The value holder's switch corrections are one message of one
    /// ⌈ℓ/8⌉-byte word per routed output — two per permutation switch, one
    /// per duplication switch — right after its k masked values, one
    /// ⌈ℓ/8⌉-byte word each, and the routed vector still reconstructs.
    #[test]
    fn switch_batch_is_one_ring_width_message() {
        let (values, xi) = (vec![3u64, 1, 4, 1, 5], vec![4usize, 4, 0, 2, 1, 3, 3]);
        for ell in [1u32, 20, 32, 64] {
            let ring = RingCtx::new(ell);
            let (got, handle, _) = run_osn_captured(values.clone(), xi.clone(), ell);
            let want: Vec<u64> = xi.iter().map(|&i| ring.reduce(values[i])).collect();
            assert_eq!(got, want, "ℓ = {ell}");
            let sent = sent_lengths(&handle, Role::Alice);
            let net = EpNetwork::new(values.len(), xi.len());
            let perm = net.p1.switches().len() + net.p2.switches().len();
            let word = ring.word_bytes();
            let want = [word * net.k, 2 * word * perm + word * net.dup_count()];
            assert_eq!(sent[sent.len() - 2..], want, "ℓ = {ell}");
        }
    }

    /// The OEP's bytes in closed form, over a grid of shrinking, expanding
    /// and size-keeping maps: the routing holder sends one IKNP column
    /// bundle, 128 columns of ⌈m/8⌉ bytes for the m switches; the value
    /// holder ⌈ℓ/8⌉ bytes per masked value (k of them) and per routed
    /// switch output (two per permutation switch, one per duplication
    /// switch).
    #[test]
    fn oep_bytes_follow_the_logical_sizes() {
        let mut rng = StdRng::seed_from_u64(5);
        let sizes = [1, 2, 3, 7, 8, 13];
        for (n_in, n_out) in sizes.iter().flat_map(|&a| sizes.map(|b| (a, b))) {
            for ell in [1u32, 20, 32, 64] {
                let ring = RingCtx::new(ell);
                let values: Vec<u64> = (0..n_in).map(|_| ring.random(&mut rng)).collect();
                let xi: Vec<usize> = (0..n_out).map(|_| rng.gen_range(0..n_in)).collect();
                let want: Vec<u64> = xi.iter().map(|&i| values[i]).collect();
                let (got, _, [holder, router]) = run_osn_captured(values, xi, ell);
                assert_eq!(got, want);
                let net = EpNetwork::new(n_in, n_out);
                let (m, dup) = (net.switch_count(), net.dup_count());
                let perm = m - dup;
                let what = format!("{n_in} → {n_out}, ℓ = {ell}");
                assert_eq!(router as usize, 128 * m.div_ceil(8), "{what}");
                let words = net.k + 2 * perm + dup;
                assert_eq!(holder as usize, ring.word_bytes() * words, "{what}");
            }
        }
    }

    /// The transcript's shape depends on the public sizes alone: two
    /// different maps of equal (n_in, n_out), over different values, give
    /// equal per-direction message-length sequences.
    #[test]
    fn transcript_shape_depends_only_on_sizes() {
        let mut rng = StdRng::seed_from_u64(11);
        let shapes = [
            (1, 1),
            (2, 2),
            (3, 3),
            (9, 9),
            (10, 10),
            (12, 5),
            (5, 12),
            (3, 8),
            (8, 3),
        ];
        for (n_in, n_out) in shapes {
            let mut run = || {
                let values: Vec<u64> = (0..n_in).map(|_| rng.gen_range(0..1 << 32)).collect();
                let xi: Vec<usize> = (0..n_out).map(|_| rng.gen_range(0..n_in)).collect();
                let (_, handle, _) = run_osn_captured(values, xi, 32);
                [Role::Alice, Role::Bob].map(|dir| sent_lengths(&handle, dir))
            };
            assert_eq!(run(), run(), "{n_in} → {n_out}");
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
