//! Oblivious switching: evaluating a routed network on masked values.
//!
//! Bob (the value holder) walks his values through the network under
//! additive masks; Alice (the routing holder) obtains, via one OT per
//! switch, exactly the mask-correction pair matching her control bit. At
//! the end Alice holds `x_{route(i)} + m_i` and Bob holds `−m_i`: a fresh
//! additive sharing of the routed vector. Bob learns nothing about the
//! control bits (OT security); Alice learns nothing about the values
//! (everything she sees is masked by fresh uniform masks).
//!
//! One round of OT (batched over all switches) plus one message of masked
//! values — constant rounds, Õ(n log n) traffic for the whole network.

use rand::Rng;
use secyan_crypto::{Block, RingCtx, Zeroize};
use secyan_ot::{OtReceiver, OtSender};
use secyan_par as par;
use secyan_transport::{Channel, ReadExt, WriteExt};

use crate::network::{EpNetwork, EpRouting};

/// Minimum network width before the permutation stages fan their switch
/// layers out across the worker pool. Below this the per-layer dispatch
/// overhead dominates the ring arithmetic.
const OSN_PAR_MIN_WIDTH: usize = 512;

/// Minimum switches handed to one worker within a layer.
const SWITCHES_PER_PART: usize = 64;

/// Serialize a correction pair (two ring elements) into an OT message.
fn enc_pair(a: u64, b: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&a.to_le_bytes());
    v.extend_from_slice(&b.to_le_bytes());
    v
}

fn dec_pair(raw: &[u8]) -> (u64, u64) {
    (
        u64::from_le_bytes(raw[..8].try_into().expect("8 bytes")),
        u64::from_le_bytes(raw[8..16].try_into().expect("8 bytes")),
    )
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

    // Pre-draw every switch's fresh masks *serially*, in the exact order
    // the serial walk would draw them — the RNG stream (and hence the
    // transcript) is independent of the thread count.
    let mut r1: Vec<(u64, u64)> = net
        .p1
        .switches()
        .iter()
        .map(|_| (ring.random(rng), ring.random(rng)))
        .collect();
    let mut rdup: Vec<u64> = (1..width).map(|_| ring.random(rng)).collect();
    let mut r2: Vec<(u64, u64)> = net
        .p2
        .switches()
        .iter()
        .map(|_| (ring.random(rng), ring.random(rng)))
        .collect();

    // Build every switch's OT message pair, updating masks as we go. The
    // message vector is indexed by absolute switch position, so the wire
    // layout matches the serial evaluation order exactly.
    let n_p1 = net.p1.switches().len();
    let n_dup = width - 1;
    let mut ot_msgs: Vec<(Vec<u8>, Vec<u8>)> = vec![(Vec::new(), Vec::new()); net.switch_count()];
    par::with_pool_if(par::threads() > 1 && width >= OSN_PAR_MIN_WIDTH, |pool| {
        // Stage 1: permutation switches, layer-parallel.
        holder_stage(pool, &net.p1, &r1, ring, &mut masks, &mut ot_msgs[..n_p1]);
        // Stage 2: duplication chain (position t either keeps its own value
        // or copies position t−1's post-duplication value) — inherently a
        // serial scan through the masks.
        for t in 1..width {
            let u = rdup[t - 1];
            let keep = enc_pair(ring.sub(u, masks[t]), 0);
            let copy = enc_pair(ring.sub(u, masks[t - 1]), 0);
            ot_msgs[n_p1 + t - 1] = (keep, copy);
            masks[t] = u;
        }
        // Stage 3: permutation switches, layer-parallel.
        holder_stage(
            pool,
            &net.p2,
            &r2,
            ring,
            &mut masks,
            &mut ot_msgs[n_p1 + n_dup..],
        );
    });
    // The pre-drawn values are mask material; scrub once consumed.
    r1.zeroize();
    rdup.zeroize();
    r2.zeroize();
    ot.send_bytes(ch, &ot_msgs);
    // Bob's shares: −(final mask) on the first n_out positions.
    masks[..net.n_out].iter().map(|&m| ring.neg(m)).collect()
}

/// One permutation stage on the value holder's side: build each switch's
/// correction pair (straight: out_i = in_i, out_j = in_j; crossed:
/// out_i = in_j, out_j = in_i) and advance the masks.
///
/// Switch layers run in order; within a layer the switches touch disjoint
/// positions ([`PermNetwork::layers`]), so each pair is computed from the
/// pre-layer masks in parallel and the mask updates write back serially.
/// The result is byte-identical to the serial switch walk.
///
/// [`PermNetwork::layers`]: crate::network::PermNetwork::layers
fn holder_stage(
    pool: &par::Pool<'_>,
    net: &crate::network::PermNetwork,
    r: &[(u64, u64)],
    ring: RingCtx,
    masks: &mut [u64],
    out: &mut [(Vec<u8>, Vec<u8>)],
) {
    let switches = net.switches();
    for layer in net.layers() {
        let masks_ro: &[u64] = masks;
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = pool.map(&layer, SWITCHES_PER_PART, |_, &s| {
            let (i, j) = switches[s];
            let (u, v) = r[s];
            let straight = enc_pair(ring.sub(u, masks_ro[i]), ring.sub(v, masks_ro[j]));
            let crossed = enc_pair(ring.sub(u, masks_ro[j]), ring.sub(v, masks_ro[i]));
            (straight, crossed)
        });
        for (&s, pair) in layer.iter().zip(pairs) {
            let (i, j) = switches[s];
            let (u, v) = r[s];
            masks[i] = u;
            masks[j] = v;
            out[s] = pair;
        }
    }
}

/// Routing-holder state between [`osn_perm_holder_begin`] and
/// [`osn_perm_holder_finish`]: the OT choice bits (switch controls) and
/// their staged pads.
pub(crate) struct OsnPending {
    choices: Vec<bool>,
    pads: Vec<Block>,
}

/// First half of the routing-holder side: stage the OT correction bits
/// for every switch. Send-only — the routing is known before any incoming
/// data, so the corrections ride the current outbound super-frame, and a
/// caller may stage further dependency-free messages before
/// [`osn_perm_holder_finish`] blocks on the masked values. The value
/// holder reads the corrections inside `ot.send_bytes` only after staging
/// init + pairs, so per-direction FIFO order is unchanged.
pub(crate) fn osn_perm_holder_begin(
    ch: &mut Channel,
    routing: &EpRouting,
    ot: &mut OtReceiver,
) -> OsnPending {
    let mut choices: Vec<bool> = Vec::new();
    choices.extend_from_slice(&routing.p1_bits);
    choices.extend_from_slice(&routing.dup_bits[1..]);
    choices.extend_from_slice(&routing.p2_bits);
    let pads = ot.begin_recv(ch, &choices);
    OsnPending { choices, pads }
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
    let OsnPending { choices, pads } = pending;
    let mut vals = ch.recv_u64_vec(width);
    let corrections = ot.finish_recv_bytes(ch, &pads, &choices, 16);
    let n_p1 = net.p1.switches().len();
    let n_dup = width - 1;
    par::with_pool_if(par::threads() > 1 && width >= OSN_PAR_MIN_WIDTH, |pool| {
        perm_stage(
            pool,
            &net.p1,
            &routing.p1_bits,
            &corrections[..n_p1],
            ring,
            &mut vals,
        );
        // Duplication chain: a serial scan (each position may read its
        // predecessor's fresh value).
        for t in 1..width {
            let (c1, _) = dec_pair(&corrections[n_p1 + t - 1]);
            let src = if routing.dup_bits[t] {
                vals[t - 1]
            } else {
                vals[t]
            };
            vals[t] = ring.add(src, c1);
        }
        perm_stage(
            pool,
            &net.p2,
            &routing.p2_bits,
            &corrections[n_p1 + n_dup..],
            ring,
            &mut vals,
        );
    });
    vals.truncate(net.n_out);
    vals
}

/// One permutation stage on the routing holder's side, mirroring
/// [`holder_stage`]: within a layer every switch reads the pre-layer
/// values of its two (disjoint) positions, so the corrected values are
/// computed in parallel and written back serially — identical to the
/// serial walk at any thread count.
fn perm_stage(
    pool: &par::Pool<'_>,
    net: &crate::network::PermNetwork,
    bits: &[bool],
    corrections: &[Vec<u8>],
    ring: RingCtx,
    vals: &mut [u64],
) {
    let switches = net.switches();
    for layer in net.layers() {
        let vals_ro: &[u64] = vals;
        let outs: Vec<(u64, u64)> = pool.map(&layer, SWITCHES_PER_PART, |_, &s| {
            let (i, j) = switches[s];
            let (c1, c2) = dec_pair(&corrections[s]);
            let (src1, src2) = if bits[s] {
                (vals_ro[j], vals_ro[i])
            } else {
                (vals_ro[i], vals_ro[j])
            };
            (ring.add(src1, c1), ring.add(src2, c2))
        });
        for (&s, (v1, v2)) in layer.iter().zip(outs) {
            let (i, j) = switches[s];
            vals[i] = v1;
            vals[j] = v2;
        }
    }
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
    fn osn_is_thread_count_invariant() {
        // Width pads to exactly OSN_PAR_MIN_WIDTH so the layered parallel
        // path runs; fixed seeds make the whole exchange deterministic, so
        // both parties' share vectors must match across thread counts.
        let n_in = 500usize;
        let n_out = 512usize;
        let ring = RingCtx::new(32);
        let values: Vec<u64> = (0..n_in as u64)
            .map(|v| v.wrapping_mul(2654435761) >> 3)
            .collect();
        let xi: Vec<usize> = (0..n_out).map(|o| (o * 131) % n_in).collect();
        let run_at = |t: usize| {
            secyan_par::set_threads(t);
            let net = EpNetwork::new(n_in, n_out);
            let net2 = net.clone();
            let vals = values.clone();
            let map = xi.clone();
            let (bob_sh, alice_sh, _) = run_protocol(
                move |ch| {
                    let mut rng = StdRng::seed_from_u64(7);
                    let mut ot = OtSender::setup(ch, &mut rng, HASHER);
                    osn_value_holder(ch, &net, &vals, ring, &mut ot, &mut rng)
                },
                move |ch| {
                    let mut rng = StdRng::seed_from_u64(8);
                    let mut ot = OtReceiver::setup(ch, &mut rng, HASHER);
                    let routing = net2.route(&map);
                    osn_perm_holder(ch, &net2, &routing, ring, &mut ot)
                },
            );
            secyan_par::set_threads(0);
            (bob_sh, alice_sh)
        };
        let serial = run_at(1);
        assert_eq!(run_at(4), serial, "4-thread OSN diverged from serial");
        let want: Vec<u64> = xi.iter().map(|&i| ring.reduce(values[i])).collect();
        assert_eq!(ring.reconstruct_vec(&serial.1, &serial.0), want);
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
