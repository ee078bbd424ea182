//! Per-party protocol session state — and the only module that knows which
//! of its handles a building block draws from.
//!
//! The operators of §6 are written over four verbs — one per building
//! block of §5, and the ring product of §6.2 — each a [`Session`] method
//! that names the acting role and hides the dispatch on it:
//!
//! | verb | methods | draws |
//! |---|---|---|
//! | circuit (§5.2) | [`Session::garble`], [`Session::garble_shared`] | the front of the garbler's / evaluator's pre-garbled bank when it matches; one OT per evaluator input wire, garbler sending |
//! | OEP (§5.4) | [`Session::oep`], or [`Session::oep_begin`] + [`Session::oep_finish`] on the router's side | one OT per switch, the router's peer sending |
//! | PSI (§5.3, §5.5) | [`Session::psi_receiver_begin`] + [`Session::psi_receiver_finish`], [`Session::psi_sender`] | 2·bins KKRT instances keyed by the sender, the matching / k circuit garbled by the sender, and for shared payloads two more OEPs |
//! | multiply (§6.2) | [`Session::multiply`] | ℓ correlated OTs per cross term per row, the owner sending; no circuit |
//!
//! `crate::shape::Draws` has the same four verbs and counts what each
//! call here consumes; `preproc.rs` banks exactly that.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secyan_circuit::Circuit;
use secyan_crypto::{RingCtx, Secret, TweakHasher};
use secyan_gc::{
    evaluate_banked, evaluate_shared_banked, garble_banked, garble_shared_banked, EvalMaterial,
    GarbleMaterial, OutputMode, SharedOutputSpec,
};
use secyan_oep::{
    shared_oep_other, shared_oep_perm_holder, shared_oep_perm_holder_begin,
    shared_oep_perm_holder_finish, OepPending,
};
use secyan_ot::{KkrtReceiver, KkrtSender, OtReceiver, OtSender};
use secyan_psi::{
    psi_receiver_begin, psi_receiver_finish, psi_sender, shared_payload_psi_receiver_begin,
    shared_payload_psi_sender, PsiReceiverPending,
};
use secyan_transport::{Channel, ProtocolError, ReadExt, Role};
use std::collections::VecDeque;

/// Upper bound on any size a peer can declare for a relation or join
/// output. Instances this workspace evaluates are far smaller; anything
/// larger is a malformed (or malicious) peer trying to drive a huge
/// allocation, and is rejected with a typed error before allocating.
/// Tied to the transport's super-frame bound: a declaration the transport
/// could never carry the payload for is rejected at the same threshold.
pub const MAX_DECLARED_SIZE: u64 = secyan_transport::MAX_FRAME_SIZE as u64;

/// Receive a peer-declared public size and validate it against
/// [`MAX_DECLARED_SIZE`] before the caller allocates proportionally to it.
/// Raises a typed [`ProtocolError::Malformed`] unwind (caught by
/// `try_run_protocol`) on an absurd declaration.
pub fn recv_declared_size(ch: &mut Channel, what: &str) -> usize {
    let size = ch.recv_u64();
    if size > MAX_DECLARED_SIZE {
        ProtocolError::malformed(format!(
            "peer declared {what} of {size} rows (max {MAX_DECLARED_SIZE})"
        ));
    }
    size as usize
}

/// The one place the Alice/Bob interleave over an extension endpoint pair is
/// spelled: every two-sided step on the OT or KKRT pair (bootstrap, banking)
/// runs this party's sender half against the peer's receiver half and vice
/// versa, so Alice goes sender-first and Bob receiver-first. `ctx` is
/// whatever both halves need mutably.
pub(crate) fn in_role_order<C, S, R>(
    role: Role,
    ctx: &mut C,
    send: impl FnOnce(&mut C) -> S,
    recv: impl FnOnce(&mut C) -> R,
) -> (S, R) {
    match role {
        Role::Alice => {
            let s = send(ctx);
            (s, recv(ctx))
        }
        Role::Bob => {
            let r = recv(ctx);
            (send(ctx), r)
        }
    }
}

/// Everything one party carries through a secure query evaluation: the
/// channel, the annotation ring, a CSPRNG, and both
/// directions of OT extension and KKRT OPRF (bootstrapped once here, then
/// amortized over every operator, as the paper's cost model assumes).
pub struct Session<'a> {
    pub ch: &'a mut Channel,
    pub ring: RingCtx,
    pub rng: StdRng,
    pub ot_send: OtSender,
    pub ot_recv: OtReceiver,
    pub kkrt_send: KkrtSender,
    pub kkrt_recv: KkrtReceiver,
    /// Pre-garbled circuits waiting to be consumed (this party garbles),
    /// in plan order. Empty outside the offline/online split.
    pub gc_garble: VecDeque<GarbleMaterial>,
    /// Pre-received garbled tables waiting to be consumed (this party
    /// evaluates), in plan order.
    pub gc_eval: VecDeque<EvalMaterial>,
}

impl<'a> Session<'a> {
    /// Set up a session. Both parties must call this with the same `ring`;
    /// the base-OT bootstraps interleave in a fixed role-dependent order so
    /// the two sides pair correctly.
    pub fn new(
        ch: &'a mut Channel,
        ring: RingCtx,
        hasher: TweakHasher,
        rng_seed: u64,
    ) -> Session<'a> {
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let role = ch.role();
        let mut ctx = (&mut *ch, &mut rng);
        let (ot_send, ot_recv) = in_role_order(
            role,
            &mut ctx,
            |(ch, rng)| OtSender::setup(ch, rng, hasher),
            |(ch, rng)| OtReceiver::setup(ch, rng, hasher),
        );
        let (kkrt_send, kkrt_recv) = in_role_order(
            role,
            &mut ctx,
            |(ch, rng)| KkrtSender::setup(ch, rng),
            |(ch, rng)| KkrtReceiver::setup(ch, rng),
        );
        Session {
            ch,
            ring,
            rng,
            ot_send,
            ot_recv,
            kkrt_send,
            kkrt_recv,
            gc_garble: VecDeque::new(),
            gc_eval: VecDeque::new(),
        }
    }

    /// This party's transport role.
    pub fn role(&self) -> Role {
        self.ch.role()
    }

    /// A fresh random u64 (join-key nonces).
    pub fn random_u64(&mut self) -> u64 {
        self.rng.gen()
    }

    /// **Circuit** (§5.2), outputs revealed to the evaluator: `garbler`
    /// garbles, its peer evaluates and gets `Some(output bits)`.
    /// `my_inputs` are this party's input wires. Pre-garbled material is
    /// consumed when the front of the plan matches `circuit` by digest,
    /// else the tables travel inline — a symmetric decision: both parties
    /// planned the same public circuit sequence, so their fronts carry the
    /// same digest and both fall back together on a circuit the plan did
    /// not foresee (the data-dependent full-join product tree).
    pub fn garble(
        &mut self,
        circuit: &Circuit,
        garbler: Role,
        my_inputs: &[bool],
    ) -> Option<Vec<bool>> {
        let mode = OutputMode::RevealToEvaluator;
        if self.role() == garbler {
            let (bank, ot) = (&mut self.gc_garble, &mut self.ot_send);
            garble_banked(self.ch, bank, circuit, my_inputs, ot, &mut self.rng, mode)
        } else {
            let (bank, ot) = (&mut self.gc_eval, &mut self.ot_recv);
            evaluate_banked(self.ch, bank, circuit, my_inputs, ot, mode)
        }
    }

    /// **Circuit**, outputs leaving as fresh additive shares (§5.2's
    /// Yao-to-arithmetic conversion): returns this party's share of every
    /// output word of `spec`. Banking as in [`Session::garble`].
    pub fn garble_shared(
        &mut self,
        circuit: &Circuit,
        spec: &SharedOutputSpec,
        garbler: Role,
        my_inputs: &[bool],
    ) -> Vec<u64> {
        if self.role() == garbler {
            let (bank, ot) = (&mut self.gc_garble, &mut self.ot_send);
            let rng = &mut self.rng;
            garble_shared_banked(self.ch, bank, circuit, spec, my_inputs, ot, rng)
        } else {
            let (bank, ot) = (&mut self.gc_eval, &mut self.ot_recv);
            evaluate_shared_banked(self.ch, bank, circuit, spec, my_inputs, ot)
        }
    }

    /// **OEP** on shared values (§5.4): `router` holds ξ — `Some` on its
    /// side, `None` on its peer's — mapping each of the `n_out` outputs to
    /// an index into the shared input vector; both end with fresh shares
    /// of the routed values. The router receives the OTs.
    pub fn oep(
        &mut self,
        router: Role,
        xi: Option<&[usize]>,
        n_out: usize,
        my_shares: &[u64],
    ) -> Vec<u64> {
        if self.role() == router {
            let xi = xi.expect("the router holds ξ");
            assert_eq!(xi.len(), n_out, "ξ maps every output");
            shared_oep_perm_holder(self.ch, xi, my_shares, self.ring, &mut self.ot_recv)
        } else {
            let (ot, rng) = (&mut self.ot_send, &mut self.rng);
            shared_oep_other(self.ch, my_shares, n_out, self.ring, ot, rng)
        }
    }

    /// Router's first half of [`Session::oep`] over `n_in` inputs: stage
    /// the OT corrections (send-only), so a routing known before its
    /// values are can ride the current outbound super-frame.
    pub fn oep_begin(&mut self, xi: &[usize], n_in: usize) -> OepPending {
        shared_oep_perm_holder_begin(self.ch, xi, n_in, &mut self.ot_recv)
    }

    /// Router's second half: receive the masked values and finish.
    pub fn oep_finish(&mut self, pending: OepPending, my_shares: &[u64]) -> Vec<u64> {
        shared_oep_perm_holder_finish(self.ch, pending, my_shares, self.ring, &mut self.ot_recv)
    }

    /// **Multiply** (§6.2): fresh shares of `v_i · z_i` from this party's
    /// shares of both, by OT multiplication (Gilboa) rather than a
    /// circuit. `(v_A + v_B)(z_A + z_B)` is two local products plus the
    /// cross terms `v_A·z_B` and `z_A·v_B`; for each, `owner` sends ℓ
    /// correlated OTs per row — bit k of the peer's share selects
    /// `2^k ·` the owner's — keeps `−Σ r` and the peer receives
    /// `Σ r + cross`. When `v_plain` the owner's `v` is the clear value (its
    /// peer's is all zero) and the `z_A·v_B` term does not exist. One
    /// ping-pong: the peer's choice corrections, then one word per OT back.
    pub fn multiply(&mut self, owner: Role, v: &[u64], z: &[u64], v_plain: bool) -> Vec<u64> {
        let (ring, ell, n) = (self.ring, self.ring.bits() as usize, v.len());
        assert_eq!(z.len(), n, "one z per v");
        let i_own = self.role() == owner;
        // One batch, term-major: the bits of the peer's v-shares against
        // my z — a term that does not exist while v is plain — then those
        // of its z-shares against my v.
        let terms = if i_own { [z, v] } else { [v, z] };
        let words = terms[usize::from(v_plain)..].iter().flat_map(|t| t.iter());
        let cross = if i_own {
            let deltas = words.flat_map(|&mine| (0..ell).map(move |k| ring.reduce(mine << k)));
            let deltas = Secret::new(deltas.collect::<Vec<u64>>());
            self.ot_send.send_words(self.ch, ring, deltas.expose())
        } else {
            // ct-ok: branchless bit extraction — `& 1 == 1` is a mask test.
            let bits = words.flat_map(|&share| (0..ell).map(move |k| share >> k & 1 == 1));
            let bits = Secret::new(bits.collect::<Vec<bool>>());
            let pads = Secret::new(self.ot_recv.begin_recv(self.ch, bits.expose()));
            self.ot_recv
                .finish_recv_words(self.ch, ring, pads.expose(), bits.expose())
        };
        let per_row = |i: usize| cross.expose().chunks(ell).skip(i).step_by(n).flatten();
        let rows = v.iter().zip(z).enumerate();
        rows.map(|(i, (&v, &z))| {
            let sum = per_row(i).fold(0u64, |acc, &x| acc.wrapping_add(x));
            ring.add(ring.mul(v, z), if i_own { ring.neg(sum) } else { sum })
        })
        .collect()
    }

    /// **PSI** receiver, first half (§5.3 / §5.5): `elements` are cuckoo
    /// hashed against the sender's set. `payloads` is this party's view of
    /// the sender's payloads, one per sender element: its additive shares
    /// when `shared`, else only their count matters (the sender still
    /// knows them in the clear). Returns with the cuckoo table known and
    /// everything outbound staged, so a routing derived from the table can
    /// be staged ([`Session::oep_begin`]) before
    /// [`Session::psi_receiver_finish`] blocks.
    pub fn psi_receiver_begin(
        &mut self,
        elements: &[u64],
        payloads: &[u64],
        shared: bool,
    ) -> PsiReceiverPending {
        let (ch, ring) = (&mut *self.ch, self.ring);
        let (kkrt, ot, bank) = (&mut self.kkrt_recv, &mut self.ot_recv, &mut self.gc_eval);
        if shared {
            let (ot_send, rng) = (&mut self.ot_send, &mut self.rng);
            shared_payload_psi_receiver_begin(
                ch, elements, payloads, ring, kkrt, ot, ot_send, rng, bank,
            )
        } else {
            psi_receiver_begin(ch, elements, payloads.len(), ring, kkrt, ot, bank)
        }
    }

    /// **PSI** receiver, second half (receive-only): this party's shares
    /// of the matched payload, or of 0, per cuckoo bin.
    pub fn psi_receiver_finish(&mut self, pending: PsiReceiverPending) -> Vec<u64> {
        let ot = &mut self.ot_recv;
        psi_receiver_finish(self.ch, pending, self.ring, ot).payload_shares
    }

    /// **PSI** sender: `elements` (distinct) with one payload each —
    /// `payloads` holds this party's shares of them when `shared`, their
    /// clear values otherwise — against a receiver set of public size
    /// `receiver_size`. Returns this party's per-bin payload shares. The
    /// sender holds the KKRT key and garbles.
    pub fn psi_sender(
        &mut self,
        elements: &[u64],
        receiver_size: usize,
        payloads: &[u64],
        shared: bool,
    ) -> Vec<u64> {
        let (ch, ring, hasher) = (&mut *self.ch, self.ring, TweakHasher::Aes);
        let (kkrt, ot, rng) = (&mut self.kkrt_send, &mut self.ot_send, &mut self.rng);
        let bank = &mut self.gc_garble;
        let out = if shared {
            let ot_recv = &mut self.ot_recv;
            shared_payload_psi_sender(
                ch,
                elements,
                receiver_size,
                payloads,
                ring,
                kkrt,
                ot,
                ot_recv,
                rng,
                bank,
            )
        } else {
            let items: Vec<(u64, u64)> = elements
                .iter()
                .copied()
                .zip(payloads.iter().copied())
                .collect();
            psi_sender(ch, &items, receiver_size, ring, kkrt, ot, hasher, rng, bank)
        };
        out.payload_shares
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secyan_transport::run_protocol;

    #[test]
    fn sessions_pair_up() {
        // Setting up a session on both sides must not deadlock and leaves
        // the channel clean for subsequent traffic.
        let (a, b, _) = run_protocol(
            |ch| {
                let s = Session::new(ch, RingCtx::new(32), TweakHasher::default(), 1);
                s.role()
            },
            |ch| {
                let s = Session::new(ch, RingCtx::new(32), TweakHasher::default(), 2);
                s.role()
            },
        );
        assert_eq!(a, Role::Alice);
        assert_eq!(b, Role::Bob);
    }
}
