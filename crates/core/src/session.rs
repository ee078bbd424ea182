//! Per-party protocol session state.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secyan_circuit::Circuit;
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_gc::{
    evaluate_banked, evaluate_shared_banked, garble_banked, garble_shared_banked, EvalMaterial,
    GarbleMaterial, OutputMode, SharedOutputSpec,
};
use secyan_ot::{KkrtReceiver, KkrtSender, OtReceiver, OtSender};
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
/// channel, the annotation ring, the garbling hash, a CSPRNG, and both
/// directions of OT extension and KKRT OPRF (bootstrapped once here, then
/// amortized over every operator, as the paper's cost model assumes).
pub struct Session<'a> {
    pub ch: &'a mut Channel,
    pub ring: RingCtx,
    pub hasher: TweakHasher,
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
    /// Set up a session. Both parties must call this with the same `ring`
    /// and `hasher`; the base-OT bootstraps interleave in a fixed
    /// role-dependent order so the two sides pair correctly.
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
            |(ch, rng)| KkrtSender::setup(ch, rng, hasher),
            |(ch, rng)| KkrtReceiver::setup(ch, rng, hasher),
        );
        Session {
            ch,
            ring,
            hasher,
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

    /// Convenience: a fresh random ring element.
    pub fn random_ring(&mut self) -> u64 {
        self.ring.random(&mut self.rng)
    }

    /// Convenience: a fresh random u64 (dummy keys etc.).
    pub fn random_u64(&mut self) -> u64 {
        self.rng.gen()
    }

    /// Garble `circuit`, consuming pre-garbled offline material when the
    /// front of the plan matches (by circuit digest), else inline.
    ///
    /// The pooled-vs-inline decision is symmetric across the two parties:
    /// both plan the same public circuit sequence offline, so their deque
    /// fronts carry the same digest and both fall back together when the
    /// online driver runs a circuit the plan did not foresee (e.g. the
    /// data-dependent full-join product tree).
    pub fn garble(
        &mut self,
        circuit: &Circuit,
        my_inputs: &[bool],
        mode: OutputMode,
    ) -> Option<Vec<bool>> {
        garble_banked(
            self.ch,
            &mut self.gc_garble,
            circuit,
            my_inputs,
            &mut self.ot_send,
            self.hasher,
            &mut self.rng,
            mode,
        )
    }

    /// Evaluate `circuit`, consuming pre-received tables when the front of
    /// the plan matches (see [`Session::garble`] for the symmetry
    /// argument).
    pub fn evaluate(
        &mut self,
        circuit: &Circuit,
        my_inputs: &[bool],
        mode: OutputMode,
    ) -> Option<Vec<bool>> {
        evaluate_banked(
            self.ch,
            &mut self.gc_eval,
            circuit,
            my_inputs,
            &mut self.ot_recv,
            self.hasher,
            mode,
        )
    }

    /// Shared-output garbling through the offline plan (see
    /// [`Session::garble`]).
    pub fn garble_shared(
        &mut self,
        circuit: &Circuit,
        spec: &SharedOutputSpec,
        my_inputs: &[bool],
    ) -> Vec<u64> {
        garble_shared_banked(
            self.ch,
            &mut self.gc_garble,
            circuit,
            spec,
            my_inputs,
            &mut self.ot_send,
            self.hasher,
            &mut self.rng,
        )
    }

    /// Shared-output evaluation through the offline plan (see
    /// [`Session::evaluate`]).
    pub fn evaluate_shared(
        &mut self,
        circuit: &Circuit,
        spec: &SharedOutputSpec,
        my_inputs: &[bool],
    ) -> Vec<u64> {
        evaluate_shared_banked(
            self.ch,
            &mut self.gc_eval,
            circuit,
            spec,
            my_inputs,
            &mut self.ot_recv,
            self.hasher,
        )
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
