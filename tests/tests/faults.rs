//! Fault injection: a malfunctioning or malicious-looking transport must
//! surface as a *typed* [`ProtocolError`] — never a panic, never a hang,
//! and destructors (including the zeroize-on-drop `Secret` wrappers the
//! session keys live in) must still run on the error path.
//!
//! `secyan-transport`'s one injector (`faulted`) applies a `FaultPlan` to
//! the outgoing frames of either endpoint of any pair: truncation at a
//! chosen byte, split writes, reordered frames, an oversized length field,
//! a stalled wire and mid-protocol disconnects. The tests are one battery,
//! written once against a [`Wire`] and instantiated over both pipes — the
//! in-process one and a loopback TCP socket — and the pipe decides only
//! what it genuinely decides: a split write is a framing error in process
//! and benign on a socket, and a stall needs the socket's I/O deadline to
//! surface at all. A seed-driven sweep is part of it: every outcome must
//! be "correct result" or "typed error" — nothing else. See DESIGN.md §10.

use secyan_core::{secure_yannakakis, Session};
use secyan_crypto::TweakHasher;
use secyan_testkit::{
    oracle, run_secure, run_secure_on, try_run_secure_on, Instance, Run, SecureRun,
};
use secyan_transport::{
    channel_pair, faulted, tcp_channel_pair, try_run_protocol_on, Channel, FaultKind, FaultPlan,
    ProtocolError, ReadExt, Role, TransportError, WriteExt,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fixed instance the fault tests perturb: small enough to rerun
/// dozens of times, large enough that the protocol has a few thousand
/// messages to aim faults at.
fn victim() -> Instance {
    Instance::generate(1)
}

/// The per-run I/O deadline of faulted TCP runs: long enough for the clean
/// protocol (sub-second on loopback), short enough that a stalled wire
/// fails the run quickly instead of the test harness.
const TCP_FAULT_TIMEOUT: Duration = Duration::from_secs(2);

/// The two pipes the battery runs over.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Wire {
    InProcess,
    Tcp,
}

impl Wire {
    /// A fresh pair over this pipe.
    fn pair(self) -> (Channel, Channel) {
        match self {
            Wire::InProcess => channel_pair(),
            Wire::Tcp => {
                let (mut a, mut b) = tcp_channel_pair().expect("loopback TCP pair");
                a.set_io_timeout(Some(TCP_FAULT_TIMEOUT));
                b.set_io_timeout(Some(TCP_FAULT_TIMEOUT));
                (a, b)
            }
        }
    }

    /// The victim over a fresh pair of this pipe under `plan`.
    fn run(self, inst: &Instance, plan: &FaultPlan) -> Result<SecureRun, ProtocolError> {
        try_run_secure_on(inst, faulted(self.pair(), plan), Run::Single)
    }

    /// [`Wire::run`] where the only acceptable outcome is a typed error
    /// (any variant: the injected fault may surface directly at one party
    /// and cascade to the other as a peer disconnect — the root cause
    /// wins).
    fn typed_failure(self, inst: &Instance, plan: &FaultPlan) -> ProtocolError {
        match self.run(inst, plan) {
            Err(e) => {
                // Displaying the error must work (it feeds operator logs).
                let _ = e.to_string();
                e
            }
            Ok(_) => panic!("{plan:?}: protocol succeeded despite the injected fault"),
        }
    }
}

/// Instantiate every battery function once per pipe, as
/// `in_process::<name>` and `tcp::<name>`.
macro_rules! battery {
    ($($name:ident),* $(,)?) => {
        mod in_process {
            $(#[test] fn $name() { super::$name(super::Wire::InProcess) })*
        }
        mod tcp {
            $(#[test] fn $name() { super::$name(super::Wire::Tcp) })*
        }
    };
}

battery!(
    truncated_frame_yields_typed_error_at_every_phase,
    split_write_is_typed_in_process_and_benign_over_tcp,
    peer_disconnect_yields_typed_error_not_a_hang,
    oversized_declaration_yields_frame_too_large,
    reordered_frames_never_corrupt_or_hang,
    reordered_burst_yields_typed_error,
    reorder_delivers_in_order_when_the_conversation_turns_around,
    empty_fault_plan_is_transparent,
    seeded_fault_sweep_is_always_typed_or_correct,
    secrets_are_dropped_on_the_error_path,
);

/// Per-direction *wire frame* counts of a clean run, for placing faults
/// within the actual frame horizon. Faults index frames, and message
/// coalescing makes frames far scarcer than logical messages.
fn horizons(inst: &Instance) -> [(Role, u64); 2] {
    let clean = run_secure(inst);
    [
        (Role::Alice, clean.stats.frames_alice_to_bob),
        (Role::Bob, clean.stats.frames_bob_to_alice),
    ]
}

/// A write cut short at the first, a middle and the last frame of either
/// direction — inside the header, the sub-header and the payload —
/// surfaces as a typed error on both endpoints.
fn truncated_frame_yields_typed_error_at_every_phase(wire: Wire) {
    let inst = victim();
    for (dir, horizon) in horizons(&inst) {
        // First frame (OT bootstrap), mid-protocol, and the very last.
        for (index, keep) in [(0, 3), (horizon / 2, 10), (horizon - 1, 40)] {
            let kind = FaultKind::Truncate { keep };
            wire.typed_failure(&inst, &FaultPlan::single(dir, index, kind));
        }
    }
}

/// The in-process pipe hands each write over as a frame, so a split write
/// breaks the one-write-one-frame invariant and must surface typed. On a
/// real socket it is *benign*: the kernel reassembles the stream and the
/// pipe's exact-read loops span arbitrary write boundaries, so the run
/// must still produce the correct result.
fn split_write_is_typed_in_process_and_benign_over_tcp(wire: Wire) {
    let inst = victim();
    let expected = oracle(&inst);
    for (dir, horizon) in horizons(&inst) {
        for index in [1, horizon / 3] {
            let plan = FaultPlan::single(dir, index, FaultKind::SplitWrite);
            match wire {
                Wire::InProcess => drop(wire.typed_failure(&inst, &plan)),
                Wire::Tcp => {
                    let run = wire
                        .run(&inst, &plan)
                        .unwrap_or_else(|e| panic!("{plan:?} must be benign over TCP: {e}"));
                    assert_eq!(run.result, expected, "{plan:?} corrupted the result");
                }
            }
        }
    }
}

fn peer_disconnect_yields_typed_error_not_a_hang(wire: Wire) {
    let inst = victim();
    for (dir, horizon) in horizons(&inst) {
        for index in [0, horizon / 2] {
            wire.typed_failure(&inst, &FaultPlan::single(dir, index, FaultKind::Disconnect));
        }
    }
}

/// A header rewritten to declare more than the frame cap is rejected as
/// exactly that, before anything is allocated for it.
fn oversized_declaration_yields_frame_too_large(wire: Wire) {
    let inst = victim();
    for (dir, horizon) in horizons(&inst) {
        let plan = FaultPlan::single(dir, horizon / 2, FaultKind::Oversize);
        let e = wire.typed_failure(&inst, &plan);
        assert!(
            matches!(
                e,
                ProtocolError::Transport(TransportError::FrameTooLarge { .. })
            ),
            "{plan:?} surfaced as {e:?}"
        );
    }
}

/// Reordering only bites when the sender emits two frames back-to-back
/// (otherwise the held frame goes out in order the moment its sender turns
/// to receive). Coalescing makes same-direction wire bursts rare by
/// design — a party flushes when it is about to block on its peer — so a
/// reorder aimed at a coalesced run must *either* surface typed (a burst
/// existed at that index) or degrade to in-order delivery and a correct
/// result. Never a hang, never a wrong answer.
fn reordered_frames_never_corrupt_or_hang(wire: Wire) {
    let inst = victim();
    let expected = oracle(&inst);
    for (dir, horizon) in horizons(&inst) {
        for index in [0, horizon / 3, horizon / 2, horizon.saturating_sub(2)] {
            let plan = FaultPlan::single(dir, index, FaultKind::Reorder);
            match wire.run(&inst, &plan) {
                Ok(run) => assert_eq!(run.result, expected, "{plan:?} degraded to a WRONG result"),
                Err(e) => {
                    let _ = e.to_string();
                }
            }
        }
    }
}

/// A genuine same-direction frame burst (explicit `flush()` between two
/// sends) through the full runner: the reorder must be *detected* as a
/// typed sequence error, proving coalescing has not weakened the
/// wire-ordering check.
fn reordered_burst_yields_typed_error(wire: Wire) {
    let plan = FaultPlan::single(Role::Alice, 0, FaultKind::Reorder);
    let outcome = try_run_protocol_on(
        faulted(wire.pair(), &plan),
        |ch: &mut Channel| {
            ch.send_u64(1);
            ch.flush();
            ch.send_u64(2);
            ch.flush();
            ch.recv_u64()
        },
        |ch: &mut Channel| {
            let a = ch.recv_u64();
            let b = ch.recv_u64();
            ch.send_u64(a + b);
        },
    );
    let out_of_order = TransportError::OutOfOrder {
        expected: 0,
        got: 1,
    };
    assert!(
        matches!(&outcome, Err(ProtocolError::Transport(e)) if *e == out_of_order),
        "reordered burst must surface typed, got {outcome:?}"
    );
}

/// The mirror image: when the conversation turns around right after the
/// held frame, nothing overtakes it — it goes out in order as its sender
/// blocks on the reply, with no timer involved.
fn reorder_delivers_in_order_when_the_conversation_turns_around(wire: Wire) {
    let plan = FaultPlan::single(Role::Alice, 0, FaultKind::Reorder);
    let started = Instant::now();
    let (sum, (), _) = try_run_protocol_on(
        faulted(wire.pair(), &plan),
        |ch: &mut Channel| {
            ch.send_u64(20);
            ch.recv_u64()
        },
        |ch: &mut Channel| {
            let x = ch.recv_u64();
            ch.send_u64(x + 22);
        },
    )
    .unwrap_or_else(|e| panic!("a lone held frame must arrive in order: {e}"));
    assert_eq!(sum, 42);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "the held frame waited for something"
    );
}

/// A stalled wire — the sender's frames are swallowed so it never blocks
/// but the receiver starves — must fire the I/O deadline as a typed
/// `Timeout` within bounded time. Only a pair with a deadline can plan
/// this fault: the in-process pipe has no notion of time.
#[test]
fn stall_yields_typed_timeout_within_deadline() {
    let inst = victim();
    let [(dir, horizon), _] = horizons(&inst);
    let plan = FaultPlan::single(dir, horizon / 3, FaultKind::Stall);
    let started = Instant::now();
    let outcome = Wire::Tcp.run(&inst, &plan);
    let elapsed = started.elapsed();
    assert!(
        matches!(
            outcome,
            Err(ProtocolError::Transport(TransportError::Timeout { .. }))
        ),
        "stalled wire must surface as a typed timeout, got {outcome:?}"
    );
    assert!(
        elapsed < 5 * TCP_FAULT_TIMEOUT,
        "stall took {elapsed:?} to surface — the I/O deadline did not fire"
    );
}

/// The injector with nothing to inject is transparent, and composes with
/// recording: `FaultPlan::none()` applied to a recorded pair yields the
/// oracle's result, and meters and a transcript (each direction's messages
/// in program order; how the two interleave is scheduling) byte-identical
/// to the plain recorded pair's.
fn empty_fault_plan_is_transparent(wire: Wire) {
    let inst = victim();
    let plain = run_secure_on(&inst, wire.pair(), Run::Single);
    let run = wire
        .run(&inst, &FaultPlan::none())
        .expect("no faults injected, protocol must succeed");
    assert_eq!(run.result, oracle(&inst));
    assert_eq!(run.stats, plain.stats);
    assert!(run.stats.messages > 0);
    for dir in [Role::Alice, Role::Bob] {
        assert_eq!(run.sent_by(dir), plain.sent_by(dir), "{dir:?}");
    }
}

/// Seed-driven sweep: random fault plans over the real frame horizon.
/// Every outcome must be either the correct result (the fault degraded
/// harmlessly — a reorder outside a burst, a split write on a socket) or a
/// typed error. A hang fails via the test harness; a panic would fail the
/// test itself.
fn seeded_fault_sweep_is_always_typed_or_correct(wire: Wire) {
    let inst = victim();
    let expected = oracle(&inst);
    let [(_, a2b), (_, b2a)] = horizons(&inst);
    let horizon = a2b.max(b2a);
    let mut failures = 0;
    // Where the sweep's truncations cut: header, sub-header, payload.
    let mut cuts = [false; 3];
    for seed in 0..24 {
        let plan = FaultPlan::from_seed(seed, horizon);
        if let FaultKind::Truncate { keep } = plan.faults()[0].kind {
            cuts[usize::from(keep >= 8) + usize::from(keep >= 12)] = true;
        }
        match wire.run(&inst, &plan) {
            Ok(run) => assert_eq!(
                run.result,
                expected,
                "faulted run (fault seed {seed}) succeeded with a wrong result on {}",
                inst.describe()
            ),
            Err(e) => {
                let _ = e.to_string();
                failures += 1;
            }
        }
    }
    // The sweep is only meaningful if a healthy share of plans actually
    // disrupt the run (truncate/disconnect/oversize within the horizon
    // always should) and the truncations reach every part of a frame.
    assert!(
        failures >= 8,
        "only {failures}/24 seeded fault plans disrupted the protocol"
    );
    assert_eq!(
        cuts, [true; 3],
        "truncation cuts (header, sub-header, payload)"
    );
}

/// Guard object standing in for any secret state a party holds on its
/// stack: its destructor must run when the protocol dies with a typed
/// error, because that is the exact mechanism (`Drop`) the
/// `secyan-crypto::Secret` zeroize-on-drop wrappers rely on.
struct ZeroizeCanary(Arc<AtomicBool>);

impl Drop for ZeroizeCanary {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Secrets are still dropped (and therefore zeroized) on the error path,
/// whatever carries the frames: a canary held across `secure_yannakakis`
/// by each party must have its destructor run even when a mid-protocol
/// disconnect kills the run.
fn secrets_are_dropped_on_the_error_path(wire: Wire) {
    let inst = victim();
    let query = inst.query();
    let ring = inst.ring_ctx();
    let plan = FaultPlan::single(Role::Alice, 4, FaultKind::Disconnect);
    let dropped = [(); 2].map(|()| Arc::new(AtomicBool::new(false)));
    let party = |seed: u64, flag: &Arc<AtomicBool>| {
        let (inst, query, flag) = (&inst, &query, Arc::clone(flag));
        move |ch: &mut Channel| {
            let canary = ZeroizeCanary(flag);
            let rels = inst.party_relations(ch.role());
            let mut sess = Session::new(ch, ring, TweakHasher::default(), seed);
            secure_yannakakis(&mut sess, query, &rels, Role::Alice);
            drop(canary);
        }
    };
    let outcome = try_run_protocol_on(
        faulted(wire.pair(), &plan),
        party(11, &dropped[0]),
        party(12, &dropped[1]),
    );
    assert!(
        matches!(outcome, Err(ProtocolError::Transport(_))),
        "disconnect must surface as a typed transport error, got {outcome:?}"
    );
    for (who, flag) in ["alice", "bob"].iter().zip(&dropped) {
        assert!(
            flag.load(Ordering::SeqCst),
            "{who}'s secret state was leaked (not dropped) on the error path"
        );
    }
}
