//! Fault injection: a malfunctioning or malicious-looking transport must
//! surface as a *typed* [`ProtocolError`] — never a panic, never a hang,
//! and destructors (including the zeroize-on-drop `Secret` wrappers the
//! session keys live in) must still run on the error path.
//!
//! The `FaultChannel` relay in `secyan-transport` injects four fault
//! classes deterministically: truncated messages, split writes, reordered
//! flushes within a round, and mid-protocol peer disconnects. Each class
//! gets a dedicated test here, plus a seed-driven sweep where every
//! outcome must be "correct result" or "typed error" — nothing else.
//! See DESIGN.md §10.

use secyan_core::{secure_yannakakis, Session};
use secyan_crypto::TweakHasher;
use secyan_testkit::{
    oracle, run_secure, run_secure_tcp_proxied, run_secure_with_faults, Instance,
};
use secyan_transport::{
    fault_channel_pair, tcp_pair_from_streams, try_run_protocol_on, FaultKind, FaultPlan,
    ProtocolError, Role, TcpFault, TcpFaultKind, TcpFaultProxy,
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

/// Per-direction *wire frame* counts of a clean run, for placing faults
/// within the actual frame horizon. Faults index frames, and message
/// coalescing makes frames far scarcer than logical messages.
fn horizons(inst: &Instance) -> (u64, u64) {
    let clean = run_secure(inst);
    (
        clean.stats.frames_alice_to_bob,
        clean.stats.frames_bob_to_alice,
    )
}

/// Assert the outcome of a faulted run is a typed error (any variant:
/// the injected fault may surface directly at one party and cascade to
/// the other as a peer disconnect — whichever party fails first wins).
fn assert_typed_failure(inst: &Instance, plan: FaultPlan, what: &str) {
    match run_secure_with_faults(inst, &plan) {
        Err(e) => {
            // Displaying the error must work (it feeds operator logs).
            let _ = e.to_string();
        }
        Ok(_) => panic!("{what}: protocol succeeded despite the injected fault"),
    }
}

#[test]
fn truncated_message_yields_typed_error_at_every_phase() {
    let inst = victim();
    let (a2b, b2a) = horizons(&inst);
    for (dir, horizon) in [(Role::Alice, a2b), (Role::Bob, b2a)] {
        // First message (OT bootstrap), mid-protocol, and near the end.
        for index in [0, horizon / 2, horizon.saturating_sub(2)] {
            assert_typed_failure(
                &inst,
                FaultPlan::single(dir, index, FaultKind::Truncate),
                &format!("truncate {dir:?} message {index}"),
            );
        }
    }
}

#[test]
fn split_write_yields_typed_error() {
    let inst = victim();
    let (a2b, b2a) = horizons(&inst);
    for (dir, horizon) in [(Role::Alice, a2b), (Role::Bob, b2a)] {
        for index in [1, horizon / 3] {
            assert_typed_failure(
                &inst,
                FaultPlan::single(dir, index, FaultKind::SplitWrite),
                &format!("split-write {dir:?} message {index}"),
            );
        }
    }
}

#[test]
fn peer_disconnect_yields_typed_error_not_a_hang() {
    let inst = victim();
    let (a2b, b2a) = horizons(&inst);
    for (dir, horizon) in [(Role::Alice, a2b), (Role::Bob, b2a)] {
        for index in [0, horizon / 2] {
            assert_typed_failure(
                &inst,
                FaultPlan::single(dir, index, FaultKind::Disconnect),
                &format!("disconnect {dir:?} after message {index}"),
            );
        }
    }
}

/// Reordering only bites when the sender emits two frames back-to-back
/// (otherwise the relay's flush timeout degrades it to in-order
/// delivery). Coalescing makes same-direction wire bursts rare by
/// design — a party flushes when it is about to block on its peer — so a
/// reorder aimed at a coalesced run must *either* surface typed (a burst
/// existed at that index) or degrade to in-order delivery and a correct
/// result. Never a hang, never a wrong answer.
#[test]
fn reordered_frames_never_corrupt_or_hang() {
    let inst = victim();
    let expected = oracle(&inst);
    let (a2b, b2a) = horizons(&inst);
    for (dir, horizon) in [(Role::Alice, a2b), (Role::Bob, b2a)] {
        for index in [0, horizon / 3, horizon / 2, horizon.saturating_sub(2)] {
            match run_secure_with_faults(&inst, &FaultPlan::single(dir, index, FaultKind::Reorder))
            {
                Ok((rows, _)) => assert_eq!(
                    rows, expected,
                    "reorder {dir:?} frame {index} degraded to a WRONG result"
                ),
                Err(e) => {
                    let _ = e.to_string();
                }
            }
        }
    }
}

/// A genuine same-direction frame burst (explicit `flush()` between two
/// sends) through the full runner + relay: the reorder must be *detected*
/// as a typed sequence error, proving coalescing has not weakened the
/// wire-ordering check.
#[test]
fn reordered_burst_yields_typed_error() {
    use secyan_transport::{Channel, ReadExt, WriteExt};
    let plan = FaultPlan::single(Role::Alice, 0, FaultKind::Reorder);
    let outcome = try_run_protocol_on(
        fault_channel_pair(&plan),
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
            0u64
        },
    );
    assert!(
        matches!(outcome, Err(ProtocolError::Transport(_))),
        "reordered burst must surface typed, got {outcome:?}"
    );
}

/// Seed-driven sweep: random fault plans over the real frame horizon.
/// Every outcome must be either the correct result (the fault degraded
/// harmlessly — e.g. a reorder outside a burst) or a typed error. A hang
/// fails via the test harness; a panic would fail the test itself.
#[test]
fn seeded_fault_sweep_is_always_typed_or_correct() {
    let inst = victim();
    let expected = oracle(&inst);
    let (a2b, b2a) = horizons(&inst);
    let horizon = a2b.max(b2a);
    let mut failures = 0;
    for seed in 0..24 {
        match run_secure_with_faults(&inst, &FaultPlan::from_seed(seed, horizon)) {
            Ok((rows, _)) => assert_eq!(
                rows,
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
    // disrupt the run (truncate/split/disconnect within the horizon
    // always should).
    assert!(
        failures >= 8,
        "only {failures}/24 seeded fault plans disrupted the protocol"
    );
}

/// An unfaulted run through the fault harness is transparent: same
/// result as the oracle, `Ok` outcome.
#[test]
fn empty_fault_plan_is_transparent() {
    let inst = victim();
    let (rows, stats) = run_secure_with_faults(&inst, &FaultPlan::none())
        .expect("no faults injected, protocol must succeed");
    assert_eq!(rows, oracle(&inst));
    assert!(stats.messages > 0);
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

/// Secrets are still dropped (and therefore zeroized) on the error path:
/// a canary held across `secure_yannakakis` by each party must have its
/// destructor run even when a mid-protocol disconnect kills the run.
#[test]
fn secrets_are_dropped_on_the_error_path() {
    let inst = victim();
    let query = inst.query();
    let (qa, qb) = (query.clone(), query);
    let ra = inst.party_relations(Role::Alice);
    let rb = inst.party_relations(Role::Bob);
    let ring = inst.ring_ctx();
    let alice_dropped = Arc::new(AtomicBool::new(false));
    let bob_dropped = Arc::new(AtomicBool::new(false));
    let (ac, bc) = (alice_dropped.clone(), bob_dropped.clone());
    let plan = FaultPlan::single(Role::Alice, 4, FaultKind::Disconnect);
    let outcome = try_run_protocol_on(
        fault_channel_pair(&plan),
        move |ch| {
            let canary = ZeroizeCanary(ac);
            let mut sess = Session::new(ch, ring, TweakHasher::default(), 11);
            secure_yannakakis(&mut sess, &qa, &ra, Role::Alice);
            drop(canary);
        },
        move |ch| {
            let canary = ZeroizeCanary(bc);
            let mut sess = Session::new(ch, ring, TweakHasher::default(), 12);
            secure_yannakakis(&mut sess, &qb, &rb, Role::Alice);
            drop(canary);
        },
    );
    assert!(
        matches!(outcome, Err(ProtocolError::Transport(_))),
        "disconnect must surface as a typed transport error, got {outcome:?}"
    );
    assert!(
        alice_dropped.load(Ordering::SeqCst),
        "alice's secret state was leaked (not dropped) on the error path"
    );
    assert!(
        bob_dropped.load(Ordering::SeqCst),
        "bob's secret state was leaked (not dropped) on the error path"
    );
}

// ---------------------------------------------------------------------------
// The same fault battery over a real TCP socket, injected byte-exactly by
// the `TcpFaultProxy` man-in-the-middle instead of the mpsc relay.
// ---------------------------------------------------------------------------

/// Per-direction *wire byte* horizons of a clean run: the TCP proxy
/// triggers at byte offsets, and each direction's socket carries the
/// logical payload plus an 8-byte header per frame and a 4-byte
/// sub-header per coalesced message.
fn wire_horizons(inst: &Instance) -> (u64, u64) {
    let s = run_secure(inst).stats;
    (
        s.bytes_alice_to_bob + 8 * s.frames_alice_to_bob + 4 * s.messages_alice_to_bob,
        s.bytes_bob_to_alice + 8 * s.frames_bob_to_alice + 4 * s.messages_bob_to_alice,
    )
}

/// The per-run I/O deadline for faulted TCP runs: long enough for the
/// clean protocol (sub-second on loopback), short enough that a stalled
/// wire fails the run quickly instead of the test harness.
const TCP_FAULT_TIMEOUT: Duration = Duration::from_secs(2);

/// A write truncated mid-frame on the wire — early in the bootstrap,
/// mid-protocol, and just before the end — surfaces as a typed error on
/// both endpoints, never a hang.
#[test]
fn tcp_truncation_yields_typed_error_at_every_phase() {
    let inst = victim();
    let (a2b, b2a) = wire_horizons(&inst);
    for (dir, horizon) in [(Role::Alice, a2b), (Role::Bob, b2a)] {
        // Offset 12 lands inside the first frame's payload (after its
        // 8-byte header), so the receiver sees a short frame, not EOF@0.
        for offset in [12, horizon / 2, horizon - 16] {
            match run_secure_tcp_proxied(
                &inst,
                Some(TcpFault {
                    dir,
                    after_bytes: offset,
                    kind: TcpFaultKind::Truncate,
                }),
                TCP_FAULT_TIMEOUT,
            ) {
                Err(e) => {
                    let _ = e.to_string();
                }
                Ok(_) => panic!(
                    "truncating {dir:?}'s wire at byte {offset} did not \
                     disrupt the TCP run"
                ),
            }
        }
    }
}

/// Split writes are *benign* on a real socket: the kernel reassembles the
/// stream and the pipe's exact-read loops span arbitrary write boundaries,
/// so a wire chopped into 3-byte delayed pieces must still produce the
/// correct result. (The mpsc relay had to model a split as an error; TCP
/// is exactly the transport where it is not one.)
#[test]
fn tcp_split_writes_are_benign() {
    let inst = victim();
    let expected = oracle(&inst);
    let (a2b, b2a) = wire_horizons(&inst);
    // Trigger near the end of each stream so the splitting (deliberately
    // slow: tiny chunks with sleeps) covers the tail, not megabytes.
    for (dir, offset) in [
        (Role::Alice, a2b.saturating_sub(600)),
        (Role::Bob, b2a.saturating_sub(600)),
    ] {
        let (rows, _) = run_secure_tcp_proxied(
            &inst,
            Some(TcpFault {
                dir,
                after_bytes: offset,
                kind: TcpFaultKind::SplitWrite,
            }),
            secyan_transport::DEFAULT_IO_TIMEOUT,
        )
        .unwrap_or_else(|e| {
            panic!("split writes on {dir:?}'s wire at byte {offset} must be benign over TCP: {e}")
        });
        assert_eq!(rows, expected, "split writes corrupted the result");
    }
}

/// A stalled wire — the proxy swallows bytes so the sender never blocks
/// but the receiver starves — must fire the receiver's I/O deadline as a
/// typed error within bounded time. This fault class only a real socket
/// can express: the in-process relay has no notion of time.
#[test]
fn tcp_stall_yields_typed_timeout_within_deadline() {
    let inst = victim();
    let (a2b, _) = wire_horizons(&inst);
    let started = Instant::now();
    let outcome = run_secure_tcp_proxied(
        &inst,
        Some(TcpFault {
            dir: Role::Alice,
            after_bytes: a2b / 3,
            kind: TcpFaultKind::Stall,
        }),
        TCP_FAULT_TIMEOUT,
    );
    let elapsed = started.elapsed();
    assert!(
        matches!(outcome, Err(ProtocolError::Transport(_))),
        "stalled wire must surface as a typed transport error, got {outcome:?}"
    );
    assert!(
        elapsed < Duration::from_secs(30),
        "stall took {elapsed:?} to surface — the I/O deadline did not fire"
    );
}

/// A mid-frame connection loss (both directions torn down at once) at the
/// very start and mid-protocol: typed on both endpoints.
#[test]
fn tcp_disconnect_yields_typed_error_not_a_hang() {
    let inst = victim();
    let (a2b, _) = wire_horizons(&inst);
    for offset in [0, a2b / 2] {
        match run_secure_tcp_proxied(
            &inst,
            Some(TcpFault {
                dir: Role::Alice,
                after_bytes: offset,
                kind: TcpFaultKind::Disconnect,
            }),
            TCP_FAULT_TIMEOUT,
        ) {
            Err(e) => {
                let _ = e.to_string();
            }
            Ok(_) => panic!("disconnect at wire byte {offset} did not disrupt the TCP run"),
        }
    }
}

/// An unfaulted run through the TCP proxy is transparent.
#[test]
fn tcp_transparent_proxy_is_clean() {
    let inst = victim();
    let (rows, stats) = run_secure_tcp_proxied(&inst, None, secyan_transport::DEFAULT_IO_TIMEOUT)
        .expect("no fault injected, TCP run must succeed");
    assert_eq!(rows, oracle(&inst));
    assert!(stats.messages > 0);
}

/// Secrets are dropped (zeroized) on the error path when the transport is
/// a real socket: a canary held across `secure_yannakakis` on each
/// endpoint must have its destructor run when a mid-protocol TCP
/// disconnect kills the run.
#[test]
fn tcp_secrets_are_dropped_on_the_error_path() {
    let inst = victim();
    let query = inst.query();
    let (qa, qb) = (query.clone(), query);
    let ra = inst.party_relations(Role::Alice);
    let rb = inst.party_relations(Role::Bob);
    let ring = inst.ring_ctx();
    let (a2b, _) = wire_horizons(&inst);
    let alice_dropped = Arc::new(AtomicBool::new(false));
    let bob_dropped = Arc::new(AtomicBool::new(false));
    let (ac, bc) = (alice_dropped.clone(), bob_dropped.clone());

    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("loopback listener");
    let upstream = listener.local_addr().expect("listener addr");
    let proxy = TcpFaultProxy::spawn(
        upstream,
        Some(TcpFault {
            dir: Role::Alice,
            after_bytes: a2b / 2,
            kind: TcpFaultKind::Disconnect,
        }),
    )
    .expect("fault proxy");
    let alice_stream = std::net::TcpStream::connect(proxy.addr()).expect("connect via proxy");
    let (bob_stream, _) = listener.accept().expect("accept");
    let (mut ca, mut cb) = tcp_pair_from_streams(alice_stream, bob_stream).expect("TCP pair");
    ca.set_io_timeout(Some(TCP_FAULT_TIMEOUT));
    cb.set_io_timeout(Some(TCP_FAULT_TIMEOUT));
    let outcome = try_run_protocol_on(
        (ca, cb),
        move |ch| {
            let canary = ZeroizeCanary(ac);
            let mut sess = Session::new(ch, ring, TweakHasher::default(), 11);
            secure_yannakakis(&mut sess, &qa, &ra, Role::Alice);
            drop(canary);
        },
        move |ch| {
            let canary = ZeroizeCanary(bc);
            let mut sess = Session::new(ch, ring, TweakHasher::default(), 12);
            secure_yannakakis(&mut sess, &qb, &rb, Role::Alice);
            drop(canary);
        },
    );
    drop(proxy);
    assert!(
        matches!(outcome, Err(ProtocolError::Transport(_))),
        "TCP disconnect must surface as a typed transport error, got {outcome:?}"
    );
    assert!(
        alice_dropped.load(Ordering::SeqCst),
        "alice's secret state was leaked (not dropped) on the TCP error path"
    );
    assert!(
        bob_dropped.load(Ordering::SeqCst),
        "bob's secret state was leaked (not dropped) on the TCP error path"
    );
}
