//! Run a two-party protocol: both parties as real threads.
//!
//! One body ([`try_run_protocol_on`]) runs every pair: each party's closure
//! on its own thread, typed [`ProtocolError`] unwinds raised by the channel
//! layer (or by protocol validation via [`ProtocolError::malformed`]) caught
//! and returned as `Err`, any other panic — a genuine bug — re-raised. When
//! one party fails, its channel endpoint is dropped, which unblocks the
//! peer with a typed [`TransportError::PeerClosed`] — so a single fault
//! terminates both parties without deadlock, and the error reported is the
//! root cause, not that cascade.
//!
//! * `try_run_protocol*` return that `Result` — the fault-tolerant session
//!   boundary.
//! * `run_protocol*` are the same call for callers that expect success: a
//!   typed failure is re-raised as the root cause's unwind.
//! * The `*_on` forms take the channel pair from the caller (a socket pair
//!   from [`crate::tcp_channel_pair`], either pair [`recorded`] or
//!   [`crate::faulted`]); the others run on a fresh [`channel_pair`].

use crate::channel::{channel_pair, recorded, Channel, CommStats, TranscriptHandle};
use crate::error::{try_downcast_panic, ProtocolError, TransportError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;

/// Execute a two-party protocol and return `(alice_output, bob_output, stats)`.
///
/// Each closure receives its endpoint of a fresh metered channel. Both run
/// concurrently on their own OS threads, exactly like the two machines in
/// the paper's experiments (minus the network latency). A panic in either
/// party propagates to the caller; a typed failure propagates as the
/// unwind of its root cause (see [`try_run_protocol`]).
pub fn run_protocol<FA, FB, RA, RB>(alice: FA, bob: FB) -> (RA, RB, CommStats)
where
    FA: FnOnce(&mut Channel) -> RA + Send,
    FB: FnOnce(&mut Channel) -> RB + Send,
    RA: Send,
    RB: Send,
{
    run_protocol_on(channel_pair(), alice, bob)
}

/// Like [`run_protocol`], but over a caller-supplied channel pair — e.g. a
/// socket-backed loopback pair from [`crate::tcp_channel_pair`], or a
/// [`recorded`] one. The TCP test battery uses this to run the exact
/// protocol closures the in-process runners take, over a real wire.
pub fn run_protocol_on<FA, FB, RA, RB>(
    pair: (Channel, Channel),
    alice: FA,
    bob: FB,
) -> (RA, RB, CommStats)
where
    FA: FnOnce(&mut Channel) -> RA + Send,
    FB: FnOnce(&mut Channel) -> RB + Send,
    RA: Send,
    RB: Send,
{
    try_run_protocol_on(pair, alice, bob).unwrap_or_else(|e| e.raise())
}

/// Like [`run_protocol`], but on a [`recorded`] pair; the
/// [`TranscriptHandle`] is returned alongside the outputs. Determinism
/// tests compare these transcripts across runs.
pub fn run_protocol_captured<FA, FB, RA, RB>(
    alice: FA,
    bob: FB,
) -> (RA, RB, CommStats, TranscriptHandle)
where
    FA: FnOnce(&mut Channel) -> RA + Send,
    FB: FnOnce(&mut Channel) -> RB + Send,
    RA: Send,
    RB: Send,
{
    let (pair, handle) = recorded(channel_pair());
    let (ra, rb, stats) = run_protocol_on(pair, alice, bob);
    (ra, rb, stats, handle)
}

/// Execute a two-party protocol on a fresh [`channel_pair`], catching
/// typed failures (see [`try_run_protocol_on`]).
pub fn try_run_protocol<FA, FB, RA, RB>(
    alice: FA,
    bob: FB,
) -> Result<(RA, RB, CommStats), ProtocolError>
where
    FA: FnOnce(&mut Channel) -> RA + Send,
    FB: FnOnce(&mut Channel) -> RB + Send,
    RA: Send,
    RB: Send,
{
    try_run_protocol_on(channel_pair(), alice, bob)
}

/// Execute a two-party protocol over `pair`, catching typed failures.
///
/// Returns `Err` with a typed [`ProtocolError`] when either party fails;
/// secrets held by the failing party are dropped (and zeroized) during
/// its unwind. When both parties fail, the root cause is preferred: a
/// [`TransportError::PeerClosed`] is usually the *cascade* of the peer's
/// own unwind (dropping its endpoint closes the wires), so a
/// non-`PeerClosed` error from either side wins over a `PeerClosed` from
/// the other; ties keep Alice's error. Non-typed panics are genuine bugs
/// and propagate. The fault tests drive sessions through
/// [`crate::faulted`] pairs here and get the same typed, hang-free
/// reporting on every transport.
pub fn try_run_protocol_on<FA, FB, RA, RB>(
    pair: (Channel, Channel),
    alice: FA,
    bob: FB,
) -> Result<(RA, RB, CommStats), ProtocolError>
where
    FA: FnOnce(&mut Channel) -> RA + Send,
    FB: FnOnce(&mut Channel) -> RB + Send,
    RA: Send,
    RB: Send,
{
    let (mut ca, mut cb) = pair;
    thread::scope(|s| {
        let hb = s.spawn(move || {
            let out = catch_unwind(AssertUnwindSafe(|| bob(&mut cb)));
            // Ship anything Bob staged but never flushed (no-op after an
            // unwind that already flushed, harmless if the peer is gone) so
            // the stats snapshot includes every super-round.
            let _ = cb.try_flush();
            let stats = cb.stats();
            // Dropping Bob's endpoint closes both wires from his side, so
            // an Alice blocked in recv/send unwinds with PeerClosed instead
            // of hanging.
            drop(cb);
            (out, stats)
        });
        let ra = catch_unwind(AssertUnwindSafe(|| alice(&mut ca)));
        let _ = ca.try_flush();
        // Symmetrically unblock Bob before joining him.
        drop(ca);
        let (rb, stats) = hb.join().expect("bob runner thread itself panicked");
        // Re-raise any non-typed panic first: a real bug must not be masked
        // by the peer's typed cascade error.
        match (ra.map_err(typed_or_resume), rb.map_err(typed_or_resume)) {
            (Ok(ra), Ok(rb)) => Ok((ra, rb, stats)),
            (Err(ea), Err(eb)) => Err(root_cause(ea, eb)),
            (Err(e), Ok(_)) | (Ok(_), Err(e)) => Err(e),
        }
    })
}

/// Run one party's protocol body, converting typed [`ProtocolError`]
/// unwinds into `Err` while re-raising anything else. This is the
/// single-endpoint analogue of [`try_run_protocol`] for party-per-process
/// deployments (`secyan-server` session threads, `secyan-client`): each
/// process holds only its own [`Channel`], so the session boundary lives
/// here instead of around a thread pair.
pub fn catch_protocol<R>(body: impl FnOnce() -> R) -> Result<R, ProtocolError> {
    catch_unwind(AssertUnwindSafe(body)).map_err(typed_or_resume)
}

/// The typed error a caught unwind carried; any other payload is a genuine
/// bug and resumes unwinding.
fn typed_or_resume(payload: Box<dyn std::any::Any + Send>) -> ProtocolError {
    try_downcast_panic(payload).unwrap_or_else(|bug| std::panic::resume_unwind(bug))
}

/// Pick the diagnostic root cause when both parties fail: the party that
/// detected the fault raises a specific error (Malformed, Truncated, …)
/// while its peer unwinds with a cascade `PeerClosed` once the failing
/// endpoint drops, so a non-`PeerClosed` error wins regardless of which
/// side raised it. Ties (both specific, or both cascades) keep Alice's.
fn root_cause(alice: ProtocolError, bob: ProtocolError) -> ProtocolError {
    let is_cascade = |e: &ProtocolError| {
        matches!(
            e,
            ProtocolError::Transport(TransportError::PeerClosed { .. })
        )
    };
    if is_cascade(&alice) && !is_cascade(&bob) {
        bob
    } else {
        alice
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{ReadExt, WriteExt};

    #[test]
    fn two_party_sum() {
        // Toy protocol: Alice sends x, Bob replies with x + y.
        let (a, b, stats) = run_protocol(
            |ch| {
                ch.send_u64(20);
                ch.recv_u64()
            },
            |ch| {
                let x = ch.recv_u64();
                ch.send_u64(x + 22);
                x
            },
        );
        assert_eq!(a, 42);
        assert_eq!(b, 20);
        assert_eq!(stats.total_bytes(), 16);
        assert_eq!(stats.rounds, 2);
    }

    #[test]
    #[should_panic]
    fn party_panic_propagates() {
        run_protocol(|_| panic!("alice exploded"), |_| ());
    }

    #[test]
    fn try_run_protocol_happy_path() {
        let out = try_run_protocol(
            |ch| {
                ch.send_u64(1);
                ch.recv_u64()
            },
            |ch| {
                let x = ch.recv_u64();
                ch.send_u64(x + 1);
            },
        );
        let (a, (), stats) = out.expect("clean run");
        assert_eq!(a, 2);
        assert_eq!(stats.total_bytes(), 16);
    }

    #[test]
    fn typed_unwind_becomes_err_and_unblocks_peer() {
        // Alice raises a typed error while Bob is blocked waiting for her
        // message; Bob must terminate via PeerClosed, not hang, and the
        // caller must see Alice's root cause, not Bob's cascade.
        let out = try_run_protocol(
            |_ch: &mut Channel| -> u64 {
                ProtocolError::malformed("alice rejected peer input");
            },
            |ch: &mut Channel| ch.recv_u64(),
        );
        match out.unwrap_err() {
            ProtocolError::Malformed { context } => {
                assert!(context.contains("alice rejected"));
            }
            other => panic!("cascade masked the root cause: {other:?}"),
        }
    }

    #[test]
    fn bobs_root_cause_preferred_over_alices_cascade() {
        // Mirror image: Bob detects the fault while Alice blocks on recv
        // and unwinds with a cascade PeerClosed. The caller must still see
        // Bob's Malformed, not Alice's PeerClosed.
        let out = try_run_protocol(
            |ch: &mut Channel| ch.recv_u64(),
            |_ch: &mut Channel| -> u64 {
                ProtocolError::malformed("bob rejected declared size");
            },
        );
        match out.unwrap_err() {
            ProtocolError::Malformed { context } => {
                assert!(context.contains("bob rejected"));
            }
            other => panic!("cascade masked the root cause: {other:?}"),
        }
    }

    #[test]
    fn plain_runner_raises_the_root_cause() {
        // Same fault through the plain runner: the unwind that reaches the
        // caller must carry Bob's Malformed, not Alice's cascade PeerClosed.
        let payload = catch_unwind(AssertUnwindSafe(|| {
            run_protocol(
                |ch: &mut Channel| ch.recv_u64(),
                |_ch: &mut Channel| -> u64 {
                    ProtocolError::malformed("bob rejected declared size");
                },
            )
        }))
        .expect_err("the run must unwind");
        match payload.downcast::<ProtocolError>() {
            Ok(e) => assert!(
                matches!(*e, ProtocolError::Malformed { .. }),
                "cascade masked the root cause: {e:?}"
            ),
            Err(_) => panic!("payload is not a ProtocolError"),
        }
    }

    #[test]
    #[should_panic(expected = "genuine bug")]
    fn foreign_panic_still_propagates_from_try_runner() {
        let _ = try_run_protocol(
            |_ch: &mut Channel| -> () { panic!("genuine bug") },
            |_ch: &mut Channel| (),
        );
    }
}
