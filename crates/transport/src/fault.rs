//! Deterministic fault injection for the two-party transport.
//!
//! [`faulted`] puts both endpoints of any pair — in-process or socket —
//! under one injector: a wrapper around the endpoint's pipe that forwards
//! its outgoing frames verbatim except where a [`FaultPlan`] tells it to
//! misbehave, modelling the network failures a real deployment would see:
//! truncated writes, writes split across packets, reordering inside a
//! round, an oversized length field, a stalled wire and a peer vanishing
//! mid-protocol. The injector runs inside the sender's own `send_frame`,
//! so it needs no thread and no timer. Plans are plain data — built
//! explicitly with [`FaultPlan::single`] or derived from a seed with
//! [`FaultPlan::from_seed`] — so every injected fault is exactly
//! reproducible.
//!
//! The contract under test: every injected fault must surface as a typed
//! [`crate::ProtocolError`] from [`crate::try_run_protocol_on`] over the
//! faulty pair — no panic escaping the runner, no deadlock, and drop-time
//! zeroization of secret material still performed on the unwind path.

use crate::channel::{Channel, Pipe, Role, HEADER, MAX_FRAME_SIZE, SUB_HEADER};
use crate::error::TransportError;
use std::time::Duration;

/// The classes of transport misbehaviour the injector can apply to a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Deliver only the first `keep` bytes of the frame (at most all but
    /// its last), then close the direction — a connection dying mid-write.
    /// Counting from the start of the frame, bytes 0–7 are its header,
    /// 8–11 the first message's sub-header, the rest payload.
    Truncate { keep: usize },
    /// Deliver the frame as two separate writes. The in-process pipe hands
    /// each write over as a frame, violating the one-write-one-frame
    /// invariant the receiver checks; a socket reassembles the stream, so
    /// there the fault is benign.
    SplitWrite,
    /// Hold the frame and deliver its successor first — reordering inside
    /// a round. If the endpoint turns to receive (or drops) before sending
    /// a successor, the held frame goes out in order after all.
    Reorder,
    /// Drop the frame and close the direction — the peer vanishing.
    Disconnect,
    /// Rewrite the frame header to declare a payload beyond
    /// [`crate::MAX_FRAME_SIZE`] — an oversized (coalesced) super-frame or
    /// a tampered length field.
    Oversize,
    /// Swallow this frame and every later one while keeping the connection
    /// open: the sender never blocks, the receiver starves until its I/O
    /// deadline fires. Only a pair with a deadline can plan it
    /// ([`faulted`] panics otherwise).
    Stall,
}

/// One planned fault: misbehave on the `message_index`-th frame (0-based)
/// sent by `direction`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The party whose outgoing traffic is tampered with.
    pub direction: Role,
    /// 0-based index of the frame, counting that direction's frames only.
    pub message_index: u64,
    /// What to do to that frame.
    pub kind: FaultKind,
}

/// A deterministic schedule of transport faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// No faults: the faulted pair behaves exactly like the pair it wraps.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A single planned fault.
    pub fn single(direction: Role, message_index: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan::none().and(direction, message_index, kind)
    }

    /// Add another fault to the plan.
    pub fn and(mut self, direction: Role, message_index: u64, kind: FaultKind) -> FaultPlan {
        self.faults.push(FaultSpec {
            direction,
            message_index,
            kind,
        });
        self
    }

    /// Derive a single-fault plan from a seed: direction, frame index in
    /// `[0, horizon)`, fault class (every class but [`FaultKind::Stall`],
    /// so the plan fits any pair) and truncation cut — a third each in the
    /// header, the sub-header and the first payload bytes — are all
    /// functions of `seed` alone (SplitMix64), so a failing seed
    /// reproduces exactly.
    pub fn from_seed(seed: u64, horizon: u64) -> FaultPlan {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let direction = if next() & 1 == 0 {
            Role::Alice
        } else {
            Role::Bob
        };
        let message_index = next() % horizon.max(1);
        let kind = match next() % 5 {
            0 => {
                let at = next() as usize;
                let keep = match at % 3 {
                    0 => at % HEADER,
                    1 => HEADER + at % SUB_HEADER,
                    _ => HEADER + SUB_HEADER + at % 32,
                };
                FaultKind::Truncate { keep }
            }
            1 => FaultKind::SplitWrite,
            2 => FaultKind::Reorder,
            3 => FaultKind::Disconnect,
            _ => FaultKind::Oversize,
        };
        FaultPlan::single(direction, message_index, kind)
    }

    /// The planned faults, in insertion order.
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// Whether any planned fault is a [`FaultKind::Stall`].
    pub(crate) fn stalls(&self) -> bool {
        self.faults.iter().any(|f| f.kind == FaultKind::Stall)
    }

    pub(crate) fn for_direction(&self, direction: Role) -> Vec<(u64, FaultKind)> {
        self.faults
            .iter()
            .filter(|f| f.direction == direction)
            .map(|f| (f.message_index, f.kind))
            .collect()
    }
}

/// Apply `plan` to `pair`: each endpoint's outgoing frames pass through the
/// injector executing the faults planned for its direction. With
/// [`FaultPlan::none`] the pair behaves exactly like the pair passed in.
/// Composes with [`crate::recorded`] in either order, and over either pipe.
///
/// Panics if the plan contains a [`FaultKind::Stall`] and the pair has no
/// I/O deadline (the in-process pipe never has one).
pub fn faulted(pair: (Channel, Channel), plan: &FaultPlan) -> (Channel, Channel) {
    let (mut alice, mut bob) = pair;
    alice.inject(plan);
    bob.inject(plan);
    (alice, bob)
}

/// How long a socket split write waits between its two pieces, so the
/// receiver's read genuinely returns short and has to resume.
const SPLIT_PAUSE: Duration = Duration::from_micros(200);

/// A [`Pipe`] under a fault plan: tampers with the outgoing frames the
/// plan names and forwards everything else, both ways, untouched.
pub(crate) struct FaultyPipe {
    pub(crate) inner: Pipe,
    /// This direction's planned faults: `(frame index, kind)`.
    faults: Vec<(u64, FaultKind)>,
    /// Index of the next outgoing frame.
    index: u64,
    /// Frame held back by a pending [`FaultKind::Reorder`].
    held: Option<Vec<u8>>,
    /// A [`FaultKind::Stall`] fired: every later frame is swallowed.
    stalled: bool,
}

impl FaultyPipe {
    pub(crate) fn new(inner: Pipe, faults: Vec<(u64, FaultKind)>) -> FaultyPipe {
        FaultyPipe {
            inner,
            faults,
            index: 0,
            held: None,
            stalled: false,
        }
    }

    pub(crate) fn send_frame(
        &mut self,
        mut frame: Vec<u8>,
    ) -> Result<Option<Vec<u8>>, TransportError> {
        let fault = self.faults.iter().find(|(i, _)| *i == self.index);
        let fault = fault.map(|&(_, kind)| kind);
        self.index += 1;
        if self.stalled {
            return Ok(Some(frame));
        }
        match fault {
            Some(FaultKind::Reorder) => {
                // Two overlapping reorders: deliver the older held frame
                // now rather than holding two.
                return match self.held.replace(frame) {
                    Some(older) => self.inner.send_frame(older),
                    None => Ok(None),
                };
            }
            Some(FaultKind::Truncate { keep }) => {
                frame.truncate(keep.min(frame.len() - 1));
                let sent = self.inner.send_frame(frame);
                self.kill();
                return sent;
            }
            Some(FaultKind::Disconnect) => {
                self.kill();
                return Ok(None);
            }
            Some(FaultKind::Stall) => {
                self.stalled = true;
                self.held = None;
                return Ok(Some(frame));
            }
            Some(FaultKind::SplitWrite) => {
                let tail = frame.split_off(frame.len() / 2);
                self.inner.send_frame(frame)?;
                if matches!(self.inner, Pipe::Tcp(_)) {
                    std::thread::sleep(SPLIT_PAUSE);
                }
                frame = tail;
            }
            Some(FaultKind::Oversize) => {
                let declared = (MAX_FRAME_SIZE as u32).wrapping_add(1);
                frame[0..4].copy_from_slice(&declared.to_le_bytes());
            }
            None => {}
        }
        let spare = self.inner.send_frame(frame)?;
        // A frame held for reordering goes out right after the one that
        // overtook it.
        self.flush_held()?;
        Ok(spare)
    }

    /// About to block on the peer: a held frame that no successor overtook
    /// goes out in order first, or the peer would wait for it forever.
    pub(crate) fn recv_frame(
        &mut self,
        spare: &mut Vec<Vec<u8>>,
    ) -> Result<Vec<u8>, TransportError> {
        self.flush_held()?;
        self.inner.recv_frame(spare)
    }

    fn flush_held(&mut self) -> Result<(), TransportError> {
        match self.held.take() {
            Some(frame) => self.inner.send_frame(frame).map(|_| ()),
            None => Ok(()),
        }
    }

    /// Close the direction a fault killed: a real connection dying
    /// delivers nothing further, held or new.
    fn kill(&mut self) {
        self.held = None;
        self.inner.close_send();
    }
}

impl Drop for FaultyPipe {
    fn drop(&mut self) {
        let _ = self.flush_held();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{channel_pair, tcp_channel_pair};

    /// Both pipes under `plan`.
    fn both(plan: &FaultPlan) -> [(&'static str, (Channel, Channel)); 2] {
        [
            ("mpsc", faulted(channel_pair(), plan)),
            ("tcp", faulted(tcp_channel_pair().unwrap(), plan)),
        ]
    }

    #[test]
    fn from_seed_is_deterministic_and_in_horizon() {
        for seed in 0..64 {
            let p1 = FaultPlan::from_seed(seed, 10);
            let p2 = FaultPlan::from_seed(seed, 10);
            assert_eq!(p1, p2);
            assert_eq!(p1.faults().len(), 1);
            assert!(p1.faults()[0].message_index < 10);
        }
        // Every deadline-free class, every truncation region and both
        // directions appear across seeds; a stall never does.
        let plans: Vec<FaultSpec> = (0..64)
            .map(|s| FaultPlan::from_seed(s, 10).faults()[0])
            .collect();
        let has = |what: &dyn Fn(FaultKind) -> bool| plans.iter().any(|f| what(f.kind));
        assert!(has(
            &|k| matches!(k, FaultKind::Truncate { keep } if keep < HEADER)
        ));
        assert!(has(&|k| matches!(k, FaultKind::Truncate { keep }
            if (HEADER..HEADER + SUB_HEADER).contains(&keep))));
        assert!(has(&|k| matches!(k, FaultKind::Truncate { keep }
            if keep >= HEADER + SUB_HEADER)));
        assert!(has(&|k| k == FaultKind::SplitWrite));
        assert!(has(&|k| k == FaultKind::Reorder));
        assert!(has(&|k| k == FaultKind::Disconnect));
        assert!(has(&|k| k == FaultKind::Oversize));
        assert!(!has(&|k| k == FaultKind::Stall));
        assert!(plans.iter().any(|f| f.direction == Role::Alice));
        assert!(plans.iter().any(|f| f.direction == Role::Bob));
    }

    #[test]
    fn truncate_fault_cuts_where_planned() {
        // The frame is 8 header + 4 sub-header + 4 message bytes.
        for (keep, expected) in [
            (
                3,
                TransportError::Corrupt {
                    detail: "frame shorter than its 8-byte header",
                },
            ),
            (
                10,
                TransportError::Truncated {
                    expected: 8,
                    got: 2,
                },
            ),
            (
                12,
                TransportError::Truncated {
                    expected: 8,
                    got: 4,
                },
            ),
            // Beyond the frame: all but its last byte.
            (
                99,
                TransportError::Truncated {
                    expected: 8,
                    got: 7,
                },
            ),
        ] {
            let plan = FaultPlan::single(Role::Alice, 0, FaultKind::Truncate { keep });
            for (pipe, (mut a, mut b)) in both(&plan) {
                a.send(vec![1, 2, 3, 4]);
                a.flush();
                assert_eq!(b.try_recv().unwrap_err(), expected, "{pipe}, keep {keep}");
                // The direction is dead for the sender too.
                a.send(vec![5]);
                assert_eq!(
                    a.try_flush().unwrap_err(),
                    TransportError::PeerClosed { during: "send" },
                    "{pipe}"
                );
            }
        }
    }

    #[test]
    fn split_write_is_a_framing_error_in_process_and_benign_on_a_socket() {
        let plan = FaultPlan::single(Role::Alice, 0, FaultKind::SplitWrite);
        for (pipe, (mut a, mut b)) in both(&plan) {
            a.send(vec![1, 2, 3, 4]);
            a.flush();
            match (pipe, b.try_recv()) {
                // First fragment: header intact, payload short.
                ("mpsc", Err(TransportError::Truncated { .. })) => {}
                ("tcp", Ok(m)) => assert_eq!(m, vec![1, 2, 3, 4]),
                (_, other) => panic!("{pipe}: {other:?}"),
            }
        }
    }

    #[test]
    fn reorder_fault_yields_out_of_order_error() {
        let plan = FaultPlan::single(Role::Alice, 0, FaultKind::Reorder);
        for (pipe, (mut a, mut b)) in both(&plan) {
            a.send(vec![1]);
            a.flush();
            a.send(vec![2]);
            a.flush();
            // Frame 1 (seq 1) overtakes frame 0 (seq 0).
            assert_eq!(
                b.try_recv().unwrap_err(),
                TransportError::OutOfOrder {
                    expected: 0,
                    got: 1
                },
                "{pipe}"
            );
        }
    }

    #[test]
    fn reorder_delivers_in_order_when_the_sender_drops_first() {
        let plan = FaultPlan::single(Role::Alice, 0, FaultKind::Reorder);
        for (pipe, (mut a, mut b)) in both(&plan) {
            a.send(vec![42]);
            drop(a);
            assert_eq!(b.try_recv().unwrap(), vec![42], "{pipe}");
        }
    }

    #[test]
    fn disconnect_fault_yields_peer_closed() {
        let plan = FaultPlan::single(Role::Alice, 0, FaultKind::Disconnect);
        for (pipe, (mut a, mut b)) in both(&plan) {
            a.send(vec![1, 2, 3]);
            a.flush();
            assert_eq!(
                b.try_recv().unwrap_err(),
                TransportError::PeerClosed { during: "recv" },
                "{pipe}"
            );
        }
    }

    #[test]
    fn oversize_fault_yields_frame_too_large() {
        let plan = FaultPlan::single(Role::Alice, 0, FaultKind::Oversize);
        for (pipe, (mut a, mut b)) in both(&plan) {
            a.send(vec![1, 2, 3]);
            a.flush();
            assert_eq!(
                b.try_recv().unwrap_err(),
                TransportError::FrameTooLarge {
                    declared: MAX_FRAME_SIZE as u64 + 1,
                    limit: MAX_FRAME_SIZE as u64,
                },
                "{pipe}"
            );
        }
    }

    #[test]
    fn stall_fault_starves_the_receiver_into_its_deadline() {
        let plan = FaultPlan::single(Role::Alice, 1, FaultKind::Stall);
        let (mut a, mut b) = faulted(tcp_channel_pair().unwrap(), &plan);
        b.set_io_timeout(Some(Duration::from_millis(100)));
        for m in 0..3 {
            a.send(vec![m]);
            a.flush(); // frames 1 and 2 are swallowed; the sender never blocks
        }
        assert_eq!(b.try_recv().unwrap(), vec![0]);
        assert_eq!(
            b.try_recv().unwrap_err(),
            TransportError::Timeout { during: "recv" }
        );
    }

    #[test]
    #[should_panic(expected = "I/O deadline")]
    fn stall_cannot_be_planned_without_a_deadline() {
        let plan = FaultPlan::single(Role::Bob, 0, FaultKind::Stall);
        let _ = faulted(channel_pair(), &plan);
    }

    #[test]
    fn fault_applies_only_to_planned_direction_and_index() {
        let plan = FaultPlan::single(Role::Bob, 1, FaultKind::Disconnect);
        for (pipe, (mut a, mut b)) in both(&plan) {
            let h = std::thread::spawn(move || {
                let m = b.recv();
                b.send(vec![7]); // Bob frame 0: clean
                b.flush();
                b.send(vec![8]); // Bob frame 1: dropped, direction closed
                b.flush();
                m
            });
            a.send(vec![1]);
            assert_eq!(a.recv(), vec![7], "{pipe}");
            assert_eq!(
                a.try_recv().unwrap_err(),
                TransportError::PeerClosed { during: "recv" },
                "{pipe}"
            );
            assert_eq!(h.join().unwrap(), vec![1], "{pipe}");
        }
    }
}
