//! Deterministic fault injection for the two-party transport.
//!
//! [`fault_channel_pair`] builds a channel pair whose two directions pass
//! through a man-in-the-middle relay thread each. The relay forwards frames
//! verbatim except where a [`FaultPlan`] tells it to misbehave, modelling
//! the network failures a real deployment would see: truncated writes,
//! writes split across packets, reordering inside a round, and a peer
//! vanishing mid-protocol. Plans are plain data — built explicitly with
//! [`FaultPlan::single`] or derived from a seed with [`FaultPlan::from_seed`]
//! — so every injected fault is exactly reproducible.
//!
//! The contract under test: every injected fault must surface as a typed
//! [`crate::ProtocolError`] from [`crate::try_run_protocol_on`] over the
//! faulty pair — no panic escaping the runner, no deadlock, and drop-time
//! zeroization of secret material still performed on the unwind path.

use crate::channel::{relayed_pair, Channel, RelayWires, Role, HEADER};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// How long a relay holds a reordered frame waiting for a successor before
/// giving up and delivering it in order (prevents a held frame from
/// deadlocking a conversation that switches direction at that point).
const REORDER_FLUSH: Duration = Duration::from_millis(50);

/// The classes of transport misbehaviour the relay can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Deliver only a prefix of the frame, then close the direction — a
    /// connection dying mid-write.
    Truncate,
    /// Deliver the frame as two separate writes, violating the
    /// one-write-one-frame invariant the receiver checks.
    SplitWrite,
    /// Hold the frame and deliver its successor first — reordering inside
    /// a round.
    Reorder,
    /// Drop the frame and close the direction — the peer vanishing.
    Disconnect,
    /// Rewrite the frame header to declare a payload beyond
    /// [`crate::MAX_FRAME_SIZE`] — an oversized (coalesced) super-frame or
    /// a tampered length field.
    Oversize,
}

impl FaultKind {
    /// Every fault class, for exhaustive per-class tests.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Truncate,
        FaultKind::SplitWrite,
        FaultKind::Reorder,
        FaultKind::Disconnect,
        FaultKind::Oversize,
    ];
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
    /// No faults: the relayed pair behaves exactly like [`crate::channel_pair`].
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A single planned fault.
    pub fn single(direction: Role, message_index: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            faults: vec![FaultSpec {
                direction,
                message_index,
                kind,
            }],
        }
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
    /// `[0, horizon)` and fault class are all functions of `seed` alone
    /// (SplitMix64), so a failing seed reproduces exactly.
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
        let kind = FaultKind::ALL[(next() % FaultKind::ALL.len() as u64) as usize];
        FaultPlan::single(direction, message_index, kind)
    }

    /// The planned faults, in insertion order.
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }

    fn for_direction(&self, direction: Role) -> Vec<(u64, FaultKind)> {
        self.faults
            .iter()
            .filter(|f| f.direction == direction)
            .map(|f| (f.message_index, f.kind))
            .collect()
    }
}

/// Create a connected pair whose traffic passes through fault-injecting
/// relays executing `plan`. With [`FaultPlan::none`] the pair is
/// behaviourally identical to [`crate::channel_pair`] (frames are forwarded
/// verbatim). The relay threads exit on their own once either endpoint
/// drops, so the pair needs no explicit teardown.
pub fn fault_channel_pair(plan: &FaultPlan) -> (Channel, Channel) {
    let (alice, bob, wires) = relayed_pair();
    let RelayWires {
        a2b_in,
        a2b_out,
        b2a_in,
        b2a_out,
    } = wires;
    spawn_relay(a2b_in, a2b_out, plan.for_direction(Role::Alice));
    spawn_relay(b2a_in, b2a_out, plan.for_direction(Role::Bob));
    (alice, bob)
}

fn spawn_relay(rx: Receiver<Vec<u8>>, tx: Sender<Vec<u8>>, faults: Vec<(u64, FaultKind)>) {
    std::thread::spawn(move || {
        Relay {
            rx,
            tx,
            faults,
            index: 0,
            held: None,
        }
        .run();
    });
}

struct Relay {
    rx: Receiver<Vec<u8>>,
    tx: Sender<Vec<u8>>,
    faults: Vec<(u64, FaultKind)>,
    /// Index of the next frame this relay will see.
    index: u64,
    /// Frame held back by a pending [`FaultKind::Reorder`].
    held: Option<Vec<u8>>,
}

impl Relay {
    fn run(mut self) {
        loop {
            let frame = if self.held.is_some() {
                // While holding a reordered frame, don't block forever: if
                // no successor arrives (the conversation turned around),
                // deliver the held frame in order and keep going.
                match self.rx.recv_timeout(REORDER_FLUSH) {
                    Ok(f) => f,
                    Err(RecvTimeoutError::Timeout) => {
                        if self.flush_held().is_err() {
                            return;
                        }
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            } else {
                match self.rx.recv() {
                    Ok(f) => f,
                    Err(_) => break,
                }
            };
            let fault = self
                .faults
                .iter()
                .find(|(i, _)| *i == self.index)
                .map(|(_, k)| *k);
            self.index += 1;
            match fault {
                None => {
                    if self.tx.send(frame).is_err() {
                        return;
                    }
                    // A frame held for reordering is delivered right after
                    // the one that overtook it.
                    if self.flush_held().is_err() {
                        return;
                    }
                }
                Some(FaultKind::Truncate) => {
                    // Keep the header and half the payload if there is one,
                    // otherwise cut into the header itself.
                    let cut = if frame.len() > HEADER {
                        HEADER + (frame.len() - HEADER) / 2
                    } else {
                        frame.len() / 2
                    };
                    let _ = self.tx.send(frame[..cut].to_vec());
                    // Close the direction: a real connection dying mid-write
                    // delivers nothing further.
                    return;
                }
                Some(FaultKind::SplitWrite) => {
                    let cut = (frame.len() / 2).max(1).min(frame.len() - 1);
                    if self.tx.send(frame[..cut].to_vec()).is_err() {
                        return;
                    }
                    if self.tx.send(frame[cut..].to_vec()).is_err() {
                        return;
                    }
                    if self.flush_held().is_err() {
                        return;
                    }
                }
                Some(FaultKind::Reorder) => {
                    if let Some(prev) = self.held.replace(frame) {
                        // Two overlapping reorders: deliver the older held
                        // frame now rather than holding two.
                        if self.tx.send(prev).is_err() {
                            return;
                        }
                    }
                }
                Some(FaultKind::Disconnect) => return,
                Some(FaultKind::Oversize) => {
                    let mut frame = frame;
                    if frame.len() >= HEADER {
                        let declared = (crate::channel::MAX_FRAME_SIZE as u32).wrapping_add(1);
                        frame[0..4].copy_from_slice(&declared.to_le_bytes());
                    }
                    if self.tx.send(frame).is_err() {
                        return;
                    }
                    if self.flush_held().is_err() {
                        return;
                    }
                }
            }
        }
        // Input closed; deliver anything still held, then close the output.
        let _ = self.flush_held();
    }

    fn flush_held(&mut self) -> Result<(), ()> {
        if let Some(f) = self.held.take() {
            self.tx.send(f).map_err(|_| ())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TransportError;

    #[test]
    fn from_seed_is_deterministic_and_in_horizon() {
        for seed in 0..64 {
            let p1 = FaultPlan::from_seed(seed, 10);
            let p2 = FaultPlan::from_seed(seed, 10);
            assert_eq!(p1, p2);
            assert_eq!(p1.faults().len(), 1);
            assert!(p1.faults()[0].message_index < 10);
        }
        // All four classes and both directions appear across seeds.
        let plans: Vec<FaultSpec> = (0..64)
            .map(|s| FaultPlan::from_seed(s, 10).faults()[0])
            .collect();
        for kind in FaultKind::ALL {
            assert!(plans.iter().any(|f| f.kind == kind), "{kind:?} missing");
        }
        assert!(plans.iter().any(|f| f.direction == Role::Alice));
        assert!(plans.iter().any(|f| f.direction == Role::Bob));
    }

    #[test]
    fn no_fault_relay_is_transparent() {
        let (mut a, mut b) = fault_channel_pair(&FaultPlan::none());
        let h = std::thread::spawn(move || {
            let m = b.recv();
            b.send(vec![9; 9]);
            m
        });
        a.send(vec![1, 2, 3]);
        assert_eq!(a.recv(), vec![9; 9]);
        assert_eq!(h.join().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn truncate_fault_yields_truncated_error() {
        let (mut a, mut b) =
            fault_channel_pair(&FaultPlan::single(Role::Alice, 0, FaultKind::Truncate));
        a.send(vec![1, 2, 3, 4]);
        drop(a); // drop flushes the staged frame
                 // Payload on the wire = 4-byte sub-header + 4 message bytes; the
                 // relay keeps the frame header and half of that payload.
        assert_eq!(
            b.try_recv().unwrap_err(),
            TransportError::Truncated {
                expected: 8,
                got: 4
            }
        );
    }

    #[test]
    fn split_write_fault_yields_framing_error() {
        let (mut a, mut b) =
            fault_channel_pair(&FaultPlan::single(Role::Alice, 0, FaultKind::SplitWrite));
        a.send(vec![1, 2, 3, 4]);
        drop(a);
        // First fragment: header intact, payload short.
        assert!(matches!(
            b.try_recv().unwrap_err(),
            TransportError::Truncated { .. } | TransportError::Corrupt { .. }
        ));
    }

    #[test]
    fn reorder_fault_yields_out_of_order_error() {
        let (mut a, mut b) =
            fault_channel_pair(&FaultPlan::single(Role::Alice, 0, FaultKind::Reorder));
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
            }
        );
    }

    #[test]
    fn reorder_flushes_in_order_when_no_successor_arrives() {
        let (mut a, mut b) =
            fault_channel_pair(&FaultPlan::single(Role::Alice, 0, FaultKind::Reorder));
        a.send(vec![42]);
        a.flush();
        // No successor: after REORDER_FLUSH the frame arrives in order.
        assert_eq!(b.try_recv().unwrap(), vec![42]);
    }

    #[test]
    fn disconnect_fault_yields_peer_closed() {
        let (mut a, mut b) =
            fault_channel_pair(&FaultPlan::single(Role::Alice, 0, FaultKind::Disconnect));
        a.send(vec![1, 2, 3]);
        a.flush();
        assert_eq!(
            b.try_recv().unwrap_err(),
            TransportError::PeerClosed { during: "recv" }
        );
    }

    #[test]
    fn oversize_fault_yields_frame_too_large() {
        use crate::channel::MAX_FRAME_SIZE;
        let (mut a, mut b) =
            fault_channel_pair(&FaultPlan::single(Role::Alice, 0, FaultKind::Oversize));
        a.send(vec![1, 2, 3]);
        drop(a);
        assert_eq!(
            b.try_recv().unwrap_err(),
            TransportError::FrameTooLarge {
                declared: MAX_FRAME_SIZE as u64 + 1,
                limit: MAX_FRAME_SIZE as u64,
            }
        );
    }

    #[test]
    fn fault_applies_only_to_planned_direction_and_index() {
        let (mut a, mut b) =
            fault_channel_pair(&FaultPlan::single(Role::Bob, 1, FaultKind::Disconnect));
        let h = std::thread::spawn(move || {
            let m = b.recv();
            b.send(vec![7]); // Bob frame 0: clean
            b.flush();
            b.send(vec![8]); // Bob frame 1: dropped, direction closed
            b.flush();
            m
        });
        a.send(vec![1]);
        assert_eq!(a.recv(), vec![7]);
        assert_eq!(
            a.try_recv().unwrap_err(),
            TransportError::PeerClosed { during: "recv" }
        );
        assert_eq!(h.join().unwrap(), vec![1]);
    }
}
