//! The metered duplex channel connecting Alice and Bob.
//!
//! # The message contract
//!
//! Every message length in this workspace's protocols is a function of
//! public sizes, so a receiver always knows the exact length of the next
//! message. The channel makes the message the unit in both directions:
//!
//! - a send stages one whole message, and a zero-length send stages
//!   nothing — no sub-header, meter tick or transcript entry — so an
//!   empty batch costs no traffic and needs no guard at its call site;
//! - a receive consumes one whole message: [`Channel::recv`] whatever its
//!   length, [`Channel::recv_into`] exactly `buf.len()` bytes, any other
//!   length being a typed [`TransportError::MessageLength`]. A
//!   zero-length receive reads nothing, matching the send that staged
//!   nothing. Reads never span or split messages, so a peer that frames
//!   correctly but sends a message of the wrong length ends the session
//!   typed instead of desynchronising it.
//!
//! Lengths never travel inside messages. The typed helpers
//! ([`Channel::send_u64`], [`Channel::recv_u64_vec`], …) write integers
//! little-endian, slices without a length prefix and booleans bit-packed,
//! 8 to a byte.
//!
//! # Staged sends and super-rounds
//!
//! Sends are *staged*, not written: [`Channel::send`] appends the message
//! to an outgoing super-frame buffer and returns immediately. The buffer
//! travels as one wire frame when the endpoint [`Channel::flush`]es —
//! explicitly, on a phase switch, on drop, or (the common case)
//! automatically the moment the endpoint would otherwise *block* on the
//! wire waiting for the peer. That last rule makes coalescing maximal and
//! deadlock-free by construction: whenever a party is blocked, everything
//! it has staged is already on the wire, so the classic ping-pong
//! dependency structure of a protocol is preserved while every run of
//! same-direction messages between two genuine dependencies collapses
//! into a single frame.
//!
//! On the wire a frame is: an 8-byte header (payload length and
//! per-direction sequence number, both little-endian `u32`) followed by
//! the staged messages, each prefixed by its own 4-byte little-endian
//! length so logical message boundaries survive coalescing. The header
//! and sub-headers are pure wire overhead: the byte meters and the
//! recorded transcript count logical payload bytes only, so
//! communication-cost numbers and obliviousness transcripts are
//! independent of how messages happen to share frames. Wire-level
//! direction switches are metered separately as
//! [`CommStats::super_rounds`].
//!
//! # One meter per endpoint
//!
//! Each endpoint owns its meter and counts only its own wire: its own
//! messages and frames when it stages and flushes them, the peer's when it
//! consumes and fetches them. Its [`CommStats`] are therefore exactly one
//! party's observed trace, in that party's program order, and nothing is
//! shared between the two endpoints of a pair but an opt-in [`recorded`]
//! transcript.
//!
//! The header is validated on every receive, so a truncated, split,
//! reordered, oversized or dropped write is *detected* and surfaced as a
//! typed [`TransportError`] instead of silently desynchronizing the
//! parties.

use crate::error::TransportError;
use crate::fault::{FaultPlan, FaultyPipe};
use crate::tcp::TcpPipe;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Frame header size: payload length (`u32` LE) then sequence (`u32` LE).
pub(crate) const HEADER: usize = 8;

/// Per-message sub-header inside a frame: the message length (`u32` LE).
pub(crate) const SUB_HEADER: usize = 4;

/// Upper bound on a wire frame's payload. The sender auto-flushes before a
/// staged super-frame would exceed it, and the receiver rejects any frame
/// *declaring* more as [`TransportError::FrameTooLarge`] — so message
/// coalescing cannot be abused to smuggle an allocation bomb past the
/// declared-size hardening (`secyan-core`'s `MAX_DECLARED_SIZE` ties to
/// this same bound).
pub const MAX_FRAME_SIZE: usize = 1 << 28;

/// Most spare frame buffers an endpoint keeps for reuse.
const SPARE_BUFFERS: usize = 8;

/// The sequence word carries the phase tag in its top two bits; the low 30
/// bits are the per-direction sequence counter.
const SEQ_MASK: u32 = 0x3FFF_FFFF;

/// Which execution phase a frame belongs to (offline/online split).
///
/// Phase tags travel in the top two bits of each frame's sequence word and
/// are validated on receive: a frame whose tag disagrees with the receiving
/// endpoint's current phase surfaces as [`TransportError::PhaseMismatch`]
/// instead of silently crossing the offline/online boundary. The default
/// [`Phase::Single`] is the classic one-shot mode; `run_offline` /
/// `run_online` in `secyan-core` switch both endpoints in lock-step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase {
    /// Classic single-phase execution (the default).
    #[default]
    Single,
    /// Data-independent precomputation keyed by the public query shape.
    Offline,
    /// Data-dependent execution consuming precomputed material.
    Online,
}

impl Phase {
    fn tag(self) -> u32 {
        match self {
            Phase::Single => 0,
            Phase::Offline => 1,
            Phase::Online => 2,
        }
    }

    fn from_tag(tag: u32) -> Option<Phase> {
        match tag {
            0 => Some(Phase::Single),
            1 => Some(Phase::Offline),
            2 => Some(Phase::Online),
            _ => None,
        }
    }
}

/// A simulated network: finite bandwidth plus per-round latency, applied
/// inside [`Channel::flush`] as real sleeps on the sending thread.
///
/// The model is deliberately simple and conservative: every flushed frame
/// blocks its sender for `payload_bytes * 8 / bandwidth_bits_per_sec`
/// (serialization delay; full-duplex, so simultaneous transfers in the two
/// directions do not contend), and the first frame after a direction
/// switch additionally blocks for `one_way_latency_us` (the propagation
/// delay the ping-pong pattern cannot pipeline away; subsequent frames in
/// the same direction stream behind it). Because latency is paid per
/// *super-round* — per wire frame after a direction switch — coalescing
/// staged messages directly shortens the modeled critical path.
/// Benchmarks use this to compare cold and warm executions under one
/// declared WAN model instead of the loopback's infinite bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetModel {
    /// Link bandwidth in bits per second (applied per direction).
    pub bandwidth_bits_per_sec: u64,
    /// One-way propagation delay in microseconds, paid per direction
    /// switch.
    pub one_way_latency_us: u64,
}

/// Which of the two parties an endpoint belongs to.
///
/// Following the paper's convention, *Alice* is the designated receiver of
/// the query results unless a protocol documents otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    Alice,
    Bob,
}

impl Role {
    /// The other party.
    pub fn peer(self) -> Role {
        match self {
            Role::Alice => Role::Bob,
            Role::Bob => Role::Alice,
        }
    }

    /// True for [`Role::Alice`].
    pub fn is_alice(self) -> bool {
        matches!(self, Role::Alice)
    }

    /// Cell of this party's outgoing direction in per-direction counters.
    fn index(self) -> usize {
        self as usize
    }
}

/// The byte pipe underneath an endpoint: where flushed frames go and
/// where incoming frames come from.
///
/// Everything above this seam — staging, coalescing, metering, sequence
/// and phase validation, the transcript — is transport-independent by
/// construction: the [`Channel`] hands the pipe exactly one fully framed
/// super-frame per [`Channel::flush`] and receives whole frames (or
/// whatever prefix of one the wire could produce) back. Swapping the pipe
/// therefore cannot change logical meters or transcripts, which is what
/// lets the differential suite assert byte-identical transcripts across
/// the in-process and TCP transports.
pub(crate) enum Pipe {
    /// In-process duplex: frames travel as owned buffers over `mpsc`.
    Mpsc {
        tx: Sender<Vec<u8>>,
        rx: Receiver<Vec<u8>>,
    },
    /// A real TCP stream carrying the same length-prefixed frames.
    Tcp(TcpPipe),
    /// Either of the above under a fault plan (see [`crate::faulted`]):
    /// this endpoint's outgoing frames are tampered with on their way in.
    Faulty(Box<FaultyPipe>),
}

impl Pipe {
    /// A pipe connected to nothing: sends and receives report
    /// `PeerClosed`. Stands in while an endpoint's pipe is being wrapped.
    fn dead() -> Pipe {
        Pipe::Mpsc {
            tx: mpsc::channel().0,
            rx: mpsc::channel().1,
        }
    }

    /// Ship one framed buffer. Returns the buffer back for recycling when
    /// the pipe copies it onto a wire (TCP); `None` when the pipe consumes
    /// it (mpsc hands ownership to the peer).
    pub(crate) fn send_frame(&mut self, frame: Vec<u8>) -> Result<Option<Vec<u8>>, TransportError> {
        match self {
            Pipe::Mpsc { tx, .. } => {
                if tx.send(frame).is_err() {
                    return Err(TransportError::PeerClosed { during: "send" });
                }
                Ok(None)
            }
            Pipe::Tcp(tcp) => {
                tcp.send_frame(&frame)?;
                Ok(Some(frame))
            }
            Pipe::Faulty(faulty) => faulty.send_frame(frame),
        }
    }

    /// Block for the next frame. `spare` offers recycled buffers for pipes
    /// that must read into owned memory (TCP). The returned buffer holds
    /// header + payload as received; validation is the caller's job —
    /// short or truncated reads come back as short buffers so the
    /// channel's header checks type the fault identically on every
    /// transport.
    pub(crate) fn recv_frame(
        &mut self,
        spare: &mut Vec<Vec<u8>>,
    ) -> Result<Vec<u8>, TransportError> {
        match self {
            Pipe::Mpsc { rx, .. } => rx
                .recv()
                .map_err(|_| TransportError::PeerClosed { during: "recv" }),
            Pipe::Tcp(tcp) => tcp.recv_frame(spare),
            Pipe::Faulty(faulty) => faulty.recv_frame(spare),
        }
    }

    /// Close the outgoing direction: the peer reads end-of-stream after
    /// what was already sent, and every later send is `PeerClosed`.
    pub(crate) fn close_send(&mut self) {
        match self {
            Pipe::Mpsc { tx, .. } => *tx = mpsc::channel().0,
            Pipe::Tcp(tcp) => tcp.close_send(),
            Pipe::Faulty(faulty) => faulty.inner.close_send(),
        }
    }

    /// The I/O deadline of the socket underneath; `None` for the
    /// in-process pipe, which cannot time out.
    pub(crate) fn io_timeout(&self) -> Option<Duration> {
        match self {
            Pipe::Mpsc { .. } => None,
            Pipe::Tcp(tcp) => tcp.io_timeout(),
            Pipe::Faulty(faulty) => faulty.inner.io_timeout(),
        }
    }

    /// Set (or clear) the I/O deadline on a socket-backed pipe. No-op for
    /// the in-process pipe.
    fn set_io_timeout(&mut self, timeout: Option<Duration>) {
        match self {
            Pipe::Mpsc { .. } => {}
            Pipe::Tcp(tcp) => tcp.set_io_timeout(timeout),
            Pipe::Faulty(faulty) => faulty.inner.set_io_timeout(timeout),
        }
    }
}

/// One scope's counters as this endpoint observes the wire: its own
/// messages at stage time and frames at flush time, the peer's messages
/// when it consumes them and frames when it fetches them. Per-direction
/// cells are indexed by [`Role::index`] of the sender.
#[derive(Debug, Default)]
struct Counters {
    bytes: [u64; 2],
    messages: [u64; 2],
    frames: [u64; 2],
    /// Direction switches among frames, in this endpoint's program order.
    super_rounds: u64,
    /// Sender of the previous frame.
    last_frame: Option<Role>,
}

impl Counters {
    /// Count one logical message of `len` payload bytes from `sender`.
    fn message(&mut self, sender: Role, len: usize) {
        self.bytes[sender.index()] += len as u64;
        self.messages[sender.index()] += 1;
    }

    /// Count one wire frame from `sender`; true if it switched the wire
    /// direction within this scope (a super-round boundary).
    fn frame(&mut self, sender: Role) -> bool {
        self.frames[sender.index()] += 1;
        let switched = self.last_frame.replace(sender) != Some(sender);
        self.super_rounds += u64::from(switched);
        switched
    }
}

/// One endpoint's counters: one [`Counters`] over all traffic and one per
/// split phase. An event is counted in `total` and in the scope of the
/// phase the endpoint is in ([`Phase::Single`] traffic has no scope of its
/// own), so each phase's super-rounds are direction switches among that
/// phase's frames only.
#[derive(Debug, Default)]
struct Meter {
    total: Counters,
    offline: Counters,
    online: Counters,
}

impl Meter {
    fn phase_scope(&mut self, phase: Phase) -> Option<&mut Counters> {
        match phase {
            Phase::Single => None,
            Phase::Offline => Some(&mut self.offline),
            Phase::Online => Some(&mut self.online),
        }
    }

    /// Logical per-message accounting for one message sent by `sender`
    /// while this endpoint is in `phase`.
    fn message(&mut self, phase: Phase, sender: Role, len: usize) {
        self.total.message(sender, len);
        if let Some(scope) = self.phase_scope(phase) {
            scope.message(sender, len);
        }
    }

    /// Wire-level per-frame accounting for one frame sent by `sender`.
    /// Returns whether the frame switched the wire direction (a
    /// super-round boundary — the latency payment under [`NetModel`]).
    fn frame(&mut self, phase: Phase, sender: Role) -> bool {
        if let Some(scope) = self.phase_scope(phase) {
            scope.frame(sender);
        }
        self.total.frame(sender)
    }

    fn stats(&self) -> CommStats {
        let (a, b) = (Role::Alice.index(), Role::Bob.index());
        let (total, offline, online) = (&self.total, &self.offline, &self.online);
        CommStats {
            bytes_alice_to_bob: total.bytes[a],
            bytes_bob_to_alice: total.bytes[b],
            messages_alice_to_bob: total.messages[a],
            messages_bob_to_alice: total.messages[b],
            messages: total.messages[a] + total.messages[b],
            offline_bytes: offline.bytes[a] + offline.bytes[b],
            online_bytes: online.bytes[a] + online.bytes[b],
            frames_alice_to_bob: total.frames[a],
            frames_bob_to_alice: total.frames[b],
            super_rounds: total.super_rounds,
            offline_super_rounds: offline.super_rounds,
            online_super_rounds: online.super_rounds,
        }
    }
}

/// A snapshot of one endpoint's communication counters after (or during) a
/// protocol run: the wire as that party observed it, its own traffic
/// counted when staged and flushed, the peer's when consumed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Payload bytes sent from Alice to Bob.
    pub bytes_alice_to_bob: u64,
    /// Payload bytes sent from Bob to Alice.
    pub bytes_bob_to_alice: u64,
    /// Messages sent from Alice to Bob.
    pub messages_alice_to_bob: u64,
    /// Messages sent from Bob to Alice.
    pub messages_bob_to_alice: u64,
    /// Total number of messages in both directions.
    pub messages: u64,
    /// Payload bytes (both directions) sent during [`Phase::Offline`].
    pub offline_bytes: u64,
    /// Payload bytes (both directions) sent during [`Phase::Online`].
    pub online_bytes: u64,
    /// Wire frames actually shipped by Alice. Fault plans
    /// ([`crate::fault::FaultSpec::message_index`]) index these, not
    /// logical messages.
    pub frames_alice_to_bob: u64,
    /// Wire frames actually shipped by Bob.
    pub frames_bob_to_alice: u64,
    /// Wire-level rounds: direction switches among frames, in this
    /// endpoint's program order (its own flushes, the peer's frames as it
    /// fetches them). Each super-round is one latency payment under
    /// [`NetModel`]; message coalescing reduces this meter.
    pub super_rounds: u64,
    /// Super-rounds among offline-phase frames only.
    pub offline_super_rounds: u64,
    /// Super-rounds among online-phase frames only.
    pub online_super_rounds: u64,
}

impl CommStats {
    /// Total payload bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_alice_to_bob + self.bytes_bob_to_alice
    }

    /// Difference between two snapshots (counters only ever grow).
    pub fn since(&self, earlier: &CommStats) -> CommStats {
        CommStats {
            bytes_alice_to_bob: self.bytes_alice_to_bob - earlier.bytes_alice_to_bob,
            bytes_bob_to_alice: self.bytes_bob_to_alice - earlier.bytes_bob_to_alice,
            messages_alice_to_bob: self.messages_alice_to_bob - earlier.messages_alice_to_bob,
            messages_bob_to_alice: self.messages_bob_to_alice - earlier.messages_bob_to_alice,
            messages: self.messages - earlier.messages,
            offline_bytes: self.offline_bytes - earlier.offline_bytes,
            online_bytes: self.online_bytes - earlier.online_bytes,
            frames_alice_to_bob: self.frames_alice_to_bob - earlier.frames_alice_to_bob,
            frames_bob_to_alice: self.frames_bob_to_alice - earlier.frames_bob_to_alice,
            super_rounds: self.super_rounds - earlier.super_rounds,
            offline_super_rounds: self.offline_super_rounds - earlier.offline_super_rounds,
            online_super_rounds: self.online_super_rounds - earlier.online_super_rounds,
        }
    }
}

/// One recorded message: sender, sender's phase and the payload bytes.
struct TranscriptEntry {
    role: Role,
    phase: Phase,
    payload: Vec<u8>,
}

type Transcript = Arc<Mutex<Vec<TranscriptEntry>>>;

/// The transcript of a [`recorded`] pair: every message either endpoint
/// stages, in stage order, readable after the endpoints are consumed by
/// their party threads.
///
/// Obliviousness tests compare [`TranscriptHandle::lengths`] across inputs
/// of the same public size; determinism tests compare
/// [`TranscriptHandle::messages`] across runs that differ only in thread
/// count or transport: a deterministic protocol produces byte-identical
/// transcripts.
#[derive(Clone)]
pub struct TranscriptHandle {
    inner: Transcript,
}

impl std::fmt::Debug for TranscriptHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TranscriptHandle").finish()
    }
}

impl TranscriptHandle {
    fn map<T>(&self, f: impl Fn(&TranscriptEntry) -> T) -> Vec<T> {
        let entries = self.inner.lock().expect("transcript lock poisoned");
        entries.iter().map(f).collect()
    }

    /// Full transcript so far: `(sender, payload)` per message, in staged
    /// wire order.
    pub fn messages(&self) -> Vec<(Role, Vec<u8>)> {
        self.map(|e| (e.role, e.payload.clone()))
    }

    /// Per-message lengths, in wire order (the obliviousness view).
    pub fn lengths(&self) -> Vec<(Role, usize)> {
        self.map(|e| (e.role, e.payload.len()))
    }

    /// Per-message lengths with the sender's phase, in wire order. Phase
    /// transitions are protocol-synchronized (a mismatched frame is
    /// rejected on receive), so filtering by phase yields each phase's
    /// transcript shape — the per-phase obliviousness view.
    pub fn phased_lengths(&self) -> Vec<(Role, Phase, usize)> {
        self.map(|e| (e.role, e.phase, e.payload.len()))
    }
}

/// One endpoint of the metered duplex channel.
///
/// Protocol code takes `&mut Channel` and is written from the perspective of
/// one party; [`Channel::role`] says which. Messages are owned byte vectors.
/// A pair from [`channel_pair`] or [`crate::tcp_channel_pair`] records
/// nothing and injects nothing; [`recorded`] and [`crate::faulted`] add a
/// transcript and a fault plan to any pair.
pub struct Channel {
    role: Role,
    pipe: Pipe,
    meter: Meter,
    transcript: Option<Transcript>,
    /// Staged outgoing super-frame: [`HEADER`] reserved bytes, then each
    /// staged message as `[u32 LE length | payload]`.
    out_buf: Vec<u8>,
    /// Number of messages staged in `out_buf` (0 = nothing to flush).
    out_msgs: u64,
    /// Current incoming frame, header included.
    in_buf: Vec<u8>,
    /// Read cursor into `in_buf` (always ≥ [`HEADER`] once a frame is
    /// loaded).
    in_pos: usize,
    /// Recycled frame buffers: consumed incoming frames come back here and
    /// are reused for outgoing super-frames, so the steady state allocates
    /// no per-message or per-frame buffers.
    spare: Vec<Vec<u8>>,
    /// Sequence number stamped on the next outgoing frame.
    send_seq: u32,
    /// Sequence number expected on the next incoming frame.
    recv_seq: u32,
    /// Execution phase stamped on outgoing frames and demanded of incoming
    /// ones. Both endpoints switch phases at the same protocol points.
    phase: Phase,
    /// Optional simulated network applied to flushed frames.
    net: Option<NetModel>,
    /// Frame payload cap; [`MAX_FRAME_SIZE`] unless lowered for tests.
    frame_cap: usize,
    /// Uncoalesced mode: flush after every staged message, so each logical
    /// message ships as its own wire frame. Differential tests use this to
    /// prove coalescing changes only wire-level framing, never content.
    eager: bool,
}

impl std::fmt::Debug for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Channel").field("role", &self.role).finish()
    }
}

/// Create a connected in-process pair of endpoints: `(alice, bob)`.
pub fn channel_pair() -> (Channel, Channel) {
    let (tx, b_rx) = mpsc::channel();
    let (b_tx, rx) = mpsc::channel();
    let alice = Channel::new(Role::Alice, Pipe::Mpsc { tx, rx });
    let bob = Channel::new(Role::Bob, Pipe::Mpsc { tx: b_tx, rx: b_rx });
    (alice, bob)
}

/// Attach a transcript to `pair`: from here on every message either
/// endpoint stages is recorded, payload included, under one shared lock
/// (the unrecorded hot path takes none). Works on any pair — in-process,
/// socket-backed, [`crate::faulted`] — because recording happens at stage
/// time, above the pipe.
pub fn recorded(pair: (Channel, Channel)) -> ((Channel, Channel), TranscriptHandle) {
    let (mut alice, mut bob) = pair;
    let inner = Transcript::default();
    alice.transcript = Some(Arc::clone(&inner));
    bob.transcript = Some(Arc::clone(&inner));
    ((alice, bob), TranscriptHandle { inner })
}

impl Channel {
    /// `role`'s endpoint over `pipe`, with a meter of its own.
    pub(crate) fn new(role: Role, pipe: Pipe) -> Channel {
        Channel {
            role,
            pipe,
            meter: Meter::default(),
            transcript: None,
            out_buf: vec![0u8; HEADER],
            out_msgs: 0,
            in_buf: Vec::new(),
            in_pos: 0,
            spare: Vec::new(),
            send_seq: 0,
            recv_seq: 0,
            phase: Phase::Single,
            net: None,
            frame_cap: MAX_FRAME_SIZE,
            eager: false,
        }
    }

    /// Put this endpoint's pipe under the fault injector, which applies
    /// the faults `plan` aims at this party's outgoing frames. A stall
    /// swallows frames without closing anything, so only endpoints with an
    /// I/O deadline may plan one — without it both parties wait forever.
    pub(crate) fn inject(&mut self, plan: &FaultPlan) {
        assert!(
            self.pipe.io_timeout().is_some() || !plan.stalls(),
            "a stall only surfaces through an I/O deadline: plan it on a socket pair"
        );
        let inner = std::mem::replace(&mut self.pipe, Pipe::dead());
        let faulty = FaultyPipe::new(inner, plan.for_direction(self.role));
        self.pipe = Pipe::Faulty(Box::new(faulty));
    }

    /// Set (or clear) the I/O deadline for socket-backed endpoints: any
    /// single blocked read or write past the deadline surfaces as a typed
    /// [`TransportError::Timeout`] instead of hanging the session thread.
    /// No-op on in-process endpoints (the mpsc pipe cannot stall — a dead
    /// peer closes it and surfaces as `PeerClosed` immediately).
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) {
        self.pipe.set_io_timeout(timeout);
    }

    /// Disable (or re-enable) message coalescing on this endpoint: in
    /// eager mode every staged message is flushed immediately as its own
    /// wire frame — the pre-super-round wire behavior. Logical meters and
    /// the transcript are unaffected (they count messages); only the
    /// frame/super-round counters change. Differential tests run a
    /// protocol both ways and assert identical results and transcripts.
    pub fn set_eager(&mut self, eager: bool) {
        self.eager = eager;
    }

    /// Install (or clear) a simulated network on this endpoint. Both
    /// endpoints of a pair should carry the same model.
    pub fn set_net_model(&mut self, net: Option<NetModel>) {
        self.net = net;
    }

    /// The party this endpoint belongs to.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The current execution phase (stamped on outgoing frames).
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Switch this endpoint into `phase`, flushing any staged messages
    /// under the old phase tag first (a frame carries exactly one phase).
    /// The peer must make the matching switch at the same protocol point: a
    /// frame tagged with a different phase than the receiver's current one
    /// is rejected as [`TransportError::PhaseMismatch`].
    pub fn set_phase(&mut self, phase: Phase) {
        if phase != self.phase {
            self.flush();
            self.phase = phase;
        }
    }

    /// Stage one message for the peer. Alias of [`Channel::send`] taking a
    /// slice; the message rides the next flushed super-frame, and an empty
    /// slice stages nothing.
    pub fn stage(&mut self, data: &[u8]) {
        self.send_with(data.len(), |buf| buf.copy_from_slice(data));
    }

    /// Stage one message to the peer. The message is metered and recorded
    /// now (stage order is the logical transcript order) but hits the wire
    /// only when the endpoint flushes — explicitly via [`Channel::flush`],
    /// or automatically as soon as this endpoint would block waiting for
    /// the peer, on a phase switch, and on drop.
    ///
    /// Raises a typed [`TransportError::PeerClosed`] unwind (caught by
    /// [`crate::try_run_protocol`]) if the peer is gone and a forced flush
    /// fails.
    pub fn send(&mut self, data: Vec<u8>) {
        self.stage(&data);
    }

    /// Stage a message of known length `len`, letting `fill` write the
    /// payload directly into the staging buffer — the zero-copy path for
    /// typed writers that would otherwise build a temporary `Vec`. With
    /// `len` 0, `fill` runs on an empty slice and nothing is staged.
    pub fn send_with(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) {
        if len == 0 {
            return fill(&mut []);
        }
        assert!(
            SUB_HEADER + len <= self.frame_cap,
            "message of {len} bytes exceeds the frame cap {}",
            self.frame_cap
        );
        // Keep the super-frame under the cap: ship what is staged first.
        if self.out_buf.len() + SUB_HEADER + len > HEADER + self.frame_cap {
            self.flush();
        }
        let start = self.out_buf.len() + SUB_HEADER;
        self.out_buf.extend_from_slice(&(len as u32).to_le_bytes());
        self.out_buf.resize(start + len, 0);
        fill(&mut self.out_buf[start..]);
        self.out_msgs += 1;
        // Own messages are metered and recorded per message, at stage time:
        // coalescing must not change any reported byte count or the
        // obliviousness view.
        self.meter.message(self.phase, self.role, len);
        if let Some(transcript) = &self.transcript {
            let entry = TranscriptEntry {
                role: self.role,
                phase: self.phase,
                payload: self.out_buf[start..].to_vec(),
            };
            transcript
                .lock()
                .expect("transcript lock poisoned")
                .push(entry);
        }
        if self.eager {
            self.flush();
        }
    }

    /// Ship the staged super-frame, if any. One wire frame per call; a
    /// no-op when nothing is staged. Called automatically whenever this
    /// endpoint is about to block on the wire (so a blocked party has, by
    /// construction, everything it owes the peer already in flight), on
    /// phase switches, and on drop.
    pub fn flush(&mut self) {
        self.try_flush().unwrap_or_else(|e| e.raise())
    }

    /// Fallible form of [`Channel::flush`].
    pub fn try_flush(&mut self) -> Result<(), TransportError> {
        if self.out_msgs == 0 {
            return Ok(());
        }
        // Wire-level (super-round) accounting happens per frame.
        let switched = self.meter.frame(self.phase, self.role);
        let payload_len = self.out_buf.len() - HEADER;
        // Simulated network: block the sending thread for the modeled
        // serialization delay, plus propagation on a direction switch,
        // before the frame becomes visible to the peer. Latency is paid
        // once per super-round, which is exactly what coalescing buys.
        if let Some(net) = self.net {
            let bits = (payload_len as u64).saturating_mul(8);
            let mut delay_us = bits
                .saturating_mul(1_000_000)
                .div_euclid(net.bandwidth_bits_per_sec.max(1));
            if switched {
                delay_us += net.one_way_latency_us;
            }
            if delay_us > 0 {
                std::thread::sleep(std::time::Duration::from_micros(delay_us));
            }
        }
        self.out_buf[0..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        let seq_word = (self.send_seq & SEQ_MASK) | (self.phase.tag() << 30);
        self.out_buf[4..8].copy_from_slice(&seq_word.to_le_bytes());
        self.send_seq = self.send_seq.wrapping_add(1) & SEQ_MASK;
        let mut next = self.take_spare();
        next.resize(HEADER, 0);
        let frame = std::mem::replace(&mut self.out_buf, next);
        self.out_msgs = 0;
        if let Some(buf) = self.pipe.send_frame(frame)? {
            if self.spare.len() < SPARE_BUFFERS {
                self.spare.push(buf);
            }
        }
        Ok(())
    }

    /// Grab a recycled buffer (or a fresh one) for the next super-frame.
    fn take_spare(&mut self) -> Vec<u8> {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Pull the next frame off the wire and validate its header, loading it
    /// as the current incoming buffer. Flushes staged messages first: an
    /// endpoint never blocks on the peer while holding data the peer may be
    /// waiting for.
    fn fetch_frame(&mut self) -> Result<(), TransportError> {
        self.try_flush()?;
        // Recycle the consumed frame for future outgoing super-frames.
        if !self.in_buf.is_empty() && self.spare.len() < SPARE_BUFFERS {
            let mut old = std::mem::take(&mut self.in_buf);
            old.clear();
            self.spare.push(old);
        }
        let frame = self.pipe.recv_frame(&mut self.spare)?;
        if frame.len() < HEADER {
            return Err(TransportError::Corrupt {
                detail: "frame shorter than its 8-byte header",
            });
        }
        let mut word = [0u8; 4];
        word.copy_from_slice(&frame[0..4]);
        let declared = u32::from_le_bytes(word) as usize;
        word.copy_from_slice(&frame[4..8]);
        let seq_word = u32::from_le_bytes(word);
        let seq = seq_word & SEQ_MASK;
        if seq != self.recv_seq {
            return Err(TransportError::OutOfOrder {
                expected: u64::from(self.recv_seq),
                got: u64::from(seq),
            });
        }
        let Some(phase) = Phase::from_tag(seq_word >> 30) else {
            return Err(TransportError::Corrupt {
                detail: "unknown phase tag in sequence word",
            });
        };
        if phase != self.phase {
            return Err(TransportError::PhaseMismatch {
                expected: self.phase,
                got: phase,
            });
        }
        self.recv_seq = self.recv_seq.wrapping_add(1) & SEQ_MASK;
        // Declared-size bound *before* the truncation check: an oversized
        // declaration is its own typed fault, whatever bytes follow.
        if declared > MAX_FRAME_SIZE {
            return Err(TransportError::FrameTooLarge {
                declared: declared as u64,
                limit: MAX_FRAME_SIZE as u64,
            });
        }
        let got = frame.len() - HEADER;
        if got != declared {
            return Err(TransportError::Truncated {
                expected: declared,
                got,
            });
        }
        self.meter.frame(self.phase, self.role.peer());
        self.in_buf = frame;
        self.in_pos = HEADER;
        Ok(())
    }

    /// Consume the next whole message in the incoming stream, fetching
    /// frames as needed, and return where it sits in `in_buf`.
    fn next_message(&mut self) -> Result<std::ops::Range<usize>, TransportError> {
        while self.in_pos >= self.in_buf.len() {
            self.fetch_frame()?;
        }
        if self.in_buf.len() - self.in_pos < SUB_HEADER {
            return Err(TransportError::Corrupt {
                detail: "message sub-header crosses the frame boundary",
            });
        }
        let mut word = [0u8; 4];
        word.copy_from_slice(&self.in_buf[self.in_pos..self.in_pos + SUB_HEADER]);
        let len = u32::from_le_bytes(word) as usize;
        let start = self.in_pos + SUB_HEADER;
        let avail = self.in_buf.len() - start;
        if len > avail {
            // The sender never splits one logical message across frames, so
            // a sub-length overrunning its frame is a wire fault.
            return Err(TransportError::Truncated {
                expected: len,
                got: avail,
            });
        }
        self.in_pos = start + len;
        self.meter.message(self.phase, self.role.peer(), len);
        Ok(start..self.in_pos)
    }

    /// Receive one whole message from the peer, blocking until it arrives
    /// (and flushing staged messages first if it must block).
    ///
    /// Raises a typed [`TransportError`] unwind (caught by
    /// [`crate::try_run_protocol`]) on peer close or a malformed frame.
    pub fn recv(&mut self) -> Vec<u8> {
        self.try_recv().unwrap_or_else(|e| e.raise())
    }

    /// Fallible form of [`Channel::recv`].
    pub fn try_recv(&mut self) -> Result<Vec<u8>, TransportError> {
        let msg = self.next_message()?;
        Ok(self.in_buf[msg].to_vec())
    }

    /// Receive one whole message of exactly `buf.len()` bytes into `buf`;
    /// an empty `buf` reads nothing (see the module's message contract).
    ///
    /// Raises a typed [`TransportError`] unwind (caught by
    /// [`crate::try_run_protocol`]) on peer close, a malformed frame, or a
    /// message of any other length ([`TransportError::MessageLength`]).
    pub fn recv_into(&mut self, buf: &mut [u8]) {
        self.try_recv_into(buf).unwrap_or_else(|e| e.raise())
    }

    /// Fallible form of [`Channel::recv_into`].
    pub fn try_recv_into(&mut self, buf: &mut [u8]) -> Result<(), TransportError> {
        if buf.is_empty() {
            return Ok(());
        }
        let msg = self.next_message()?;
        if msg.len() != buf.len() {
            return Err(TransportError::MessageLength {
                expected: buf.len(),
                got: msg.len(),
            });
        }
        buf.copy_from_slice(&self.in_buf[msg]);
        Ok(())
    }

    /// Snapshot of this endpoint's communication counters. Flush first if
    /// the frame meters must include messages staged by this endpoint.
    pub fn stats(&self) -> CommStats {
        self.meter.stats()
    }
}

impl Drop for Channel {
    /// Best-effort flush so a cleanly returning party never strands staged
    /// messages its peer is still reading toward. Errors (peer already
    /// gone) are ignored — drop must not panic.
    fn drop(&mut self) {
        if self.out_msgs > 0 {
            let _ = self.try_flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    impl Channel {
        /// Lower the frame payload cap below [`MAX_FRAME_SIZE`], to exercise
        /// super-frame splitting without gigantic payloads. Both endpoints
        /// of a pair should agree. Clamped to `[64, MAX_FRAME_SIZE]`.
        pub(crate) fn set_frame_cap(&mut self, cap: usize) {
            self.frame_cap = cap.clamp(64, MAX_FRAME_SIZE);
        }
    }

    /// A pair with the Alice→Bob wire cut open: the frames Alice ships come
    /// out of the receiver, and what the test pushes into the sender is
    /// what Bob reads.
    fn cut_pair() -> (Channel, Channel, Receiver<Vec<u8>>, Sender<Vec<u8>>) {
        let (a_tx, from_alice) = mpsc::channel();
        let (to_bob, b_rx) = mpsc::channel();
        let (b_tx, a_rx) = mpsc::channel();
        let a = Channel::new(Role::Alice, Pipe::Mpsc { tx: a_tx, rx: a_rx });
        let b = Channel::new(Role::Bob, Pipe::Mpsc { tx: b_tx, rx: b_rx });
        (a, b, from_alice, to_bob)
    }

    #[test]
    fn roundtrip_and_meters() {
        let (mut a, mut b) = channel_pair();
        let h = thread::spawn(move || {
            let m = b.recv();
            assert_eq!(m, vec![1, 2, 3]);
            b.send(vec![9; 10]);
            b.flush();
            b.stats()
        });
        a.send(vec![1, 2, 3]);
        let m = a.recv(); // auto-flushes the staged message before blocking
        assert_eq!(m, vec![9; 10]);
        let stats = h.join().unwrap();
        assert_eq!(stats.bytes_alice_to_bob, 3);
        assert_eq!(stats.bytes_bob_to_alice, 10);
        assert_eq!(stats.messages_alice_to_bob, 1);
        assert_eq!(stats.messages_bob_to_alice, 1);
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.super_rounds, 2);
    }

    #[test]
    fn rounds_count_direction_switches() {
        let (mut a, mut b) = channel_pair();
        let h = thread::spawn(move || {
            b.recv();
            b.recv();
            b.send(vec![0]);
            b.recv();
        });
        a.send(vec![0]);
        a.send(vec![0]); // same direction: still round 1
        a.recv();
        a.send(vec![0]);
        a.flush();
        h.join().unwrap();
        // Three direction switches on the wire; the two same-direction
        // messages shared one frame.
        assert_eq!(a.stats().super_rounds, 3);
    }

    #[test]
    fn staged_messages_coalesce_into_one_frame() {
        let (mut a, mut b, from_alice, to_bob) = cut_pair();
        a.send(vec![1, 2]);
        a.send(vec![3]);
        a.send(vec![4, 5, 6]);
        a.flush();
        // Exactly one frame on the wire...
        let frame = from_alice.recv().unwrap();
        assert!(from_alice.try_recv().is_err(), "expected a single frame");
        to_bob.send(frame).unwrap();
        // ...but three logical messages with intact boundaries.
        assert_eq!(b.recv(), vec![1, 2]);
        assert_eq!(b.recv(), vec![3]);
        assert_eq!(b.recv(), vec![4, 5, 6]);
        let stats = a.stats();
        assert_eq!(stats.messages_alice_to_bob, 3);
        assert_eq!(stats.super_rounds, 1);
    }

    #[test]
    fn flush_on_empty_stage_is_a_no_op() {
        let (mut a, _b) = channel_pair();
        a.flush();
        a.flush();
        assert_eq!(a.stats().super_rounds, 0);
    }

    #[test]
    fn frame_cap_splits_super_frames() {
        let (mut a, mut b, from_alice, to_bob) = cut_pair();
        a.set_frame_cap(64);
        for i in 0..10u8 {
            a.send(vec![i; 16]);
        }
        a.flush();
        let mut frames = 0;
        while let Ok(frame) = from_alice.try_recv() {
            assert!(frame.len() - HEADER <= 64, "cap violated: {}", frame.len());
            to_bob.send(frame).unwrap();
            frames += 1;
        }
        assert!(frames > 1, "cap must force splitting");
        for i in 0..10u8 {
            assert_eq!(b.recv(), vec![i; 16]);
        }
    }

    /// A receive consumes exactly one whole message, on both pipes: two
    /// 4-byte messages do not make a `u64`, and one 16-byte message is not
    /// two. Zero-length sends stage nothing and zero-length receives read
    /// nothing, so the stream stays aligned around them.
    #[test]
    fn recv_into_reads_one_whole_message() {
        let pairs = [
            ("mpsc", channel_pair()),
            ("tcp", crate::tcp_channel_pair().unwrap()),
        ];
        for (kind, (mut a, mut b)) in pairs {
            a.send_with(0, |buf| assert!(buf.is_empty()));
            a.send(vec![1; 4]);
            a.send(vec![2; 4]);
            a.stage(&[]);
            a.send_u64_slice(&[]);
            a.send(vec![3; 16]);
            a.send_u64(4);
            a.flush();
            assert_eq!(a.stats().messages_alice_to_bob, 4, "{kind}");
            assert_eq!(
                b.try_recv_into(&mut [0u8; 8]),
                Err(TransportError::MessageLength {
                    expected: 8,
                    got: 4
                }),
                "{kind}: two 4-byte messages read as one u64"
            );
            assert_eq!(b.recv(), vec![2; 4], "{kind}");
            b.recv_into(&mut []);
            assert_eq!(
                b.try_recv_into(&mut [0u8; 8]),
                Err(TransportError::MessageLength {
                    expected: 8,
                    got: 16
                }),
                "{kind}: one 16-byte message read as two u64s"
            );
            assert_eq!(b.recv_u64(), 4, "{kind}");
        }
    }

    #[test]
    fn recorded_pair_keeps_messages_in_stage_order() {
        let ((mut a, mut b), handle) = recorded(channel_pair());
        let h = thread::spawn(move || {
            b.recv();
            b.send(vec![7; 3]);
            b.flush();
        });
        a.send(vec![1, 2]);
        a.recv();
        h.join().unwrap();
        assert_eq!(
            handle.messages(),
            vec![(Role::Alice, vec![1, 2]), (Role::Bob, vec![7, 7, 7])]
        );
        assert_eq!(handle.lengths(), vec![(Role::Alice, 2), (Role::Bob, 3)]);
    }

    #[test]
    fn default_pair_skips_transcript() {
        let (mut a, mut b) = channel_pair();
        let h = thread::spawn(move || {
            b.recv();
        });
        a.send(vec![1; 4]);
        a.flush();
        h.join().unwrap();
        assert!(a.transcript.is_none());
    }

    /// Drive one direction by hand through the cut wire: Alice sends and
    /// flushes, the test tampers with the frame, Bob's `try_recv` reports
    /// the fault.
    fn tampered_recv(
        tamper: impl FnOnce(Vec<u8>, &Sender<Vec<u8>>),
    ) -> Result<Vec<u8>, TransportError> {
        let (mut a, mut b, from_alice, to_bob) = cut_pair();
        a.send(vec![1, 2, 3, 4]);
        a.flush();
        let frame = from_alice.recv().unwrap();
        tamper(frame, &to_bob);
        drop(to_bob);
        drop(a);
        b.try_recv()
    }

    #[test]
    fn intact_frame_passes_validation() {
        let got = tampered_recv(|frame, out| out.send(frame).unwrap());
        assert_eq!(got.unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn truncated_frame_is_detected() {
        let got = tampered_recv(|frame, out| out.send(frame[..frame.len() - 2].to_vec()).unwrap());
        // Payload region = 4-byte sub-header + 4 message bytes.
        assert_eq!(
            got.unwrap_err(),
            TransportError::Truncated {
                expected: 8,
                got: 6
            }
        );
    }

    #[test]
    fn truncated_sub_message_is_detected() {
        // Outer header consistent, but the sub-length overruns the frame.
        let got = tampered_recv(|mut frame, out| {
            frame[HEADER..HEADER + 4].copy_from_slice(&100u32.to_le_bytes());
            out.send(frame).unwrap();
        });
        assert_eq!(
            got.unwrap_err(),
            TransportError::Truncated {
                expected: 100,
                got: 4
            }
        );
    }

    #[test]
    fn short_header_is_corrupt() {
        let got = tampered_recv(|frame, out| out.send(frame[..3].to_vec()).unwrap());
        assert_eq!(
            got.unwrap_err(),
            TransportError::Corrupt {
                detail: "frame shorter than its 8-byte header"
            }
        );
    }

    #[test]
    fn wrong_sequence_is_out_of_order() {
        let got = tampered_recv(|mut frame, out| {
            frame[4..8].copy_from_slice(&7u32.to_le_bytes());
            out.send(frame).unwrap();
        });
        assert_eq!(
            got.unwrap_err(),
            TransportError::OutOfOrder {
                expected: 0,
                got: 7
            }
        );
    }

    #[test]
    fn oversized_declaration_is_frame_too_large() {
        let got = tampered_recv(|mut frame, out| {
            let declared = (MAX_FRAME_SIZE as u32) + 1;
            frame[0..4].copy_from_slice(&declared.to_le_bytes());
            out.send(frame).unwrap();
        });
        assert_eq!(
            got.unwrap_err(),
            TransportError::FrameTooLarge {
                declared: MAX_FRAME_SIZE as u64 + 1,
                limit: MAX_FRAME_SIZE as u64,
            }
        );
    }

    #[test]
    fn dropped_peer_is_peer_closed() {
        let got = tampered_recv(|frame, _out| drop(frame));
        assert_eq!(
            got.unwrap_err(),
            TransportError::PeerClosed { during: "recv" }
        );
    }

    #[test]
    fn sequence_advances_per_direction() {
        let (mut a, mut b) = channel_pair();
        let h = thread::spawn(move || {
            for i in 0..5u8 {
                assert_eq!(b.recv(), vec![i]);
            }
            b.send(vec![9]);
            b.flush();
        });
        for i in 0..5u8 {
            a.send(vec![i]);
        }
        assert_eq!(a.recv(), vec![9]);
        h.join().unwrap();
    }

    #[test]
    fn phase_tag_mismatch_is_detected() {
        let (mut a, mut b) = channel_pair();
        a.set_phase(Phase::Offline);
        a.send(vec![1, 2]);
        a.flush();
        // Receiver still in Single phase: typed error, no hang.
        assert_eq!(
            b.try_recv().unwrap_err(),
            TransportError::PhaseMismatch {
                expected: Phase::Single,
                got: Phase::Offline,
            }
        );
    }

    #[test]
    fn matching_phases_roundtrip_and_meter_separately() {
        let (mut a, mut b) = channel_pair();
        a.set_phase(Phase::Offline);
        b.set_phase(Phase::Offline);
        a.send(vec![0; 10]);
        a.flush();
        assert_eq!(b.recv(), vec![0; 10]);
        b.send(vec![0; 3]);
        b.flush();
        assert_eq!(a.recv(), vec![0; 3]);
        a.set_phase(Phase::Online);
        b.set_phase(Phase::Online);
        a.send(vec![0; 5]);
        a.flush();
        assert_eq!(b.recv(), vec![0; 5]);
        let stats = a.stats();
        assert_eq!(stats.offline_bytes, 13);
        assert_eq!(stats.online_bytes, 5);
        assert_eq!(stats.total_bytes(), 18);
        assert_eq!(stats.super_rounds, 3);
        assert_eq!(stats.offline_super_rounds, 2);
        assert_eq!(stats.online_super_rounds, 1);
    }

    #[test]
    fn phase_switch_flushes_staged_messages() {
        let (mut a, mut b) = channel_pair();
        a.send(vec![1]);
        a.set_phase(Phase::Offline); // must flush the Single-phase frame
        b.recv();
        b.set_phase(Phase::Offline);
        a.send(vec![2]);
        a.flush();
        assert_eq!(b.recv(), vec![2]);
    }

    #[test]
    fn unknown_phase_tag_is_corrupt() {
        let got = tampered_recv(|mut frame, out| {
            frame[4..8].copy_from_slice(&(3u32 << 30).to_le_bytes());
            out.send(frame).unwrap();
        });
        assert_eq!(
            got.unwrap_err(),
            TransportError::Corrupt {
                detail: "unknown phase tag in sequence word",
            }
        );
    }

    #[test]
    fn net_model_delays_flushes() {
        // 80 kbit at 1 Mbit/s = 80 ms serialization, plus 5 ms latency on
        // the first (direction-switching) frame. Lower bound only: sleeps
        // may overshoot, never undershoot. The sleep happens at flush time;
        // staging is free.
        let (mut a, mut b) = channel_pair();
        let net = NetModel {
            bandwidth_bits_per_sec: 1_000_000,
            one_way_latency_us: 5_000,
        };
        a.set_net_model(Some(net));
        let h = thread::spawn(move || {
            assert_eq!(b.recv().len(), 10_000);
            assert_eq!(b.recv().len(), 10_000);
        });
        let t = std::time::Instant::now();
        a.send(vec![0u8; 10_000]);
        assert!(
            t.elapsed() < std::time::Duration::from_millis(50),
            "staging must not block"
        );
        a.flush();
        assert!(
            t.elapsed() >= std::time::Duration::from_millis(85),
            "shaped flush returned after only {:?}",
            t.elapsed()
        );
        // Clearing the model restores unshaped sends.
        a.set_net_model(None);
        let t = std::time::Instant::now();
        a.send(vec![0u8; 10_000]);
        a.flush();
        assert!(t.elapsed() < std::time::Duration::from_millis(50));
        h.join().unwrap();
    }

    /// The fixed conversation behind `comm_stats_by_phase_golden`: strict
    /// ping-pong, both directions, several messages per direction switch, `Single` →
    /// `Offline` → `Online` → `Single`, one explicit flush that splits a
    /// same-direction run into two frames, and one eager stretch. Returns
    /// Alice's two mid-run snapshots and each side's final stats.
    fn golden_script(mut a: Channel, mut b: Channel) -> [CommStats; 4] {
        let recv_n = |ch: &mut Channel, lens: &[usize]| {
            for &len in lens {
                assert_eq!(ch.recv().len(), len);
            }
        };
        let bob = thread::spawn(move || {
            recv_n(&mut b, &[5, 7]);
            b.send(vec![1; 3]);
            b.send_with(4, |buf| buf.fill(2));
            b.stage(&[3]);
            b.set_phase(Phase::Offline);
            recv_n(&mut b, &[100, 20, 8]);
            b.send(vec![4; 9]);
            b.send(vec![5; 9]);
            recv_n(&mut b, &[11]);
            b.set_phase(Phase::Online);
            recv_n(&mut b, &[16, 16, 2]);
            b.set_eager(true);
            b.send(vec![6; 6]);
            b.send(vec![7; 6]);
            b.send(vec![8; 30]);
            b.set_eager(false);
            b.send(vec![9]);
            recv_n(&mut b, &[12]);
            b.set_phase(Phase::Single);
            recv_n(&mut b, &[40]);
            b.send(vec![10; 2]);
            b.send(vec![11; 2]);
            b.flush();
            b.stats()
        });
        a.send(vec![1; 5]);
        a.send(vec![2; 7]);
        recv_n(&mut a, &[3, 4, 1]);
        a.set_phase(Phase::Offline);
        a.send(vec![3; 100]);
        a.send(vec![4; 20]);
        a.flush();
        a.send(vec![5; 8]);
        recv_n(&mut a, &[9, 9]);
        let s1 = a.stats();
        a.send(vec![6; 11]);
        a.set_phase(Phase::Online);
        a.send(vec![7; 16]);
        a.send(vec![8; 16]);
        a.send(vec![9; 2]);
        recv_n(&mut a, &[6, 6, 30, 1]);
        let s2 = a.stats();
        a.send(vec![10; 12]);
        a.set_phase(Phase::Single);
        a.send(vec![11; 40]);
        recv_n(&mut a, &[2, 2]);
        [s1, s2, a.stats(), bob.join().unwrap()]
    }

    /// The golden conversation on every pair kind. Each endpoint meters
    /// its own wire, and the script consumes everything either side
    /// stages, so Alice's and Bob's final views agree field for field.
    #[test]
    fn comm_stats_by_phase_golden() {
        let (sa, sb) = {
            let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
            let sa = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            (sa, listener.accept().unwrap().0)
        };
        let timeout = Some(crate::DEFAULT_IO_TIMEOUT);
        let pairs = [
            ("mpsc", channel_pair()),
            ("tcp pair", crate::tcp_channel_pair().unwrap()),
            (
                // Endpoints over streams the caller connected, as
                // `secyan-client` and `secyan-server` build theirs.
                "tcp endpoints",
                (
                    crate::tcp_endpoint(Role::Alice, sa, timeout).unwrap(),
                    crate::tcp_endpoint(Role::Bob, sb, timeout).unwrap(),
                ),
            ),
        ];
        // Recorded on the hand-written 20-atomic meter shared by both
        // endpoints, which the per-endpoint counters replaced: a mismatch
        // means a meter value changed meaning.
        let golden_final = CommStats {
            bytes_alice_to_bob: 237,
            bytes_bob_to_alice: 73,
            messages_alice_to_bob: 11,
            messages_bob_to_alice: 11,
            messages: 22,
            offline_bytes: 157,
            online_bytes: 89,
            frames_alice_to_bob: 7,
            frames_bob_to_alice: 7,
            super_rounds: 8,
            offline_super_rounds: 3,
            online_super_rounds: 3,
        };
        let golden_since = CommStats {
            bytes_alice_to_bob: 45,
            bytes_bob_to_alice: 43,
            messages_alice_to_bob: 4,
            messages_bob_to_alice: 4,
            messages: 8,
            offline_bytes: 11,
            online_bytes: 77,
            frames_alice_to_bob: 2,
            frames_bob_to_alice: 4,
            super_rounds: 2,
            offline_super_rounds: 1,
            online_super_rounds: 2,
        };
        for (kind, (a, b)) in pairs {
            let [s1, s2, alice, bob] = golden_script(a, b);
            assert_eq!(alice, golden_final, "{kind}: Alice's final stats");
            assert_eq!(bob, golden_final, "{kind}: Bob's final stats");
            assert_eq!(s2.since(&s1), golden_since, "{kind}: since()");
        }
    }

    #[test]
    fn meters_exclude_frame_and_sub_headers() {
        let (mut a, mut b) = channel_pair();
        let h = thread::spawn(move || {
            b.recv();
            b.recv();
            b.stats()
        });
        a.send(vec![0; 5]);
        a.send(vec![0; 2]);
        a.flush();
        let stats = h.join().unwrap();
        assert_eq!(stats.bytes_alice_to_bob, 7);
        assert_eq!(stats.total_bytes(), 7);
    }
}
