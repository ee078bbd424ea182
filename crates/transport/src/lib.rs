//! Two-party transport layer for the secure Yannakakis protocol suite.
//!
//! The paper's protocols are strictly two-party: Alice and Bob exchange
//! messages over an authenticated channel. This crate provides an in-process
//! realization of that channel: both parties run as real OS threads and
//! exchange owned, length-delimited byte messages through a duplex pipe that
//! meters every byte, message and communication round.
//!
//! Metering matters because the paper's evaluation (Figures 2–6) reports
//! *communication cost* alongside running time; the benchmark harness reads
//! the meters after each protocol run. Round counting (the number of
//! direction switches on the wire) lets tests check the paper's claim that
//! the number of rounds depends only on the query, not the data.
//!
//! Obliviousness testing also leans on this crate: a protocol is oblivious
//! only if its transcript (here: the sequence of message lengths in each
//! direction) is a function of the public parameters alone. See
//! [`recorded`] and [`TranscriptHandle::lengths`].
//!
//! Round compression: sends are *staged* and coalesced — every run of
//! same-direction messages between genuine ping-pong dependencies travels
//! as one wire frame (a *super-round*), flushed automatically the moment
//! an endpoint would block on its peer. Logical rounds/bytes are metered
//! at stage time (so protocol-structure numbers and obliviousness
//! transcripts are unchanged by coalescing) while
//! [`CommStats::super_rounds`] counts what actually pays latency on the
//! wire. See [`Channel::stage`] / [`Channel::flush`].
//!
//! Fault tolerance: messages are framed and sequence-numbered on the wire,
//! so truncation, split writes, reordering and peer disconnects surface as
//! typed [`TransportError`]s instead of hangs or garbage reads. The
//! [`fault`] module injects exactly those faults deterministically into
//! any pair ([`faulted`]), and
//! [`try_run_protocol`] / [`try_run_protocol_on`] catch the typed unwinds
//! at the session boundary.

mod channel;
mod error;
pub mod fault;
pub mod handshake;
mod runner;
mod tcp;
mod wire;

pub use channel::{
    channel_pair, recorded, Channel, CommStats, NetModel, Phase, Role, TranscriptHandle,
    MAX_FRAME_SIZE,
};
pub use error::{ProtocolError, TransportError};
pub use fault::{faulted, FaultKind, FaultPlan, FaultSpec};
pub use handshake::{ClientHello, HandshakeError, PROTOCOL_VERSION};
pub use runner::{
    catch_protocol, run_protocol, run_protocol_captured, run_protocol_on, try_run_protocol,
    try_run_protocol_on,
};
pub use tcp::{tcp_channel_pair, tcp_endpoint, tcp_pair_from_streams, DEFAULT_IO_TIMEOUT};
pub use wire::{ReadExt, WriteExt};
