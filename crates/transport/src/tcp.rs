//! The socket-backed pipe: the same staged/coalesced channel surface over
//! a real TCP stream.
//!
//! Everything above the [`crate::channel::Pipe`] seam — `send_with`
//! staging, flush-before-block coalescing, eager mode, phase-tagged
//! sequence words, stage-time metering, transcripts — is shared with the
//! in-process transport, so a protocol run over TCP produces the same
//! logical transcript and meters byte for byte. What this module adds:
//!
//! * [`TcpPipe`] — length-prefixed frames over a `TcpStream` with
//!   configurable read/write deadlines. Short reads come back as short
//!   buffers so the channel's existing header validation types every wire
//!   fault (`Truncated`, `Corrupt`, `FrameTooLarge`, …) identically on
//!   both transports; only genuinely socket-specific conditions map to
//!   new errors ([`crate::TransportError::Timeout`] for a blown deadline,
//!   `PeerClosed` for EOF/reset).
//! * Paired constructors ([`tcp_channel_pair`], [`tcp_pair_from_streams`])
//!   for in-process tests that want both endpoints of a loopback socket
//!   with one shared meter — the drop-in replacement the differential and
//!   fault batteries run next to `channel_pair` ([`crate::recorded`] and
//!   [`crate::faulted`] apply to it unchanged).
//! * A standalone endpoint constructor ([`tcp_endpoint`]) for the real
//!   party-per-process deployment (`secyan-server` / `secyan-client`),
//!   metering both directions locally.
//!
//! An allocation-bomb note mirroring the in-process path: the pipe reads
//! the 8-byte header first and refuses to allocate for a payload declared
//! beyond [`MAX_FRAME_SIZE`] — it hands the bare header up instead, and
//! the channel's sequence/phase/size checks then surface the typed
//! `FrameTooLarge` in the same validation order as the mpsc transport.

use crate::channel::{endpoint_over, pair_over, Channel, Pipe, Role, HEADER, MAX_FRAME_SIZE};
use crate::error::TransportError;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

/// Default I/O deadline on socket-backed endpoints. Generous enough for
/// any loopback or LAN protocol run; short enough that an abandoned
/// session thread frees itself. Override per endpoint with
/// [`Channel::set_io_timeout`].
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Map a socket error onto the transport's typed vocabulary. EOF and
/// reset conditions are the peer going away; a blown read/write deadline
/// is a stall; anything else is reported as a corrupt wire.
pub(crate) fn map_io(e: &io::Error, during: &'static str) -> TransportError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => TransportError::Timeout { during },
        io::ErrorKind::UnexpectedEof
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe
        | io::ErrorKind::NotConnected => TransportError::PeerClosed { during },
        _ => TransportError::Corrupt {
            detail: "socket i/o failed",
        },
    }
}

/// Read until `buf` is full or the stream hits EOF; returns bytes read.
/// A deadline or connection error surfaces typed; EOF does not — the
/// caller decides what a short frame means (the channel's validators do).
fn read_full(stream: &mut TcpStream, buf: &mut [u8]) -> Result<usize, TransportError> {
    let mut got = 0;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(map_io(&e, "recv")),
        }
    }
    Ok(got)
}

/// One endpoint's socket, speaking the channel's wire format: each frame
/// is the 8-byte header (payload length, sequence word) followed by the
/// declared payload, exactly as staged by [`Channel::flush`].
pub(crate) struct TcpPipe {
    stream: TcpStream,
}

impl TcpPipe {
    /// Wrap a connected stream. Disables Nagle (the transport already
    /// coalesces maximally at the frame layer — delaying flushed frames
    /// only adds latency per super-round) and applies `timeout` to both
    /// directions.
    pub(crate) fn new(stream: TcpStream, timeout: Option<Duration>) -> io::Result<TcpPipe> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        Ok(TcpPipe { stream })
    }

    pub(crate) fn set_io_timeout(&mut self, timeout: Option<Duration>) {
        let _ = self.stream.set_read_timeout(timeout);
        let _ = self.stream.set_write_timeout(timeout);
    }

    pub(crate) fn io_timeout(&self) -> Option<Duration> {
        self.stream.read_timeout().ok().flatten()
    }

    /// Half-close: the peer reads EOF after what was already written.
    pub(crate) fn close_send(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
    }

    /// Write one complete frame (header already stamped by the channel).
    pub(crate) fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.stream.write_all(frame).map_err(|e| map_io(&e, "send"))
    }

    /// Read the next frame: header first, then exactly the declared
    /// payload. Returns whatever prefix the wire produced on a premature
    /// EOF (the channel's header checks type the fault), and the bare
    /// header when the declaration exceeds [`MAX_FRAME_SIZE`] — the bound
    /// is enforced *before* the payload allocation, so a hostile header
    /// cannot act as an allocation bomb.
    pub(crate) fn recv_frame(
        &mut self,
        spare: &mut Vec<Vec<u8>>,
    ) -> Result<Vec<u8>, TransportError> {
        let mut buf = spare.pop().unwrap_or_default();
        buf.clear();
        buf.resize(HEADER, 0);
        let got = read_full(&mut self.stream, &mut buf)?;
        if got == 0 {
            return Err(TransportError::PeerClosed { during: "recv" });
        }
        if got < HEADER {
            buf.truncate(got);
            return Ok(buf);
        }
        let declared = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if declared > MAX_FRAME_SIZE {
            return Ok(buf);
        }
        buf.resize(HEADER + declared, 0);
        let got = read_full(&mut self.stream, &mut buf[HEADER..])?;
        buf.truncate(HEADER + got);
        Ok(buf)
    }
}

impl Drop for TcpPipe {
    /// Graceful shutdown: signal EOF to the peer so a blocked remote recv
    /// unblocks with a typed `PeerClosed` instead of waiting out its
    /// deadline. Closing the fd would do the same, but an explicit
    /// write-half shutdown also flushes promptly under `SO_LINGER`-less
    /// defaults.
    fn drop(&mut self) {
        self.close_send();
    }
}

/// A connected loopback stream pair `(connector, acceptor)`.
fn loopback_stream_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let a = TcpStream::connect(addr)?;
    let (b, _) = listener.accept()?;
    Ok((a, b))
}

/// [`crate::channel_pair`] over a real loopback TCP socket: both endpoints
/// share one meter, so every counter is directly comparable with an
/// in-process run. Frames genuinely traverse the kernel's TCP stack.
/// Endpoints start with [`DEFAULT_IO_TIMEOUT`].
pub fn tcp_channel_pair() -> io::Result<(Channel, Channel)> {
    let (a, b) = loopback_stream_pair()?;
    tcp_pair_from_streams(a, b)
}

/// Build a shared-meter channel pair over two already-connected streams
/// the caller owns. `alice` is Alice's socket, `bob` Bob's.
pub fn tcp_pair_from_streams(alice: TcpStream, bob: TcpStream) -> io::Result<(Channel, Channel)> {
    let alice = TcpPipe::new(alice, Some(DEFAULT_IO_TIMEOUT))?;
    let bob = TcpPipe::new(bob, Some(DEFAULT_IO_TIMEOUT))?;
    Ok(pair_over(Pipe::Tcp(alice), Pipe::Tcp(bob)))
}

/// Build one standalone endpoint over a connected stream — the real
/// party-per-process deployment. The endpoint owns a private meter and
/// meters *both* directions locally (its own sends at stage time, the
/// peer's messages as they are consumed), so [`Channel::stats`] reports a
/// full communication profile without a shared-memory peer.
pub fn tcp_endpoint(
    role: Role,
    stream: TcpStream,
    io_timeout: Option<Duration>,
) -> io::Result<Channel> {
    let pipe = TcpPipe::new(stream, io_timeout)?;
    Ok(endpoint_over(role, Pipe::Tcp(pipe)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Phase;
    use std::thread;

    #[test]
    fn tcp_roundtrip_and_shared_meters() {
        let (mut a, mut b) = tcp_channel_pair().unwrap();
        let h = thread::spawn(move || {
            let m = b.recv();
            assert_eq!(m, vec![1, 2, 3]);
            b.send(vec![9; 10]);
            b.flush();
            b.stats()
        });
        a.send(vec![1, 2, 3]);
        let m = a.recv();
        assert_eq!(m, vec![9; 10]);
        let stats = h.join().unwrap();
        assert_eq!(stats.bytes_alice_to_bob, 3);
        assert_eq!(stats.bytes_bob_to_alice, 10);
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.super_rounds, 2);
    }

    #[test]
    fn tcp_coalesces_staged_messages() {
        let (mut a, mut b) = tcp_channel_pair().unwrap();
        let h = thread::spawn(move || {
            assert_eq!(b.recv(), vec![1, 2]);
            assert_eq!(b.recv(), vec![3]);
            assert_eq!(b.recv(), vec![4, 5, 6]);
            b.stats()
        });
        a.send(vec![1, 2]);
        a.send(vec![3]);
        a.send(vec![4, 5, 6]);
        a.flush();
        let stats = h.join().unwrap();
        assert_eq!(stats.messages_alice_to_bob, 3);
        assert_eq!(stats.frames_alice_to_bob, 1, "one super-frame expected");
        assert_eq!(stats.super_rounds, 1);
    }

    #[test]
    fn tcp_phase_tags_validated() {
        let (mut a, mut b) = tcp_channel_pair().unwrap();
        a.set_phase(Phase::Offline);
        a.send(vec![1, 2]);
        a.flush();
        assert_eq!(
            b.try_recv().unwrap_err(),
            TransportError::PhaseMismatch {
                expected: Phase::Single,
                got: Phase::Offline,
            }
        );
    }

    #[test]
    fn tcp_peer_drop_surfaces_peer_closed() {
        let (a, mut b) = tcp_channel_pair().unwrap();
        drop(a);
        assert_eq!(
            b.try_recv().unwrap_err(),
            TransportError::PeerClosed { during: "recv" }
        );
    }

    #[test]
    fn tcp_stalled_peer_times_out() {
        let (mut a, mut b) = tcp_channel_pair().unwrap();
        b.set_io_timeout(Some(Duration::from_millis(100)));
        let t = std::time::Instant::now();
        assert_eq!(
            b.try_recv().unwrap_err(),
            TransportError::Timeout { during: "recv" }
        );
        assert!(
            t.elapsed() < Duration::from_secs(5),
            "deadline did not bound the wait"
        );
        // The pair is still connected: traffic flows after the timeout.
        a.send(vec![7]);
        a.flush();
        assert_eq!(b.recv(), vec![7]);
    }

    #[test]
    fn tcp_endpoint_meters_both_directions() {
        let (sa, sb) = loopback_stream_pair().unwrap();
        let mut a = tcp_endpoint(Role::Alice, sa, Some(DEFAULT_IO_TIMEOUT)).unwrap();
        let h = thread::spawn(move || {
            let mut b = tcp_endpoint(Role::Bob, sb, Some(DEFAULT_IO_TIMEOUT)).unwrap();
            let m = b.recv();
            b.send(vec![0; 5]);
            b.flush();
            (m, b.stats())
        });
        a.send(vec![1, 2, 3]);
        assert_eq!(a.recv(), vec![0; 5]);
        let (m, bob_stats) = h.join().unwrap();
        assert_eq!(m, vec![1, 2, 3]);
        // Each endpoint's local meter covers both directions.
        let alice_stats = a.stats();
        for stats in [alice_stats, bob_stats] {
            assert_eq!(stats.bytes_alice_to_bob, 3);
            assert_eq!(stats.bytes_bob_to_alice, 5);
            assert_eq!(stats.messages, 2);
            assert_eq!(stats.frames_alice_to_bob, 1);
            assert_eq!(stats.frames_bob_to_alice, 1);
        }
    }

    #[test]
    fn oversized_declaration_is_rejected_before_allocation() {
        // Hand-craft a hostile header on a raw socket: u32::MAX declared
        // payload. The endpoint must surface FrameTooLarge without trying
        // to read (or allocate) 4 GiB.
        let (mut raw, sb) = loopback_stream_pair().unwrap();
        let mut b = tcp_endpoint(Role::Bob, sb, Some(DEFAULT_IO_TIMEOUT)).unwrap();
        let declared = u32::MAX;
        let mut header = Vec::new();
        header.extend_from_slice(&declared.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes()); // seq 0, Single phase
        raw.write_all(&header).unwrap();
        assert_eq!(
            b.try_recv().unwrap_err(),
            TransportError::FrameTooLarge {
                declared: u64::from(declared),
                limit: MAX_FRAME_SIZE as u64,
            }
        );
    }

    #[test]
    fn mid_header_eof_is_corrupt_and_mid_payload_eof_is_truncated() {
        // Header cut short.
        let (mut raw, sb) = loopback_stream_pair().unwrap();
        let mut b = tcp_endpoint(Role::Bob, sb, Some(DEFAULT_IO_TIMEOUT)).unwrap();
        raw.write_all(&[1, 0, 0]).unwrap();
        drop(raw);
        assert_eq!(
            b.try_recv().unwrap_err(),
            TransportError::Corrupt {
                detail: "frame shorter than its 8-byte header"
            }
        );
        // Payload cut short: declared 8 bytes, wrote 3.
        let (mut raw, sb) = loopback_stream_pair().unwrap();
        let mut b = tcp_endpoint(Role::Bob, sb, Some(DEFAULT_IO_TIMEOUT)).unwrap();
        let mut frame = Vec::new();
        frame.extend_from_slice(&8u32.to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame.extend_from_slice(&[9, 9, 9]);
        raw.write_all(&frame).unwrap();
        drop(raw);
        assert_eq!(
            b.try_recv().unwrap_err(),
            TransportError::Truncated {
                expected: 8,
                got: 3
            }
        );
    }

    #[test]
    fn split_written_frames_reassemble() {
        // A sender dribbling one byte at a time is indistinguishable from
        // a whole frame by the time the exact-read loop returns.
        let (mut raw, sb) = loopback_stream_pair().unwrap();
        let mut b = tcp_endpoint(Role::Bob, sb, Some(DEFAULT_IO_TIMEOUT)).unwrap();
        let mut frame = Vec::new();
        frame.extend_from_slice(&7u32.to_le_bytes()); // payload: sub-header + 3
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame.extend_from_slice(&3u32.to_le_bytes());
        frame.extend_from_slice(&[5, 6, 7]);
        let h = thread::spawn(move || {
            for byte in frame {
                raw.write_all(&[byte]).unwrap();
                thread::sleep(Duration::from_micros(300));
            }
        });
        assert_eq!(b.recv(), vec![5, 6, 7]);
        h.join().unwrap();
    }
}
