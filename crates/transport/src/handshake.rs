//! Versioned session-negotiation handshake for the networked runtime.
//!
//! Before a [`crate::Channel`] exists, client and server speak a tiny
//! self-delimiting preamble directly on the socket:
//!
//! ```text
//! ClientHello:  "SYH1" | version u32 | ell u32 | shape_key u64
//!               | payload_len u32 | payload bytes
//! ServerHello:  "SYA1" | version u32 | code u8
//!               | detail_len u32 | detail bytes (utf-8)
//! ```
//!
//! All integers little-endian. The payload is an opaque query
//! specification the server-side runtime decodes (`secyan-server`'s
//! `SessionRequest`); this crate only enforces the *transport* contract:
//! magic, protocol version, and hard byte bounds. The declared `ell` and
//! `shape_key` ride in the fixed header so a server can route the session
//! to its preprocessing pool before parsing anything variable-length.
//!
//! Hardening mirrors the channel layer: every variable-length field's
//! declared size is bounded *before* allocation
//! ([`MAX_HELLO_PAYLOAD`] / [`MAX_DETAIL_LEN`]), a garbage magic aborts
//! without reading further, and both sides read through a
//! [`DeadlineReader`] — so a half-open connect, a stalled hello or a peer
//! dribbling one byte at a time surfaces as a typed error by one absolute
//! deadline, never a hung accept thread or a client held for hours.

use crate::error::TransportError;
use crate::tcp::map_io;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Wire version of the hello + channel framing this build speaks. Bump on
/// any incompatible change to either.
pub const PROTOCOL_VERSION: u32 = 1;

/// Client-hello magic (`SYH1` = secure-yannakakis hello v1 framing).
pub const HELLO_MAGIC: [u8; 4] = *b"SYH1";

/// Server-hello magic (`SYA1` = answer).
pub const ANSWER_MAGIC: [u8; 4] = *b"SYA1";

/// Hard bound on the hello's variable-length payload. Query
/// specifications are tens of bytes; anything near this bound is hostile.
pub const MAX_HELLO_PAYLOAD: usize = 1 << 16;

/// Hard bound on a server-hello's rejection detail string.
pub const MAX_DETAIL_LEN: usize = 1 << 12;

/// Server verdict codes carried in the `ServerHello`.
pub const CODE_ACCEPT: u8 = 0;
/// The client's protocol version is not this server's.
pub const CODE_REJECT_VERSION: u8 = 1;
/// The hello parsed but its payload did not decode to a valid request.
pub const CODE_REJECT_MALFORMED: u8 = 2;
/// The declared `shape_key`/`ell` disagree with the request payload.
pub const CODE_REJECT_SHAPE: u8 = 3;

/// A parsed client hello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    pub version: u32,
    /// Ring width ℓ the client wants the session to run at.
    pub ell: u32,
    /// The query's `ShapeKey` word (see `secyan-core`), declared up front
    /// for preprocessing-pool routing; the server re-derives it from the
    /// payload and rejects a mismatch ([`CODE_REJECT_SHAPE`]).
    pub shape_key: u64,
    /// Opaque query specification (decoded by the server runtime).
    pub payload: Vec<u8>,
}

/// Typed failure of the handshake preamble.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeError {
    /// The socket failed underneath the handshake (EOF, reset, deadline).
    Transport(TransportError),
    /// The first four bytes were not the expected magic — the peer is not
    /// speaking this protocol at all.
    BadMagic { got: [u8; 4] },
    /// Both sides speak the preamble but different protocol versions.
    VersionMismatch { ours: u32, theirs: u32 },
    /// A variable-length field declared a size beyond its hard bound; the
    /// declaration is rejected before any allocation.
    TooLarge { declared: u64, limit: u64 },
    /// The server parsed the hello and refused it with a typed code.
    Rejected { code: u8, detail: String },
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::Transport(e) => write!(f, "handshake transport failure: {e}"),
            HandshakeError::BadMagic { got } => {
                write!(f, "bad handshake magic: {got:02x?}")
            }
            HandshakeError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: ours {ours}, peer's {theirs}")
            }
            HandshakeError::TooLarge { declared, limit } => {
                write!(
                    f,
                    "handshake field too large: declared {declared} bytes, limit {limit}"
                )
            }
            HandshakeError::Rejected { code, detail } => {
                write!(f, "server rejected the session (code {code}): {detail}")
            }
        }
    }
}

impl std::error::Error for HandshakeError {}

impl From<TransportError> for HandshakeError {
    fn from(e: TransportError) -> HandshakeError {
        HandshakeError::Transport(e)
    }
}

/// A socket under one absolute read deadline: the socket timeout is
/// re-armed with the time remaining before every read, so a peer that
/// dribbles bytes just inside a per-read timeout still runs out of time.
/// Server and client read each other's hello through one of these; the
/// session channel built afterwards sets its own per-operation timeout.
pub struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl<'a> DeadlineReader<'a> {
    /// Reads on `stream` fail with `TimedOut` from `deadline` on.
    pub fn new(stream: &'a TcpStream, deadline: Instant) -> DeadlineReader<'a> {
        DeadlineReader { stream, deadline }
    }
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

fn read_exact(r: &mut impl Read, buf: &mut [u8]) -> Result<(), HandshakeError> {
    r.read_exact(buf)
        .map_err(|e| HandshakeError::Transport(map_io(&e, "handshake")))
}

fn write_all(w: &mut impl Write, buf: &[u8]) -> Result<(), HandshakeError> {
    w.write_all(buf)
        .map_err(|e| HandshakeError::Transport(map_io(&e, "handshake")))
}

fn read_u32(r: &mut impl Read) -> Result<u32, HandshakeError> {
    let mut b = [0u8; 4];
    read_exact(r, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> Result<u64, HandshakeError> {
    let mut b = [0u8; 8];
    read_exact(r, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Send a client hello. `hello.version` is caller-supplied so negative
/// tests can speak a wrong version deliberately; production callers pass
/// [`PROTOCOL_VERSION`].
pub fn write_client_hello(w: &mut impl Write, hello: &ClientHello) -> Result<(), HandshakeError> {
    assert!(
        hello.payload.len() <= MAX_HELLO_PAYLOAD,
        "hello payload exceeds MAX_HELLO_PAYLOAD"
    );
    let mut buf = Vec::with_capacity(24 + hello.payload.len());
    buf.extend_from_slice(&HELLO_MAGIC);
    buf.extend_from_slice(&hello.version.to_le_bytes());
    buf.extend_from_slice(&hello.ell.to_le_bytes());
    buf.extend_from_slice(&hello.shape_key.to_le_bytes());
    buf.extend_from_slice(&(hello.payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&hello.payload);
    write_all(w, &buf)
}

/// Read and validate a client hello (server side). Magic, version, and
/// the payload bound are enforced here; the caller owns semantic
/// validation of the payload (and answers with [`write_server_hello`]).
pub fn read_client_hello(r: &mut impl Read) -> Result<ClientHello, HandshakeError> {
    let mut magic = [0u8; 4];
    read_exact(r, &mut magic)?;
    if magic != HELLO_MAGIC {
        return Err(HandshakeError::BadMagic { got: magic });
    }
    let version = read_u32(r)?;
    if version != PROTOCOL_VERSION {
        return Err(HandshakeError::VersionMismatch {
            ours: PROTOCOL_VERSION,
            theirs: version,
        });
    }
    let ell = read_u32(r)?;
    let shape_key = read_u64(r)?;
    let payload_len = read_u32(r)? as usize;
    if payload_len > MAX_HELLO_PAYLOAD {
        return Err(HandshakeError::TooLarge {
            declared: payload_len as u64,
            limit: MAX_HELLO_PAYLOAD as u64,
        });
    }
    let mut payload = vec![0u8; payload_len];
    read_exact(r, &mut payload)?;
    Ok(ClientHello {
        version,
        ell,
        shape_key,
        payload,
    })
}

/// Send the server's verdict: [`CODE_ACCEPT`] or a typed rejection with a
/// short human-readable detail.
pub fn write_server_hello(
    w: &mut impl Write,
    code: u8,
    detail: &str,
) -> Result<(), HandshakeError> {
    let detail = &detail.as_bytes()[..detail.len().min(MAX_DETAIL_LEN)];
    let mut buf = Vec::with_capacity(13 + detail.len());
    buf.extend_from_slice(&ANSWER_MAGIC);
    buf.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    buf.push(code);
    buf.extend_from_slice(&(detail.len() as u32).to_le_bytes());
    buf.extend_from_slice(detail);
    write_all(w, &buf)
}

/// Read the server's verdict (client side): `Ok(())` on accept, a typed
/// [`HandshakeError::Rejected`] otherwise.
pub fn read_server_hello(r: &mut impl Read) -> Result<(), HandshakeError> {
    let mut magic = [0u8; 4];
    read_exact(r, &mut magic)?;
    if magic != ANSWER_MAGIC {
        return Err(HandshakeError::BadMagic { got: magic });
    }
    let version = read_u32(r)?;
    if version != PROTOCOL_VERSION {
        return Err(HandshakeError::VersionMismatch {
            ours: PROTOCOL_VERSION,
            theirs: version,
        });
    }
    let mut code = [0u8; 1];
    read_exact(r, &mut code)?;
    let detail_len = read_u32(r)? as usize;
    if detail_len > MAX_DETAIL_LEN {
        return Err(HandshakeError::TooLarge {
            declared: detail_len as u64,
            limit: MAX_DETAIL_LEN as u64,
        });
    }
    let mut detail = vec![0u8; detail_len];
    read_exact(r, &mut detail)?;
    if code[0] == CODE_ACCEPT {
        return Ok(());
    }
    Err(HandshakeError::Rejected {
        code: code[0],
        detail: String::from_utf8_lossy(&detail).into_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hello() -> ClientHello {
        ClientHello {
            version: PROTOCOL_VERSION,
            ell: 64,
            shape_key: 0xDEAD_BEEF_CAFE_F00D,
            payload: vec![1, 2, 3, 4],
        }
    }

    #[test]
    fn hello_roundtrips() {
        let mut wire = Vec::new();
        write_client_hello(&mut wire, &hello()).unwrap();
        let got = read_client_hello(&mut wire.as_slice()).unwrap();
        assert_eq!(got, hello());
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut wire = Vec::new();
        let mut h = hello();
        h.version = PROTOCOL_VERSION + 7;
        write_client_hello(&mut wire, &h).unwrap();
        assert_eq!(
            read_client_hello(&mut wire.as_slice()).unwrap_err(),
            HandshakeError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: PROTOCOL_VERSION + 7,
            }
        );
    }

    #[test]
    fn garbage_magic_is_typed() {
        let wire = b"GET / HTTP/1.1\r\n\r\n".to_vec();
        assert_eq!(
            read_client_hello(&mut wire.as_slice()).unwrap_err(),
            HandshakeError::BadMagic { got: *b"GET " }
        );
    }

    #[test]
    fn oversized_payload_declaration_is_typed() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&HELLO_MAGIC);
        wire.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        wire.extend_from_slice(&64u32.to_le_bytes());
        wire.extend_from_slice(&0u64.to_le_bytes());
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            read_client_hello(&mut wire.as_slice()).unwrap_err(),
            HandshakeError::TooLarge {
                declared: u64::from(u32::MAX),
                limit: MAX_HELLO_PAYLOAD as u64,
            }
        );
    }

    #[test]
    fn truncated_hello_is_transport_error() {
        let mut wire = Vec::new();
        write_client_hello(&mut wire, &hello()).unwrap();
        wire.truncate(wire.len() - 2);
        assert!(matches!(
            read_client_hello(&mut wire.as_slice()).unwrap_err(),
            HandshakeError::Transport(TransportError::PeerClosed { .. })
        ));
    }

    #[test]
    fn verdicts_roundtrip() {
        let mut wire = Vec::new();
        write_server_hello(&mut wire, CODE_ACCEPT, "").unwrap();
        read_server_hello(&mut wire.as_slice()).unwrap();
        let mut wire = Vec::new();
        write_server_hello(&mut wire, CODE_REJECT_SHAPE, "shape key mismatch").unwrap();
        assert_eq!(
            read_server_hello(&mut wire.as_slice()).unwrap_err(),
            HandshakeError::Rejected {
                code: CODE_REJECT_SHAPE,
                detail: "shape key mismatch".into(),
            }
        );
    }
}
