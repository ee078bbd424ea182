//! The networked client: Alice as a process.
//!
//! [`run_session`] connects to a `secyan-server`, performs the versioned
//! hello (declaring protocol version, ℓ, and the query's `ShapeKey` so
//! the server can route the session before parsing the request), and —
//! once accepted — runs the requested executions of the query with the
//! client playing Alice, the designated receiver. The revealed result is
//! returned canonicalized (sorted rows, zero rows dropped) together with
//! the endpoint's local communication profile, which covers both
//! directions (standalone endpoints meter incoming traffic at consume
//! time).
//!
//! Every failure is typed: connection and socket setup problems as
//! [`ClientError::Io`], a refused or malformed negotiation as
//! [`ClientError::Handshake`] (carrying the server's verdict code when
//! one arrived), and any protocol-layer fault as
//! [`ClientError::Protocol`] — the client never hangs past its deadlines
//! and never panics on hostile peers.

use secyan_core::{PreprocPool, ShapeKey};
use secyan_server::{run_party, SessionRequest};
use secyan_testkit::{canonical_result, Rows};
use secyan_transport::handshake::{
    read_server_hello, write_client_hello, ClientHello, DeadlineReader, HandshakeError,
    PROTOCOL_VERSION,
};
use secyan_transport::{catch_protocol, tcp_endpoint, CommStats, ProtocolError, Role};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Deadline for connecting and for the whole hello exchange.
    pub hello_timeout: Duration,
    /// Per-read/write deadline on the session channel once accepted.
    pub io_timeout: Duration,
    /// Protocol version to declare. Production callers leave the default
    /// [`PROTOCOL_VERSION`]; negative tests declare wrong versions to
    /// exercise the server's typed rejection.
    pub version: u32,
}

impl ClientConfig {
    /// Defaults against `addr`: 3 s hello deadline, 10 s I/O deadline,
    /// the current protocol version.
    pub fn new(addr: SocketAddr) -> ClientConfig {
        ClientConfig {
            addr,
            hello_timeout: Duration::from_secs(3),
            io_timeout: Duration::from_secs(10),
            version: PROTOCOL_VERSION,
        }
    }
}

/// Typed failure of a client session.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting or configuring the socket failed.
    Io(std::io::Error),
    /// The hello exchange failed or the server refused the session.
    Handshake(HandshakeError),
    /// The accepted session ended in a typed protocol fault.
    Protocol(ProtocolError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Handshake(e) => write!(f, "handshake failed: {e}"),
            ClientError::Protocol(e) => write!(f, "session failed: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// What an accepted, completed session produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Canonicalized revealed result of the last run (all runs of a
    /// session evaluate the same instance).
    pub rows: Rows,
    /// Public output size as revealed by the protocol.
    pub out_size: usize,
    /// This endpoint's communication profile, both directions.
    pub stats: CommStats,
}

/// Connect, negotiate, and run the session to completion.
pub fn run_session(cfg: &ClientConfig, req: &SessionRequest) -> Result<RunOutcome, ClientError> {
    let inst = req.spec.instance();
    let query = inst.query();
    let sizes = inst.sizes();
    let ring = inst.ring_ctx();
    let key = ShapeKey::of(&query, &sizes, Role::Alice, inst.ell as usize);
    let hello_deadline = Instant::now() + cfg.hello_timeout;
    let mut stream =
        TcpStream::connect_timeout(&cfg.addr, cfg.hello_timeout).map_err(ClientError::Io)?;
    stream
        .set_write_timeout(Some(cfg.hello_timeout))
        .map_err(ClientError::Io)?;
    write_client_hello(
        &mut stream,
        &ClientHello {
            version: cfg.version,
            ell: inst.ell,
            shape_key: key.0,
            payload: req.encode(),
        },
    )
    .map_err(ClientError::Handshake)?;
    read_server_hello(&mut DeadlineReader::new(&stream, hello_deadline))
        .map_err(ClientError::Handshake)?;
    let mut ch =
        tcp_endpoint(Role::Alice, stream, Some(cfg.io_timeout)).map_err(ClientError::Io)?;
    let mut pool = PreprocPool::new();
    let ran = catch_protocol(|| run_party(&mut ch, &mut pool, &inst, req));
    let res = ran.map_err(ClientError::Protocol)?;
    let _ = ch.try_flush();
    Ok(RunOutcome {
        rows: canonical_result(ring, &res),
        out_size: res.out_size,
        stats: ch.stats(),
    })
}
