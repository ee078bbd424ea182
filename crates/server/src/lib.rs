//! The multi-session server runtime: Bob as a network service.
//!
//! [`serve`] binds a TCP listener and accepts any number of concurrent
//! two-party sessions, one OS thread per session. Each session:
//!
//! 1. reads the versioned client hello (see `secyan-transport::handshake`)
//!    under a short hello deadline, so a half-open connect or a stalled
//!    or hostile peer costs one thread for at most that long;
//! 2. decodes the [`SessionRequest`] payload, regenerates the named
//!    instance, and cross-checks the hello's declared ℓ and `ShapeKey`
//!    against the instance — any disagreement is answered with a typed
//!    rejection verdict and the connection is closed;
//! 3. answers `ACCEPT`, wraps the socket in a metered
//!    [`Channel`] (Bob's endpoint), and runs the requested number of
//!    query executions in the requested mode.
//!
//! Session state is strictly per-thread: the [`PreprocPool`] backing
//! `Pooled` mode is constructed inside the session thread and dropped
//! (zeroizing unconsumed material) when the session ends, so no pool
//! entry can ever migrate between sessions. A typed protocol failure
//! tears down only its own session — the accept loop keeps serving.
//!
//! The runtime trusts nothing about the peer: malformed hellos, oversized
//! declarations, garbage bytes and protocol faults all surface as typed
//! errors recorded in the session's [`SessionReport`], never as a panic
//! or a hung thread.
//!
//! [`Channel`]: secyan_transport::Channel

pub mod spec;

pub use spec::{run_party, QuerySpec, RunMode, SessionRequest, MAX_RUNS};

use secyan_core::{PreprocPool, ShapeKey};
use secyan_transport::handshake::{
    read_client_hello, write_server_hello, DeadlineReader, HandshakeError, CODE_ACCEPT,
    CODE_REJECT_MALFORMED, CODE_REJECT_SHAPE, CODE_REJECT_VERSION,
};
use secyan_transport::{catch_protocol, tcp_endpoint, CommStats, Role, DEFAULT_IO_TIMEOUT};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs. `Default` binds an ephemeral loopback port with
/// the transport's default I/O deadline and a short hello deadline.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Address to listen on; port 0 picks an ephemeral port (read the
    /// actual one from [`ServerHandle::addr`]).
    pub addr: SocketAddr,
    /// Deadline for the *entire* client hello. Short by design: an
    /// accepted connection that never speaks must release its thread.
    pub hello_timeout: Duration,
    /// Per-read/write deadline on the session channel once accepted.
    pub io_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".parse().expect("static addr"),
            hello_timeout: Duration::from_secs(3),
            io_timeout: DEFAULT_IO_TIMEOUT,
        }
    }
}

/// How one session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionOutcome {
    /// All requested runs finished; `out_size` is the last run's public
    /// output size.
    Completed { runs: u32, out_size: usize },
    /// The hello never validated (timeout, garbage, bad version,
    /// malformed request, shape mismatch); the recorded string is the
    /// typed error's rendering.
    HandshakeFailed(String),
    /// The handshake accepted but the protocol run ended in a typed
    /// failure.
    ProtocolFailed(String),
}

/// The server's record of one session, handshake-rejected or completed.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Monotonic session number, in accept order.
    pub id: u64,
    /// Peer address as accepted.
    pub peer: Option<SocketAddr>,
    pub outcome: SessionOutcome,
    /// The negotiated shape key (accepted sessions only).
    pub shape_key: Option<ShapeKey>,
    /// Preprocessing pool counters at session end (zero outside `Pooled`
    /// mode). Reported per session precisely because pools are
    /// per-session: the concurrency tests assert no cross-session bleed.
    pub pool_hits: u64,
    pub pool_misses: u64,
    /// Materials still banked when the session ended (should be 0 for a
    /// balanced `Pooled` session).
    pub pool_left: usize,
    /// The session channel's local communication profile (both
    /// directions; accepted sessions only).
    pub stats: Option<CommStats>,
}

/// How many session reports a server retains. Every accepted connection
/// produces one — a peer that only opens and drops sockets included — so
/// an unbounded list would grow for as long as the server lives.
pub const MAX_REPORTS: usize = 1 << 16;

/// The most recent `cap` reports, oldest first, and how many were ever
/// pushed — the count a reader keeps as its cursor.
struct ReportRing {
    cap: usize,
    pushed: u64,
    reports: VecDeque<SessionReport>,
}

impl ReportRing {
    fn new(cap: usize) -> ReportRing {
        ReportRing {
            cap,
            pushed: 0,
            reports: VecDeque::new(),
        }
    }

    /// Append `report`, evicting the oldest one once `cap` are held.
    fn push(&mut self, report: SessionReport) {
        if self.reports.len() == self.cap {
            self.reports.pop_front();
        }
        self.reports.push_back(report);
        self.pushed += 1;
    }

    /// The retained reports pushed after the first `seen`, oldest first,
    /// and the count pushed so far. Reports evicted before they were read
    /// are skipped, not replayed.
    fn since(&self, seen: u64) -> (Vec<SessionReport>, u64) {
        let evicted = self.pushed - self.reports.len() as u64;
        let skip = seen.saturating_sub(evicted) as usize;
        let new = self.reports.iter().skip(skip).cloned().collect();
        (new, self.pushed)
    }
}

/// A running server. Dropping the handle stops it.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    reports: Arc<Mutex<ReportRing>>,
}

impl ServerHandle {
    /// The bound listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the session reports so far, in completion order. Only
    /// the most recent [`MAX_REPORTS`] are retained; older ones are
    /// evicted oldest first.
    pub fn reports(&self) -> Vec<SessionReport> {
        self.reports_since(0).0
    }

    /// The reports completed after the first `seen`, in completion order,
    /// and the number completed so far — pass it back as `seen` to read
    /// each report once, however many the ring has evicted since.
    pub fn reports_since(&self, seen: u64) -> (Vec<SessionReport>, u64) {
        self.reports
            .lock()
            .expect("reports lock poisoned")
            .since(seen)
    }

    /// Stop accepting and wait for in-flight sessions to finish.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop if it is blocked; the dummy connection is
        // observed after the stop flag and discarded.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind and start serving. Returns once the listener is live; sessions
/// run on their own threads until [`ServerHandle::stop`] (or drop).
pub fn serve(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(config.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let reports = Arc::new(Mutex::new(ReportRing::new(MAX_REPORTS)));
    let (stop2, reports2) = (Arc::clone(&stop), Arc::clone(&reports));
    let accept_thread = std::thread::spawn(move || {
        let mut sessions: Vec<JoinHandle<()>> = Vec::new();
        let mut next_id = 0u64;
        loop {
            let accepted = listener.accept();
            if stop2.load(Ordering::SeqCst) {
                break;
            }
            let Ok((stream, peer)) = accepted else {
                // Listener-level errors are transient (EMFILE, aborts);
                // keep serving.
                continue;
            };
            let id = next_id;
            next_id += 1;
            let reports = Arc::clone(&reports2);
            sessions.push(std::thread::spawn(move || {
                let report = run_session(id, peer, stream, config);
                reports.lock().expect("reports lock poisoned").push(report);
            }));
            // Reap finished sessions so a long-lived server does not
            // accumulate join handles.
            sessions.retain(|h| !h.is_finished());
        }
        for h in sessions {
            let _ = h.join();
        }
    });
    Ok(ServerHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
        reports,
    })
}

/// Read the hello — all of it within `hello_timeout` of this call — validate
/// it against the regenerated instance and answer the verdict. `Ok` carries
/// the decoded request and its instance.
fn negotiate(
    stream: &mut TcpStream,
    hello_timeout: Duration,
) -> Result<(SessionRequest, secyan_testkit::Instance, ShapeKey), String> {
    let mut reader = DeadlineReader::new(stream, Instant::now() + hello_timeout);
    let hello = match read_client_hello(&mut reader) {
        Ok(h) => h,
        Err(e) => {
            // Answer typed rejections where the peer can still parse one;
            // transport-level failures (EOF, timeout) get no reply.
            match &e {
                HandshakeError::VersionMismatch { .. } => {
                    let _ = write_server_hello(stream, CODE_REJECT_VERSION, &e.to_string());
                }
                HandshakeError::TooLarge { .. } | HandshakeError::BadMagic { .. } => {
                    let _ = write_server_hello(stream, CODE_REJECT_MALFORMED, &e.to_string());
                }
                HandshakeError::Transport(_) | HandshakeError::Rejected { .. } => {}
            }
            return Err(e.to_string());
        }
    };
    let Some(req) = SessionRequest::decode(&hello.payload) else {
        let detail = "hello payload is not a valid session request";
        let _ = write_server_hello(stream, CODE_REJECT_MALFORMED, detail);
        return Err(detail.to_string());
    };
    let inst = req.spec.instance();
    // The declared ℓ and shape key must match what this server derives
    // from the named instance — a mismatch means the two processes would
    // run different circuits, so refuse before any protocol bytes flow.
    let key = ShapeKey::of(&inst.query(), &inst.sizes(), Role::Alice, inst.ell as usize);
    if hello.ell != inst.ell || hello.shape_key != key.0 {
        let detail = format!(
            "declared shape (ell {}, key {:#x}) disagrees with instance shape (ell {}, key {:#x})",
            hello.ell, hello.shape_key, inst.ell, key.0
        );
        let _ = write_server_hello(stream, CODE_REJECT_SHAPE, &detail);
        return Err(detail);
    }
    if let Err(e) = write_server_hello(stream, CODE_ACCEPT, "") {
        return Err(e.to_string());
    }
    Ok((req, inst, key))
}

/// Run one accepted connection to completion and produce its report.
fn run_session(
    id: u64,
    peer: SocketAddr,
    mut stream: TcpStream,
    config: ServerConfig,
) -> SessionReport {
    let mut report = SessionReport {
        id,
        peer: Some(peer),
        outcome: SessionOutcome::HandshakeFailed("unset".into()),
        shape_key: None,
        pool_hits: 0,
        pool_misses: 0,
        pool_left: 0,
        stats: None,
    };
    if stream
        .set_write_timeout(Some(config.hello_timeout))
        .is_err()
    {
        report.outcome = SessionOutcome::HandshakeFailed("socket configuration failed".into());
        return report;
    }
    let (req, inst, key) = match negotiate(&mut stream, config.hello_timeout) {
        Ok(x) => x,
        Err(detail) => {
            report.outcome = SessionOutcome::HandshakeFailed(detail);
            return report;
        }
    };
    report.shape_key = Some(key);
    let mut ch = match tcp_endpoint(Role::Bob, stream, Some(config.io_timeout)) {
        Ok(ch) => ch,
        Err(e) => {
            report.outcome = SessionOutcome::HandshakeFailed(format!("endpoint setup: {e}"));
            return report;
        }
    };
    let mut pool = PreprocPool::new();
    let ran = catch_protocol(|| run_party(&mut ch, &mut pool, &inst, &req).out_size);
    let _ = ch.try_flush();
    report.stats = Some(ch.stats());
    report.pool_hits = pool.hits();
    report.pool_misses = pool.misses();
    report.pool_left = pool.available(key);
    report.outcome = match ran {
        Ok(out_size) => SessionOutcome::Completed {
            runs: req.runs,
            out_size,
        },
        Err(e) => SessionOutcome::ProtocolFailed(e.to_string()),
    };
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(id: u64) -> SessionReport {
        SessionReport {
            id,
            peer: None,
            outcome: SessionOutcome::HandshakeFailed(format!("session {id}")),
            shape_key: None,
            pool_hits: 0,
            pool_misses: 0,
            pool_left: 0,
            stats: None,
        }
    }

    #[test]
    fn report_ring_evicts_oldest_first() {
        let mut ring = ReportRing::new(4);
        let ids = |ring: &ReportRing| ring.since(0).0.iter().map(|r| r.id).collect::<Vec<_>>();
        for id in 0..3 {
            ring.push(report(id));
        }
        assert_eq!(ids(&ring), [0, 1, 2], "below capacity nothing is evicted");
        for id in 3..7 {
            ring.push(report(id));
        }
        // The four most recent, still in completion order, ids monotonic.
        assert_eq!(ids(&ring), [3, 4, 5, 6]);
    }

    #[test]
    fn cursor_reads_each_report_once_across_a_wrapped_ring() {
        let mut ring = ReportRing::new(4);
        let ids = |new: &[SessionReport]| new.iter().map(|r| r.id).collect::<Vec<_>>();
        (0..3).for_each(|id| ring.push(report(id)));
        let (new, seen) = ring.since(0);
        assert_eq!((ids(&new), seen), (vec![0, 1, 2], 3));
        // Full and wrapped: the length stays 4 while the count moves on.
        (3..6).for_each(|id| ring.push(report(id)));
        let (new, seen) = ring.since(seen);
        assert_eq!((ids(&new), seen), (vec![3, 4, 5], 6));
        assert!(ring.since(seen).0.is_empty(), "nothing new");
        // A reader that fell more than a ring behind gets what is left.
        (6..12).for_each(|id| ring.push(report(id)));
        let (new, seen) = ring.since(seen);
        assert_eq!((ids(&new), seen), (vec![8, 9, 10, 11], 12));
    }
}
