//! The multi-session server runtime under concurrent load and hostile
//! handshakes. Satellite coverage for the networked runtime (DESIGN.md
//! §15): N simultaneous sessions with distinct query shapes must all
//! produce correct results with strictly per-session preprocessing pools,
//! and every malformed hello — wrong version, oversized declaration,
//! garbage bytes, half-open connect — must surface as a typed rejection
//! within the hello deadline, never a hang or a panic, with the server
//! still serving afterwards.

use secyan_client::{run_session, ClientConfig, ClientError};
use secyan_core::ShapeKey;
use secyan_server::{serve, QuerySpec, RunMode, ServerConfig, SessionOutcome, SessionRequest};
use secyan_testkit::oracle;
use secyan_transport::handshake::{
    read_server_hello, write_client_hello, ClientHello, HandshakeError, CODE_REJECT_MALFORMED,
    CODE_REJECT_SHAPE, CODE_REJECT_VERSION, MAX_DETAIL_LEN, MAX_HELLO_PAYLOAD, PROTOCOL_VERSION,
};
use secyan_transport::Role;
use std::collections::BTreeSet;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// A client config with deadlines short enough that a misbehaving server
/// fails the test quickly instead of hanging it.
fn client_config(addr: SocketAddr) -> ClientConfig {
    let mut cfg = ClientConfig::new(addr);
    cfg.hello_timeout = Duration::from_secs(5);
    cfg
}

/// The expected shape key of a spec's instance, derived exactly as both
/// endpoints derive it during negotiation.
fn expected_shape_key(spec: &QuerySpec) -> u64 {
    let inst = spec.instance();
    ShapeKey::of(&inst.query(), &inst.sizes(), Role::Alice, inst.ell as usize).0
}

/// A hand-rolled hello header — magic | version | ell | shape_key |
/// declared payload length — with no payload behind it.
fn hello_header(payload_len: u32) -> Vec<u8> {
    let mut hello = Vec::new();
    hello.extend_from_slice(b"SYH1");
    hello.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    hello.extend_from_slice(&64u32.to_le_bytes());
    hello.extend_from_slice(&0u64.to_le_bytes());
    hello.extend_from_slice(&payload_len.to_le_bytes());
    hello
}

/// Run one well-formed session against `addr` and assert the revealed
/// result matches the plaintext oracle. Used both as the concurrency
/// worker and as the liveness probe after every negative-path test.
fn run_good_session(addr: SocketAddr, req: &SessionRequest) {
    let out = run_session(&client_config(addr), req)
        .unwrap_or_else(|e| panic!("well-formed session {req:?} failed: {e}"));
    assert_eq!(
        out.rows,
        oracle(&req.spec.instance()),
        "session {req:?} revealed a wrong result"
    );
}

/// Five simultaneous sessions with five distinct query shapes, all in
/// `Pooled` mode: every client must reveal the correct result, and every
/// per-session report must show a fully self-contained pool (all hits,
/// no misses, nothing left) keyed by that session's own shape — proving
/// no preprocessing material bled between sessions.
#[test]
fn concurrent_sessions_are_isolated_and_correct() {
    let mut handle = serve(ServerConfig::default()).expect("server binds");
    let addr = handle.addr();
    let specs = [
        QuerySpec::Random { seed: 0 },
        QuerySpec::Random { seed: 1 },
        QuerySpec::Random { seed: 2 },
        QuerySpec::Chain { seed: 0 },
        QuerySpec::Chain { seed: 1 },
    ];
    const RUNS: u32 = 2;
    let workers: Vec<_> = specs
        .iter()
        .map(|&spec| {
            std::thread::spawn(move || {
                run_good_session(
                    addr,
                    &SessionRequest {
                        spec,
                        mode: RunMode::Pooled,
                        runs: RUNS,
                    },
                );
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client worker panicked");
    }
    handle.stop();

    let reports = handle.reports();
    assert_eq!(reports.len(), specs.len(), "one report per session");
    for r in &reports {
        assert!(
            matches!(r.outcome, SessionOutcome::Completed { runs: RUNS, .. }),
            "session {} did not complete all {RUNS} runs: {:?}",
            r.id,
            r.outcome
        );
        // A balanced pooled session consumes exactly what it provisioned:
        // every online run hits its *own* pool, nothing is missed (which
        // would mean falling back to inline preprocessing), and nothing
        // is left banked (which would mean another session's material
        // leaked in).
        assert_eq!(
            (r.pool_hits, r.pool_misses, r.pool_left),
            (u64::from(RUNS), 0, 0),
            "session {}'s pool is not self-contained",
            r.id
        );
    }
    // Each session negotiated its own shape: the reported keys are
    // exactly the five distinct expected ones.
    let reported: BTreeSet<u64> = reports
        .iter()
        .map(|r| r.shape_key.expect("accepted session has a key").0)
        .collect();
    let expected: BTreeSet<u64> = specs.iter().map(expected_shape_key).collect();
    assert_eq!(
        expected.len(),
        specs.len(),
        "specs must have distinct shapes"
    );
    assert_eq!(
        reported, expected,
        "per-session shape keys do not match the negotiated queries"
    );
}

/// A client declaring the wrong protocol version is refused with the
/// typed version-rejection verdict — and the server keeps serving.
#[test]
fn wrong_protocol_version_is_rejected_typed() {
    let handle = serve(ServerConfig::default()).expect("server binds");
    let req = SessionRequest {
        spec: QuerySpec::Chain { seed: 0 },
        mode: RunMode::Single,
        runs: 1,
    };
    let mut cfg = client_config(handle.addr());
    cfg.version = PROTOCOL_VERSION + 1;
    match run_session(&cfg, &req) {
        Err(ClientError::Handshake(HandshakeError::Rejected { code, .. })) => {
            assert_eq!(code, CODE_REJECT_VERSION);
        }
        other => panic!("wrong version must be rejected typed, got {other:?}"),
    }
    run_good_session(handle.addr(), &req);
}

/// A peer speaking a different protocol entirely (an HTTP request) is
/// answered with a typed malformed-rejection, not a hang or a crash.
#[test]
fn garbage_bytes_are_rejected_typed() {
    let handle = serve(ServerConfig::default()).expect("server binds");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
        .write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("write garbage");
    match read_server_hello(&mut stream) {
        Err(HandshakeError::Rejected { code, .. }) => {
            assert_eq!(code, CODE_REJECT_MALFORMED);
        }
        other => panic!("garbage hello must be rejected typed, got {other:?}"),
    }
    run_good_session(
        handle.addr(),
        &SessionRequest {
            spec: QuerySpec::Chain { seed: 0 },
            mode: RunMode::Single,
            runs: 1,
        },
    );
}

/// A hello declaring a near-4GiB payload is refused *before* any
/// allocation, within the hello deadline: the rejection must arrive
/// promptly even though the declared body never does.
#[test]
fn oversized_hello_declaration_is_rejected_promptly() {
    let handle = serve(ServerConfig::default()).expect("server binds");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    // A hostile declared payload length with no body behind it.
    let hello = hello_header(u32::MAX);
    let started = Instant::now();
    stream.write_all(&hello).expect("write hostile hello");
    match read_server_hello(&mut stream) {
        Err(HandshakeError::Rejected { code, .. }) => {
            assert_eq!(code, CODE_REJECT_MALFORMED);
        }
        other => panic!("oversized declaration must be rejected typed, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "rejection of an oversized declaration took {:?} — the server \
         tried to read (or allocate) the declared body",
        started.elapsed()
    );
    run_good_session(
        handle.addr(),
        &SessionRequest {
            spec: QuerySpec::Chain { seed: 0 },
            mode: RunMode::Single,
            runs: 1,
        },
    );
}

/// A well-formed hello whose payload is not a session request, one whose
/// declared shape key disagrees with its own request, and one asking for
/// more runs than a session may bank, each get their dedicated typed
/// verdicts.
#[test]
fn bad_payload_and_shape_mismatch_are_rejected_typed() {
    let handle = serve(ServerConfig::default()).expect("server binds");
    let req = SessionRequest {
        spec: QuerySpec::Chain { seed: 0 },
        mode: RunMode::Single,
        runs: 1,
    };
    for (hello, want) in [
        (
            // Valid preamble, garbage request payload.
            ClientHello {
                version: PROTOCOL_VERSION,
                ell: 64,
                shape_key: 0,
                payload: vec![0xde, 0xad, 0xbe],
            },
            CODE_REJECT_MALFORMED,
        ),
        (
            // Valid request, but the declared shape key is off by one.
            ClientHello {
                version: PROTOCOL_VERSION,
                ell: req.spec.instance().ell,
                shape_key: expected_shape_key(&req.spec).wrapping_add(1),
                payload: req.encode(),
            },
            CODE_REJECT_SHAPE,
        ),
        (
            // Valid shape, but a run count that would have the server bank
            // four billion materials before the first online run.
            ClientHello {
                version: PROTOCOL_VERSION,
                ell: req.spec.instance().ell,
                shape_key: expected_shape_key(&req.spec),
                payload: SessionRequest {
                    mode: RunMode::Pooled,
                    runs: u32::MAX,
                    ..req
                }
                .encode(),
            },
            CODE_REJECT_MALFORMED,
        ),
    ] {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        write_client_hello(&mut stream, &hello).expect("write hello");
        match read_server_hello(&mut stream) {
            Err(HandshakeError::Rejected { code, .. }) => assert_eq!(code, want),
            other => panic!("hello {hello:?} must be rejected with code {want}, got {other:?}"),
        }
    }
    run_good_session(handle.addr(), &req);
}

/// A half-open connect — the peer connects and then never speaks — costs
/// the server one thread for at most the hello deadline, after which the
/// session is recorded as a typed handshake failure and the server keeps
/// serving.
#[test]
fn half_open_connect_times_out_typed() {
    let config = ServerConfig {
        hello_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let handle = serve(config).expect("server binds");
    let _mute = TcpStream::connect(handle.addr()).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let reports = handle.reports();
        if let Some(r) = reports.first() {
            assert!(
                matches!(r.outcome, SessionOutcome::HandshakeFailed(_)),
                "half-open connect produced {:?}, not a handshake failure",
                r.outcome
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "half-open connect was never reported — the hello deadline did not fire"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    run_good_session(
        handle.addr(),
        &SessionRequest {
            spec: QuerySpec::Chain { seed: 0 },
            mode: RunMode::PhaseSplit,
            runs: 1,
        },
    );
}

/// A peer that declares the largest payload a hello may carry and then
/// dribbles it one byte per half deadline stays inside every per-read
/// timeout; the hello deadline is absolute, so the session is still cut —
/// a typed handshake failure within twice the deadline — and the server
/// keeps serving.
#[test]
fn slow_hello_is_cut_at_the_deadline() {
    let hello_timeout = Duration::from_secs(1);
    let config = ServerConfig {
        hello_timeout,
        ..ServerConfig::default()
    };
    let handle = serve(config).expect("server binds");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let hello = hello_header(MAX_HELLO_PAYLOAD as u32);
    let started = Instant::now();
    stream.write_all(&hello).expect("write hello header");
    let mut last_byte = started;
    loop {
        if let Some(r) = handle.reports().first() {
            assert!(
                matches!(r.outcome, SessionOutcome::HandshakeFailed(_)),
                "slow hello produced {:?}, not a handshake failure",
                r.outcome
            );
            break;
        }
        assert!(
            started.elapsed() < 2 * hello_timeout,
            "a dribbled hello still holds its session thread after twice the hello deadline"
        );
        if last_byte.elapsed() >= hello_timeout / 2 {
            // The server may already have hung up; that is the point.
            let _ = stream.write_all(&[0]);
            last_byte = Instant::now();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    run_good_session(
        handle.addr(),
        &SessionRequest {
            spec: QuerySpec::Chain { seed: 0 },
            mode: RunMode::Single,
            runs: 1,
        },
    );
}

/// The mirror image on the client: a hostile server answers with a valid
/// verdict header declaring the largest rejection detail it may, then
/// dribbles the detail one byte per half deadline. `ClientConfig::hello_timeout`
/// covers the whole hello exchange, so the client gives up — a typed
/// handshake failure within twice the deadline — instead of reading on for
/// the half hour the detail would take.
#[test]
fn slow_server_hello_is_cut_at_the_deadline() {
    let hello_timeout = Duration::from_secs(1);
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("listener addr");
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut answer = Vec::new();
        answer.extend_from_slice(b"SYA1");
        answer.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        answer.push(CODE_REJECT_MALFORMED);
        answer.extend_from_slice(&(MAX_DETAIL_LEN as u32).to_le_bytes());
        stream.write_all(&answer).expect("write verdict header");
        // Dribble until the client hangs up; hang up ourselves after four
        // deadlines so a client that never cuts still ends the test.
        let started = Instant::now();
        while started.elapsed() < 4 * hello_timeout && stream.write_all(b"x").is_ok() {
            std::thread::sleep(hello_timeout / 2);
        }
    });
    let mut cfg = ClientConfig::new(addr);
    cfg.hello_timeout = hello_timeout;
    let req = SessionRequest {
        spec: QuerySpec::Chain { seed: 0 },
        mode: RunMode::Single,
        runs: 1,
    };
    let started = Instant::now();
    let err = run_session(&cfg, &req).expect_err("a dribbled verdict is not a session");
    let held = started.elapsed();
    assert!(
        matches!(err, ClientError::Handshake(_)),
        "slow verdict produced {err:?}, not a handshake failure"
    );
    assert!(
        held < 2 * hello_timeout,
        "a dribbled verdict held the client for {held:?}, past twice the hello deadline"
    );
    server.join().expect("dribbling server thread");
}
