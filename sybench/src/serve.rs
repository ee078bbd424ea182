//! `tcp_serve_mixed`: many small sessions against the server runtime.
//!
//! An in-process `secyan_server::serve` on loopback and closed-loop client
//! threads calling `secyan_client::run_session`, each sending its next
//! request when the previous one has completed. The relations are tiny, so
//! the fixed cost of a session dominates — connect, hello, base-OT set-up,
//! thread spawn, small-frame round trips, pool provisioning — and the bulk
//! kernels are nearly idle: the opposite corner from the TPC-H workloads.
//!
//! A request can only name a testkit instance by family and seed, which
//! fixes its shape and its data together, and shapes differ several-fold
//! in cost. So the instances are a fixed list — both families, both ring
//! widths, scalar and group-by outputs, one-party and cross-party joins —
//! and `--seed` draws the order in which one cycle of the schedule (every
//! instance in every run mode) reaches the server. Repetitions are whole
//! cycles, so every run completes the same mix.

use crate::trace::Tracer;
use crate::workload::{hasher, Op, ShapeUse, Tally, Workload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use secyan_client::{run_session, ClientConfig, ClientError, RunOutcome};
use secyan_core::{
    run_offline, run_online, run_online_pooled, secure_yannakakis, PreprocPool, Session, ShapeKey,
};
use secyan_server::{
    serve, QuerySpec, RunMode, ServerConfig, ServerHandle, SessionOutcome, SessionRequest,
};
use secyan_testkit::{canonical_result, oracle, session_seeds, Instance, Rows};
use secyan_transport::handshake::{read_server_hello, write_client_hello, ClientHello};
use secyan_transport::{catch_protocol, tcp_endpoint, Role};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const INSTANCES: [QuerySpec; 8] = [
    QuerySpec::Random { seed: 0 },
    QuerySpec::Random { seed: 1 },
    QuerySpec::Random { seed: 4 },
    QuerySpec::Random { seed: 5 },
    QuerySpec::Random { seed: 10 },
    QuerySpec::Random { seed: 13 },
    QuerySpec::Chain { seed: 1 },
    QuerySpec::Chain { seed: 4 },
];

const MODES: [(RunMode, u32, &str); 3] = [
    (RunMode::Single, 1, "single"),
    (RunMode::PhaseSplit, 1, "phase_split"),
    (RunMode::Pooled, 4, "pooled"),
];

struct Planned {
    req: SessionRequest,
    kind: &'static str,
    /// Index into `Serve::instances`.
    inst: usize,
}

pub struct Serve {
    server: ServerHandle,
    cfg: ClientConfig,
    instances: Vec<(Instance, Rows)>,
    schedule: Vec<Planned>,
    clients: usize,
    sessions: AtomicU64,
}

impl Serve {
    pub fn new(seed: u64, tracer: &Tracer) -> Serve {
        let server = tracer.within("server.start", || {
            serve(ServerConfig::default()).expect("bind a loopback listener")
        });
        let instances: Vec<(Instance, Rows)> = INSTANCES
            .iter()
            .map(|spec| {
                let inst = spec.instance();
                let want = tracer.within("relation.oracle", || oracle(&inst));
                (inst, want)
            })
            .collect();
        let mut schedule: Vec<Planned> = Vec::new();
        for (inst, spec) in INSTANCES.iter().enumerate() {
            for (mode, runs, kind) in MODES {
                schedule.push(Planned {
                    req: SessionRequest {
                        spec: *spec,
                        mode,
                        runs,
                    },
                    kind,
                    inst,
                });
            }
        }
        schedule.shuffle(&mut StdRng::seed_from_u64(seed));
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Serve {
            cfg: ClientConfig::new(server.addr()),
            server,
            instances,
            schedule,
            clients: nproc.min(2),
            sessions: AtomicU64::new(0),
        }
    }

    /// One session, timed from the client's call to its outcome.
    fn session(&self, planned: &Planned, tracer: &Tracer) -> Op {
        let (inst, want) = &self.instances[planned.inst];
        let t = Instant::now();
        let ran = if tracer.is_on() {
            let request = self.sessions.fetch_add(1, Ordering::Relaxed) + 1;
            self.unrolled_session(inst, &planned.req, tracer, request)
        } else {
            run_session(&self.cfg, &planned.req)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let (ok, stats) = match ran {
            Ok(out) => (
                tracer.within("bench.check", || out.rows == *want),
                out.stats,
            ),
            Err(e) => {
                eprintln!("sybench: session {:?} failed: {e}", planned.req);
                (false, Default::default())
            }
        };
        Op {
            kind: planned.kind,
            ms,
            busy_ms: ms,
            stats,
            ok,
        }
    }

    /// `run_session` taken apart into the public calls it is made of, with
    /// a span around each layer. Its rows are checked against the same
    /// oracle as `run_session`'s, so the two agree whenever both pass.
    fn unrolled_session(
        &self,
        inst: &Instance,
        req: &SessionRequest,
        tracer: &Tracer,
        request: u64,
    ) -> Result<RunOutcome, ClientError> {
        let _request = tracer.request_span("client.session", request);
        let cfg = &self.cfg;
        let (query, sizes, ring) = (inst.query(), inst.sizes(), inst.ring_ctx());
        let key = ShapeKey::of(&query, &sizes, Role::Alice, inst.ell as usize);
        let mut stream = tracer
            .within("transport.connect", || {
                let stream = TcpStream::connect_timeout(&cfg.addr, cfg.hello_timeout)?;
                stream.set_read_timeout(Some(cfg.hello_timeout))?;
                stream.set_write_timeout(Some(cfg.hello_timeout))?;
                Ok(stream)
            })
            .map_err(ClientError::Io)?;
        tracer
            .within("transport.handshake", || {
                write_client_hello(
                    &mut stream,
                    &ClientHello {
                        version: cfg.version,
                        ell: inst.ell,
                        shape_key: key.0,
                        payload: req.encode(),
                    },
                )?;
                read_server_hello(&mut stream)
            })
            .map_err(ClientError::Handshake)?;
        let mut ch =
            tcp_endpoint(Role::Alice, stream, Some(cfg.io_timeout)).map_err(ClientError::Io)?;
        let (sa, _) = session_seeds(inst);
        let rels = inst.party_relations(Role::Alice);
        let mut pool = PreprocPool::new();
        let ran = catch_protocol(|| {
            let mut last = None;
            for i in 0..u64::from(req.runs) {
                let seed = sa.wrapping_add(i);
                match req.mode {
                    RunMode::Single => {
                        let mut sess = tracer.within("core.session_new", || {
                            Session::new(&mut ch, ring, hasher(), seed)
                        });
                        last = Some(tracer.within("core.query", || {
                            secure_yannakakis(&mut sess, &query, &rels, Role::Alice)
                        }));
                    }
                    RunMode::PhaseSplit => {
                        let material = tracer.within("core.offline", || {
                            run_offline(&mut ch, &query, &sizes, Role::Alice, ring, hasher(), seed)
                        });
                        last = Some(tracer.within("core.online", || {
                            run_online(
                                &mut ch,
                                &query,
                                &rels,
                                Role::Alice,
                                ring,
                                hasher(),
                                material,
                            )
                        }));
                    }
                    RunMode::Pooled => tracer.within("core.offline", || {
                        pool.provision(&mut ch, &query, &sizes, Role::Alice, ring, hasher(), seed);
                    }),
                }
            }
            if req.mode == RunMode::Pooled {
                for i in 0..u64::from(req.runs) {
                    last = Some(tracer.within("core.online", || {
                        run_online_pooled(
                            &mut pool,
                            &mut ch,
                            &query,
                            &sizes,
                            &rels,
                            Role::Alice,
                            ring,
                            hasher(),
                            sa.wrapping_add(i),
                        )
                    }));
                }
            }
            last.expect("every scheduled request has at least one run")
        });
        let res = ran.map_err(ClientError::Protocol)?;
        let _ = ch.try_flush();
        Ok(RunOutcome {
            rows: canonical_result(ring, &res),
            out_size: res.out_size,
            stats: ch.stats(),
        })
    }
}

impl Workload for Serve {
    /// Whole cycles of the schedule, drained by the client threads without
    /// a pause between cycles; the cycle in which `until` passes is the last.
    fn rep(&mut self, tracer: &Tracer, until: Instant) -> Vec<Op> {
        let this = &*self;
        let cycle = this.schedule.len();
        // (next session to hand out, first session not yet opened)
        let cursor = Mutex::new((0usize, cycle));
        let take = || {
            let mut cursor = cursor.lock().expect("a client thread panicked");
            let (next, end) = *cursor;
            if next == end {
                if Instant::now() >= until {
                    return None;
                }
                cursor.1 += cycle;
            }
            cursor.0 += 1;
            Some(&this.schedule[next % cycle])
        };
        let ops = Mutex::new(Vec::with_capacity(cycle));
        std::thread::scope(|s| {
            for _ in 0..this.clients {
                s.spawn(|| {
                    while let Some(planned) = take() {
                        let op = this.session(planned, tracer);
                        ops.lock().expect("a client thread panicked").push(op);
                    }
                });
            }
        });
        ops.into_inner().expect("a client thread panicked")
    }

    fn shapes(&self) -> Vec<ShapeUse> {
        let runs_per_instance: u32 = MODES.iter().map(|&(_, runs, _)| runs).sum();
        self.instances
            .iter()
            .map(|(inst, _)| ShapeUse {
                query: inst.query(),
                sizes: inst.sizes(),
                ell: inst.ell as usize,
                runs: f64::from(runs_per_instance) / self.schedule.len() as f64,
            })
            .collect()
    }

    fn finish(&mut self) -> Tally {
        self.server.stop();
        let mut tally = Tally::default();
        for report in self.server.reports() {
            tally.pool_hits += report.pool_hits;
            tally.pool_misses += report.pool_misses;
            tally.pool_left += report.pool_left as u64;
            match report.outcome {
                SessionOutcome::Completed { .. } => {}
                SessionOutcome::ProtocolFailed(_) => {
                    tally.protocol_failed += 1;
                    tally.not_completed += 1;
                }
                SessionOutcome::HandshakeFailed(_) => tally.not_completed += 1,
            }
        }
        tally
    }
}
