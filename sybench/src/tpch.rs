//! The two TPC-H workloads: the paper's Figures 2 and 4, single-shot.
//!
//! `tpch_q3_cold` runs Q3 through the in-process pipe, where bandwidth is
//! unlimited and the run is compute-bound: PSI, OT extension, garbling and
//! OEP do nearly all the work, and it has the largest working set of the
//! four workloads. `tpch_q18_tcp` runs Q18 — a deeper tree with the padded
//! `HAVING` sub-query, a multi-row result and the data-dependent join phase
//! the shape planner cannot foresee — over a real loopback socket, so many
//! medium batches and the TCP framing show where Q3's few large batches and
//! the pipe hide them.

use crate::trace::Tracer;
use crate::workload::{hasher, Op, ShapeUse, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secyan_core::Session;
use secyan_crypto::RingCtx;
use secyan_relation::NaturalRing;
use secyan_tpch::queries::{
    canonical, run_plaintext_instance, run_secure_instance, QuerySpec, ResultRow,
};
use secyan_tpch::{Database, PaperQuery, Scale};
use secyan_transport::{channel_pair, tcp_channel_pair, try_run_protocol_on};
use std::time::Instant;

#[derive(Clone, Copy)]
enum Link {
    Pipe,
    LoopbackTcp,
}

pub struct Tpch {
    spec: QuerySpec,
    want: Vec<ResultRow>,
    link: Link,
    seed: u64,
    reps: u64,
}

/// dbgen draws 1 to 7 lines per order, so the lineitem count — public, and
/// what the protocol's cost follows — would move by a few percent from seed
/// to seed. Pin it to the mean of 4 per order, so that every seed has the
/// same public shape and only the values differ: cut the surplus, or repeat
/// lines drawn at random.
fn pin_lineitem_count(db: &mut Database, rng: &mut StdRng) {
    let target = 4 * db.orders.len();
    db.lineitem.rows.truncate(target);
    while db.lineitem.rows.len() < target {
        let again = db.lineitem.rows[rng.gen_range(0..db.lineitem.rows.len())].clone();
        db.lineitem.rows.push(again);
    }
}

impl Tpch {
    pub fn q3_cold(seed: u64, tracer: &Tracer) -> Tpch {
        Tpch::new(PaperQuery::Q3, 0.3, Link::Pipe, seed, tracer)
    }

    pub fn q18_tcp(seed: u64, tracer: &Tracer) -> Tpch {
        Tpch::new(PaperQuery::Q18, 0.1, Link::LoopbackTcp, seed, tracer)
    }

    fn new(query: PaperQuery, mb: f64, link: Link, seed: u64, tracer: &Tracer) -> Tpch {
        let ring = NaturalRing::paper_default();
        let db = tracer.within("tpch.generate", || {
            let mut db = Database::generate(Scale::mb(mb), seed);
            pin_lineitem_count(&mut db, &mut StdRng::seed_from_u64(seed));
            db
        });
        let spec = tracer.within("tpch.build", || query.build(&db, ring));
        let want = tracer.within("relation.oracle", || {
            canonical(run_plaintext_instance(&spec, ring))
        });
        Tpch {
            spec,
            want,
            link,
            seed,
            reps: 0,
        }
    }
}

impl Workload for Tpch {
    fn rep(&mut self, tracer: &Tracer, _until: Instant) -> Vec<Op> {
        self.reps += 1;
        let _request = tracer.request_span("bench.rep", self.reps);
        let ring = RingCtx::new(32);
        let pair = match self.link {
            Link::Pipe => channel_pair(),
            Link::LoopbackTcp => tcp_channel_pair().expect("loopback socket pair"),
        };
        let (seed_a, seed_b) = (
            (self.seed ^ 0xa11ce).wrapping_add(self.reps),
            (self.seed ^ 0xb0b).wrapping_add(self.reps),
        );
        let spec = &self.spec;
        let t = Instant::now();
        let ran = try_run_protocol_on(
            pair,
            |ch| {
                let mut sess = tracer.within("core.session_new", || {
                    Session::new(ch, ring, hasher(), seed_a)
                });
                tracer.within("core.query", || run_secure_instance(&mut sess, spec))
            },
            |ch| {
                let mut sess = Session::new(ch, ring, hasher(), seed_b);
                run_secure_instance(&mut sess, spec)
            },
        );
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let (ok, stats) = match ran {
            Ok((rows, _, stats)) => (
                tracer.within("bench.check", || canonical(rows) == self.want),
                stats,
            ),
            Err(e) => {
                eprintln!("sybench: {} failed: {e}", self.spec.query.name());
                (false, Default::default())
            }
        };
        vec![Op {
            kind: "query",
            ms,
            busy_ms: ms,
            stats,
            ok,
        }]
    }

    fn shapes(&self) -> Vec<ShapeUse> {
        self.spec
            .subqueries
            .iter()
            .map(|sq| ShapeUse {
                query: sq.to_secure_query(),
                sizes: sq.relations.iter().map(|r| r.len()).collect(),
                ell: 32,
                runs: 1.0,
            })
            .collect()
    }
}
