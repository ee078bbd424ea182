//! `chain3_wan_pooled`: the offline/online split under a modeled WAN.
//!
//! The `BENCH_online.json` query — R1(a) ⋈ R2(a,b) ⋈ R3(b), 24/48/24 rows,
//! owners Alice/Bob/Alice, scalar SUM over a 64-bit ring — with every send
//! sleeping for its share of a 100 Mbit/s link with 20 ms one-way latency.
//! Modeled transfer and per-super-round latency are most of every timed
//! span, so faster kernels should not move this workload, while fewer bytes
//! or rounds, or work moved between the phases, should. Each repetition
//! provisions one material into a pool (offline) and runs one query against
//! it (online); the user waits for the online part only, and the offline part
//! shows in the throughput.

use crate::trace::Tracer;
use crate::workload::{hasher, Op, ShapeUse, Tally, Workload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use secyan_core::{run_online, secure_yannakakis, PreprocPool, QueryResult, Session};
use secyan_relation::{JoinTree, NaturalRing, Relation};
use secyan_testkit::{canonical_result, oracle, session_seeds, AggKind, Instance, Rows};
use secyan_transport::{channel_pair, try_run_protocol_on, Channel, NetModel, Role};
use std::time::Instant;

const NET: NetModel = NetModel {
    bandwidth_bits_per_sec: 100_000_000,
    one_way_latency_us: 20_000,
};

/// The super-round counts `tests/tests/rounds.rs` pins for this shape. They
/// follow from the public shape alone, so a run above them means the harness
/// is not measuring the query it says it is.
const ONLINE_SUPER_ROUNDS: u64 = 16;
const OFFLINE_SUPER_ROUNDS: u64 = 11;

pub struct Chain3 {
    inst: Instance,
    want: Rows,
    reps: u64,
    tally: Tally,
}

fn strings(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

impl Chain3 {
    pub fn new(seed: u64, tracer: &Tracer) -> Chain3 {
        let mut rng = StdRng::seed_from_u64(seed);
        let ell = 64;
        let nat = NaturalRing(secyan_crypto::RingCtx::new(ell));
        // Keys of R1 and R3 are distinct, as in the recorded query; R2
        // draws its pairs from the same 24 and 31 values.
        let mut b_keys: Vec<u64> = (0..31).collect();
        b_keys.shuffle(&mut rng);
        let relations = vec![
            Relation::from_rows(
                nat,
                strings(&["a"]),
                (0..24).map(|a| (vec![a], rng.gen_range(1..=9))).collect(),
            ),
            Relation::from_rows(
                nat,
                strings(&["a", "b"]),
                (0..48)
                    .map(|_| {
                        let pair = vec![rng.gen_range(0..24), rng.gen_range(0..31)];
                        (pair, rng.gen_range(1..=9))
                    })
                    .collect(),
            ),
            Relation::from_rows(
                nat,
                strings(&["b"]),
                b_keys[..24]
                    .iter()
                    .map(|&b| (vec![b], rng.gen_range(1..=9)))
                    .collect(),
            ),
        ];
        let inst = Instance {
            seed,
            ell,
            agg: AggKind::Sum,
            schemas: vec![strings(&["a"]), strings(&["a", "b"]), strings(&["b"])],
            owners: vec![Role::Alice, Role::Bob, Role::Alice],
            tree: JoinTree::chain(3),
            output: Vec::new(),
            relations,
        };
        let want = tracer.within("relation.oracle", || oracle(&inst));
        Chain3 {
            inst,
            want,
            reps: 0,
            tally: Tally::default(),
        }
    }

    fn wan_pair() -> (Channel, Channel) {
        let (mut a, mut b) = channel_pair();
        a.set_net_model(Some(NET));
        b.set_net_model(Some(NET));
        (a, b)
    }

    /// One party's side of a repetition: provision one material into a
    /// pool, then take it and run the query against it. Returns the result,
    /// the two phases' wall times in milliseconds and the pool's hit and
    /// miss counts.
    ///
    /// The material is taken by hand and handed to `run_online`, not left to
    /// `run_online_pooled`: that one opens with both parties sending their
    /// availability word at once, and whether the wire counts one direction
    /// switch or two for it depends on thread timing — 20 ms of modeled
    /// latency that would come and go from repetition to repetition.
    fn pooled_party(
        &self,
        ch: &mut Channel,
        seed: u64,
        tracer: &Tracer,
    ) -> (QueryResult, f64, f64, u64, u64) {
        let inst = &self.inst;
        let (query, sizes, ring) = (inst.query(), inst.sizes(), inst.ring_ctx());
        let rels = inst.party_relations(ch.role());
        let mut pool = PreprocPool::new();
        let t = Instant::now();
        let key = tracer.within("core.offline", || {
            pool.provision(ch, &query, &sizes, Role::Alice, ring, hasher(), seed)
        });
        let offline_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let res = tracer.within("core.online", || {
            let material = pool.take(key).expect("provisioned a moment ago");
            run_online(ch, &query, &rels, Role::Alice, ring, hasher(), material)
        });
        let online_ms = t.elapsed().as_secs_f64() * 1e3;
        (res, offline_ms, online_ms, pool.hits(), pool.misses())
    }

    /// A single-shot run over the same link, for the traced pass: the cost
    /// a user pays with nothing banked.
    fn cold(&self, tracer: &Tracer) -> bool {
        let inst = &self.inst;
        let (query, ring) = (inst.query(), inst.ring_ctx());
        let (sa, sb) = session_seeds(inst);
        let (sa, sb) = (sa.wrapping_sub(self.reps), sb.wrapping_sub(self.reps));
        let ran = try_run_protocol_on(
            Chain3::wan_pair(),
            |ch| {
                let rels = inst.party_relations(Role::Alice);
                let mut sess =
                    tracer.within("core.session_new", || Session::new(ch, ring, hasher(), sa));
                tracer.within("core.query", || {
                    secure_yannakakis(&mut sess, &query, &rels, Role::Alice)
                })
            },
            |ch| {
                let rels = inst.party_relations(Role::Bob);
                let mut sess = Session::new(ch, ring, hasher(), sb);
                secure_yannakakis(&mut sess, &query, &rels, Role::Alice);
            },
        );
        match ran {
            Ok((res, (), _)) => canonical_result(ring, &res) == self.want,
            Err(e) => {
                eprintln!("sybench: chain3 cold run failed: {e}");
                false
            }
        }
    }
}

impl Workload for Chain3 {
    fn rep(&mut self, tracer: &Tracer, _until: Instant) -> Vec<Op> {
        self.reps += 1;
        let _request = tracer.request_span("bench.rep", self.reps);
        let ring = self.inst.ring_ctx();
        let (sa, sb) = session_seeds(&self.inst);
        let (sa, sb) = (sa.wrapping_add(self.reps), sb.wrapping_add(self.reps));
        // Bob opens no spans: one span stack per request, on the side whose
        // latency is reported.
        let off = Tracer::new();
        let ran = try_run_protocol_on(
            Chain3::wan_pair(),
            |ch| self.pooled_party(ch, sa, tracer),
            |ch| self.pooled_party(ch, sb, &off),
        );
        let mut op = match ran {
            Ok(((res, offline_ms, online_ms, hits, misses), _, stats)) => {
                self.tally.pool_hits += hits;
                self.tally.pool_misses += misses;
                let ok = tracer.within("bench.check", || {
                    canonical_result(ring, &res) == self.want
                        && stats.online_super_rounds <= ONLINE_SUPER_ROUNDS
                        && stats.offline_super_rounds <= OFFLINE_SUPER_ROUNDS
                });
                if !ok {
                    eprintln!(
                        "sybench: chain3 check failed: got {:?}, want {:?}, {} online and {} \
                         offline super-rounds",
                        canonical_result(ring, &res),
                        self.want,
                        stats.online_super_rounds,
                        stats.offline_super_rounds
                    );
                }
                Op {
                    kind: "query",
                    ms: online_ms,
                    busy_ms: offline_ms + online_ms,
                    stats,
                    ok,
                }
            }
            Err(e) => {
                eprintln!("sybench: chain3 pooled run failed: {e}");
                Op {
                    kind: "query",
                    ms: 0.0,
                    busy_ms: 0.0,
                    stats: Default::default(),
                    ok: false,
                }
            }
        };
        if tracer.is_on() {
            op.ok &= self.cold(tracer);
        }
        vec![op]
    }

    fn shapes(&self) -> Vec<ShapeUse> {
        vec![ShapeUse {
            query: self.inst.query(),
            sizes: self.inst.sizes(),
            ell: self.inst.ell as usize,
            runs: 1.0,
        }]
    }

    fn net_model(&self) -> Option<NetModel> {
        Some(NET)
    }

    fn finish(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }
}
