//! What the four workloads share: the unit of work they report and the
//! interface the driver in `main.rs` runs them through.

use crate::trace::Tracer;
use secyan_core::SecureQuery;
use secyan_crypto::TweakHasher;
use secyan_transport::{CommStats, NetModel};
use std::time::Instant;

/// The hasher every workload and probe runs with: the stack's default.
pub fn hasher() -> TweakHasher {
    TweakHasher::default()
}

/// One unit of work: a query or a session, checked against its oracle.
pub struct Op {
    /// `query` for the query workloads; the run mode for sessions.
    pub kind: &'static str,
    /// The latency a user waits for the result.
    pub ms: f64,
    /// Wall time both parties spent on the unit, offline work included.
    pub busy_ms: f64,
    /// The unit's traffic.
    pub stats: CommStats,
    /// The revealed result equals the oracle's and nothing failed.
    pub ok: bool,
}

/// One public query shape a unit of work executes, `runs` times per unit on
/// average over the workload's mix.
pub struct ShapeUse {
    pub query: SecureQuery,
    pub sizes: Vec<usize>,
    pub ell: usize,
    pub runs: f64,
}

/// Counts a workload keeps beside its units of work.
#[derive(Default)]
pub struct Tally {
    pub pool_hits: u64,
    pub pool_misses: u64,
    /// Banked materials left over at session end, summed (server only).
    pub pool_left: u64,
    /// Server-side sessions that ended in a typed protocol failure.
    pub protocol_failed: u64,
    /// Server-side sessions that did not complete, for whatever reason.
    pub not_completed: u64,
}

pub trait Workload {
    /// One closed-loop repetition: every unit it ran, checked. A workload
    /// whose clients run side by side keeps them going until `until` has
    /// passed, so that they idle at the end of a repetition once, not once
    /// per cycle; the others run one unit. Spans are recorded only while
    /// `tracer` is on.
    fn rep(&mut self, tracer: &Tracer, until: Instant) -> Vec<Op>;

    /// The query shapes behind one unit of work.
    fn shapes(&self) -> Vec<ShapeUse>;

    /// The link model the units pay for, if the workload declares one.
    fn net_model(&self) -> Option<NetModel> {
        None
    }

    /// Stop whatever the workload started and hand back its counts.
    fn finish(&mut self) -> Tally {
        Tally::default()
    }
}

pub const NAMES: [&str; 4] = [
    "tpch_q3_cold",
    "tpch_q18_tcp",
    "chain3_wan_pooled",
    "tcp_serve_mixed",
];

/// Build a workload's inputs from `seed` and run its untimed warm-up
/// repetition. Everything in here is what `setup_s` times.
pub fn set_up(name: &str, seed: u64, tracer: &Tracer) -> (Box<dyn Workload>, Vec<Op>) {
    let mut w: Box<dyn Workload> = match name {
        "tpch_q3_cold" => Box::new(crate::tpch::Tpch::q3_cold(seed, tracer)),
        "tpch_q18_tcp" => Box::new(crate::tpch::Tpch::q18_tcp(seed, tracer)),
        "chain3_wan_pooled" => Box::new(crate::chain3::Chain3::new(seed, tracer)),
        "tcp_serve_mixed" => Box::new(crate::serve::Serve::new(seed, tracer)),
        other => unreachable!("workload {other} was checked against NAMES"),
    };
    let warm_up = w.rep(tracer, Instant::now());
    (w, warm_up)
}
