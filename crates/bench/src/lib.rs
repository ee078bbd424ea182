//! Benchmark harness for the paper's evaluation (§8, Figures 2–6).
//!
//! Each figure plots, per dataset size, the running time and communication
//! of (a) secure Yannakakis, (b) the naive garbled-circuit baseline
//! (measured small, extrapolated by exact circuit size — the paper's own
//! methodology), and (c) the non-private plaintext engine. This crate
//! provides the measurement plumbing; the `figures` binary prints the
//! series and `EXPERIMENTS.md` records paper-vs-measured.

use secyan_baseline::{naive_gc_evaluator, naive_gc_garbler, CartesianCostModel};
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_ot::{OtReceiver, OtSender};
use secyan_relation::NaturalRing;
use secyan_tpch::queries::{canonical, run_plaintext_instance, run_secure_instance, PaperQuery};
use secyan_tpch::{Database, Scale};
use secyan_transport::{run_protocol, Role};
use std::time::{Duration, Instant};

/// One measured point of a figure.
#[derive(Debug, Clone)]
pub struct FigurePoint {
    pub scale_mb: f64,
    pub effective_mb: f64,
    pub input_tuples: usize,
    /// Secure Yannakakis wall time (both parties run concurrently).
    pub sy_time: Duration,
    /// Secure Yannakakis total communication (bytes).
    pub sy_comm_bytes: u64,
    /// Naive-GC time, extrapolated from the calibrated gate rate.
    pub gc_time_secs: f64,
    /// Naive-GC communication (exact table bytes).
    pub gc_comm_bytes: u128,
    /// Plaintext engine wall time.
    pub plain_time: Duration,
    /// Plaintext "communication": the input size, as in the paper.
    pub plain_comm_bytes: u64,
    /// Number of result rows (sanity).
    pub out_rows: usize,
    /// Whether secure and plaintext results matched exactly.
    pub results_match: bool,
}

/// Measure one (query, scale) point.
pub fn measure_point(query: PaperQuery, scale_mb: f64, gc_rate: f64, seed: u64) -> FigurePoint {
    let ring = NaturalRing::paper_default();
    let db = Database::generate(Scale::mb(scale_mb), seed);
    let spec = query.build(&db, ring);

    // Plaintext baseline (the figures' MySQL stand-in).
    let t0 = Instant::now();
    let plain_rows = run_plaintext_instance(&spec, ring);
    let plain_time = t0.elapsed();

    // Secure Yannakakis: both parties as real threads over the metered
    // channel.
    let (spec_a, spec_b) = (spec.clone(), spec.clone());
    let t0 = Instant::now();
    let (sy_rows, _, stats) = run_protocol(
        move |ch| {
            let mut sess =
                secyan_core::Session::new(ch, RingCtx::new(32), TweakHasher::Aes, seed ^ 0xa11ce);
            run_secure_instance(&mut sess, &spec_a)
        },
        move |ch| {
            let mut sess =
                secyan_core::Session::new(ch, RingCtx::new(32), TweakHasher::Aes, seed ^ 0xb0b);
            run_secure_instance(&mut sess, &spec_b)
        },
    );
    let sy_time = t0.elapsed();
    let results_match = canonical(sy_rows.clone()) == canonical(plain_rows);

    // Naive-GC baseline: exact model, calibrated rate.
    let model = CartesianCostModel::default();
    let gc_cost: (u128, f64) = spec
        .subqueries
        .iter()
        .map(|sq| {
            let sizes: Vec<usize> = sq.relations.iter().map(|r| r.len()).collect();
            let c = model.cost(&sizes);
            (c.table_bytes, c.seconds_at(gc_rate))
        })
        .fold((0u128, 0f64), |(b, s), (b2, s2)| (b + b2, s + s2));

    FigurePoint {
        scale_mb,
        effective_mb: spec.effective_bytes() as f64 / 1e6,
        input_tuples: spec.input_tuples(),
        sy_time,
        sy_comm_bytes: stats.total_bytes(),
        gc_time_secs: gc_cost.1,
        gc_comm_bytes: gc_cost.0,
        plain_time,
        plain_comm_bytes: spec.effective_bytes(),
        out_rows: sy_rows.len(),
        results_match,
    }
}

/// Calibrate the naive-GC gate rate by actually running a small instance
/// (the paper measured its baseline on the smallest dataset and
/// extrapolated — "very accurate, since the cost is proportional to the
/// size of the circuit").
pub fn calibrate_gc_rate() -> f64 {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let sizes = vec![4usize, 8, 8];
    let owners = vec![Role::Alice, Role::Bob, Role::Alice];
    let gates = secyan_baseline::protocol::circuit_and_gates(&sizes, &owners, 32, 32);
    let r1: Vec<(u64, u64, u64)> = (0..4).map(|i| (0, i, i + 1)).collect();
    let r2: Vec<(u64, u64, u64)> = (0..8).map(|i| (i % 4, i, 1)).collect();
    let r3: Vec<(u64, u64, u64)> = (0..8).map(|i| (i, 0, 2)).collect();
    let (s2, o2) = (sizes.clone(), owners.clone());
    let (r2b, r1a, r3a) = (r2.clone(), r1.clone(), r3.clone());
    let t0 = Instant::now();
    run_protocol(
        move |ch| {
            let mut rng = StdRng::seed_from_u64(77);
            let mut ot = OtSender::setup(ch, &mut rng, TweakHasher::Aes);
            naive_gc_garbler(
                ch,
                &sizes,
                &owners,
                &[Some(r1a), None, Some(r3a)],
                32,
                32,
                &mut ot,
                &mut rng,
            )
        },
        move |ch| {
            let mut rng = StdRng::seed_from_u64(78);
            let mut ot = OtReceiver::setup(ch, &mut rng, TweakHasher::Aes);
            naive_gc_evaluator(ch, &s2, &o2, &[None, Some(r2b), None], 32, 32, &mut ot)
        },
    );
    let secs = t0.elapsed().as_secs_f64();
    gates as f64 / secs
}

/// Human-readable byte formatting.
pub fn fmt_bytes(b: u128) -> String {
    const UNITS: [&str; 7] = ["B", "KB", "MB", "GB", "TB", "PB", "EB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1000.0 && u + 1 < UNITS.len() {
        v /= 1000.0;
        u += 1;
    }
    format!("{v:.2} {}", UNITS[u])
}

/// Human-readable seconds formatting (up to years, for the GC baseline).
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1} ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.2} s")
    } else if s < 7200.0 {
        format!("{:.1} min", s / 60.0)
    } else if s < 86_400.0 * 3.0 {
        format!("{:.1} h", s / 3600.0)
    } else if s < 86_400.0 * 365.0 * 2.0 {
        format!("{:.1} days", s / 86_400.0)
    } else {
        format!("{:.1} years", s / (86_400.0 * 365.0))
    }
}

/// Default (scaled-down) figure scales per query; `--full` in the binary
/// switches to the paper's 1–100 MB.
pub fn default_scales(query: PaperQuery) -> Vec<f64> {
    match query {
        PaperQuery::Q3 | PaperQuery::Q10 | PaperQuery::Q18 => vec![0.1, 0.3, 1.0],
        PaperQuery::Q8 => vec![0.05, 0.1, 0.3],
        PaperQuery::Q9 => vec![0.02, 0.05],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(1_500), "1.50 KB");
        assert_eq!(fmt_bytes(2_000_000_000), "2.00 GB");
        assert!(fmt_secs(0.5).ends_with("ms"));
        assert!(fmt_secs(1e10).ends_with("years"));
    }

    #[test]
    fn q3_point_matches_and_is_linear_ish() {
        let rate = 1e6; // synthetic rate; only relative GC numbers matter here
        let p1 = measure_point(PaperQuery::Q3, 0.05, rate, 1);
        assert!(p1.results_match, "secure != plaintext at 0.05 MB");
        let p2 = measure_point(PaperQuery::Q3, 0.1, rate, 1);
        assert!(p2.results_match);
        // Communication grows with input size.
        assert!(p2.sy_comm_bytes > p1.sy_comm_bytes);
        // The GC baseline explodes combinatorially, not linearly.
        assert!(p2.gc_comm_bytes > 4 * p1.gc_comm_bytes);
    }

    #[test]
    fn gc_calibration_returns_positive_rate() {
        let rate = calibrate_gc_rate();
        assert!(rate > 1000.0, "rate {rate}");
    }
}
