//! Criterion benchmarks of the five paper queries (one per figure) at a
//! small scale. The `figures` binary produces the actual figure series;
//! these benches give statistically robust per-query timings for
//! regression tracking.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use secyan_bench::build_spec;
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_tpch::queries::{run_plaintext_instance, run_secure_instance, PaperQuery};
use secyan_transport::run_protocol;

fn bench_secure_queries(c: &mut Criterion) {
    let mut g = c.benchmark_group("secure_queries");
    g.sample_size(10);
    // One (figure, query, scale) per paper figure at smoke scale.
    let cases = [
        (PaperQuery::Q3, 0.05),
        (PaperQuery::Q10, 0.05),
        (PaperQuery::Q18, 0.05),
        (PaperQuery::Q8, 0.02),
        (PaperQuery::Q9, 0.005),
    ];
    for (q, mb) in cases {
        let spec = build_spec(q, mb, 42);
        g.bench_function(
            BenchmarkId::new(format!("fig{}", q.figure()), q.name()),
            |b| {
                b.iter(|| {
                    let (sa, sb) = (spec.clone(), spec.clone());
                    run_protocol(
                        move |ch| {
                            let mut sess = secyan_core::Session::new(
                                ch,
                                RingCtx::new(32),
                                TweakHasher::Aes,
                                1,
                            );
                            run_secure_instance(&mut sess, &sa)
                        },
                        move |ch| {
                            let mut sess = secyan_core::Session::new(
                                ch,
                                RingCtx::new(32),
                                TweakHasher::Aes,
                                2,
                            );
                            run_secure_instance(&mut sess, &sb)
                        },
                    )
                });
            },
        );
    }
    g.finish();
}

fn bench_plaintext_queries(c: &mut Criterion) {
    let mut g = c.benchmark_group("plaintext_queries");
    let ring = secyan_relation::NaturalRing::paper_default();
    for (q, mb) in [
        (PaperQuery::Q3, 1.0),
        (PaperQuery::Q10, 1.0),
        (PaperQuery::Q9, 0.3),
    ] {
        let spec = build_spec(q, mb, 42);
        g.bench_function(BenchmarkId::new("plain", q.name()), |b| {
            b.iter(|| run_plaintext_instance(&spec, ring));
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_secure_queries, bench_plaintext_queries
}
criterion_main!(benches);
