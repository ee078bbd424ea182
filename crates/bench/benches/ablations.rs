//! Ablation benchmark for the design choice DESIGN.md calls out:
//!
//! * the §6.5 plain-annotation fast paths (local aggregation +
//!   plain-payload PSI) vs. forcing everything through the shared-payload
//!   machinery.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use secyan_core::agg::{oblivious_project_agg, AggKind};
use secyan_core::{SecureRelation, Session};
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_relation::{NaturalRing, Relation};
use secyan_transport::{run_protocol, Role};

fn test_relation(n: usize) -> Relation<NaturalRing> {
    let mut rng = StdRng::seed_from_u64(9);
    use rand::Rng;
    Relation::from_rows(
        NaturalRing::paper_default(),
        vec!["g".into(), "x".into()],
        (0..n)
            .map(|_| {
                (
                    vec![rng.gen_range(0..n as u64 / 4 + 1), rng.gen()],
                    rng.gen_range(0..1000),
                )
            })
            .collect(),
    )
}

/// §6.5 ablation: aggregation with owner-known annotations (local fast
/// path) vs. forced secret-shared annotations (full OEP + merge circuit).
fn bench_agg_plain_vs_shared(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_agg_655");
    g.sample_size(10);
    let rel = test_relation(200);
    for force_shared in [false, true] {
        let label = if force_shared {
            "shared"
        } else {
            "plain(§6.5)"
        };
        g.bench_function(BenchmarkId::new("project_agg", label), |b| {
            b.iter(|| {
                let r1 = rel.clone();
                run_protocol(
                    move |ch| {
                        let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::Aes, 11);
                        let mut r = SecureRelation::load(
                            &mut sess,
                            Role::Alice,
                            vec!["g".into(), "x".into()],
                            Some(&r1),
                        );
                        if force_shared {
                            r.ensure_shared(&mut sess);
                        }
                        oblivious_project_agg(&mut sess, &r, &["g".to_string()], AggKind::Sum).size
                    },
                    move |ch| {
                        let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::Aes, 12);
                        let mut r = SecureRelation::load(
                            &mut sess,
                            Role::Alice,
                            vec!["g".into(), "x".into()],
                            None,
                        );
                        if force_shared {
                            r.ensure_shared(&mut sess);
                        }
                        oblivious_project_agg(&mut sess, &r, &["g".to_string()], AggKind::Sum).size
                    },
                )
            });
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_agg_plain_vs_shared
}
criterion_main!(benches);
