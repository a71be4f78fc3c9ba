//! E10 — constant-delay engine vs the brute-force chase-and-join baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use omq_bench::generators::{university, UniversityConfig};
use omq_chase::ChaseConfig;
use omq_core::{baseline::BruteForce, QueryPlan, Semantics};
use std::time::Duration;

fn bench_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_vs_baseline");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));
    for researchers in [200usize, 400, 800] {
        let (omq, db) = university(&UniversityConfig {
            researchers,
            ..Default::default()
        });
        group.bench_with_input(
            BenchmarkId::new("engine_partial", researchers),
            &researchers,
            |b, _| {
                b.iter(|| {
                    let instance = QueryPlan::compile(&omq)
                        .and_then(|plan| plan.execute(&db))
                        .expect("guarded OMQ");
                    instance
                        .answers(Semantics::MinimalPartial)
                        .expect("tractable")
                        .count()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("baseline_partial", researchers),
            &researchers,
            |b, _| {
                b.iter(|| {
                    let brute = BruteForce::new(&omq, &db, &ChaseConfig::default()).expect("chase");
                    brute.minimal_partial().len()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_baseline);
criterion_main!(benches);
