//! E5 — Algorithm 1: enumeration of minimal partial answers (Theorem 5.2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use omq_bench::generators::{university, UniversityConfig};
use omq_core::{QueryPlan, Semantics};
use std::time::Duration;

fn bench_enum_partial(c: &mut Criterion) {
    let mut group = c.benchmark_group("enumerate_minimal_partial");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));
    for researchers in [1_000usize, 4_000, 16_000] {
        let (omq, db) = university(&UniversityConfig {
            researchers,
            office_ratio: 0.6,
            building_ratio: 0.6,
            ..Default::default()
        });
        let instance = QueryPlan::compile(&omq)
            .and_then(|plan| plan.execute(&db))
            .expect("guarded OMQ");
        group.bench_with_input(
            BenchmarkId::from_parameter(researchers),
            &researchers,
            |b, _| {
                b.iter(|| {
                    let mut count = 0usize;
                    count += instance
                        .answers(Semantics::MinimalPartial)
                        .expect("tractable")
                        .count();
                    count
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_enum_partial);
criterion_main!(benches);
