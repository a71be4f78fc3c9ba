//! E3 — constant-delay enumeration of complete answers (Theorem 4.1(1)).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use omq_bench::generators::{university, UniversityConfig};
use omq_core::{QueryPlan, Semantics};
use std::time::Duration;

fn bench_enum_complete(c: &mut Criterion) {
    let mut group = c.benchmark_group("enumerate_complete");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));
    for researchers in [1_000usize, 4_000, 16_000] {
        let (omq, db) = university(&UniversityConfig {
            researchers,
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
                        .answers(Semantics::Complete)
                        .expect("tractable")
                        .count();
                    count
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_enum_complete);
criterion_main!(benches);
