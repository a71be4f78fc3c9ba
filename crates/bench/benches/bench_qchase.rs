//! E2 — query-directed chase: preprocessing time as a function of |D|.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use omq_bench::generators::{university, UniversityConfig};
use omq_core::QueryPlan;
use std::time::Duration;

fn bench_qchase(c: &mut Criterion) {
    let mut group = c.benchmark_group("qchase_preprocessing");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));
    for researchers in [1_000usize, 4_000, 16_000] {
        let (omq, db) = university(&UniversityConfig {
            researchers,
            ..Default::default()
        });
        group.throughput(criterion::Throughput::Elements(db.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(researchers),
            &researchers,
            |b, _| {
                b.iter(|| {
                    QueryPlan::compile(&omq)
                        .and_then(|plan| plan.execute(&db))
                        .expect("guarded OMQ")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_qchase);
criterion_main!(benches);
