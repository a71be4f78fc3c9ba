//! E4 — all-testing of complete answers (Theorem 4.1(2), Proposition 4.2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use omq_bench::generators::{university, UniversityConfig};
use omq_core::{QueryPlan, Semantics};
use omq_data::Value;
use std::time::Duration;

fn bench_all_testing(c: &mut Criterion) {
    let mut group = c.benchmark_group("all_testing");
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
        let tester = instance.all_tester().expect("free-connex query");
        let answers: Vec<Vec<omq_data::ConstId>> = instance
            .answers(Semantics::Complete)
            .expect("tractable")
            .map(|a| a.into_complete().expect("complete semantics"))
            .collect();
        let candidates: Vec<Vec<Value>> = answers
            .iter()
            .take(256)
            .map(|a| a.iter().map(|&c| Value::Const(c)).collect())
            .collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(researchers),
            &researchers,
            |b, _| {
                b.iter(|| {
                    candidates
                        .iter()
                        .filter(|c| tester.test(c).expect("arity matches"))
                        .count()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_all_testing);
criterion_main!(benches);
