//! Experiment E7 (bench form) — end-to-end space measurement runs: how long
//! it takes to replay and measure a full workload per mechanism.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vstamp_baselines::{DynamicVersionVectorMechanism, FixedVersionVectorMechanism};
use vstamp_core::VersionStampMechanism;
use vstamp_itc::ItcMechanism;
use vstamp_sim::metrics::measure_space;
use vstamp_sim::workload::{generate, OperationMix, WorkloadSpec};

fn bench_space_measurement(c: &mut Criterion) {
    let mut group = c.benchmark_group("space-measurement");
    group.sample_size(10);
    // Replica bounds above ~8 fragment reducing identities beyond
    // practicality under churn (see ROADMAP "Open items").
    for max_replicas in [4usize, 8] {
        let trace = generate(
            &WorkloadSpec::new(600, max_replicas, vstamp_bench::DEFAULT_SEED)
                .with_mix(OperationMix::churn_heavy()),
        );
        group.bench_with_input(BenchmarkId::new("version-stamps", max_replicas), &trace, |b, t| {
            b.iter(|| measure_space(VersionStampMechanism::reducing(), t))
        });
        // Short prefix only: non-reducing identities grow exponentially
        // with sync cycles.
        let nonreducing_prefix = vstamp_bench::truncated(&trace, vstamp_bench::NON_REDUCING_OPS);
        group.bench_with_input(
            BenchmarkId::new(
                format!("version-stamps-nonreducing-{}op-prefix", vstamp_bench::NON_REDUCING_OPS),
                max_replicas,
            ),
            &nonreducing_prefix,
            |b, t| b.iter(|| measure_space(VersionStampMechanism::non_reducing(), t)),
        );
        group.bench_with_input(
            BenchmarkId::new("version-stamps-packed", max_replicas),
            &trace,
            |b, t| b.iter(|| measure_space(vstamp_core::PackedStampMechanism::reducing(), t)),
        );
        group.bench_with_input(
            BenchmarkId::new("version-vectors", max_replicas),
            &trace,
            |b, t| b.iter(|| measure_space(FixedVersionVectorMechanism::new(), t)),
        );
        group.bench_with_input(
            BenchmarkId::new("dynamic-version-vectors", max_replicas),
            &trace,
            |b, t| b.iter(|| measure_space(DynamicVersionVectorMechanism::new(), t)),
        );
        group.bench_with_input(
            BenchmarkId::new("interval-tree-clocks", max_replicas),
            &trace,
            |b, t| b.iter(|| measure_space(ItcMechanism::new(), t)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_space_measurement);
criterion_main!(benches);
