//! Ablation — the two name representations (the literal antichain set, the
//! oracle, and the flat packed tag array, production) compared on the order
//! test, the join, the fork construction, the reduction and the
//! conversions, over wide names and over deep fork-chain names
//! (depth ≥ 64).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vstamp_bench::{deep_chain_pair, wide_name};
use vstamp_core::simplify::reduce_name_pair;
use vstamp_core::{Bit, PackedName};

fn bench_wide_names(c: &mut Criterion) {
    let mut group = c.benchmark_group("name-representation");
    for strings in [4usize, 16, 64, 256] {
        let a = wide_name(strings, 14, 0x2545_F491_4F6C_DD1D);
        let b = wide_name(strings, 14, 0x9E37_79B9_7F4A_7C15);
        let pa = PackedName::from_name(&a);
        let pb = PackedName::from_name(&b);

        group.bench_with_input(
            BenchmarkId::new("set-leq", strings),
            &(a.clone(), b.clone()),
            |bench, (a, b)| bench.iter(|| a.leq(b)),
        );
        group.bench_with_input(
            BenchmarkId::new("packed-leq", strings),
            &(pa.clone(), pb.clone()),
            |bench, (a, b)| bench.iter(|| a.leq(b)),
        );
        group.bench_with_input(
            BenchmarkId::new("set-join", strings),
            &(a.clone(), b.clone()),
            |bench, (a, b)| bench.iter(|| a.join(b)),
        );
        group.bench_with_input(
            BenchmarkId::new("packed-join", strings),
            &(pa.clone(), pb.clone()),
            |bench, (a, b)| bench.iter(|| a.join(b)),
        );
        group.bench_with_input(BenchmarkId::new("set-append", strings), &a, |bench, a| {
            bench.iter(|| a.append(Bit::Zero))
        });
        group.bench_with_input(BenchmarkId::new("packed-append", strings), &pa, |bench, a| {
            bench.iter(|| a.append(Bit::Zero))
        });
        group.bench_with_input(BenchmarkId::new("set-to-packed", strings), &a, |bench, a| {
            bench.iter(|| PackedName::from_name(a))
        });
        group.bench_with_input(BenchmarkId::new("packed-to-set", strings), &pa, |bench, a| {
            bench.iter(|| a.to_name())
        });
    }
    group.finish();
}

/// The deep-fork-chain scenario: two replicas that forked `depth` times and
/// then diverged, so their identities are single deep strings plus a bushy
/// shared spine. Joins and order tests at depth ≥ 64 are where a pointer
/// representation would pay one chase (and one allocation, for join) per
/// level.
fn bench_deep_chains(c: &mut Criterion) {
    let mut group = c.benchmark_group("deep-fork-chain");
    for depth in [64usize, 128, 256] {
        let (a, b) = deep_chain_pair(depth);
        let pa = PackedName::from_name(&a);
        let pb = PackedName::from_name(&b);
        let joined_set = a.join(&b);
        let joined_packed = pa.join(&pb);

        group.bench_with_input(
            BenchmarkId::new("set-leq", depth),
            &(a.clone(), b.clone()),
            |bench, (a, b)| bench.iter(|| a.leq(b)),
        );
        group.bench_with_input(
            BenchmarkId::new("packed-leq", depth),
            &(pa.clone(), joined_packed.clone()),
            |bench, (a, b)| bench.iter(|| a.leq(b)),
        );
        group.bench_with_input(
            BenchmarkId::new("set-join", depth),
            &(a.clone(), b.clone()),
            |bench, (a, b)| bench.iter(|| a.join(b)),
        );
        group.bench_with_input(
            BenchmarkId::new("packed-join", depth),
            &(pa.clone(), pb.clone()),
            |bench, (a, b)| bench.iter(|| a.join(b)),
        );
        group.bench_with_input(BenchmarkId::new("set-append", depth), &a, |bench, a| {
            bench.iter(|| a.append(Bit::One))
        });
        group.bench_with_input(BenchmarkId::new("packed-append", depth), &pa, |bench, a| {
            bench.iter(|| a.append(Bit::One))
        });
        group.bench_with_input(
            BenchmarkId::new("set-reduce", depth),
            &(joined_set.clone(), joined_set.clone()),
            |bench, (u, i)| bench.iter(|| reduce_name_pair(u, i)),
        );
        group.bench_with_input(
            BenchmarkId::new("packed-reduce", depth),
            &(joined_packed.clone(), joined_packed.clone()),
            |bench, (u, i)| bench.iter(|| PackedName::reduce_pair(u, i)),
        );
    }
    group.finish();
}

/// Wide frontier at fork-depth 64: identities carrying thousands of
/// depth-64 strings, the sizes long partition/heal workloads actually
/// produce (the sim probes reach 10⁵ strings). The 2-bit tag array stays
/// cache-resident here — the headline regime of this ablation.
fn bench_deep_frontier(c: &mut Criterion) {
    let mut group = c.benchmark_group("deep-frontier");
    group.sample_size(11);
    for strings in [1024usize, 4096] {
        let a = wide_name(strings, 64, 0x2545_F491_4F6C_DD1D);
        let b = wide_name(strings, 64, 0x9E37_79B9_7F4A_7C15);
        let pa = PackedName::from_name(&a);
        let pb = PackedName::from_name(&b);
        let joined_set = a.join(&b);
        let joined_packed = pa.join(&pb);

        group.bench_with_input(
            BenchmarkId::new("set-leq", strings),
            &(a.clone(), joined_set),
            |bench, (a, j)| bench.iter(|| a.leq(j)),
        );
        group.bench_with_input(
            BenchmarkId::new("packed-leq", strings),
            &(pa.clone(), joined_packed),
            |bench, (a, j)| bench.iter(|| a.leq(j)),
        );
        group.bench_with_input(BenchmarkId::new("set-join", strings), &(a, b), |bench, (a, b)| {
            bench.iter(|| a.join(b))
        });
        group.bench_with_input(
            BenchmarkId::new("packed-join", strings),
            &(pa, pb),
            |bench, (a, b)| bench.iter(|| a.join(b)),
        );
    }
    group.finish();
}

/// SWAR fast-path coverage: order tests and domination probes over names
/// whose tag arrays span hundreds of `u64` words, where the
/// 32-tags-per-step block loops of `leq`/`subtree_end` carry the walk.
/// Tracked so the u64 SWAR rewrite of those loops can be held to "no
/// regression" against the byte-table versions across runs.
fn bench_swar_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("packed-swar");
    group.sample_size(11);
    for strings in [1024usize, 4096] {
        let a = wide_name(strings, 64, 0x2545_F491_4F6C_DD1D);
        let b = wide_name(strings, 64, 0x9E37_79B9_7F4A_7C15);
        let pa = PackedName::from_name(&a);
        let joined = pa.join(&PackedName::from_name(&b));
        // Full-length walk: every step is a lockstep or subtree-skip
        // transition, the regime the u64 blocks accelerate.
        group.bench_with_input(
            BenchmarkId::new("packed-leq-full-walk", strings),
            &(pa.clone(), joined.clone()),
            |bench, (a, j)| bench.iter(|| a.leq(j)),
        );
        // Deep membership/domination probes chain subtree_end skips.
        let probes: Vec<_> = a.iter().take(32).cloned().collect();
        group.bench_with_input(
            BenchmarkId::new("packed-dominates", strings),
            &(joined.clone(), probes.clone()),
            |bench, (j, probes)| {
                bench.iter(|| probes.iter().filter(|s| j.dominates_string(s)).count())
            },
        );
        group.bench_with_input(
            BenchmarkId::new("packed-contains", strings),
            &(joined, probes),
            |bench, (j, probes)| bench.iter(|| probes.iter().filter(|s| j.contains(s)).count()),
        );
    }
    // Byte-tail regime: store-clock-sized names (a handful of strings,
    // tag arrays well under one u64 word) and names straddling the word
    // boundary. These rows are where the padded-word tail path of `leq`
    // shows up — the pre-PR 5 word loop never engaged below 32 tags and
    // fell back to per-byte table steps, so every small-clock relation
    // check in the store ran the slow path.
    for strings in [3usize, 10, 40] {
        let a = wide_name(strings, 12, 0x0123_4567_89AB_CDEF ^ strings as u64);
        let b = wide_name(strings, 12, 0xFEDC_BA98_7654_3210 ^ strings as u64);
        let pa = PackedName::from_name(&a);
        let pb = PackedName::from_name(&b);
        let joined = pa.join(&pb);
        group.bench_with_input(
            BenchmarkId::new("packed-leq-tail-hit", strings),
            &(pa.clone(), joined),
            |bench, (a, j)| bench.iter(|| a.leq(j)),
        );
        // The reject direction exercises the tail's fail-lane exit.
        group.bench_with_input(
            BenchmarkId::new("packed-leq-tail-reject", strings),
            &(pa, pb),
            |bench, (a, b)| bench.iter(|| (a.leq(b), b.leq(a))),
        );
    }
    group.finish();
}

/// The PR 4 skip paths: deep `contains`/`dominates_string` probes that
/// cross the skip-index threshold (one-pass subtree-end index instead of
/// per-step sibling re-scans), the batched `dominated_prefix_len` descent
/// the store's single-string identity collapse runs per evidence pin, and
/// the SWAR `encoded_bits` word loop the metadata metrics hammer.
fn bench_skip_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("packed-skip");
    group.sample_size(11);
    for depth in [24usize, 48] {
        let a = wide_name(2048, depth, 0x2545_F491_4F6C_DD1D);
        let pa = PackedName::from_name(&a);
        // Deep probes: existing strings plus their one-extensions (misses).
        let mut probes: Vec<_> = a.iter().take(16).cloned().collect();
        for s in a.iter().take(16) {
            let mut miss = s.clone();
            miss.push(Bit::One);
            probes.push(miss);
        }
        group.bench_with_input(
            BenchmarkId::new("deep-dominates", depth),
            &(pa.clone(), probes.clone()),
            |bench, (n, probes)| {
                bench.iter(|| probes.iter().filter(|s| n.dominates_string(s)).count())
            },
        );
        group.bench_with_input(
            BenchmarkId::new("deep-contains", depth),
            &(pa.clone(), probes.clone()),
            |bench, (n, probes)| bench.iter(|| probes.iter().filter(|s| n.contains(s)).count()),
        );
        group.bench_with_input(
            BenchmarkId::new("dominated-prefix-len", depth),
            &(pa.clone(), probes),
            |bench, (n, probes)| {
                bench
                    .iter(|| probes.iter().filter_map(|s| n.dominated_prefix_len(s)).sum::<usize>())
            },
        );
        group.bench_with_input(BenchmarkId::new("encoded-bits", depth), &pa, |bench, n| {
            bench.iter(|| n.encoded_bits())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_wide_names,
    bench_deep_chains,
    bench_deep_frontier,
    bench_swar_paths,
    bench_skip_paths
);
criterion_main!(benches);
