//! Experiment E8 — latency of the primitive stamp operations (update, fork,
//! join, compare, reduce, encode) as a function of stamp size, for the
//! packed representation, plus a deep-fork-chain scenario (identities at
//! fork-depth ≥ 64).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vstamp_core::{encode, Reduction, VersionStamp};

/// Builds a stamp whose identity has roughly `width` strings by forking
/// repeatedly without joining, and touching some updates along the way.
fn stamp_with_width(width: usize) -> VersionStamp {
    let mut frontier = vec![VersionStamp::seed()];
    while frontier.len() < width {
        let victim = frontier.remove(0);
        let (a, b) = victim.fork();
        frontier.push(a.update());
        frontier.push(b);
    }
    // join everything back without reduction so the stamp keeps `width`
    // strings in its identity
    let mut acc = frontier.remove(0);
    for other in frontier {
        acc = acc.join_with(&other, Reduction::NonReducing);
    }
    acc
}

fn bench_primitive_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("stamp-ops");
    for width in [1usize, 4, 16, 64, 256] {
        let stamp = stamp_with_width(width);
        let (left, right) = stamp.fork();
        let left = left.update();

        group.bench_with_input(BenchmarkId::new("update", width), &stamp, |b, s| {
            b.iter(|| s.update())
        });
        group.bench_with_input(BenchmarkId::new("fork", width), &stamp, |b, s| b.iter(|| s.fork()));
        group.bench_with_input(
            BenchmarkId::new("join-reducing", width),
            &(left.clone(), right.clone()),
            |b, (l, r)| b.iter(|| l.join(r)),
        );
        group.bench_with_input(
            BenchmarkId::new("join-non-reducing", width),
            &(left.clone(), right.clone()),
            |b, (l, r)| b.iter(|| l.join_non_reducing(r)),
        );
        group.bench_with_input(
            BenchmarkId::new("compare", width),
            &(left.clone(), right.clone()),
            |b, (l, r)| b.iter(|| l.relation(r)),
        );
        group.bench_with_input(BenchmarkId::new("reduce", width), &stamp, |b, s| {
            b.iter(|| s.reduce())
        });
        group.bench_with_input(BenchmarkId::new("encode", width), &stamp, |b, s| {
            b.iter(|| encode::encode_stamp(s))
        });
        let bytes = encode::encode_stamp(&stamp);
        group.bench_with_input(BenchmarkId::new("decode", width), &bytes, |b, bytes| {
            b.iter(|| encode::decode_stamp(bytes).expect("valid encoding"))
        });

        // The same operations on the packed representation.
        let packed = stamp.to_packed_stamp();
        let (pleft, pright) = (left.to_packed_stamp(), right.to_packed_stamp());
        group.bench_with_input(BenchmarkId::new("packed-update", width), &packed, |b, s| {
            b.iter(|| s.update())
        });
        group.bench_with_input(BenchmarkId::new("packed-fork", width), &packed, |b, s| {
            b.iter(|| s.fork())
        });
        group.bench_with_input(
            BenchmarkId::new("packed-join-reducing", width),
            &(pleft.clone(), pright.clone()),
            |b, (l, r)| b.iter(|| l.join(r)),
        );
        group.bench_with_input(
            BenchmarkId::new("packed-compare", width),
            &(pleft.clone(), pright.clone()),
            |b, (l, r)| b.iter(|| l.relation(r)),
        );
        group.bench_with_input(BenchmarkId::new("packed-reduce", width), &packed, |b, s| {
            b.iter(|| s.reduce())
        });
        group.bench_with_input(BenchmarkId::new("packed-encode", width), &packed, |b, s| {
            b.iter(|| encode::encode_packed_stamp(s))
        });
        let packed_bytes = encode::encode_packed_stamp(&packed);
        group.bench_with_input(
            BenchmarkId::new("packed-decode", width),
            &packed_bytes,
            |b, bytes| b.iter(|| encode::decode_packed_stamp(bytes).expect("valid encoding")),
        );
    }
    group.finish();
}

/// Builds a stamp at the bottom of a fork chain `depth` levels deep: every
/// level forks and keeps the left replica, with updates along the way so
/// the update component tracks the identity.
fn deep_fork_stamp(depth: usize) -> VersionStamp {
    let mut stamp = VersionStamp::seed();
    for level in 0..depth {
        let (left, _abandoned) = stamp.fork();
        stamp = if level % 8 == 0 { left.update() } else { left };
    }
    stamp
}

fn bench_deep_fork_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("deep-fork-stamps");
    for depth in [64usize, 128, 256] {
        let packed = deep_fork_stamp(depth);
        let (pl, pr) = packed.fork();
        let pl = pl.update();

        group.bench_with_input(
            BenchmarkId::new("packed-join", depth),
            &(pl.clone(), pr.clone()),
            |b, (l, r)| b.iter(|| l.join(r)),
        );
        group.bench_with_input(
            BenchmarkId::new("packed-compare", depth),
            &(pl.clone(), pr.clone()),
            |b, (l, r)| b.iter(|| l.relation(r)),
        );
        group.bench_with_input(BenchmarkId::new("packed-fork", depth), &packed, |b, s| {
            b.iter(|| s.fork())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_primitive_ops, bench_deep_fork_chain);
criterion_main!(benches);
