//! Machine-readable representation-ablation benchmark: times `leq`, `join`,
//! `append` and `reduce_pair` for the set (oracle) and packed (production)
//! name representations over wide names, deep fork chains and deep
//! frontiers, and writes the results (plus packed-vs-set speedups and the
//! run's provenance) to `BENCH_repr.json`.
//!
//! Run with `cargo run --release -p vstamp-bench --bin bench_repr_json`.
//! The measurement model is the vendored criterion harness: calibrated
//! batches, median of `SAMPLES` samples.

use std::fmt::Write as _;
use std::time::Instant;

use criterion::{measure, Measurement};
use vstamp_bench::{deep_chain_pair, wide_name};
use vstamp_core::simplify::reduce_name_pair;
use vstamp_core::{Bit, Name, PackedName};

const SAMPLES: usize = 15;

struct Row {
    scenario: &'static str,
    op: &'static str,
    repr: &'static str,
    param: usize,
    m: Measurement,
}

fn time<F: FnMut()>(
    rows: &mut Vec<Row>,
    scenario: &'static str,
    op: &'static str,
    repr: &'static str,
    param: usize,
    mut f: F,
) {
    let m = measure(SAMPLES, &mut f);
    println!("{scenario:<16} {op:<8} {repr:<7} {param:>4}: {:>10.1} ns/iter", m.median_ns);
    rows.push(Row { scenario, op, repr, param, m });
}

/// The commit the running binary was built from, for artifact provenance:
/// `git describe --always --dirty` in the working directory, or `unknown`
/// outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |rev| rev.trim().to_owned())
}

fn bench_pair(rows: &mut Vec<Row>, scenario: &'static str, param: usize, a: &Name, b: &Name) {
    let (pa, pb) = (PackedName::from_name(a), PackedName::from_name(b));
    // `x ⊑ x ⊔ y` holds, so the order test walks both structures fully —
    // the honest worst case, identical across representations.
    let joined_n = a.join(b);
    let joined_p = pa.join(&pb);

    time(rows, scenario, "leq", "set", param, || {
        std::hint::black_box(a.leq(&joined_n));
    });
    time(rows, scenario, "leq", "packed", param, || {
        std::hint::black_box(pa.leq(&joined_p));
    });
    time(rows, scenario, "join", "set", param, || {
        std::hint::black_box(a.join(b));
    });
    time(rows, scenario, "join", "packed", param, || {
        std::hint::black_box(pa.join(&pb));
    });
    time(rows, scenario, "append", "set", param, || {
        std::hint::black_box(a.append(Bit::Zero));
    });
    time(rows, scenario, "append", "packed", param, || {
        std::hint::black_box(pa.append(Bit::Zero));
    });
    time(rows, scenario, "reduce", "set", param, || {
        std::hint::black_box(reduce_name_pair(&joined_n, &joined_n));
    });
    time(rows, scenario, "reduce", "packed", param, || {
        std::hint::black_box(PackedName::reduce_pair(&joined_p, &joined_p));
    });
}

fn main() {
    let started = Instant::now();
    let mut rows = Vec::new();
    // VSTAMP_BENCH_SMOKE=1 (the CI smoke job) keeps one small cell per
    // scenario so the binary finishes in seconds while still exercising
    // every code path.
    let smoke = vstamp_bench::smoke_mode();

    let wide_grid: &[usize] = if smoke { &[16] } else { &[16, 64, 256] };
    for &strings in wide_grid {
        let a = wide_name(strings, 14, 0x2545_F491_4F6C_DD1D);
        let b = wide_name(strings, 14, 0x9E37_79B9_7F4A_7C15);
        bench_pair(&mut rows, "wide", strings, &a, &b);
    }
    let chain_grid: &[usize] = if smoke { &[64] } else { &[64, 128, 256] };
    for &depth in chain_grid {
        let (a, b) = deep_chain_pair(depth);
        bench_pair(&mut rows, "deep-fork-chain", depth, &a, &b);
    }
    // Wide frontier at fork-depth 64: thousands of depth-64 strings, the
    // identity sizes long partition/heal workloads actually reach. This is
    // the regime where the 2-bit tag array's cache residency matters most.
    let frontier_grid: &[usize] = if smoke { &[256] } else { &[1024, 4096] };
    for &strings in frontier_grid {
        let a = wide_name(strings, 64, 0x2545_F491_4F6C_DD1D);
        let b = wide_name(strings, 64, 0x9E37_79B9_7F4A_7C15);
        bench_pair(&mut rows, "deep-frontier", strings, &a, &b);
    }

    // Render JSON by hand (no serde in the offline environment).
    let host_cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let mut json = String::from("{\n  \"benchmark\": \"repr-ablation\",\n");
    writeln!(json, "  \"git_rev\": \"{}\",", git_rev()).expect("writing to a String cannot fail");
    writeln!(json, "  \"host_cpus\": {host_cpus},").expect("writing to a String cannot fail");
    writeln!(json, "  \"smoke\": {smoke},").expect("writing to a String cannot fail");
    writeln!(json, "  \"duration_secs\": {:.1},", started.elapsed().as_secs_f64())
        .expect("writing to a String cannot fail");
    json.push_str("  \"unit\": \"ns per iteration (median)\",\n  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"scenario\": \"{}\", \"op\": \"{}\", \"repr\": \"{}\", \"param\": {}, \"median_ns\": {:.1}, \"p10_ns\": {:.1}, \"p90_ns\": {:.1}, \"samples\": {}}}{comma}",
            row.scenario, row.op, row.repr, row.param, row.m.median_ns, row.m.p10_ns, row.m.p90_ns, row.m.samples
        )
        .expect("writing to a String cannot fail");
    }
    json.push_str("  ],\n  \"speedups_packed_vs_set\": [\n");

    let mut speedups = Vec::new();
    for row in rows.iter().filter(|r| r.repr == "set") {
        if let Some(packed) = rows.iter().find(|r| {
            r.repr == "packed"
                && r.scenario == row.scenario
                && r.op == row.op
                && r.param == row.param
        }) {
            speedups.push((row.scenario, row.op, row.param, row.m.median_ns / packed.m.median_ns));
        }
    }
    for (i, (scenario, op, param, speedup)) in speedups.iter().enumerate() {
        let comma = if i + 1 == speedups.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"scenario\": \"{scenario}\", \"op\": \"{op}\", \"param\": {param}, \"speedup\": {speedup:.2}}}{comma}"
        )
        .expect("writing to a String cannot fail");
    }
    json.push_str("  ]\n}\n");

    std::fs::write("BENCH_repr.json", &json).expect("write BENCH_repr.json");
    println!("\nwrote BENCH_repr.json");
    for (scenario, op, param, speedup) in &speedups {
        println!("speedup packed vs set: {scenario}/{op}/{param} = {speedup:.2}x");
    }
}
