//! Comparing causality-tracking mechanisms on one workload: version stamps,
//! version vectors (fixed and dynamic), vector clocks, dotted version
//! vectors, random-id causal sets and interval tree clocks.
//!
//! Run with `cargo run --example mechanism_comparison -- [seed]`.

use vstamp::sim::workload::{generate, OperationMix, WorkloadSpec};
use vstamp::sim::{check_against_oracle, measure_space};
use vstamp::Mechanism;
use vstamp_baselines::{
    DottedMechanism, DynamicVersionVectorMechanism, FixedVersionVectorMechanism,
    RandomIdCausalMechanism, VectorClockMechanism,
};
use vstamp_core::{causal::CausalMechanism, VersionStampMechanism};
use vstamp_itc::ItcMechanism;

fn main() {
    let seed = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(20020310);
    let trace = generate(&WorkloadSpec::new(400, 8, seed).with_mix(OperationMix::churn_heavy()));
    // Without Section-6 simplification, identities grow exponentially with
    // sync cycles; the non-reducing row replays a short prefix only.
    let mut prefix = vstamp::Trace::new();
    for op in trace.iter().take(60) {
        prefix.push(*op);
    }
    println!("workload: 400 churn-heavy operations over at most 8 replicas (seed {seed})");
    println!("(non-reducing row: 60-operation prefix)\n");
    println!("{:<30} {:>8} {:>18} {:>14}", "mechanism", "exact?", "mean bits/element", "max bits");

    fn row<M: Mechanism + Clone>(mechanism: M, trace: &vstamp::Trace) {
        let agreement = check_against_oracle(mechanism.clone(), trace);
        let space = measure_space(mechanism, trace);
        println!(
            "{:<30} {:>8} {:>18.1} {:>14}",
            space.mechanism,
            agreement.is_exact(),
            space.mean_element_bits,
            space.max_element_bits
        );
    }

    row(VersionStampMechanism::reducing(), &trace);
    row(VersionStampMechanism::non_reducing(), &prefix);
    row(FixedVersionVectorMechanism::new(), &trace);
    row(DynamicVersionVectorMechanism::new(), &trace);
    row(VectorClockMechanism::new(), &trace);
    row(DottedMechanism::new(), &trace);
    row(CausalMechanism::new(), &trace);
    row(RandomIdCausalMechanism::with_seed(seed), &trace);
    row(ItcMechanism::new(), &trace);

    println!("\nEvery mechanism tracks the frontier order exactly; they differ in what they need");
    println!("(global identifiers, counters, randomness) and in how their size grows.");
}
