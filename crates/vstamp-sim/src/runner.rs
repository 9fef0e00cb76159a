//! Parallel experiment runner: measures several mechanisms over the same
//! trace, one thread per mechanism.
//!
//! The benchmark harness uses this to regenerate the comparison tables of
//! experiments E7/E9/E10 quickly; results are deterministic because each
//! mechanism replays the identical trace regardless of scheduling.

use std::sync::Arc;

use parking_lot::Mutex;

use vstamp_baselines::{
    DottedMechanism, DynamicVersionVectorMechanism, FixedVersionVectorMechanism,
    RandomIdCausalMechanism, VectorClockMechanism,
};
use vstamp_core::causal::CausalMechanism;
use vstamp_core::{SetStampMechanism, Trace, VersionStampMechanism};
use vstamp_itc::ItcMechanism;

use crate::metrics::{measure_space, ComparisonTable, SpaceReport};

/// The set of mechanisms a comparison run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MechanismSet {
    /// Version stamps only (reducing and non-reducing) — the E9 ablation.
    StampsOnly,
    /// The two name representations (packed tags and the set oracle),
    /// both reducing — the `repr` ablation.
    Representations,
    /// The reduction-policy ablation over the default representation:
    /// eager (Section 6), deferred/batched, and frontier-evidence GC.
    /// (The non-reducing policy is omitted — use
    /// [`MechanismSet::StampsOnly`] on a capped trace for it.)
    Policies,
    /// Version stamps (eager and GC policies), every baseline, and ITC —
    /// the full E7/E10 table.
    All,
    /// [`MechanismSet::All`] without the non-reducing stamps, for long
    /// traces the non-reducing mechanism cannot replay (its identities
    /// grow exponentially with sync cycles).
    AllReducing,
}

fn measurement_jobs(
    set: MechanismSet,
    trace: &Trace,
) -> Vec<Box<dyn FnOnce() -> SpaceReport + Send>> {
    let mut jobs: Vec<Box<dyn FnOnce() -> SpaceReport + Send>> = Vec::new();
    let t = trace.clone();
    jobs.push(Box::new(move || measure_space(VersionStampMechanism::reducing(), &t)));
    match set {
        MechanismSet::StampsOnly => {
            let t = trace.clone();
            jobs.push(Box::new(move || measure_space(VersionStampMechanism::non_reducing(), &t)));
        }
        MechanismSet::Representations => {
            let t = trace.clone();
            jobs.push(Box::new(move || measure_space(SetStampMechanism::reducing(), &t)));
        }
        MechanismSet::Policies => {
            let t = trace.clone();
            jobs.push(Box::new(move || {
                measure_space(
                    vstamp_core::StampMechanism::<vstamp_core::PackedName, _>::with_policy(
                        vstamp_core::Deferred::default(),
                    ),
                    &t,
                )
            }));
            let t = trace.clone();
            jobs.push(Box::new(move || measure_space(VersionStampMechanism::frontier_gc(), &t)));
        }
        MechanismSet::All | MechanismSet::AllReducing => {
            if set == MechanismSet::All {
                let t = trace.clone();
                jobs.push(Box::new(move || {
                    measure_space(VersionStampMechanism::non_reducing(), &t)
                }));
            }
            let t = trace.clone();
            jobs.push(Box::new(move || measure_space(VersionStampMechanism::frontier_gc(), &t)));
            let t = trace.clone();
            jobs.push(Box::new(move || measure_space(FixedVersionVectorMechanism::new(), &t)));
            let t = trace.clone();
            jobs.push(Box::new(move || measure_space(DynamicVersionVectorMechanism::new(), &t)));
            let t = trace.clone();
            jobs.push(Box::new(move || measure_space(VectorClockMechanism::new(), &t)));
            let t = trace.clone();
            jobs.push(Box::new(move || measure_space(DottedMechanism::new(), &t)));
            let t = trace.clone();
            jobs.push(Box::new(move || measure_space(CausalMechanism::new(), &t)));
            let t = trace.clone();
            jobs.push(Box::new(move || measure_space(RandomIdCausalMechanism::with_seed(0), &t)));
            let t = trace.clone();
            jobs.push(Box::new(move || measure_space(ItcMechanism::new(), &t)));
        }
    }
    jobs
}

/// Measures the space behaviour of the selected mechanisms over `trace`,
/// running one worker thread per mechanism.
#[must_use]
pub fn compare_mechanisms(set: MechanismSet, trace: &Trace) -> ComparisonTable {
    let jobs = measurement_jobs(set, trace);
    let results: Arc<Mutex<Vec<(usize, SpaceReport)>>> = Arc::new(Mutex::new(Vec::new()));

    crossbeam::scope(|scope| {
        for (index, job) in jobs.into_iter().enumerate() {
            let results = Arc::clone(&results);
            scope.spawn(move |_| {
                let report = job();
                results.lock().push((index, report));
            });
        }
    })
    .expect("measurement workers do not panic");

    let mut collected = Arc::try_unwrap(results).expect("all workers joined").into_inner();
    collected.sort_by_key(|(index, _)| *index);
    let mut table = ComparisonTable::new();
    for (_, report) in collected {
        table.push(report);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, OperationMix, WorkloadSpec};

    // Trace sizes here are deliberately modest: the non-reducing mechanism's
    // identities grow exponentially with the number of sync (join + fork)
    // cycles, so longer traces make its replay infeasible (see ROADMAP).

    #[test]
    fn stamps_only_comparison_has_two_rows() {
        let trace = generate(&WorkloadSpec::new(60, 5, 4).with_mix(OperationMix::update_heavy()));
        let table = compare_mechanisms(MechanismSet::StampsOnly, &trace);
        assert_eq!(table.rows().len(), 2);
        assert!(table.row("version-stamps").is_some());
        assert!(table.row("version-stamps-nonreducing").is_some());
    }

    #[test]
    fn representation_comparison_agrees_on_sizes() {
        let trace = generate(&WorkloadSpec::new(150, 8, 6).with_mix(OperationMix::churn_heavy()));
        let table = compare_mechanisms(MechanismSet::Representations, &trace);
        assert_eq!(table.rows().len(), 2);
        let packed = table.row("version-stamps").expect("packed (default) row");
        let set = table.row("version-stamps-set").expect("set row");
        // Both representations encode the same names, so every space
        // statistic must agree bit-for-bit.
        assert_eq!(packed.mean_element_bits, set.mean_element_bits);
        assert_eq!(packed.max_element_bits, set.max_element_bits);
        assert_eq!(packed.final_frontier_bits, set.final_frontier_bits);
    }

    #[test]
    fn policy_comparison_keeps_gc_at_or_below_eager() {
        let trace = generate(&WorkloadSpec::new(120, 6, 6).with_mix(OperationMix::churn_heavy()));
        let table = compare_mechanisms(MechanismSet::Policies, &trace);
        assert_eq!(table.rows().len(), 3);
        let eager = table.row("version-stamps").expect("eager row");
        let deferred = table.row("version-stamps-deferred").expect("deferred row");
        let gc = table.row("version-stamps-gc").expect("gc row");
        assert!(gc.max_element_bits <= eager.max_element_bits);
        assert!(gc.final_frontier_bits <= eager.final_frontier_bits);
        // Deferred trades space for time: never smaller than eager.
        assert!(deferred.max_element_bits >= eager.max_element_bits);
    }

    #[test]
    fn full_comparison_covers_every_mechanism_and_is_deterministic() {
        let trace = generate(&WorkloadSpec::new(80, 6, 6).with_mix(OperationMix::update_heavy()));
        let table = compare_mechanisms(MechanismSet::All, &trace);
        assert_eq!(table.rows().len(), 10);
        for name in [
            "version-stamps",
            "version-stamps-nonreducing",
            "version-stamps-gc",
            "version-vectors",
            "dynamic-version-vectors",
            "vector-clocks",
            "dotted-version-vectors",
            "causal-histories",
            "random-id-causal-histories",
            "interval-tree-clocks",
        ] {
            assert!(table.row(name).is_some(), "missing row for {name}");
        }
        // deterministic: a second run produces identical numbers
        let again = compare_mechanisms(MechanismSet::All, &trace);
        for (a, b) in table.rows().iter().zip(again.rows()) {
            assert_eq!(a, b);
        }
    }
}
