//! The causal-history oracle: cross-checks any mechanism against the
//! global-view specification of Section 2 over a whole trace.
//!
//! Experiment E6 (the executable version of Proposition 5.1 / Corollary 5.2)
//! replays a trace twice — once against the mechanism under test and once
//! against [`CausalMechanism`] — and compares every pairwise relation of
//! every intermediate frontier.

use vstamp_core::causal::CausalMechanism;
use vstamp_core::{Configuration, ElementId, Mechanism, Operation, Relation, Trace};

/// One disagreement between a mechanism and the causal-history oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Disagreement {
    /// Index of the operation after which the disagreement was observed.
    pub step: usize,
    /// The pair of elements compared.
    pub pair: (ElementId, ElementId),
    /// What causal histories say.
    pub expected: Relation,
    /// What the mechanism under test says.
    pub actual: Relation,
}

/// The outcome of checking one mechanism against the oracle over one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgreementReport {
    /// Name of the mechanism that was checked.
    pub mechanism: &'static str,
    /// Number of operations replayed.
    pub operations: usize,
    /// Number of pairwise comparisons performed.
    pub comparisons: usize,
    /// Every disagreement found (empty for a correct mechanism).
    pub disagreements: Vec<Disagreement>,
}

impl AgreementReport {
    /// Returns `true` when the mechanism agreed with the oracle on every
    /// comparison.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.disagreements.is_empty()
    }

    /// Fraction of comparisons on which the mechanism agreed with the
    /// oracle, in `[0, 1]`.
    #[must_use]
    pub fn agreement_ratio(&self) -> f64 {
        if self.comparisons == 0 {
            return 1.0;
        }
        1.0 - self.disagreements.len() as f64 / self.comparisons as f64
    }
}

/// Replays `trace` against both `mechanism` and the causal-history oracle,
/// comparing every pairwise relation after every operation.
pub fn check_against_oracle<M: Mechanism>(mechanism: M, trace: &Trace) -> AgreementReport {
    let mut subject = Configuration::new(mechanism);
    let mut oracle = Configuration::new(CausalMechanism::new());
    let name = subject.mechanism().mechanism_name();
    let mut comparisons = 0;
    let mut disagreements = Vec::new();

    for (step, op) in trace.iter().enumerate() {
        subject.apply(*op).expect("trace replays against the subject");
        oracle.apply(*op).expect("trace replays against the oracle");
        debug_assert_eq!(subject.ids(), oracle.ids());
        for (a, b, expected) in oracle.pairwise_relations() {
            comparisons += 1;
            let actual = subject.relation(a, b).expect("same element ids");
            if actual != expected {
                disagreements.push(Disagreement { step, pair: (a, b), expected, actual });
            }
        }
    }

    AgreementReport { mechanism: name, operations: trace.len(), comparisons, disagreements }
}

/// Convenience: checks that joining the whole final frontier back into one
/// element leaves an element dominating every element of the original
/// frontier (a sanity property used by the scenario binaries).
///
/// Note: this compares the merged element against *stale* elements, which is
/// only meaningful for mechanisms whose comparisons stay valid outside a
/// frontier (version vectors, ITC, non-reducing stamps, causal histories).
/// The reducing version-stamp mechanism deliberately discards exactly that
/// information (Section 1.2 of the paper), so it is not a candidate here.
pub fn merged_frontier_dominates<M: Mechanism>(mechanism: M, trace: &Trace) -> bool {
    let mut config = Configuration::new(mechanism);
    config.apply_trace(trace).expect("trace replays");
    let snapshot: Vec<_> = config.iter().map(|(_, e)| e.clone()).collect();
    while config.len() > 1 {
        let ids = config.ids();
        config.apply(Operation::Join(ids[0], ids[1])).expect("join of live elements");
    }
    let merged_id = config.ids()[0];
    let merged = config.get(merged_id).expect("single element").clone();
    let mechanism_ref = config.mechanism();
    snapshot.iter().all(|element| mechanism_ref.relation(&merged, element).includes_right())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, OperationMix, WorkloadSpec};
    use vstamp_baselines::{DottedMechanism, FixedVersionVectorMechanism, VectorClockMechanism};
    use vstamp_core::{StampMechanism, VersionStampMechanism};
    use vstamp_itc::ItcMechanism;

    fn sample_trace(seed: u64) -> Trace {
        generate(&WorkloadSpec::new(150, 8, seed).with_mix(OperationMix::churn_heavy()))
    }

    #[test]
    fn stamps_agree_exactly_with_the_oracle() {
        for seed in 0..4 {
            let trace = sample_trace(seed);
            let report = check_against_oracle(VersionStampMechanism::reducing(), &trace);
            assert!(report.is_exact(), "disagreements: {:?}", report.disagreements);
            assert_eq!(report.mechanism, "version-stamps");
            assert!(check_against_oracle(VersionStampMechanism::frontier_gc(), &trace).is_exact());
            assert_eq!(report.operations, trace.len());
            assert!(report.comparisons > 0);
            assert_eq!(report.agreement_ratio(), 1.0);
        }
    }

    #[test]
    fn non_reducing_stamps_and_baselines_agree_exactly() {
        // Update-heavy keeps the non-reducing identities small enough to
        // replay (they grow exponentially with sync cycles, see ROADMAP).
        let trace = generate(&WorkloadSpec::new(100, 8, 9).with_mix(OperationMix::update_heavy()));
        assert!(check_against_oracle(VersionStampMechanism::non_reducing(), &trace).is_exact());
        assert!(check_against_oracle(VersionStampMechanism::non_reducing(), &trace).is_exact());
        assert!(check_against_oracle(StampMechanism::<vstamp_core::Name>::reducing(), &trace)
            .is_exact());
        assert!(check_against_oracle(VersionStampMechanism::deferred(4), &trace).is_exact());
        assert!(check_against_oracle(FixedVersionVectorMechanism::new(), &trace).is_exact());
        assert!(check_against_oracle(VectorClockMechanism::new(), &trace).is_exact());
        assert!(check_against_oracle(DottedMechanism::new(), &trace).is_exact());
        assert!(check_against_oracle(ItcMechanism::new(), &trace).is_exact());
    }

    #[test]
    fn a_broken_mechanism_is_caught() {
        /// A deliberately wrong mechanism: it never records updates, so it
        /// reports Equal where the oracle sees domination.
        #[derive(Debug, Clone, Default)]
        struct Amnesiac;
        impl Mechanism for Amnesiac {
            type Element = ();
            fn mechanism_name(&self) -> &'static str {
                "amnesiac"
            }
            fn initial(&mut self) -> Self::Element {}
            fn update(&mut self, _: &Self::Element) -> Self::Element {}
            fn fork(&mut self, _: &Self::Element) -> (Self::Element, Self::Element) {
                ((), ())
            }
            fn join(&mut self, _: &Self::Element, _: &Self::Element) -> Self::Element {}
            fn relation(&self, _: &Self::Element, _: &Self::Element) -> Relation {
                Relation::Equal
            }
            fn size_bits(&self, _: &Self::Element) -> usize {
                0
            }
        }

        let trace = sample_trace(3);
        let report = check_against_oracle(Amnesiac, &trace);
        assert!(!report.is_exact());
        assert!(report.agreement_ratio() < 1.0);
        let first = &report.disagreements[0];
        assert_ne!(first.expected, first.actual);
        assert!(first.step < trace.len());
    }

    #[test]
    fn merged_frontier_dominates_for_stamps_and_itc() {
        let trace = generate(&WorkloadSpec::new(100, 8, 5).with_mix(OperationMix::update_heavy()));
        assert!(merged_frontier_dominates(VersionStampMechanism::non_reducing(), &trace));
        assert!(merged_frontier_dominates(ItcMechanism::new(), &trace));
        assert!(merged_frontier_dominates(FixedVersionVectorMechanism::new(), &trace));
        assert!(merged_frontier_dominates(CausalMechanism::new(), &trace));
    }

    #[test]
    fn empty_trace_report() {
        let report = check_against_oracle(VersionStampMechanism::reducing(), &Trace::new());
        assert!(report.is_exact());
        assert_eq!(report.comparisons, 0);
        assert_eq!(report.agreement_ratio(), 1.0);
    }
}
