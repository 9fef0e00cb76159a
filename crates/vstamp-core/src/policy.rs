//! Reduction policies: the stamp lifecycle seam.
//!
//! The paper presents exactly two lifecycles: the non-reducing model of
//! Section 4 (joins keep every string, the proof baseline) and the eagerly
//! reducing mechanism of Section 6 (every join is followed by the rewriting
//! rule). The original code hard-wired that choice as an on/off flag
//! ([`Reduction`]) inside the mechanism. This module turns the choice into a
//! first-class seam: a [`ReductionPolicy`] decides, at every lifecycle event,
//! what the produced stamp looks like.
//!
//! Shipped policies:
//!
//! * [`Eager`] — Section 6 verbatim: reduce after every join. The practical
//!   default.
//! * [`NoReduce`] — Section 4 verbatim: never reduce. Space grows without
//!   bound (exponentially under sync-heavy workloads); kept as the proof
//!   baseline and for the E9 ablation.
//! * [`Deferred`] — batched reduction: joins stay cheap (no rewriting) until
//!   the id crosses a string-count threshold, then the accumulated sibling
//!   pairs are collapsed in one pass. Sound because each rewriting step
//!   preserves the frontier order (Section 6), so *when* the steps run is
//!   immaterial to comparisons.
//! * [`FrontierGc`](crate::gc::FrontierGc) — eager reduction plus
//!   frontier-evidence identity garbage collection (see the
//!   [`gc`](crate::gc) module), the answer to the identity-fragmentation
//!   wall measured in ROADMAP.
//!
//! Policies are *mechanism-level* state (see
//! [`StampMechanism`](crate::StampMechanism)): the version-stamp operations
//! on [`Stamp`] itself remain pure and stateless, exactly as in the paper.

use crate::name_like::NameLike;
use crate::stamp::{Reduction, Stamp};

/// A policy deciding how stamps are reduced (and possibly collapsed) along
/// their lifecycle.
///
/// The only mandatory decision is [`ReductionPolicy::join`]: given the two
/// input stamps of a join, produce the merged stamp. The `on_*` hooks exist
/// for policies that need *frontier evidence* — a mirror of the live
/// elements — such as [`FrontierGc`](crate::gc::FrontierGc); stateless
/// policies ignore them.
///
/// Every shipped policy preserves the frontier order of Corollary 5.2: for
/// coexisting elements, the pairwise [`Relation`](crate::Relation)
/// classification is identical to the causal-history oracle no matter which
/// policy produced the stamps (property-tested in
/// `tests/policy_properties.rs`).
pub trait ReductionPolicy<N: NameLike>: Clone + core::fmt::Debug {
    /// Short label of the policy (`eager`, `none`, `deferred`,
    /// `frontier-gc`), used in mechanism and report names.
    fn policy_name(&self) -> &'static str;

    /// Called when the initial element of a configuration is created.
    fn on_initial(&mut self, _seed: &Stamp<N>) {}

    /// Called after an `update` transition replaced `old` by `new`.
    fn on_update(&mut self, _old: &Stamp<N>, _new: &Stamp<N>) {}

    /// Called after a `fork` transition replaced `old` by `left`/`right`.
    fn on_fork(&mut self, _old: &Stamp<N>, _left: &Stamp<N>, _right: &Stamp<N>) {}

    /// Produces the stamp of a `join` transition consuming `left` and
    /// `right`.
    fn join(&mut self, left: &Stamp<N>, right: &Stamp<N>) -> Stamp<N>;
}

/// Reduce after every join — the practical mechanism of Section 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Eager;

impl<N: NameLike> ReductionPolicy<N> for Eager {
    fn policy_name(&self) -> &'static str {
        "eager"
    }

    fn join(&mut self, left: &Stamp<N>, right: &Stamp<N>) -> Stamp<N> {
        left.join_with(right, Reduction::Reducing)
    }
}

/// Never reduce — the model of Section 4, used as the proof baseline.
///
/// Identities gain one string per fork and never lose any; under sync-heavy
/// workloads they grow exponentially with the number of sync cycles (see the
/// `simplification` report binary). Use only on short traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NoReduce;

impl<N: NameLike> ReductionPolicy<N> for NoReduce {
    fn policy_name(&self) -> &'static str {
        "none"
    }

    fn join(&mut self, left: &Stamp<N>, right: &Stamp<N>) -> Stamp<N> {
        left.join_with(right, Reduction::NonReducing)
    }
}

/// Batched reduction: join without rewriting while the id stays small,
/// reduce in one pass once it crosses a threshold.
///
/// Because each Section-6 rewriting step preserves every frontier relation,
/// deferring the steps is sound; what is traded is the *space* of the
/// not-yet-reduced stamps against the *time* of rewriting on every join.
/// With `max_id_strings == 0` the policy degenerates to [`Eager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Deferred {
    /// Reduce when the joined id holds more strings than this.
    pub max_id_strings: usize,
}

impl Deferred {
    /// A deferred policy reducing once the id exceeds `max_id_strings`.
    #[must_use]
    pub fn new(max_id_strings: usize) -> Self {
        Deferred { max_id_strings }
    }
}

impl Default for Deferred {
    /// Defaults to reducing only when an id exceeds 16 strings.
    fn default() -> Self {
        Deferred::new(16)
    }
}

impl<N: NameLike> ReductionPolicy<N> for Deferred {
    fn policy_name(&self) -> &'static str {
        "deferred"
    }

    fn join(&mut self, left: &Stamp<N>, right: &Stamp<N>) -> Stamp<N> {
        let raw = left.join_with(right, Reduction::NonReducing);
        if raw.id_name().string_count() > self.max_id_strings {
            raw.reduce()
        } else {
            raw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stamp::VersionStamp;

    #[test]
    fn eager_reduces_and_none_does_not() {
        let (a, b) = VersionStamp::seed().fork();
        let mut eager = Eager;
        let mut none = NoReduce;
        assert_eq!(ReductionPolicy::join(&mut eager, &a, &b), VersionStamp::seed());
        let raw = ReductionPolicy::join(&mut none, &a, &b);
        assert_ne!(raw, VersionStamp::seed());
        assert_eq!(raw.reduce(), VersionStamp::seed());
        assert_eq!(ReductionPolicy::<crate::PackedName>::policy_name(&eager), "eager");
        assert_eq!(ReductionPolicy::<crate::PackedName>::policy_name(&none), "none");
    }

    #[test]
    fn deferred_reduces_only_past_threshold() {
        let (a, b) = VersionStamp::seed().fork();
        // Threshold 16: the two-string join stays unreduced.
        let mut lazy = Deferred::default();
        assert_eq!(lazy.max_id_strings, 16);
        let raw = ReductionPolicy::join(&mut lazy, &a, &b);
        assert!(!raw.is_reduced());
        // Threshold 0: behaves like Eager.
        let mut eager_ish = Deferred::new(0);
        assert_eq!(ReductionPolicy::join(&mut eager_ish, &a, &b), VersionStamp::seed());
        assert_eq!(ReductionPolicy::<crate::PackedName>::policy_name(&lazy), "deferred");
    }
}
