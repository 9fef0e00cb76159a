//! Causal histories over probabilistically unique random identifiers.
//!
//! The paper notes that "in circumstances in which we can afford
//! probabilistically unique identifiers, algorithms may resort to some form
//! of random based ids in order to cope with replica creation under
//! partitioned environments", and explicitly chooses *not* to rely on that.
//! This baseline implements the alternative: every update event draws a
//! random 128-bit identifier locally, and an element's knowledge is the set
//! of identifiers it has seen. It is fully decentralized but (a) only
//! probabilistically correct and (b) grows linearly with the total number of
//! updates ever performed — both contrasts the evaluation quantifies.

use core::fmt;
use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vstamp_core::{Mechanism, Relation};

/// The set of random update-event identifiers known to one element.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RandomIdHistory {
    events: BTreeSet<u128>,
}

impl RandomIdHistory {
    /// The empty history.
    #[must_use]
    pub fn new() -> Self {
        RandomIdHistory::default()
    }

    /// Number of update events known.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when no update has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Returns `true` when the history contains the identifier.
    #[must_use]
    pub fn contains(&self, event: u128) -> bool {
        self.events.contains(&event)
    }

    /// Adds an event identifier.
    pub fn insert(&mut self, event: u128) -> bool {
        self.events.insert(event)
    }

    /// Set union (the join of knowledge).
    #[must_use]
    pub fn union(&self, other: &RandomIdHistory) -> RandomIdHistory {
        RandomIdHistory { events: self.events.union(&other.events).copied().collect() }
    }

    /// Set inclusion.
    #[must_use]
    pub fn is_subset_of(&self, other: &RandomIdHistory) -> bool {
        self.events.is_subset(&other.events)
    }

    /// Classifies two histories.
    #[must_use]
    pub fn relation(&self, other: &RandomIdHistory) -> Relation {
        Relation::from_leq(self.is_subset_of(other), other.is_subset_of(self))
    }

    /// Approximate wire size in bits: 128 per event identifier.
    #[must_use]
    pub fn size_bits(&self) -> usize {
        self.events.len() * 128
    }
}

impl fmt::Display for RandomIdHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{} random events}}", self.events.len())
    }
}

/// The random-identifier causal-history mechanism.
///
/// The generator is seeded explicitly so experiments stay reproducible; a
/// deployment would use a local entropy source on each replica.
#[derive(Debug, Clone)]
pub struct RandomIdCausalMechanism {
    rng: StdRng,
    drawn: u64,
}

impl RandomIdCausalMechanism {
    /// Creates a mechanism drawing identifiers from the given seed.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        RandomIdCausalMechanism { rng: StdRng::seed_from_u64(seed), drawn: 0 }
    }

    /// Number of identifiers drawn so far.
    #[must_use]
    pub fn identifiers_drawn(&self) -> u64 {
        self.drawn
    }
}

impl Default for RandomIdCausalMechanism {
    fn default() -> Self {
        RandomIdCausalMechanism::with_seed(0)
    }
}

impl Mechanism for RandomIdCausalMechanism {
    type Element = RandomIdHistory;

    fn mechanism_name(&self) -> &'static str {
        "random-id-causal-histories"
    }

    fn initial(&mut self) -> Self::Element {
        RandomIdHistory::new()
    }

    fn update(&mut self, element: &Self::Element) -> Self::Element {
        let mut out = element.clone();
        self.drawn += 1;
        out.insert(self.rng.gen::<u128>());
        out
    }

    fn fork(&mut self, element: &Self::Element) -> (Self::Element, Self::Element) {
        (element.clone(), element.clone())
    }

    fn join(&mut self, left: &Self::Element, right: &Self::Element) -> Self::Element {
        left.union(right)
    }

    fn relation(&self, left: &Self::Element, right: &Self::Element) -> Relation {
        left.relation(right)
    }

    fn size_bits(&self, element: &Self::Element) -> usize {
        element.size_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_set_operations() {
        let mut a = RandomIdHistory::new();
        assert!(a.is_empty());
        assert!(a.insert(7));
        assert!(!a.insert(7));
        assert!(a.contains(7));
        assert!(!a.contains(8));
        assert_eq!(a.len(), 1);
        assert_eq!(a.size_bits(), 128);
        let mut b = RandomIdHistory::new();
        b.insert(8);
        assert_eq!(a.relation(&b), Relation::Concurrent);
        let u = a.union(&b);
        assert!(a.is_subset_of(&u) && b.is_subset_of(&u));
        assert_eq!(u.relation(&a), Relation::Dominates);
        assert_eq!(u.to_string(), "{2 random events}");
    }

    #[test]
    fn mechanism_is_reproducible_per_seed() {
        let run = |seed| {
            let mut mech = RandomIdCausalMechanism::with_seed(seed);
            let root = mech.initial();
            let (a, b) = mech.fork(&root);
            let a = mech.update(&a);
            let b = mech.update(&b);
            mech.join(&a, &b)
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn mechanism_tracks_updates() {
        let mut mech = RandomIdCausalMechanism::default();
        assert_eq!(mech.mechanism_name(), "random-id-causal-histories");
        let root = mech.initial();
        let (a, b) = mech.fork(&root);
        assert_eq!(mech.relation(&a, &b), Relation::Equal);
        let a1 = mech.update(&a);
        assert_eq!(mech.relation(&a1, &b), Relation::Dominates);
        let b1 = mech.update(&b);
        assert_eq!(mech.relation(&a1, &b1), Relation::Concurrent);
        assert_eq!(mech.identifiers_drawn(), 2);
        let joined = mech.join(&a1, &b1);
        assert_eq!(mech.size_bits(&joined), 2 * 128);
    }

    #[test]
    fn mechanism_agrees_with_stamps_on_a_trace() {
        use vstamp_core::{Configuration, ElementId, Operation, Trace, VersionStampMechanism};
        let trace: Trace = [
            Operation::Fork(ElementId::new(0)),
            Operation::Update(ElementId::new(1)),
            Operation::Fork(ElementId::new(3)),
            Operation::Update(ElementId::new(4)),
            Operation::Join(ElementId::new(2), ElementId::new(6)),
        ]
        .into_iter()
        .collect();
        let mut random = Configuration::new(RandomIdCausalMechanism::with_seed(42));
        let mut stamps = Configuration::new(VersionStampMechanism::reducing());
        random.apply_trace(&trace).unwrap();
        stamps.apply_trace(&trace).unwrap();
        for (a, b, relation) in stamps.pairwise_relations() {
            assert_eq!(random.relation(a, b).unwrap(), relation, "mismatch at ({a}, {b})");
        }
    }
}
