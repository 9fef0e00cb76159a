//! Vector clocks (Fidge 1989, Mattern 1989) — the twin concept of version
//! vectors discussed in the paper's introduction.
//!
//! Vector clocks characterize the happened-before relation between *events*
//! of a distributed computation; version vectors characterize the
//! inclusion of *update histories* between replicas. They share the same
//! structure (a map from process identifiers to counters), and the paper
//! points out that the identification problem applies equally to both. The
//! standalone [`VectorClock`] type offers the conventional event-oriented
//! API (`tick`, `send`, `receive`, `happened_before`); the
//! [`VectorClockMechanism`] adapter lets the same fork/join/update traces
//! drive it for the space experiments.

use core::fmt;

use vstamp_core::{Mechanism, Relation};

use crate::replica::{ReplicaAllocator, ReplicaId};
use crate::version_vector::VersionVector;

/// A Fidge/Mattern vector clock owned by one process.
///
/// # Examples
///
/// ```
/// use vstamp_baselines::{ReplicaId, VectorClock};
///
/// let p = ReplicaId::new(0);
/// let q = ReplicaId::new(1);
/// let mut clock_p = VectorClock::new(p);
/// let mut clock_q = VectorClock::new(q);
///
/// clock_p.tick();                      // internal event at p
/// let message = clock_p.send();        // p sends a message
/// clock_q.receive(&message);           // q receives it
/// assert!(clock_p.happened_before(&clock_q));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct VectorClock {
    owner: ReplicaId,
    entries: VersionVector,
}

impl VectorClock {
    /// Creates the clock of process `owner`, with every entry at zero.
    #[must_use]
    pub fn new(owner: ReplicaId) -> Self {
        VectorClock { owner, entries: VersionVector::new() }
    }

    /// The process that owns (and ticks) this clock.
    #[must_use]
    pub fn owner(&self) -> ReplicaId {
        self.owner
    }

    /// The underlying counters.
    #[must_use]
    pub fn entries(&self) -> &VersionVector {
        &self.entries
    }

    /// Records an internal event: increments the owner's entry.
    pub fn tick(&mut self) -> u64 {
        self.entries.increment(self.owner)
    }

    /// Records a send event and returns the timestamp to attach to the
    /// message.
    pub fn send(&mut self) -> VersionVector {
        self.tick();
        self.entries.clone()
    }

    /// Records a receive event: merges the message timestamp and ticks.
    pub fn receive(&mut self, message: &VersionVector) {
        self.entries.merge(message);
        self.tick();
    }

    /// Returns `true` when every entry of `self` is `≤` the corresponding
    /// entry of `other` and the clocks differ — the happened-before
    /// relation.
    #[must_use]
    pub fn happened_before(&self, other: &VectorClock) -> bool {
        self.entries.leq(&other.entries) && self.entries != other.entries
    }

    /// Returns `true` when neither clock happened before the other and they
    /// differ — concurrent events.
    #[must_use]
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        self.relation(other).is_concurrent()
    }

    /// Classifies the two clocks.
    #[must_use]
    pub fn relation(&self, other: &VectorClock) -> Relation {
        self.entries.relation(&other.entries)
    }

    /// Approximate wire size in bits.
    #[must_use]
    pub fn size_bits(&self) -> usize {
        64 + self.entries.size_bits()
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.owner, self.entries)
    }
}

/// Adapter that drives vector clocks with the fork/join/update transition
/// system: `update` is an internal event, `fork` starts a new process that
/// inherits the clock (after a tick on the parent's entry would be
/// indistinguishable, so no tick is added — forks are not events the
/// mechanism tracks), and `join` is a message exchange merging both clocks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorClockMechanism {
    allocator: ReplicaAllocator,
}

impl VectorClockMechanism {
    /// Creates the mechanism with an empty identifier pool.
    #[must_use]
    pub fn new() -> Self {
        VectorClockMechanism::default()
    }
}

impl Mechanism for VectorClockMechanism {
    type Element = VectorClock;

    fn mechanism_name(&self) -> &'static str {
        "vector-clocks"
    }

    fn initial(&mut self) -> Self::Element {
        VectorClock::new(self.allocator.fresh())
    }

    fn update(&mut self, element: &Self::Element) -> Self::Element {
        let mut clock = element.clone();
        clock.tick();
        clock
    }

    fn fork(&mut self, element: &Self::Element) -> (Self::Element, Self::Element) {
        let right = VectorClock { owner: self.allocator.fresh(), entries: element.entries.clone() };
        (element.clone(), right)
    }

    fn join(&mut self, left: &Self::Element, right: &Self::Element) -> Self::Element {
        VectorClock {
            owner: left.owner.min(right.owner),
            entries: left.entries.merged(&right.entries),
        }
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

    fn r(raw: u64) -> ReplicaId {
        ReplicaId::new(raw)
    }

    #[test]
    fn ticks_and_ordering() {
        let mut p = VectorClock::new(r(0));
        let mut q = VectorClock::new(r(1));
        assert_eq!(p.owner(), r(0));
        assert_eq!(p.relation(&q), Relation::Equal);

        p.tick();
        assert!(q.happened_before(&p));
        assert!(!p.happened_before(&q));

        q.tick();
        assert!(p.concurrent_with(&q));
        assert_eq!(p.relation(&q), Relation::Concurrent);
        assert!(p.entries().get(r(0)) == 1);
        assert!(p.size_bits() > 0);
        assert_eq!(p.to_string(), "r0@[r0:1]");
    }

    #[test]
    fn message_passing_establishes_happened_before() {
        let mut p = VectorClock::new(r(0));
        let mut q = VectorClock::new(r(1));
        p.tick();
        let msg = p.send();
        assert_eq!(msg.get(r(0)), 2);
        q.receive(&msg);
        assert!(p.happened_before(&q));
        assert!(!q.happened_before(&p));
        // a later event at p is concurrent with q's receive
        p.tick();
        assert!(p.concurrent_with(&q));
    }

    #[test]
    fn mechanism_tracks_updates_like_version_vectors() {
        let mut mech = VectorClockMechanism::new();
        assert_eq!(mech.mechanism_name(), "vector-clocks");
        let root = mech.initial();
        let (a, b) = mech.fork(&root);
        assert_eq!(mech.relation(&a, &b), Relation::Equal);
        let a1 = mech.update(&a);
        assert_eq!(mech.relation(&a1, &b), Relation::Dominates);
        let b1 = mech.update(&b);
        assert_eq!(mech.relation(&a1, &b1), Relation::Concurrent);
        let joined = mech.join(&a1, &b1);
        assert_eq!(mech.relation(&joined, &a1), Relation::Dominates);
        assert!(mech.size_bits(&joined) >= 64);
    }

    #[test]
    fn mechanism_agrees_with_stamps_on_a_trace() {
        use vstamp_core::{Configuration, ElementId, Operation, Trace, VersionStampMechanism};
        let trace: Trace = [
            Operation::Fork(ElementId::new(0)),
            Operation::Update(ElementId::new(2)),
            Operation::Fork(ElementId::new(1)),
            Operation::Update(ElementId::new(5)),
            Operation::Join(ElementId::new(3), ElementId::new(6)),
        ]
        .into_iter()
        .collect();
        let mut clocks = Configuration::new(VectorClockMechanism::new());
        let mut stamps = Configuration::new(VersionStampMechanism::reducing());
        clocks.apply_trace(&trace).unwrap();
        stamps.apply_trace(&trace).unwrap();
        for (a, b, relation) in stamps.pairwise_relations() {
            assert_eq!(clocks.relation(a, b).unwrap(), relation, "mismatch at ({a}, {b})");
        }
    }
}
