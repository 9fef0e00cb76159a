//! Classic version vectors (Parker et al. 1983) — the mechanism of Figure 1.
//!
//! A version vector maps replica identifiers to update counters. Replica `r`
//! records an update by incrementing its own entry; synchronization takes
//! the pointwise maximum; comparison is pointwise `≤`. The mechanism
//! requires every replica to know its own globally unique identifier in
//! advance — the assumption version stamps remove.

use core::fmt;
use std::collections::btree_map;
use std::collections::BTreeMap;

use vstamp_core::{Mechanism, Relation};

use crate::replica::{ReplicaAllocator, ReplicaId};

/// A mapping from replica identifiers to update counters.
///
/// # Examples
///
/// The first column of Figure 1: replica A updates, then synchronizes with
/// B.
///
/// ```
/// use vstamp_baselines::{ReplicaId, VersionVector};
///
/// let a = ReplicaId::new(0);
/// let b = ReplicaId::new(1);
///
/// let mut vv_a = VersionVector::new();
/// let mut vv_b = VersionVector::new();
/// vv_a.increment(a);                 // A records an update: [1, 0, 0]
/// assert!(vv_b.leq(&vv_a));
///
/// vv_b.merge(&vv_a);                 // synchronization
/// assert_eq!(vv_a.relation(&vv_b), vstamp_core::Relation::Equal);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct VersionVector {
    counters: BTreeMap<ReplicaId, u64>,
}

impl VersionVector {
    /// The empty vector (all counters implicitly zero).
    #[must_use]
    pub fn new() -> Self {
        VersionVector::default()
    }

    /// Builds a vector from explicit `(replica, counter)` pairs; zero
    /// counters are dropped.
    pub fn from_entries<I: IntoIterator<Item = (ReplicaId, u64)>>(entries: I) -> Self {
        let mut vv = VersionVector::new();
        for (replica, counter) in entries {
            vv.set(replica, counter);
        }
        vv
    }

    /// The counter for a replica (zero when absent).
    #[must_use]
    pub fn get(&self, replica: ReplicaId) -> u64 {
        self.counters.get(&replica).copied().unwrap_or(0)
    }

    /// Sets a counter explicitly; a zero value removes the entry.
    pub fn set(&mut self, replica: ReplicaId, counter: u64) {
        if counter == 0 {
            self.counters.remove(&replica);
        } else {
            self.counters.insert(replica, counter);
        }
    }

    /// Increments the counter of `replica`, returning the new value.
    pub fn increment(&mut self, replica: ReplicaId) -> u64 {
        let counter = self.counters.entry(replica).or_insert(0);
        *counter += 1;
        *counter
    }

    /// Number of non-zero entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Returns `true` when every counter is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Pointwise maximum with `other` — the merge used on synchronization.
    pub fn merge(&mut self, other: &VersionVector) {
        for (&replica, &counter) in &other.counters {
            let entry = self.counters.entry(replica).or_insert(0);
            *entry = (*entry).max(counter);
        }
    }

    /// Returns the pointwise maximum of the two vectors.
    #[must_use]
    pub fn merged(&self, other: &VersionVector) -> VersionVector {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Pointwise `≤` — the causal order on version vectors.
    #[must_use]
    pub fn leq(&self, other: &VersionVector) -> bool {
        self.counters.iter().all(|(replica, &counter)| counter <= other.get(*replica))
    }

    /// Classifies two vectors (equivalent / dominated / dominating /
    /// concurrent).
    #[must_use]
    pub fn relation(&self, other: &VersionVector) -> Relation {
        Relation::from_leq(self.leq(other), other.leq(self))
    }

    /// Iterates over the non-zero `(replica, counter)` entries.
    pub fn iter(&self) -> btree_map::Iter<'_, ReplicaId, u64> {
        self.counters.iter()
    }

    /// Sum of all counters (total number of updates known).
    #[must_use]
    pub fn total_updates(&self) -> u64 {
        self.counters.values().sum()
    }

    /// Approximate wire size: 64 bits of identifier plus 64 bits of counter
    /// per entry, the conventional accounting for version-vector space.
    #[must_use]
    pub fn size_bits(&self) -> usize {
        self.counters.len() * 128
    }
}

impl fmt::Display for VersionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, (replica, counter)) in self.counters.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{replica}:{counter}")?;
        }
        f.write_str("]")
    }
}

impl FromIterator<(ReplicaId, u64)> for VersionVector {
    fn from_iter<I: IntoIterator<Item = (ReplicaId, u64)>>(iter: I) -> Self {
        VersionVector::from_entries(iter)
    }
}

/// One frontier element tracked by a version-vector mechanism: the replica's
/// identity plus its vector.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct VvElement {
    /// The replica identifier this element updates under.
    pub replica: ReplicaId,
    /// The element's version vector.
    pub vector: VersionVector,
}

impl fmt::Display for VvElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.replica, self.vector)
    }
}

/// The classic fixed-population version-vector mechanism, adapted to the
/// fork/join/update transition system by pre-allocating identifiers from a
/// global pool on every fork (Figure 3's encoding in the other direction).
///
/// The need for that global pool under arbitrary partitions is precisely the
/// limitation the paper addresses; the mechanism is here as the baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FixedVersionVectorMechanism {
    allocator: ReplicaAllocator,
}

impl FixedVersionVectorMechanism {
    /// Creates the mechanism with an empty identifier pool.
    #[must_use]
    pub fn new() -> Self {
        FixedVersionVectorMechanism::default()
    }

    /// Number of replica identifiers handed out so far.
    #[must_use]
    pub fn replicas_allocated(&self) -> u64 {
        self.allocator.allocated()
    }
}

impl Mechanism for FixedVersionVectorMechanism {
    type Element = VvElement;

    fn mechanism_name(&self) -> &'static str {
        "version-vectors"
    }

    fn initial(&mut self) -> Self::Element {
        VvElement { replica: self.allocator.fresh(), vector: VersionVector::new() }
    }

    fn update(&mut self, element: &Self::Element) -> Self::Element {
        let mut vector = element.vector.clone();
        vector.increment(element.replica);
        VvElement { replica: element.replica, vector }
    }

    fn fork(&mut self, element: &Self::Element) -> (Self::Element, Self::Element) {
        // The left descendant keeps the replica identity; the right one must
        // obtain a fresh identifier from the global allocator.
        let right = VvElement { replica: self.allocator.fresh(), vector: element.vector.clone() };
        (element.clone(), right)
    }

    fn join(&mut self, left: &Self::Element, right: &Self::Element) -> Self::Element {
        VvElement {
            replica: left.replica.min(right.replica),
            vector: left.vector.merged(&right.vector),
        }
    }

    fn relation(&self, left: &Self::Element, right: &Self::Element) -> Relation {
        left.vector.relation(&right.vector)
    }

    fn size_bits(&self, element: &Self::Element) -> usize {
        64 + element.vector.size_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(raw: u64) -> ReplicaId {
        ReplicaId::new(raw)
    }

    #[test]
    fn empty_vector() {
        let vv = VersionVector::new();
        assert!(vv.is_empty());
        assert_eq!(vv.len(), 0);
        assert_eq!(vv.get(r(0)), 0);
        assert_eq!(vv.to_string(), "[]");
        assert_eq!(vv.size_bits(), 0);
        assert_eq!(vv.total_updates(), 0);
    }

    #[test]
    fn increment_and_get() {
        let mut vv = VersionVector::new();
        assert_eq!(vv.increment(r(0)), 1);
        assert_eq!(vv.increment(r(0)), 2);
        assert_eq!(vv.increment(r(1)), 1);
        assert_eq!(vv.get(r(0)), 2);
        assert_eq!(vv.get(r(1)), 1);
        assert_eq!(vv.get(r(2)), 0);
        assert_eq!(vv.len(), 2);
        assert_eq!(vv.total_updates(), 3);
        assert_eq!(vv.to_string(), "[r0:2, r1:1]");
    }

    #[test]
    fn set_and_zero_removal() {
        let mut vv = VersionVector::new();
        vv.set(r(3), 5);
        assert_eq!(vv.get(r(3)), 5);
        vv.set(r(3), 0);
        assert!(vv.is_empty());
        let from_entries = VersionVector::from_entries([(r(0), 1), (r(1), 0), (r(2), 3)]);
        assert_eq!(from_entries.len(), 2);
        let collected: VersionVector = [(r(0), 1), (r(2), 3)].into_iter().collect();
        assert_eq!(collected, from_entries);
        assert_eq!(from_entries.iter().count(), 2);
    }

    #[test]
    fn figure_1_scenario() {
        // Figure 1: three replicas A, B, C (B never updates, only syncs).
        let (a, c) = (r(0), r(2));
        let mut vv_a = VersionVector::new();
        let mut vv_b = VersionVector::new();
        let mut vv_c = VersionVector::new();

        // A updates: [1,0,0]; C updates: [0,0,1].
        vv_a.increment(a);
        vv_c.increment(c);
        assert_eq!(vv_a.relation(&vv_c), Relation::Concurrent);

        // B synchronizes with A: both [1,0,0].
        vv_b.merge(&vv_a);
        assert_eq!(vv_b.relation(&vv_a), Relation::Equal);

        // C synchronizes with B: both [1,0,1].
        vv_c.merge(&vv_b);
        vv_b.merge(&vv_c.clone());
        assert_eq!(vv_c.get(a), 1);
        assert_eq!(vv_c.get(c), 1);
        assert_eq!(vv_b.relation(&vv_c), Relation::Equal);

        // A updates again: [2,0,0]; now A and C are concurrent? No — C has
        // seen A's first update only, A has not seen C's update, so they are
        // mutually inconsistent, matching the top-right of Figure 1.
        vv_a.increment(a);
        assert_eq!(vv_a.relation(&vv_c), Relation::Concurrent);
        let _ = vv_b;
    }

    #[test]
    fn leq_and_relation() {
        let small = VersionVector::from_entries([(r(0), 1)]);
        let big = VersionVector::from_entries([(r(0), 2), (r(1), 1)]);
        assert!(small.leq(&big));
        assert!(!big.leq(&small));
        assert_eq!(small.relation(&big), Relation::Dominated);
        assert_eq!(big.relation(&small), Relation::Dominates);
        assert_eq!(small.relation(&small.clone()), Relation::Equal);
        let other = VersionVector::from_entries([(r(2), 1)]);
        assert_eq!(small.relation(&other), Relation::Concurrent);
        assert!(VersionVector::new().leq(&small));
    }

    #[test]
    fn merge_is_pointwise_max() {
        let a = VersionVector::from_entries([(r(0), 3), (r(1), 1)]);
        let b = VersionVector::from_entries([(r(0), 1), (r(2), 4)]);
        let merged = a.merged(&b);
        assert_eq!(merged.get(r(0)), 3);
        assert_eq!(merged.get(r(1)), 1);
        assert_eq!(merged.get(r(2)), 4);
        assert!(a.leq(&merged) && b.leq(&merged));
        // merge is commutative and idempotent
        assert_eq!(merged, b.merged(&a));
        assert_eq!(merged.merged(&merged), merged);
        assert_eq!(merged.size_bits(), 3 * 128);
    }

    #[test]
    fn mechanism_over_fork_join_update() {
        let mut mech = FixedVersionVectorMechanism::new();
        assert_eq!(mech.mechanism_name(), "version-vectors");
        let root = mech.initial();
        assert_eq!(mech.replicas_allocated(), 1);

        let (a, b) = mech.fork(&root);
        assert_eq!(mech.replicas_allocated(), 2);
        assert_ne!(a.replica, b.replica);
        assert_eq!(mech.relation(&a, &b), Relation::Equal);

        let a1 = mech.update(&a);
        assert_eq!(mech.relation(&a1, &b), Relation::Dominates);
        let b1 = mech.update(&b);
        assert_eq!(mech.relation(&a1, &b1), Relation::Concurrent);

        let joined = mech.join(&a1, &b1);
        assert_eq!(mech.relation(&joined, &a1), Relation::Dominates);
        assert_eq!(mech.relation(&joined, &b1), Relation::Dominates);
        assert!(mech.size_bits(&joined) >= 64);
        assert!(!format!("{a1}").is_empty());
    }

    #[test]
    fn mechanism_agrees_with_stamps_on_a_trace() {
        use vstamp_core::{Configuration, ElementId, Operation, Trace, VersionStampMechanism};
        let trace: Trace = [
            Operation::Fork(ElementId::new(0)),
            Operation::Update(ElementId::new(1)),
            Operation::Fork(ElementId::new(2)),
            Operation::Update(ElementId::new(4)),
            Operation::Join(ElementId::new(3), ElementId::new(5)),
            Operation::Update(ElementId::new(6)),
        ]
        .into_iter()
        .collect();
        let mut vv = Configuration::new(FixedVersionVectorMechanism::new());
        let mut stamps = Configuration::new(VersionStampMechanism::reducing());
        vv.apply_trace(&trace).unwrap();
        stamps.apply_trace(&trace).unwrap();
        assert_eq!(vv.ids(), stamps.ids());
        for (a, b, relation) in stamps.pairwise_relations() {
            assert_eq!(vv.relation(a, b).unwrap(), relation, "mismatch at ({a}, {b})");
        }
    }
}
