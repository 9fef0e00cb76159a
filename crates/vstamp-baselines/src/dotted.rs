//! Dotted version vectors — a modern refinement of version vectors used by
//! replicated key-value stores.
//!
//! A dotted version vector is a contiguous version vector plus an optional
//! *dot*: a single `(replica, counter)` pair identifying the most recent
//! write, which may sit one past the contiguous prefix. The mechanism still
//! requires unique replica identifiers, so it inherits the identification
//! problem; it is included as an additional baseline for the space
//! experiments because its per-element footprint is the vector plus a
//! constant.

use core::fmt;

use vstamp_core::{Mechanism, Relation};

use crate::replica::{ReplicaAllocator, ReplicaId};
use crate::version_vector::VersionVector;

/// A write event identifier: one `(replica, counter)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Dot {
    /// The replica that performed the write.
    pub replica: ReplicaId,
    /// The per-replica sequence number of the write.
    pub counter: u64,
}

impl fmt::Display for Dot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.replica, self.counter)
    }
}

/// A version vector plus an optional dot for the latest write.
///
/// # Examples
///
/// ```
/// use vstamp_baselines::{DottedVersionVector, ReplicaId};
/// use vstamp_core::Relation;
///
/// let r = ReplicaId::new(0);
/// let mut a = DottedVersionVector::new();
/// let b = a.clone();
/// a.record_write(r);
/// assert_eq!(a.relation(&b), Relation::Dominates);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DottedVersionVector {
    vector: VersionVector,
    dot: Option<Dot>,
}

impl DottedVersionVector {
    /// The empty dotted version vector.
    #[must_use]
    pub fn new() -> Self {
        DottedVersionVector::default()
    }

    /// The contiguous vector component.
    #[must_use]
    pub fn vector(&self) -> &VersionVector {
        &self.vector
    }

    /// The dot of the latest write, if any.
    #[must_use]
    pub fn dot(&self) -> Option<Dot> {
        self.dot
    }

    /// Folds the dot (if any) into the contiguous vector, producing the
    /// *effective* knowledge of the element.
    #[must_use]
    pub fn effective_vector(&self) -> VersionVector {
        let mut vv = self.vector.clone();
        if let Some(dot) = self.dot {
            let current = vv.get(dot.replica);
            vv.set(dot.replica, current.max(dot.counter));
        }
        vv
    }

    /// Records a write by `replica`: the previous dot is folded into the
    /// vector and a fresh dot one past the replica's entry is attached.
    pub fn record_write(&mut self, replica: ReplicaId) -> Dot {
        self.vector = self.effective_vector();
        let dot = Dot { replica, counter: self.vector.get(replica) + 1 };
        self.dot = Some(dot);
        dot
    }

    /// Merges the knowledge of two elements (dots folded in, pointwise
    /// maximum, no dot on the result).
    #[must_use]
    pub fn merged(&self, other: &DottedVersionVector) -> DottedVersionVector {
        DottedVersionVector {
            vector: self.effective_vector().merged(&other.effective_vector()),
            dot: None,
        }
    }

    /// Classifies two elements by their effective vectors.
    #[must_use]
    pub fn relation(&self, other: &DottedVersionVector) -> Relation {
        self.effective_vector().relation(&other.effective_vector())
    }

    /// Approximate wire size in bits: the vector plus the dot.
    #[must_use]
    pub fn size_bits(&self) -> usize {
        self.vector.size_bits() + if self.dot.is_some() { 128 } else { 0 }
    }
}

impl fmt::Display for DottedVersionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.dot {
            Some(dot) => write!(f, "{} + {dot}", self.vector),
            None => write!(f, "{}", self.vector),
        }
    }
}

/// One frontier element of the dotted mechanism: the replica identity plus
/// its dotted vector.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DottedElement {
    /// The replica identifier this element writes under.
    pub replica: ReplicaId,
    /// The element's dotted version vector.
    pub clock: DottedVersionVector,
}

/// Dotted version vectors adapted to the fork/join/update transition system.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DottedMechanism {
    allocator: ReplicaAllocator,
}

impl DottedMechanism {
    /// Creates the mechanism with an empty identifier pool.
    #[must_use]
    pub fn new() -> Self {
        DottedMechanism::default()
    }
}

impl Mechanism for DottedMechanism {
    type Element = DottedElement;

    fn mechanism_name(&self) -> &'static str {
        "dotted-version-vectors"
    }

    fn initial(&mut self) -> Self::Element {
        DottedElement { replica: self.allocator.fresh(), clock: DottedVersionVector::new() }
    }

    fn update(&mut self, element: &Self::Element) -> Self::Element {
        let mut clock = element.clock.clone();
        clock.record_write(element.replica);
        DottedElement { replica: element.replica, clock }
    }

    fn fork(&mut self, element: &Self::Element) -> (Self::Element, Self::Element) {
        let right = DottedElement { replica: self.allocator.fresh(), clock: element.clock.clone() };
        (element.clone(), right)
    }

    fn join(&mut self, left: &Self::Element, right: &Self::Element) -> Self::Element {
        DottedElement {
            replica: left.replica.min(right.replica),
            clock: left.clock.merged(&right.clock),
        }
    }

    fn relation(&self, left: &Self::Element, right: &Self::Element) -> Relation {
        left.clock.relation(&right.clock)
    }

    fn size_bits(&self, element: &Self::Element) -> usize {
        64 + element.clock.size_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(raw: u64) -> ReplicaId {
        ReplicaId::new(raw)
    }

    #[test]
    fn record_write_produces_sequential_dots() {
        let mut dvv = DottedVersionVector::new();
        let d1 = dvv.record_write(r(0));
        assert_eq!(d1, Dot { replica: r(0), counter: 1 });
        let d2 = dvv.record_write(r(0));
        assert_eq!(d2.counter, 2);
        assert_eq!(dvv.dot(), Some(d2));
        assert_eq!(dvv.vector().get(r(0)), 1);
        assert_eq!(dvv.effective_vector().get(r(0)), 2);
        assert_eq!(d1.to_string(), "(r0, 1)");
        assert!(dvv.to_string().contains('+'));
    }

    #[test]
    fn merge_folds_dots() {
        let mut a = DottedVersionVector::new();
        let mut b = DottedVersionVector::new();
        a.record_write(r(0));
        b.record_write(r(1));
        assert_eq!(a.relation(&b), Relation::Concurrent);
        let merged = a.merged(&b);
        assert_eq!(merged.dot(), None);
        assert_eq!(merged.effective_vector().get(r(0)), 1);
        assert_eq!(merged.effective_vector().get(r(1)), 1);
        assert_eq!(merged.relation(&a), Relation::Dominates);
        assert!(merged.size_bits() > 0);
        assert!(!merged.to_string().contains('+'));
    }

    #[test]
    fn relation_on_empty_elements() {
        let a = DottedVersionVector::new();
        let b = DottedVersionVector::new();
        assert_eq!(a.relation(&b), Relation::Equal);
        assert_eq!(a.size_bits(), 0);
    }

    #[test]
    fn mechanism_tracks_updates() {
        let mut mech = DottedMechanism::new();
        assert_eq!(mech.mechanism_name(), "dotted-version-vectors");
        let root = mech.initial();
        let (a, b) = mech.fork(&root);
        assert_ne!(a.replica, b.replica);
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
            Operation::Update(ElementId::new(1)),
            Operation::Update(ElementId::new(3)),
            Operation::Fork(ElementId::new(2)),
            Operation::Update(ElementId::new(5)),
            Operation::Join(ElementId::new(4), ElementId::new(6)),
        ]
        .into_iter()
        .collect();
        let mut dotted = Configuration::new(DottedMechanism::new());
        let mut stamps = Configuration::new(VersionStampMechanism::reducing());
        dotted.apply_trace(&trace).unwrap();
        stamps.apply_trace(&trace).unwrap();
        for (a, b, relation) in stamps.pairwise_relations() {
            assert_eq!(dotted.relation(a, b).unwrap(), relation, "mismatch at ({a}, {b})");
        }
    }
}
