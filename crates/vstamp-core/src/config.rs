//! Frontier configurations and the transition system of Definitions 2.1/4.3.
//!
//! A [`Configuration`] holds the *current frontier*: the set of coexisting
//! elements, each carrying the payload of one [`Mechanism`]. Operations
//! transform the frontier exactly as in the paper: `update` replaces an
//! element, `fork` replaces one element by two, `join` replaces two elements
//! by one. Because element identifiers are allocated deterministically, the
//! same [`Trace`] can be replayed against different mechanisms and the
//! resulting frontiers compared element by element — this is how the
//! equivalence experiments (E5/E6) and every space experiment work.

use core::fmt;
use std::collections::BTreeMap;

use crate::error::ConfigError;
use crate::mechanism::Mechanism;
use crate::relation::Relation;

/// Identity of a frontier element within a [`Configuration`].
///
/// These identifiers are bookkeeping for the simulator and tests; they are
/// *not* part of any mechanism's state (version stamps carry their own
/// decentralized identities).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ElementId(u64);

impl ElementId {
    /// Wraps a raw element number.
    #[must_use]
    pub fn new(raw: u64) -> Self {
        ElementId(raw)
    }

    /// The raw element number.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ElementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One transition of the replicated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Operation {
    /// Record an update on the element.
    Update(ElementId),
    /// Split the element into two new elements.
    Fork(ElementId),
    /// Merge the two elements into one new element.
    Join(ElementId, ElementId),
}

impl Operation {
    /// The element identifiers this operation consumes.
    #[must_use]
    pub fn inputs(&self) -> Vec<ElementId> {
        match self {
            Operation::Update(a) | Operation::Fork(a) => vec![*a],
            Operation::Join(a, b) => vec![*a, *b],
        }
    }

    /// Short operation label ("update", "fork" or "join").
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Operation::Update(_) => "update",
            Operation::Fork(_) => "fork",
            Operation::Join(_, _) => "join",
        }
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operation::Update(a) => write!(f, "update({a})"),
            Operation::Fork(a) => write!(f, "fork({a})"),
            Operation::Join(a, b) => write!(f, "join({a}, {b})"),
        }
    }
}

/// A replayable sequence of operations over element identifiers.
///
/// Traces are produced by hand (the figure scenarios) or by the workload
/// generators in the simulator crate, and replayed against any mechanism.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Trace {
    operations: Vec<Operation>,
}

impl Trace {
    /// The empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an operation.
    pub fn push(&mut self, op: Operation) {
        self.operations.push(op);
    }

    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.operations.len()
    }

    /// Returns `true` when the trace has no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.operations.is_empty()
    }

    /// Iterates over the operations in order.
    pub fn iter(&self) -> core::slice::Iter<'_, Operation> {
        self.operations.iter()
    }

    /// Counts operations of each kind, returned as `(updates, forks, joins)`.
    #[must_use]
    pub fn op_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for op in &self.operations {
            match op {
                Operation::Update(_) => counts.0 += 1,
                Operation::Fork(_) => counts.1 += 1,
                Operation::Join(_, _) => counts.2 += 1,
            }
        }
        counts
    }
}

impl FromIterator<Operation> for Trace {
    fn from_iter<I: IntoIterator<Item = Operation>>(iter: I) -> Self {
        Trace { operations: iter.into_iter().collect() }
    }
}

impl Extend<Operation> for Trace {
    fn extend<I: IntoIterator<Item = Operation>>(&mut self, iter: I) {
        self.operations.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Operation;
    type IntoIter = core::slice::Iter<'a, Operation>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for Trace {
    type Item = Operation;
    type IntoIter = std::vec::IntoIter<Operation>;

    fn into_iter(self) -> Self::IntoIter {
        self.operations.into_iter()
    }
}

/// The result of applying one operation: which element identifiers were
/// produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// `update` replaced the input element with this one.
    Updated(ElementId),
    /// `fork` replaced the input element with these two.
    Forked(ElementId, ElementId),
    /// `join` replaced the two input elements with this one.
    Joined(ElementId),
}

impl Applied {
    /// All element identifiers produced by the operation.
    #[must_use]
    pub fn outputs(&self) -> Vec<ElementId> {
        match self {
            Applied::Updated(a) | Applied::Joined(a) => vec![*a],
            Applied::Forked(a, b) => vec![*a, *b],
        }
    }
}

/// The current frontier of a replicated system, tracked with mechanism `M`.
///
/// # Examples
///
/// ```
/// use vstamp_core::{Configuration, Operation, Relation, VersionStampMechanism};
///
/// let mut config = Configuration::new(VersionStampMechanism::reducing());
/// let root = config.ids()[0];
/// let (a, b) = match config.apply(Operation::Fork(root))? {
///     vstamp_core::Applied::Forked(a, b) => (a, b),
///     _ => unreachable!(),
/// };
/// let a = match config.apply(Operation::Update(a))? {
///     vstamp_core::Applied::Updated(a) => a,
///     _ => unreachable!(),
/// };
/// assert_eq!(config.relation(a, b)?, Relation::Dominates);
/// # Ok::<(), vstamp_core::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Configuration<M: Mechanism> {
    mechanism: M,
    elements: BTreeMap<ElementId, M::Element>,
    next_id: u64,
}

impl<M: Mechanism> Configuration<M> {
    /// Creates the initial configuration: a single element (identifier `#0`)
    /// carrying `mechanism.initial()`.
    pub fn new(mut mechanism: M) -> Self {
        let initial = mechanism.initial();
        let mut elements = BTreeMap::new();
        elements.insert(ElementId(0), initial);
        Configuration { mechanism, elements, next_id: 1 }
    }

    /// A reference to the underlying mechanism (for its statistics or
    /// configuration).
    #[must_use]
    pub fn mechanism(&self) -> &M {
        &self.mechanism
    }

    /// Number of coexisting elements (the frontier width).
    #[must_use]
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Returns `true` if the frontier has no elements. This cannot happen
    /// through the public API (joins keep at least one element) but the
    /// method is provided for completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The identifiers of the current frontier, in increasing order.
    #[must_use]
    pub fn ids(&self) -> Vec<ElementId> {
        self.elements.keys().copied().collect()
    }

    /// Returns `true` when the element is part of the current frontier.
    #[must_use]
    pub fn contains(&self, id: ElementId) -> bool {
        self.elements.contains_key(&id)
    }

    /// The payload of a frontier element.
    #[must_use]
    pub fn get(&self, id: ElementId) -> Option<&M::Element> {
        self.elements.get(&id)
    }

    /// Iterates over `(identifier, payload)` pairs of the frontier in
    /// identifier order.
    pub fn iter(&self) -> impl Iterator<Item = (ElementId, &M::Element)> {
        self.elements.iter().map(|(id, elem)| (*id, elem))
    }

    /// Total payload size of the frontier in bits (experiment E7).
    #[must_use]
    pub fn total_size_bits(&self) -> usize {
        self.elements.values().map(|e| self.mechanism.size_bits(e)).sum()
    }

    /// Largest payload size in the frontier, in bits.
    #[must_use]
    pub fn max_size_bits(&self) -> usize {
        self.elements.values().map(|e| self.mechanism.size_bits(e)).max().unwrap_or(0)
    }

    /// Classifies two frontier elements.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::UnknownElement`] if either identifier is not in
    /// the current frontier.
    pub fn relation(&self, left: ElementId, right: ElementId) -> Result<Relation, ConfigError> {
        let l = self.get(left).ok_or(ConfigError::UnknownElement(left))?;
        let r = self.get(right).ok_or(ConfigError::UnknownElement(right))?;
        Ok(self.mechanism.relation(l, r))
    }

    fn fresh_id(&mut self) -> ElementId {
        let id = ElementId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Applies one operation, replacing the consumed elements by the
    /// produced ones.
    ///
    /// Element identifiers are allocated deterministically (a simple
    /// counter), so replaying the same trace against two configurations
    /// produces frontiers with identical identifier sets.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::UnknownElement`] if an input is not in the
    /// frontier and [`ConfigError::JoinWithSelf`] if a join names the same
    /// element twice.
    pub fn apply(&mut self, op: Operation) -> Result<Applied, ConfigError> {
        match op {
            Operation::Update(a) => {
                let elem = self.elements.remove(&a).ok_or(ConfigError::UnknownElement(a))?;
                let updated = self.mechanism.update(&elem);
                let id = self.fresh_id();
                self.elements.insert(id, updated);
                Ok(Applied::Updated(id))
            }
            Operation::Fork(a) => {
                let elem = self.elements.remove(&a).ok_or(ConfigError::UnknownElement(a))?;
                let (left, right) = self.mechanism.fork(&elem);
                let left_id = self.fresh_id();
                let right_id = self.fresh_id();
                self.elements.insert(left_id, left);
                self.elements.insert(right_id, right);
                Ok(Applied::Forked(left_id, right_id))
            }
            Operation::Join(a, b) => {
                if a == b {
                    return Err(ConfigError::JoinWithSelf(a));
                }
                if !self.elements.contains_key(&a) {
                    return Err(ConfigError::UnknownElement(a));
                }
                if !self.elements.contains_key(&b) {
                    return Err(ConfigError::UnknownElement(b));
                }
                let left = self.elements.remove(&a).expect("presence checked");
                let right = self.elements.remove(&b).expect("presence checked");
                let joined = self.mechanism.join(&left, &right);
                let id = self.fresh_id();
                self.elements.insert(id, joined);
                Ok(Applied::Joined(id))
            }
        }
    }

    /// Replays a whole trace, returning the outcome of every operation.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first failing operation's error.
    pub fn apply_trace<'a, I>(&mut self, trace: I) -> Result<Vec<Applied>, ConfigError>
    where
        I: IntoIterator<Item = &'a Operation>,
    {
        let mut outcomes = Vec::new();
        for op in trace {
            outcomes.push(self.apply(*op)?);
        }
        Ok(outcomes)
    }

    /// All pairwise relations of the current frontier, keyed by identifier
    /// pair (with `left < right`).
    #[must_use]
    pub fn pairwise_relations(&self) -> Vec<(ElementId, ElementId, Relation)> {
        let ids = self.ids();
        let mut out = Vec::new();
        for (i, &a) in ids.iter().enumerate() {
            for &b in ids.iter().skip(i + 1) {
                let relation = self
                    .mechanism
                    .relation(self.get(a).expect("listed id"), self.get(b).expect("listed id"));
                out.push((a, b, relation));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::CausalMechanism;
    use crate::mechanism::{StampMechanism, VersionStampMechanism};

    fn fork_ids(applied: Applied) -> (ElementId, ElementId) {
        match applied {
            Applied::Forked(a, b) => (a, b),
            other => panic!("expected fork outcome, got {other:?}"),
        }
    }

    #[test]
    fn initial_configuration_has_one_element() {
        let config = Configuration::new(VersionStampMechanism::reducing());
        assert_eq!(config.len(), 1);
        assert!(!config.is_empty());
        assert_eq!(config.ids(), vec![ElementId::new(0)]);
        assert!(config.contains(ElementId::new(0)));
        assert!(config.get(ElementId::new(0)).is_some());
        assert_eq!(config.iter().count(), 1);
        assert_eq!(config.mechanism().mechanism_name(), "version-stamps");
    }

    #[test]
    fn element_id_allocation_is_deterministic() {
        let build = || {
            let mut config = Configuration::new(VersionStampMechanism::reducing());
            let root = config.ids()[0];
            let (a, b) = fork_ids(config.apply(Operation::Fork(root)).unwrap());
            config.apply(Operation::Update(a)).unwrap();
            config.apply(Operation::Fork(b)).unwrap();
            config.ids()
        };
        assert_eq!(build(), build());

        // and identical across mechanisms
        let mut stamps = Configuration::new(VersionStampMechanism::reducing());
        let mut causal = Configuration::new(CausalMechanism::new());
        let trace: Trace = [
            Operation::Fork(ElementId::new(0)),
            Operation::Update(ElementId::new(1)),
            Operation::Fork(ElementId::new(2)),
            Operation::Join(ElementId::new(3), ElementId::new(4)),
        ]
        .into_iter()
        .collect();
        stamps.apply_trace(&trace).unwrap();
        causal.apply_trace(&trace).unwrap();
        assert_eq!(stamps.ids(), causal.ids());
    }

    #[test]
    fn update_replaces_element() {
        let mut config = Configuration::new(VersionStampMechanism::reducing());
        let root = config.ids()[0];
        let applied = config.apply(Operation::Update(root)).unwrap();
        assert!(matches!(applied, Applied::Updated(_)));
        assert_eq!(config.len(), 1);
        assert!(!config.contains(root));
        assert_eq!(applied.outputs().len(), 1);
    }

    #[test]
    fn fork_and_join_change_frontier_width() {
        let mut config = Configuration::new(VersionStampMechanism::reducing());
        let root = config.ids()[0];
        let (a, b) = fork_ids(config.apply(Operation::Fork(root)).unwrap());
        assert_eq!(config.len(), 2);
        let joined = config.apply(Operation::Join(a, b)).unwrap();
        assert!(matches!(joined, Applied::Joined(_)));
        assert_eq!(config.len(), 1);
        // identity collapsed back to the seed
        let id = joined.outputs()[0];
        assert!(config.get(id).unwrap().is_seed_identity());
    }

    #[test]
    fn errors_on_unknown_and_self_join() {
        let mut config = Configuration::new(VersionStampMechanism::reducing());
        let root = config.ids()[0];
        let missing = ElementId::new(99);
        assert_eq!(
            config.apply(Operation::Update(missing)),
            Err(ConfigError::UnknownElement(missing))
        );
        assert_eq!(
            config.apply(Operation::Fork(missing)),
            Err(ConfigError::UnknownElement(missing))
        );
        assert_eq!(config.apply(Operation::Join(root, root)), Err(ConfigError::JoinWithSelf(root)));
        assert_eq!(
            config.apply(Operation::Join(root, missing)),
            Err(ConfigError::UnknownElement(missing))
        );
        assert_eq!(
            config.apply(Operation::Join(missing, root)),
            Err(ConfigError::UnknownElement(missing))
        );
        // configuration untouched after errors
        assert_eq!(config.ids(), vec![root]);
        assert!(config.get(root).is_some());
        assert_eq!(config.relation(root, missing), Err(ConfigError::UnknownElement(missing)));
        assert_eq!(config.relation(missing, root), Err(ConfigError::UnknownElement(missing)));
    }

    #[test]
    fn relations_and_sizes_over_a_small_run() {
        let mut config = Configuration::new(VersionStampMechanism::reducing());
        let root = config.ids()[0];
        let (a, b) = fork_ids(config.apply(Operation::Fork(root)).unwrap());
        let updated = match config.apply(Operation::Update(a)).unwrap() {
            Applied::Updated(id) => id,
            other => panic!("expected update outcome, got {other:?}"),
        };
        assert_eq!(config.relation(updated, b).unwrap(), Relation::Dominates);
        assert_eq!(config.relation(b, updated).unwrap(), Relation::Dominated);
        assert_eq!(config.relation(b, b).unwrap(), Relation::Equal);
        assert!(config.total_size_bits() > 0);
        assert!(config.max_size_bits() <= config.total_size_bits());
        let pairs = config.pairwise_relations();
        assert_eq!(pairs.len(), 1);
        // pairs are keyed (lower id, higher id) = (b, updated): b is obsolete
        assert_eq!(pairs[0], (b, updated, Relation::Dominated));
    }

    #[test]
    fn trace_utilities() {
        let mut trace = Trace::new();
        assert!(trace.is_empty());
        trace.push(Operation::Fork(ElementId::new(0)));
        trace.push(Operation::Update(ElementId::new(1)));
        trace.extend([Operation::Join(ElementId::new(2), ElementId::new(3))]);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.op_counts(), (1, 1, 1));
        assert_eq!(trace.iter().count(), 3);
        assert_eq!((&trace).into_iter().count(), 3);
        let ops: Vec<Operation> = trace.clone().into_iter().collect();
        assert_eq!(ops.len(), 3);
        let rebuilt: Trace = ops.into_iter().collect();
        assert_eq!(rebuilt, trace);

        let op = Operation::Join(ElementId::new(2), ElementId::new(3));
        assert_eq!(op.inputs(), vec![ElementId::new(2), ElementId::new(3)]);
        assert_eq!(op.kind(), "join");
        assert_eq!(op.to_string(), "join(#2, #3)");
        assert_eq!(Operation::Update(ElementId::new(1)).to_string(), "update(#1)");
        assert_eq!(Operation::Fork(ElementId::new(1)).kind(), "fork");
        assert_eq!(ElementId::new(5).raw(), 5);
        assert_eq!(ElementId::new(5).to_string(), "#5");
    }

    #[test]
    fn apply_trace_stops_on_error() {
        let mut config = Configuration::new(VersionStampMechanism::reducing());
        let trace: Trace =
            [Operation::Fork(ElementId::new(0)), Operation::Update(ElementId::new(42))]
                .into_iter()
                .collect();
        let err = config.apply_trace(&trace).unwrap_err();
        assert_eq!(err, ConfigError::UnknownElement(ElementId::new(42)));
        // the first operation was applied before the failure
        assert_eq!(config.len(), 2);
    }

    #[test]
    fn causal_and_stamp_configurations_agree_on_a_fixed_run() {
        let trace: Trace = [
            Operation::Fork(ElementId::new(0)),                    // -> 1, 2
            Operation::Update(ElementId::new(1)),                  // -> 3
            Operation::Fork(ElementId::new(2)),                    // -> 4, 5
            Operation::Update(ElementId::new(4)),                  // -> 6
            Operation::Join(ElementId::new(3), ElementId::new(6)), // -> 7
        ]
        .into_iter()
        .collect();

        let mut stamps = Configuration::new(StampMechanism::<crate::Name>::reducing());
        let mut causal = Configuration::new(CausalMechanism::new());
        stamps.apply_trace(&trace).unwrap();
        causal.apply_trace(&trace).unwrap();

        assert_eq!(stamps.ids(), causal.ids());
        for (a, b, relation) in causal.pairwise_relations() {
            assert_eq!(stamps.relation(a, b).unwrap(), relation, "mismatch for {a}, {b}");
        }
    }
}
