//! Property tests over random fork/join/update traces (experiments E5/E6 at
//! test scale): the invariants I1–I3 hold in every reachable configuration,
//! and version stamps induce exactly the same frontier pre-order as causal
//! histories — for both the reducing and the non-reducing mechanism, i.e.
//! Proposition 5.1 / Corollary 5.2 and their extension to Section 6.

use proptest::prelude::*;
use vstamp_core::causal::CausalMechanism;
use vstamp_core::{
    audit_configuration, Applied, Configuration, ElementId, Mechanism, Name, NameLike, Operation,
    PackedName, SetStampMechanism, StampMechanism, Trace, VersionStampMechanism,
};

/// A raw "script" of choices that is interpreted against the evolving
/// frontier, so every generated operation is applicable by construction.
type Script = Vec<(u8, u8, u8)>;

fn script(max_len: usize) -> impl Strategy<Value = Script> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..=max_len)
}

/// Interprets the script against a fresh configuration of the given
/// mechanism, recording the concrete trace so it can be replayed against
/// other mechanisms.
fn run_script<M: Mechanism>(mechanism: M, script: &Script) -> (Configuration<M>, Trace) {
    let mut config = Configuration::new(mechanism);
    let mut trace = Trace::new();
    for &(kind, x, y) in script {
        let ids = config.ids();
        let pick = |sel: u8| ids[sel as usize % ids.len()];
        let op = match kind % 3 {
            0 => Operation::Update(pick(x)),
            1 => Operation::Fork(pick(x)),
            _ => {
                if ids.len() < 2 {
                    Operation::Fork(pick(x))
                } else {
                    let a = pick(x);
                    let b = pick(y);
                    if a == b {
                        let other = *ids.iter().find(|&&i| i != a).expect("len >= 2");
                        Operation::Join(a, other)
                    } else {
                        Operation::Join(a, b)
                    }
                }
            }
        };
        config.apply(op).expect("scripted operation is applicable");
        trace.push(op);
    }
    (config, trace)
}

/// Replays an existing trace against a mechanism.
fn replay<M: Mechanism>(mechanism: M, trace: &Trace) -> Configuration<M> {
    let mut config = Configuration::new(mechanism);
    config.apply_trace(trace).expect("trace replays cleanly");
    config
}

/// Checks Corollary 5.2: pairwise relations from stamps match those from
/// causal histories on the same frontier (any reduction policy).
fn assert_corollary_5_2<N, P>(
    stamps: &Configuration<StampMechanism<N, P>>,
    causal: &Configuration<CausalMechanism>,
) where
    N: NameLike,
    StampMechanism<N, P>: Mechanism<Element = vstamp_core::Stamp<N>>,
{
    assert_eq!(stamps.ids(), causal.ids(), "domains must coincide");
    for (a, b, expected) in causal.pairwise_relations() {
        let actual = stamps.relation(a, b).expect("same ids");
        assert_eq!(actual, expected, "relation mismatch between {a} and {b}");
    }
}

/// Checks the stronger Proposition 5.1: for every element `x` and non-empty
/// subset `S` of the frontier, `C(x) ⊆ ⋃C[S] ⟺ fst(V(x)) ⊑ ⊔fst[V[S]]`.
fn assert_proposition_5_1<N, P>(
    stamps: &Configuration<StampMechanism<N, P>>,
    causal: &Configuration<CausalMechanism>,
) where
    N: NameLike,
    StampMechanism<N, P>: Mechanism<Element = vstamp_core::Stamp<N>>,
{
    let ids = causal.ids();
    // Cap the exhaustive subset enumeration to keep the test fast; the
    // frontier rarely exceeds a handful of elements in these scripts.
    let subset_ids: Vec<ElementId> = ids.iter().copied().take(6).collect();
    let n = subset_ids.len();
    for &x in &ids {
        let cx = causal.get(x).expect("listed id");
        let vx = stamps.get(x).expect("listed id");
        for mask in 1u32..(1 << n) {
            let subset: Vec<ElementId> = subset_ids
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, id)| *id)
                .collect();
            // ⋃ C[S]
            let mut union = vstamp_core::CausalHistory::new();
            for &s in &subset {
                union = union.union(causal.get(s).expect("listed id"));
            }
            // ⊔ fst[V[S]]
            let mut joined = N::empty();
            for &s in &subset {
                joined = joined.join(stamps.get(s).expect("listed id").update_name());
            }
            let lhs = cx.is_subset_of(&union);
            let rhs = vx.update_name().leq(&joined);
            assert_eq!(
                lhs, rhs,
                "Proposition 5.1 fails for x={x}, S={subset:?}: causal {lhs} vs stamps {rhs}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Invariants I1–I3 hold after every operation, reducing mechanism.
    #[test]
    fn invariants_hold_reducing(script in script(40)) {
        let mut config = Configuration::new(VersionStampMechanism::reducing());
        let mut trace = Trace::new();
        for &(kind, x, y) in &script {
            let ids = config.ids();
            let pick = |sel: u8| ids[sel as usize % ids.len()];
            let op = match kind % 3 {
                0 => Operation::Update(pick(x)),
                1 => Operation::Fork(pick(x)),
                _ if ids.len() >= 2 => {
                    let a = pick(x);
                    let b = pick(y);
                    if a == b {
                        Operation::Join(a, *ids.iter().find(|&&i| i != a).expect("len >= 2"))
                    } else {
                        Operation::Join(a, b)
                    }
                }
                _ => Operation::Fork(pick(x)),
            };
            config.apply(op).expect("scripted operation applies");
            trace.push(op);
            let report = audit_configuration(&config);
            prop_assert!(report.is_ok(), "invariant violation after {}: {}", op, report);
        }
    }

    /// Invariants I1–I3 hold after every operation, non-reducing mechanism.
    #[test]
    fn invariants_hold_non_reducing(script in script(30)) {
        let (config, trace) = run_script(VersionStampMechanism::non_reducing(), &script);
        let _ = trace;
        audit_configuration(&config).assert_ok();
    }

    /// Corollary 5.2 (pairwise equivalence with causal histories), reducing.
    #[test]
    fn corollary_5_2_reducing(script in script(40)) {
        let (stamps, trace) = run_script(VersionStampMechanism::reducing(), &script);
        let causal = replay(CausalMechanism::new(), &trace);
        assert_corollary_5_2(&stamps, &causal);
    }

    /// Corollary 5.2, non-reducing model (Sections 4–5).
    #[test]
    fn corollary_5_2_non_reducing(script in script(40)) {
        let (stamps, trace) = run_script(VersionStampMechanism::non_reducing(), &script);
        let causal = replay(CausalMechanism::new(), &trace);
        assert_corollary_5_2(&stamps, &causal);
    }

    /// Corollary 5.2 for the literal antichain representation.
    #[test]
    fn corollary_5_2_set_representation(script in script(30)) {
        let (stamps, trace) = run_script(SetStampMechanism::reducing(), &script);
        let causal = replay(CausalMechanism::new(), &trace);
        assert_corollary_5_2(&stamps, &causal);
    }

    /// The stronger Proposition 5.1 (subset form), reducing mechanism.
    #[test]
    fn proposition_5_1_reducing(script in script(25)) {
        let (stamps, trace) = run_script(VersionStampMechanism::reducing(), &script);
        let causal = replay(CausalMechanism::new(), &trace);
        assert_proposition_5_1(&stamps, &causal);
    }

    /// The stronger Proposition 5.1 (subset form), non-reducing mechanism.
    #[test]
    fn proposition_5_1_non_reducing(script in script(25)) {
        let (stamps, trace) = run_script(VersionStampMechanism::non_reducing(), &script);
        let causal = replay(CausalMechanism::new(), &trace);
        assert_proposition_5_1(&stamps, &causal);
    }

    /// The reducing and non-reducing mechanisms always agree on the frontier
    /// order (Section 6's preservation-of-R result).
    #[test]
    fn reduction_preserves_frontier_order(script in script(40)) {
        let (reducing, trace) = run_script(VersionStampMechanism::reducing(), &script);
        let non_reducing = replay(VersionStampMechanism::non_reducing(), &trace);
        prop_assert_eq!(reducing.ids(), non_reducing.ids());
        for (a, b, expected) in non_reducing.pairwise_relations() {
            prop_assert_eq!(reducing.relation(a, b).expect("same ids"), expected);
        }
    }

    /// Reduced stamps never take more space than their non-reduced
    /// counterparts (the point of Section 6).
    #[test]
    fn reduction_never_costs_space(script in script(40)) {
        let (reducing, trace) = run_script(VersionStampMechanism::reducing(), &script);
        let non_reducing = replay(VersionStampMechanism::non_reducing(), &trace);
        for id in reducing.ids() {
            let reduced = reducing.get(id).expect("listed id");
            let plain = non_reducing.get(id).expect("listed id");
            prop_assert!(
                reduced.bit_size() <= plain.bit_size(),
                "reduced stamp larger than non-reduced for {id}: {} vs {}",
                reduced.bit_size(),
                plain.bit_size()
            );
        }
    }

    /// Set- and packed-backed stamps replay to identical frontiers.
    #[test]
    fn representations_replay_identically(script in script(30)) {
        let (packed_config, trace) = run_script(VersionStampMechanism::reducing(), &script);
        let set_config = replay(SetStampMechanism::reducing(), &trace);
        prop_assert_eq!(packed_config.ids(), set_config.ids());
        for id in packed_config.ids() {
            let packed_stamp = packed_config.get(id).expect("listed id");
            let set_stamp = set_config.get(id).expect("listed id");
            prop_assert_eq!(packed_stamp.to_set_stamp(), set_stamp.clone());
        }
    }

    /// Every reachable stamp round-trips through the wire encoding, and the
    /// set oracle's stamps encode to the same bytes.
    #[test]
    fn reachable_stamps_roundtrip_encoding(script in script(30)) {
        use vstamp_core::codec::{BitTrieCodec, StampCodec};
        let (config, trace) = run_script(VersionStampMechanism::non_reducing(), &script);
        let set_config = replay(SetStampMechanism::non_reducing(), &trace);
        for (id, stamp) in config.iter() {
            let bytes = vstamp_core::encode::encode_stamp(stamp);
            let decoded = vstamp_core::encode::decode_stamp(&bytes).expect("reachable stamps are valid");
            prop_assert_eq!(&decoded, stamp);
            let set_stamp = set_config.get(id).expect("same ids");
            prop_assert_eq!(BitTrieCodec.encode_stamp(set_stamp), bytes);
        }
    }

    /// Updates are idempotent for frontier comparison: a second update with
    /// no intervening fork/join never changes any relation.
    #[test]
    fn repeated_update_is_absorbed(script in script(25), extra in any::<u8>()) {
        let (mut config, _trace) = run_script(VersionStampMechanism::reducing(), &script);
        let ids = config.ids();
        let target = ids[extra as usize % ids.len()];
        let first = match config.apply(Operation::Update(target)).expect("live id") {
            Applied::Updated(id) => id,
            _ => unreachable!(),
        };
        let snapshot = config.get(first).expect("just created").clone();
        let second = match config.apply(Operation::Update(first)).expect("live id") {
            Applied::Updated(id) => id,
            _ => unreachable!(),
        };
        prop_assert_eq!(config.get(second).expect("just created"), &snapshot);
    }

    /// Joining everything back into one element always collapses the
    /// identity to {ε} under the reducing mechanism.
    #[test]
    fn total_join_recovers_seed_identity(script in script(30)) {
        let (mut config, _trace) = run_script(VersionStampMechanism::reducing(), &script);
        while config.len() > 1 {
            let ids = config.ids();
            config.apply(Operation::Join(ids[0], ids[1])).expect("live ids");
        }
        let only = config.ids()[0];
        let stamp = config.get(only).expect("single element");
        prop_assert!(stamp.is_seed_identity(), "final identity is {}", stamp.id_name());
        prop_assert_eq!(stamp.id_name(), &PackedName::epsilon());
        // and its update component is therefore {ε} or below
        prop_assert!(stamp.update_name().leq(&PackedName::epsilon()));
        let as_name: Name = stamp.update_name().to_name();
        prop_assert!(as_name.leq(&Name::epsilon()));
    }

    /// Reduction policy never affects element identifiers or frontier size.
    #[test]
    fn policies_share_frontier_shape(script in script(30)) {
        let (reducing, trace) = run_script(VersionStampMechanism::reducing(), &script);
        let non_reducing = replay(VersionStampMechanism::non_reducing(), &trace);
        prop_assert_eq!(reducing.len(), non_reducing.len());
        prop_assert_eq!(reducing.ids(), non_reducing.ids());
    }
}
