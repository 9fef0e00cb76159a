//! Property tests for names: partial-order and semilattice laws and
//! wire-encoding round-trips. Agreement between the antichain and packed
//! representations lives in `repr_equivalence.rs`.

use proptest::prelude::*;
use vstamp_core::{encode, Bit, BitString, Name};

/// Strategy producing arbitrary binary strings up to `max_len` bits.
fn bitstring(max_len: usize) -> impl Strategy<Value = BitString> {
    prop::collection::vec(any::<bool>(), 0..=max_len)
        .prop_map(|bits| bits.into_iter().map(Bit::from).collect())
}

/// Strategy producing arbitrary names (antichains); the `Name` constructor
/// normalizes dominated strings away.
fn name(max_len: usize, max_strings: usize) -> impl Strategy<Value = Name> {
    prop::collection::vec(bitstring(max_len), 0..=max_strings).prop_map(Name::from_strings)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn constructed_names_are_antichains(n in name(6, 8)) {
        prop_assert!(n.is_antichain());
    }

    #[test]
    fn leq_is_reflexive(n in name(6, 8)) {
        prop_assert!(n.leq(&n));
    }

    #[test]
    fn leq_is_antisymmetric(a in name(5, 6), b in name(5, 6)) {
        if a.leq(&b) && b.leq(&a) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn leq_is_transitive(a in name(4, 5), b in name(4, 5), c in name(4, 5)) {
        if a.leq(&b) && b.leq(&c) {
            prop_assert!(a.leq(&c));
        }
    }

    #[test]
    fn leq_matches_down_set_inclusion(a in name(5, 6), b in name(5, 6)) {
        prop_assert_eq!(a.leq(&b), a.down_set().is_subset(&b.down_set()));
    }

    #[test]
    fn join_is_least_upper_bound(a in name(5, 6), b in name(5, 6)) {
        let j = a.join(&b);
        prop_assert!(a.leq(&j));
        prop_assert!(b.leq(&j));
        prop_assert!(j.is_antichain());
        // least: the join's down-set is exactly the union
        let union: std::collections::BTreeSet<_> =
            a.down_set().union(&b.down_set()).cloned().collect();
        prop_assert_eq!(j.down_set(), union);
    }

    #[test]
    fn join_laws(a in name(5, 6), b in name(5, 6), c in name(5, 6)) {
        prop_assert_eq!(a.join(&a), a.clone());                       // idempotent
        prop_assert_eq!(a.join(&b), b.join(&a));                      // commutative
        prop_assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));    // associative
        prop_assert_eq!(a.join(&Name::empty()), a.clone());           // identity
    }

    #[test]
    fn leq_iff_join_absorbs(a in name(5, 6), b in name(5, 6)) {
        prop_assert_eq!(a.leq(&b), a.join(&b) == b);
    }

    #[test]
    fn append_dominates_and_preserves_antichain(n in name(5, 6), bit in any::<bool>()) {
        let bit = Bit::from(bit);
        let appended = n.append(bit);
        prop_assert!(appended.is_antichain());
        prop_assert!(n.leq(&appended));
        prop_assert_eq!(appended.len(), n.len());
        prop_assert_eq!(appended.bit_size(), n.bit_size() + n.len());
    }

    #[test]
    fn append_zero_and_one_are_disjoint(n in name(5, 6)) {
        prop_assume!(!n.is_empty());
        let zero = n.append(Bit::Zero);
        let one = n.append(Bit::One);
        prop_assert!(zero.all_incomparable_with(&one));
        // and joining them recovers something dominating the original
        prop_assert!(n.leq(&zero.join(&one)));
    }

    #[test]
    fn name_display_parse_roundtrip(n in name(6, 8)) {
        let text = n.to_string();
        let parsed: Name = text.parse().expect("display output must parse");
        prop_assert_eq!(parsed, n);
    }

    #[test]
    fn encoding_roundtrip_name(n in name(7, 10)) {
        let bytes = encode::encode_name(&n);
        prop_assert_eq!(encode::decode_name(&bytes).expect("roundtrip"), n.clone());
        // encoded size is consistent with the bit accounting
        prop_assert_eq!(bytes.len(), encode::encoded_name_bits(&n).div_ceil(8));
    }

    #[test]
    fn prefix_order_on_strings_is_consistent(a in bitstring(8), b in bitstring(8)) {
        // is_prefix_of agrees with iterating bits
        let expected = a.len() <= b.len() && a.iter().zip(b.iter()).all(|(x, y)| x == y);
        prop_assert_eq!(a.is_prefix_of(&b), expected);
        // prefix_cmp is consistent with the two directional tests
        let cmp = a.prefix_cmp(&b);
        prop_assert_eq!(cmp.is_le(), a.is_prefix_of(&b));
        prop_assert_eq!(cmp.is_incomparable(), a.is_incomparable_with(&b));
    }

    #[test]
    fn bitstring_child_parent_roundtrip(s in bitstring(8), bit in any::<bool>()) {
        let bit = Bit::from(bit);
        let child = s.child(bit);
        prop_assert_eq!(child.parent().expect("child is non-empty"), s.clone());
        prop_assert_eq!(child.last(), Some(bit));
        prop_assert!(s.is_strict_prefix_of(&child));
        let sib = child.sibling().expect("non-empty");
        prop_assert!(child.is_incomparable_with(&sib));
        prop_assert_eq!(sib.sibling().expect("non-empty"), child);
    }

    #[test]
    fn bitstring_display_parse_roundtrip(s in bitstring(10)) {
        let text = s.to_string();
        let parsed: BitString = text.parse().expect("display output must parse");
        prop_assert_eq!(parsed, s);
    }
}
