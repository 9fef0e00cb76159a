//! Abstraction over the two name representations.
//!
//! The paper defines names abstractly (Definition 4.1); this crate ships
//! two concrete representations — the literal antichain set [`Name`], the
//! oracle, and the flat tag array [`PackedName`], the production form — and
//! the stamp machinery is generic over them through [`NameLike`]. The
//! `repr` ablation bench compares the two.

use crate::bitstring::Bit;
use crate::error::DecodeError;
use crate::name::Name;
use crate::packed::PackedName;
use crate::relation::Relation;

mod private {
    /// Seals [`super::NameLike`]: the stamp algebra is only meaningful for
    /// representations proven isomorphic to Definition 4.1, so downstream
    /// crates cannot add their own.
    pub trait Sealed {}
    impl Sealed for crate::name::Name {}
    impl Sealed for crate::packed::PackedName {}
}

/// Operations a name representation must provide to back a
/// [`Stamp`](crate::Stamp).
///
/// This trait is sealed: it is implemented exactly for [`Name`] and
/// [`PackedName`], the two representations shipped by this crate.
pub trait NameLike: Clone + Eq + core::fmt::Debug + core::fmt::Display + private::Sealed {
    /// Short identifier of the representation (`set`, `packed`),
    /// used to label mechanisms and benchmark rows.
    const REPR_NAME: &'static str;

    /// The empty name `{}` (bottom of the semilattice).
    fn empty() -> Self;

    /// The name `{ε}` (identity of the initial element).
    fn epsilon() -> Self;

    /// The order `⊑` (down-set inclusion).
    fn leq(&self, other: &Self) -> bool;

    /// The semilattice join `⊔`.
    fn join(&self, other: &Self) -> Self;

    /// The lifted concatenation `n·x` used by fork.
    fn append(&self, bit: Bit) -> Self;

    /// Whether the name is `{}`.
    fn is_empty(&self) -> bool;

    /// Whether the name is exactly `{ε}`.
    fn is_epsilon(&self) -> bool;

    /// Number of strings in the antichain.
    fn string_count(&self) -> usize;

    /// Total bits across all strings (space metric of experiment E7).
    fn bit_size(&self) -> usize;

    /// Number of bits the shared wire encoding of this name occupies,
    /// computed on the representation itself (no intermediate trie is built).
    fn encoded_bits(&self) -> usize;

    /// Length of the longest string.
    fn depth(&self) -> usize;

    /// Converts to the explicit antichain representation.
    fn to_name(&self) -> Name;

    /// Builds from the explicit antichain representation.
    fn from_name(name: &Name) -> Self;

    /// Applies the simplification rule of Section 6 to the `(update, id)`
    /// pair until it no longer applies, returning the normal form.
    fn reduce_pair(update: &Self, id: &Self) -> (Self, Self);

    /// Classifies two names under the pre-order induced by `⊑`.
    fn relation(&self, other: &Self) -> Relation {
        Relation::from_leq(self.leq(other), other.leq(self))
    }

    /// Number of nodes in the canonical binary-trie form of the name — the
    /// length of its preorder tag stream.
    fn tag_count(&self) -> usize;

    /// Visits the canonical preorder trie tags of the name (`0 = Empty`,
    /// `1 = Elem`, `2 = Node`) — the representation-independent substrate
    /// the wire codecs of [`crate::codec`] are built on.
    fn visit_tags(&self, visit: &mut dyn FnMut(u8));

    /// Appends the preorder trie tags packed four 2-bit tags per byte
    /// (little-endian within each byte, zero-padded) — the payload layout
    /// of the byte-aligned [`VarintCodec`](crate::codec::VarintCodec).
    fn write_packed_tags(&self, out: &mut Vec<u8>) {
        let mut count = 0usize;
        self.visit_tags(&mut |tag| {
            if count % 4 == 0 {
                out.push(0);
            }
            let last = out.len() - 1;
            out[last] |= tag << ((count % 4) * 2);
            count += 1;
        });
    }

    /// Builds a name from `tag_count` packed 2-bit preorder trie tags (the
    /// layout written by [`NameLike::write_packed_tags`]).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the tags do not describe exactly one
    /// canonical trie: wrong byte length, reserved tag value, structural
    /// under/overrun, an interior node with two empty children, or set
    /// padding bits.
    fn from_packed_tags(bytes: &[u8], tag_count: usize) -> Result<Self, DecodeError>;
}

/// Checks that `len` packed 2-bit tags in `bytes` describe exactly one
/// canonical preorder trie (see [`NameLike::from_packed_tags`] for the
/// rejected shapes).
pub(crate) fn validate_packed_tags(bytes: &[u8], len: usize) -> Result<(), DecodeError> {
    if bytes.len() != len.div_ceil(4) {
        return Err(if bytes.len() < len.div_ceil(4) {
            DecodeError::UnexpectedEnd
        } else {
            DecodeError::TrailingData
        });
    }
    if len == 0 {
        return Err(DecodeError::Malformed("empty tag stream"));
    }
    if len % 4 != 0 && bytes[len / 4] >> ((len % 4) * 2) != 0 {
        return Err(DecodeError::TrailingData);
    }
    // One frame per open interior node: (children still missing, whether
    // every completed child so far was empty) — the same canonicality walk
    // as the bit-trie decoder.
    let mut frames: Vec<(u8, bool)> = Vec::new();
    let mut complete = false;
    for index in 0..len {
        if complete {
            return Err(DecodeError::TrailingData);
        }
        let tag = (bytes[index / 4] >> ((index % 4) * 2)) & 0b11;
        if tag == 3 {
            return Err(DecodeError::Malformed("reserved tag value"));
        }
        if tag == 2 {
            frames.push((2, true));
            continue;
        }
        let mut is_empty = tag == 0;
        loop {
            match frames.last_mut() {
                None => {
                    complete = true;
                    break;
                }
                Some(frame) => {
                    frame.0 -= 1;
                    frame.1 &= is_empty;
                    if frame.0 > 0 {
                        break;
                    }
                    if frame.1 {
                        return Err(DecodeError::Malformed(
                            "interior node with two empty children",
                        ));
                    }
                    frames.pop();
                    is_empty = false;
                }
            }
        }
    }
    if !complete {
        return Err(DecodeError::UnexpectedEnd);
    }
    Ok(())
}

impl NameLike for Name {
    const REPR_NAME: &'static str = "set";

    fn empty() -> Self {
        Name::empty()
    }

    fn epsilon() -> Self {
        Name::epsilon()
    }

    fn leq(&self, other: &Self) -> bool {
        Name::leq(self, other)
    }

    fn join(&self, other: &Self) -> Self {
        Name::join(self, other)
    }

    fn append(&self, bit: Bit) -> Self {
        Name::append(self, bit)
    }

    fn is_empty(&self) -> bool {
        Name::is_empty(self)
    }

    fn is_epsilon(&self) -> bool {
        Name::is_epsilon(self)
    }

    fn string_count(&self) -> usize {
        Name::len(self)
    }

    fn bit_size(&self) -> usize {
        Name::bit_size(self)
    }

    fn encoded_bits(&self) -> usize {
        crate::encode::encoded_name_bits(self)
    }

    fn depth(&self) -> usize {
        Name::depth(self)
    }

    fn to_name(&self) -> Name {
        self.clone()
    }

    fn from_name(name: &Name) -> Self {
        name.clone()
    }

    fn reduce_pair(update: &Self, id: &Self) -> (Self, Self) {
        crate::simplify::reduce_name_pair(update, id)
    }

    fn tag_count(&self) -> usize {
        let mut count = 0usize;
        self.visit_tags(&mut |_| count += 1);
        count
    }

    fn visit_tags(&self, visit: &mut dyn FnMut(u8)) {
        // Radix partition of the sorted antichain, exactly as in
        // `PackedName::from_name` — the sorted string order is the preorder
        // leaf order of the trie, so no trie is materialized.
        let strings: Vec<&crate::bitstring::BitString> = self.iter().collect();
        let mut frames: Vec<(usize, usize, usize)> = vec![(0, strings.len(), 0)];
        while let Some((start, end, depth)) = frames.pop() {
            if start == end {
                visit(0);
                continue;
            }
            if end - start == 1 && strings[start].len() == depth {
                visit(1);
                continue;
            }
            visit(2);
            let split = strings[start..end]
                .iter()
                .position(|s| s.get(depth) == Some(Bit::One))
                .map_or(end, |p| start + p);
            frames.push((split, end, depth + 1));
            frames.push((start, split, depth + 1));
        }
    }

    fn from_packed_tags(bytes: &[u8], tag_count: usize) -> Result<Self, DecodeError> {
        Ok(PackedName::from_packed_tags(bytes, tag_count)?.to_name())
    }
}

impl NameLike for PackedName {
    const REPR_NAME: &'static str = "packed";

    fn empty() -> Self {
        PackedName::empty()
    }

    fn epsilon() -> Self {
        PackedName::epsilon()
    }

    fn leq(&self, other: &Self) -> bool {
        PackedName::leq(self, other)
    }

    fn join(&self, other: &Self) -> Self {
        PackedName::join(self, other)
    }

    fn append(&self, bit: Bit) -> Self {
        PackedName::append(self, bit)
    }

    fn is_empty(&self) -> bool {
        PackedName::is_empty(self)
    }

    fn is_epsilon(&self) -> bool {
        PackedName::is_epsilon(self)
    }

    fn string_count(&self) -> usize {
        PackedName::string_count(self)
    }

    fn bit_size(&self) -> usize {
        PackedName::bit_size(self)
    }

    fn encoded_bits(&self) -> usize {
        PackedName::encoded_bits(self)
    }

    fn depth(&self) -> usize {
        PackedName::depth(self)
    }

    fn to_name(&self) -> Name {
        PackedName::to_name(self)
    }

    fn from_name(name: &Name) -> Self {
        PackedName::from_name(name)
    }

    fn reduce_pair(update: &Self, id: &Self) -> (Self, Self) {
        PackedName::reduce_pair(update, id)
    }

    fn tag_count(&self) -> usize {
        PackedName::node_count(self)
    }

    fn visit_tags(&self, visit: &mut dyn FnMut(u8)) {
        for i in 0..self.node_count() {
            visit(self.tag(i));
        }
    }

    fn write_packed_tags(&self, out: &mut Vec<u8>) {
        // The in-memory tag array *is* the wire payload: one memcpy.
        out.extend_from_slice(self.tag_bytes());
    }

    fn from_packed_tags(bytes: &[u8], tag_count: usize) -> Result<Self, DecodeError> {
        validate_packed_tags(bytes, tag_count)?;
        Ok(PackedName::from_packed_tag_bytes(bytes, tag_count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Name> {
        ["{}", "{ε}", "{0}", "{1}", "{0, 1}", "{01, 1}", "{00, 011}", "{000, 011, 1}"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect()
    }

    /// Every `NameLike` operation must commute with the conversion between
    /// the two representations.
    fn check_agreement<A: NameLike, B: NameLike>() {
        let names = samples();
        assert_eq!(A::empty().to_name(), B::empty().to_name());
        assert_eq!(A::epsilon().to_name(), B::epsilon().to_name());
        for n in &names {
            let a = A::from_name(n);
            let b = B::from_name(n);
            assert_eq!(a.to_name(), b.to_name());
            assert_eq!(a.is_empty(), b.is_empty());
            assert_eq!(a.is_epsilon(), b.is_epsilon());
            assert_eq!(a.string_count(), b.string_count());
            assert_eq!(a.bit_size(), b.bit_size());
            assert_eq!(a.encoded_bits(), b.encoded_bits());
            assert_eq!(a.depth(), b.depth());
            for bit in [Bit::Zero, Bit::One] {
                assert_eq!(a.append(bit).to_name(), b.append(bit).to_name());
            }
            for m in &names {
                let am = A::from_name(m);
                let bm = B::from_name(m);
                assert_eq!(a.leq(&am), b.leq(&bm), "leq mismatch {n} vs {m}");
                assert_eq!(a.relation(&am), b.relation(&bm));
                assert_eq!(a.join(&am).to_name(), b.join(&bm).to_name());
                if am.leq(&a) {
                    let (ua, ia) = A::reduce_pair(&am, &a);
                    let (ub, ib) = B::reduce_pair(&bm, &b);
                    assert_eq!(ua.to_name(), ub.to_name(), "reduce update mismatch ({m}, {n})");
                    assert_eq!(ia.to_name(), ib.to_name(), "reduce id mismatch ({m}, {n})");
                }
            }
        }
    }

    #[test]
    fn set_and_packed_representations_agree() {
        check_agreement::<Name, PackedName>();
    }

    #[test]
    fn trait_impl_delegates_for_name() {
        let n = <Name as NameLike>::epsilon();
        assert!(n.is_epsilon());
        assert_eq!(<Name as NameLike>::empty().string_count(), 0);
        assert_eq!(<Name as NameLike>::empty().bit_size(), 0);
    }

    #[test]
    fn trait_impl_delegates_for_packed() {
        let n = <PackedName as NameLike>::epsilon();
        assert!(n.is_epsilon());
        assert_eq!(<PackedName as NameLike>::empty().encoded_bits(), 1);
        assert_eq!(<PackedName as NameLike>::REPR_NAME, "packed");
    }
}
