//! Compact binary wire encoding of names and stamps.
//!
//! The paper motivates version stamps partly on space grounds ("an efficient
//! use of space is also highly desirable"). This module defines the wire
//! format used by the space experiments (E7/E9) and by applications that
//! ship stamps between replicas (the PANASYNC-style file tracker).
//!
//! The encoding is a preorder walk of the name's canonical binary trie (a
//! node per string prefix, the element strings at its leaves) and spends:
//!
//! * 1 bit for `Empty` (`0`),
//! * 2 bits for `Elem` (`10`),
//! * 2 bits + children for `Node` (`11` then the encodings of the two
//!   subtrees).
//!
//! A stamp is the concatenation of its update and id encodings. The decoder
//! is the exact inverse and rejects malformed or truncated input.
//!
//! # Examples
//!
//! ```
//! use vstamp_core::{encode, VersionStamp};
//!
//! let (a, b) = VersionStamp::seed().fork();
//! let stamp = a.update().join_non_reducing(&b);
//! let bytes = encode::encode_stamp(&stamp);
//! let decoded = encode::decode_stamp(&bytes)?;
//! assert_eq!(decoded, stamp);
//! # Ok::<(), vstamp_core::DecodeError>(())
//! ```

use crate::bitstring::Bit;
use crate::error::DecodeError;
use crate::name::Name;
use crate::packed::PackedName;
use crate::stamp::{PackedStamp, VersionStamp};

/// Append-only bit buffer used by the encoder.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl BitWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Number of bits written so far.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// Appends a single bit.
    pub fn push(&mut self, bit: Bit) {
        if self.bit_len % 8 == 0 {
            self.bytes.push(0);
        }
        if bit.is_one() {
            let idx = self.bit_len / 8;
            self.bytes[idx] |= 1 << (7 - (self.bit_len % 8));
        }
        self.bit_len += 1;
    }

    /// Finishes the stream, returning the packed bytes (the final byte is
    /// zero-padded).
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Bit-level reader used by the decoder.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    position: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over packed bytes.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, position: 0 }
    }

    /// Number of bits consumed so far.
    #[must_use]
    pub fn position(&self) -> usize {
        self.position
    }

    /// Reads the next bit.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] when the input is exhausted.
    pub fn read(&mut self) -> Result<Bit, DecodeError> {
        let byte_index = self.position / 8;
        if byte_index >= self.bytes.len() {
            return Err(DecodeError::UnexpectedEnd);
        }
        let bit = (self.bytes[byte_index] >> (7 - (self.position % 8))) & 1;
        self.position += 1;
        Ok(Bit::from(bit == 1))
    }

    /// Checks that only zero padding (less than one byte) remains.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::TrailingData`] if a whole unread byte remains
    /// or any remaining padding bit is set.
    pub fn finish(mut self) -> Result<(), DecodeError> {
        let consumed_bytes = self.position.div_ceil(8);
        if self.bytes.len() > consumed_bytes {
            return Err(DecodeError::TrailingData);
        }
        while self.position % 8 != 0 {
            if self.read()? == Bit::One {
                return Err(DecodeError::TrailingData);
            }
        }
        Ok(())
    }
}

/// Number of bits the encoding of a stamp occupies (update plus id).
#[must_use]
pub fn encoded_stamp_bits(stamp: &VersionStamp) -> usize {
    stamp.encoded_bits()
}

/// Number of bits the encoding of a name occupies, computed directly from
/// the sorted antichain with a radix partition — no trie is materialized
/// (this backs `Mechanism::size_bits` for set-backed stamps, which samples
/// every frontier element of every step).
#[must_use]
pub fn encoded_name_bits(name: &Name) -> usize {
    let strings: Vec<&crate::bitstring::BitString> = name.iter().collect();
    let mut bits = 0usize;
    // (start, end, depth) ranges of `strings`, exactly as in
    // `PackedName::from_name`, but only counting node kinds.
    let mut frames: Vec<(usize, usize, usize)> = vec![(0, strings.len(), 0)];
    while let Some((start, end, depth)) = frames.pop() {
        if start == end {
            bits += 1; // Empty ↦ 0
            continue;
        }
        if end - start == 1 && strings[start].len() == depth {
            bits += 2; // Elem ↦ 10
            continue;
        }
        bits += 2; // Node ↦ 11, then both children
        let split = strings[start..end]
            .iter()
            .position(|s| s.get(depth) == Some(Bit::One))
            .map_or(end, |p| start + p);
        frames.push((split, end, depth + 1));
        frames.push((start, split, depth + 1));
    }
    bits
}

/// Number of bits the encoding of a packed name occupies — O(n) over the
/// tag array, no tree walk.
#[must_use]
pub fn encoded_packed_bits(name: &PackedName) -> usize {
    name.encoded_bits()
}

/// Number of bits the encoding of a packed stamp occupies (update plus id).
#[must_use]
pub fn encoded_packed_stamp_bits(stamp: &PackedStamp) -> usize {
    stamp.encoded_bits()
}

/// Encodes a packed name into packed bytes. The output is byte-for-byte
/// identical to [`encode_name`] on the equivalent antichain.
///
/// Since the codec-seam refactor this delegates to
/// [`BitTrieCodec`](crate::codec::BitTrieCodec); it is kept as the
/// historical entry point of the space experiments.
#[must_use]
pub fn encode_packed(name: &PackedName) -> Vec<u8> {
    crate::codec::StampCodec::<PackedName>::encode_name(&crate::codec::BitTrieCodec, name)
}

/// Decodes a packed name from bytes produced by [`encode_packed`] (or
/// [`encode_name`] — the format is shared).
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated, malformed or trailing input.
pub fn decode_packed(bytes: &[u8]) -> Result<PackedName, DecodeError> {
    crate::codec::StampCodec::<PackedName>::decode_name(&crate::codec::BitTrieCodec, bytes)
}

/// Encodes a packed stamp (update then id) into packed bytes; the wire
/// format is identical to [`encode_stamp`] on the equivalent stamp.
#[must_use]
pub fn encode_packed_stamp(stamp: &PackedStamp) -> Vec<u8> {
    crate::codec::StampCodec::<PackedName>::encode_stamp(&crate::codec::BitTrieCodec, stamp)
}

/// Decodes a packed stamp from bytes produced by [`encode_packed_stamp`]
/// (or [`encode_stamp`]).
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated, malformed or trailing input, or
/// when the decoded pair violates the stamp well-formedness conditions.
pub fn decode_packed_stamp(bytes: &[u8]) -> Result<PackedStamp, DecodeError> {
    crate::codec::StampCodec::<PackedName>::decode_stamp(&crate::codec::BitTrieCodec, bytes)
}

/// Encodes a name into packed bytes (via its packed form).
#[must_use]
pub fn encode_name(name: &Name) -> Vec<u8> {
    encode_packed(&PackedName::from_name(name))
}

/// Decodes a name from packed bytes produced by [`encode_name`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated, malformed or trailing input.
pub fn decode_name(bytes: &[u8]) -> Result<Name, DecodeError> {
    Ok(decode_packed(bytes)?.to_name())
}

/// Encodes a stamp (update then id) into packed bytes.
#[must_use]
pub fn encode_stamp(stamp: &VersionStamp) -> Vec<u8> {
    encode_packed_stamp(stamp)
}

/// Decodes a stamp from packed bytes produced by [`encode_stamp`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated, malformed or trailing input, or
/// when the decoded pair violates the stamp well-formedness conditions
/// (empty id or Invariant I1).
pub fn decode_stamp(bytes: &[u8]) -> Result<VersionStamp, DecodeError> {
    decode_packed_stamp(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{BitTrieCodec, StampCodec};
    use crate::stamp::Stamp;

    fn name(s: &str) -> Name {
        s.parse().expect("valid name literal")
    }

    const SAMPLES: &[&str] = &[
        "{}",
        "{ε}",
        "{0}",
        "{1}",
        "{0, 1}",
        "{01, 1}",
        "{00, 011}",
        "{000, 011, 1}",
        "{00, 01, 10, 11}",
        "{0110, 0111, 010, 00, 1}",
    ];

    #[test]
    fn name_roundtrip() {
        for lit in SAMPLES {
            let n: Name = lit.parse().unwrap();
            let bytes = encode_name(&n);
            assert_eq!(decode_name(&bytes).unwrap(), n, "roundtrip failed for {lit}");
            assert_eq!(encoded_name_bits(&n).div_ceil(8), bytes.len());
            let packed = PackedName::from_name(&n);
            assert_eq!(encode_packed(&packed), bytes);
            assert_eq!(encoded_packed_bits(&packed), encoded_name_bits(&n));
        }
    }

    #[test]
    fn stamp_roundtrip() {
        let seed = VersionStamp::seed();
        let (a, b) = seed.fork();
        let a1 = a.update();
        let joined = a1.join_non_reducing(&b);
        let (c, d) = joined.fork();
        for stamp in [seed, a, b, a1, joined, c.update(), d] {
            let bytes = encode_stamp(&stamp);
            assert_eq!(decode_stamp(&bytes).unwrap(), stamp);
            assert_eq!(encoded_stamp_bits(&stamp).div_ceil(8), bytes.len());
        }
    }

    #[test]
    fn encoded_sizes_are_small_for_small_stamps() {
        // The seed stamp encodes to 4 bits (two `Elem`s), i.e. one byte.
        let seed = VersionStamp::seed();
        assert_eq!(encoded_stamp_bits(&seed), 4);
        assert_eq!(encode_stamp(&seed).len(), 1);
        // A freshly forked replica is still tiny.
        let (a, _) = seed.fork();
        assert!(encoded_stamp_bits(&a) <= 8);
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let (a, b) = VersionStamp::seed().fork();
        let stamp = a.update().join_non_reducing(&b);
        let bytes = encode_stamp(&stamp);
        assert!(bytes.len() > 1);
        let truncated = &bytes[..bytes.len() - 1];
        assert!(matches!(
            decode_stamp(truncated),
            Err(DecodeError::UnexpectedEnd)
                | Err(DecodeError::Malformed(_))
                | Err(DecodeError::TrailingData)
        ));
        assert_eq!(decode_name(&[]), Err(DecodeError::UnexpectedEnd));
    }

    #[test]
    fn decode_rejects_trailing_data() {
        let mut bytes = encode_name(&name("{0, 1}"));
        bytes.push(0xFF);
        assert_eq!(decode_name(&bytes), Err(DecodeError::TrailingData));

        // set a padding bit
        let bytes = encode_name(&Name::epsilon()); // 2 bits used
        let mut corrupted = bytes.clone();
        corrupted[0] |= 0b0000_0001;
        assert_eq!(decode_name(&corrupted), Err(DecodeError::TrailingData));
    }

    #[test]
    fn decode_rejects_malformed_trees_and_stamps() {
        // Node with two empty children: tag 11 then 0 then 0.
        let mut writer = BitWriter::new();
        for bit in [Bit::One, Bit::One, Bit::Zero, Bit::Zero] {
            writer.push(bit);
        }
        let bytes = writer.into_bytes();
        assert!(matches!(decode_name(&bytes), Err(DecodeError::Malformed(_))));

        // A stamp whose update exceeds its id: encode manually and reject.
        let bad = Stamp::from_parts_unchecked(name("{0, 1}"), name("{0}"));
        let bytes = BitTrieCodec.encode_stamp(&bad);
        assert!(matches!(decode_stamp(&bytes), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn bit_writer_and_reader_roundtrip() {
        let mut writer = BitWriter::new();
        let pattern = [
            Bit::One,
            Bit::Zero,
            Bit::One,
            Bit::One,
            Bit::Zero,
            Bit::Zero,
            Bit::One,
            Bit::Zero,
            Bit::One,
        ];
        for &bit in &pattern {
            writer.push(bit);
        }
        assert_eq!(writer.bit_len(), pattern.len());
        let bytes = writer.into_bytes();
        let mut reader = BitReader::new(&bytes);
        for &expected in &pattern {
            assert_eq!(reader.read().unwrap(), expected);
        }
        assert_eq!(reader.position(), pattern.len());
        assert!(reader.finish().is_ok());
    }

    #[test]
    fn encoded_bits_track_tree_shape() {
        assert_eq!(encoded_name_bits(&Name::empty()), 1);
        assert_eq!(encoded_name_bits(&Name::epsilon()), 2);
        assert_eq!(encoded_name_bits(&name("{0, 1}")), 2 + 2 + 2);
        assert_eq!(encoded_name_bits(&name("{0}")), 2 + 2 + 1);
        // The format itself, pinned: Empty ↦ 0, Elem ↦ 10, Node ↦ 11, in
        // preorder, zero-padded to a byte.
        assert_eq!(encode_name(&Name::empty()), [0b0000_0000]);
        assert_eq!(encode_name(&Name::epsilon()), [0b1000_0000]);
        assert_eq!(encode_name(&name("{0}")), [0b1110_0000]);
        assert_eq!(encode_name(&name("{0, 1}")), [0b1110_1000]);
        assert_eq!(encode_name(&name("{01, 1}")), [0b1111_0101, 0b0000_0000]);
    }
}
