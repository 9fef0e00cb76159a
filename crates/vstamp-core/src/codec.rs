//! The codec seam: pluggable wire formats for names and stamps.
//!
//! [`encode`](crate::encode) hard-codes the paper's bit-level trie format
//! against concrete representations. This module extracts the format choice
//! into a trait, [`StampCodec`], generic over the name representation
//! ([`NameLike`]), with two shipped implementations:
//!
//! * [`BitTrieCodec`] — the paper's bit-packed trie format (`Empty ↦ 0`,
//!   `Elem ↦ 10`, `Node ↦ 11`), byte-for-byte identical to the historical
//!   [`encode`](crate::encode) functions. This is the space-optimal format
//!   the E7/E9 experiments measure; it is **not** byte-aligned, so a stamp
//!   cannot be sliced into its components without bit arithmetic.
//! * [`VarintCodec`] — a byte-aligned frame format: an LEB128 varint tag
//!   count followed by the preorder trie tags packed four-per-byte. The
//!   payload layout is exactly the in-memory tag array of
//!   [`PackedName`](crate::PackedName), so decoding into the workspace's
//!   default representation is a validated memcpy — no bit reader, no
//!   intermediate trie. This is the format replication traffic uses
//!   (see [`write_frame`]/[`read_frame`] for message framing and the
//!   `vstamp-store` anti-entropy protocol built on them).
//!
//! Both codecs work on the representation-independent preorder tag stream
//! exposed by [`NameLike::visit_tags`] / [`NameLike::from_packed_tags`], so
//! every (codec × representation) cell round-trips — property-tested in
//! `tests/codec_properties.rs`, together with a malformed/truncated-frame
//! corpus asserting every decode error path returns [`DecodeError`].
//!
//! # Examples
//!
//! ```
//! use vstamp_core::codec::{BitTrieCodec, StampCodec, VarintCodec};
//! use vstamp_core::VersionStamp;
//!
//! let (a, b) = VersionStamp::seed().fork();
//! let stamp = a.update().join_non_reducing(&b);
//!
//! let bits = BitTrieCodec.encode_stamp(&stamp);
//! assert_eq!(BitTrieCodec.decode_stamp(&bits)?, stamp);
//!
//! let frames = VarintCodec.encode_stamp(&stamp);
//! assert_eq!(VarintCodec.decode_stamp(&frames)?, stamp);
//! # Ok::<(), vstamp_core::DecodeError>(())
//! ```

use crate::bitstring::Bit;
use crate::encode::{BitReader, BitWriter};
use crate::error::DecodeError;
use crate::name_like::NameLike;
use crate::stamp::Stamp;

/// A wire format for names and stamps, generic over the name
/// representation.
///
/// Implementations are stateless value codecs: a name (or stamp) in, bytes
/// out, and the exact inverse on decode — truncated, malformed or trailing
/// input is rejected with a [`DecodeError`], never a panic. The trait is
/// object safe, so transports can hold a `dyn StampCodec<N>` chosen at run
/// time.
pub trait StampCodec<N: NameLike> {
    /// Short identifier of the codec (`bit-trie`, `varint-frame`), used in
    /// reports and protocol negotiation.
    fn codec_name(&self) -> &'static str;

    /// Appends the encoding of a name to `out`.
    fn encode_name_into(&self, name: &N, out: &mut Vec<u8>);

    /// Decodes a name occupying the whole of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated, malformed or trailing input.
    fn decode_name(&self, bytes: &[u8]) -> Result<N, DecodeError>;

    /// Appends the encoding of a stamp (update then id) to `out`.
    fn encode_stamp_into(&self, stamp: &Stamp<N>, out: &mut Vec<u8>);

    /// Decodes a stamp occupying the whole of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated, malformed or trailing input,
    /// or when the decoded pair violates stamp well-formedness (empty id or
    /// Invariant I1).
    fn decode_stamp(&self, bytes: &[u8]) -> Result<Stamp<N>, DecodeError>;

    /// Encodes a name into a fresh buffer.
    fn encode_name(&self, name: &N) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_name_into(name, &mut out);
        out
    }

    /// Encodes a stamp into a fresh buffer.
    fn encode_stamp(&self, stamp: &Stamp<N>) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_stamp_into(stamp, &mut out);
        out
    }
}

/// The paper's bit-packed trie format (see [`crate::encode`]): one bit per
/// `Empty`, two per `Elem`/`Node`, stamps as the concatenated update and id
/// streams, final byte zero-padded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitTrieCodec;

fn write_tags_as_bits<N: NameLike>(name: &N, writer: &mut BitWriter) {
    name.visit_tags(&mut |tag| match tag {
        0 => writer.push(Bit::Zero),
        1 => {
            writer.push(Bit::One);
            writer.push(Bit::Zero);
        }
        _ => {
            writer.push(Bit::One);
            writer.push(Bit::One);
        }
    });
}

/// Reads one trie's worth of tags from the bit stream into packed 2-bit
/// form, returning `(packed bytes, tag count)`.
fn read_tags_from_bits(reader: &mut BitReader<'_>) -> Result<(Vec<u8>, usize), DecodeError> {
    let mut packed: Vec<u8> = Vec::new();
    let mut count = 0usize;
    let mut pending = 1i64;
    while pending > 0 {
        let tag = match reader.read()? {
            Bit::Zero => 0u8,
            Bit::One => match reader.read()? {
                Bit::Zero => 1,
                Bit::One => 2,
            },
        };
        if count % 4 == 0 {
            packed.push(0);
        }
        let last = packed.len() - 1;
        packed[last] |= tag << ((count % 4) * 2);
        count += 1;
        pending += if tag == 2 { 1 } else { -1 };
    }
    Ok((packed, count))
}

impl<N: NameLike> StampCodec<N> for BitTrieCodec {
    fn codec_name(&self) -> &'static str {
        "bit-trie"
    }

    fn encode_name_into(&self, name: &N, out: &mut Vec<u8>) {
        let mut writer = BitWriter::new();
        write_tags_as_bits(name, &mut writer);
        out.extend_from_slice(&writer.into_bytes());
    }

    fn decode_name(&self, bytes: &[u8]) -> Result<N, DecodeError> {
        let mut reader = BitReader::new(bytes);
        let (packed, count) = read_tags_from_bits(&mut reader)?;
        reader.finish()?;
        N::from_packed_tags(&packed, count)
    }

    fn encode_stamp_into(&self, stamp: &Stamp<N>, out: &mut Vec<u8>) {
        let mut writer = BitWriter::new();
        write_tags_as_bits(stamp.update_name(), &mut writer);
        write_tags_as_bits(stamp.id_name(), &mut writer);
        out.extend_from_slice(&writer.into_bytes());
    }

    fn decode_stamp(&self, bytes: &[u8]) -> Result<Stamp<N>, DecodeError> {
        let mut reader = BitReader::new(bytes);
        let (update_tags, update_count) = read_tags_from_bits(&mut reader)?;
        let (id_tags, id_count) = read_tags_from_bits(&mut reader)?;
        reader.finish()?;
        let update = N::from_packed_tags(&update_tags, update_count)?;
        let id = N::from_packed_tags(&id_tags, id_count)?;
        Stamp::from_parts(update, id)
            .map_err(|_| DecodeError::Malformed("decoded pair is not a valid stamp"))
    }
}

/// The byte-aligned frame format: an LEB128 varint tag count followed by
/// `⌈count / 4⌉` bytes of preorder trie tags, four 2-bit tags per byte
/// (little-endian within the byte, zero-padded tail).
///
/// The payload layout is the in-memory tag array of
/// [`PackedName`](crate::PackedName): decoding into the default
/// representation validates the structure and memcpys the bytes — no bit
/// reader, no tree reconstruction. Stamps are the update frame followed by
/// the id frame; both boundaries are byte boundaries, so components can be
/// sliced without decoding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VarintCodec;

impl VarintCodec {
    fn decode_name_frame<N: NameLike>(input: &mut &[u8]) -> Result<N, DecodeError> {
        let count = read_varint(input)?;
        if count > u64::from(u32::MAX) {
            return Err(DecodeError::Malformed("tag count exceeds the representable maximum"));
        }
        let count = count as usize;
        let byte_len = count.div_ceil(4);
        if input.len() < byte_len {
            return Err(DecodeError::UnexpectedEnd);
        }
        let (payload, rest) = input.split_at(byte_len);
        *input = rest;
        N::from_packed_tags(payload, count)
    }
}

impl<N: NameLike> StampCodec<N> for VarintCodec {
    fn codec_name(&self) -> &'static str {
        "varint-frame"
    }

    fn encode_name_into(&self, name: &N, out: &mut Vec<u8>) {
        write_varint(out, name.tag_count() as u64);
        name.write_packed_tags(out);
    }

    fn decode_name(&self, bytes: &[u8]) -> Result<N, DecodeError> {
        let mut input = bytes;
        let name = Self::decode_name_frame(&mut input)?;
        if !input.is_empty() {
            return Err(DecodeError::TrailingData);
        }
        Ok(name)
    }

    fn encode_stamp_into(&self, stamp: &Stamp<N>, out: &mut Vec<u8>) {
        self.encode_name_into(stamp.update_name(), out);
        self.encode_name_into(stamp.id_name(), out);
    }

    fn decode_stamp(&self, bytes: &[u8]) -> Result<Stamp<N>, DecodeError> {
        let mut input = bytes;
        let update = Self::decode_name_frame::<N>(&mut input)?;
        let id = Self::decode_name_frame::<N>(&mut input)?;
        if !input.is_empty() {
            return Err(DecodeError::TrailingData);
        }
        Stamp::from_parts(update, id)
            .map_err(|_| DecodeError::Malformed("decoded pair is not a valid stamp"))
    }
}

/// Appends an LEB128 varint to `out` (7 value bits per byte, continuation
/// bit high).
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from the front of `input`, advancing it past the
/// consumed bytes.
///
/// # Errors
///
/// Returns [`DecodeError::UnexpectedEnd`] when the input ends inside the
/// varint and [`DecodeError::Malformed`] when the encoding overflows 64
/// bits or is non-canonical (a redundant trailing `0x80 … 0x00`).
pub fn read_varint(input: &mut &[u8]) -> Result<u64, DecodeError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (index, &byte) in input.iter().enumerate() {
        if shift >= 64 || (shift == 63 && byte & 0x7E != 0) {
            return Err(DecodeError::Malformed("varint overflows 64 bits"));
        }
        if byte == 0 && shift != 0 {
            return Err(DecodeError::Malformed("non-canonical varint"));
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            *input = &input[index + 1..];
            return Ok(value);
        }
        shift += 7;
    }
    Err(DecodeError::UnexpectedEnd)
}

/// Appends a length-prefixed frame (varint byte length, then the payload)
/// to `out` — the unit replication traffic is chunked into: a message is a
/// sequence of frames, each independently decodable.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    write_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

/// Reads one length-prefixed frame from the front of `input`, advancing it
/// past the frame.
///
/// # Errors
///
/// Returns [`DecodeError::UnexpectedEnd`] when the prefix or the payload is
/// truncated and [`DecodeError::Malformed`] when the length does not fit in
/// memory.
pub fn read_frame<'a>(input: &mut &'a [u8]) -> Result<&'a [u8], DecodeError> {
    let len = read_varint(input)?;
    let len = usize::try_from(len).map_err(|_| DecodeError::Malformed("frame length overflow"))?;
    if input.len() < len {
        return Err(DecodeError::UnexpectedEnd);
    }
    let (payload, rest) = input.split_at(len);
    *input = rest;
    Ok(payload)
}

/// Frame-kind byte for a clock shipped as its full canonical encoding.
pub const CLOCK_FRAME_FULL: u8 = 0;
/// Frame-kind byte for a clock shipped as a delta: the version's dot plus
/// the fingerprint of the context the sender assumes the receiver shares.
pub const CLOCK_FRAME_DELTA: u8 = 1;

/// A clock on the wire: either the full canonical clock encoding, or a
/// **delta** — just the minting dot plus an O(1) fingerprint of the context
/// the sender assumes the receiver already holds. The receiver reconstructs
/// `clock = context ⊔ dot` when the fingerprint matches, and falls back to
/// requesting the full frame when it does not; correctness never depends on
/// the fingerprint, only the fast path does.
///
/// Layout: one kind byte ([`CLOCK_FRAME_FULL`] or [`CLOCK_FRAME_DELTA`]),
/// then a length-prefixed frame holding the clock (full) or dot (delta)
/// encoding, then — delta only — the fingerprint as 8 little-endian bytes.
/// Both arms borrow: encoding copies from the version's cached canonical
/// bytes, decoding hands back subslices of the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaFrame<'a> {
    /// The clock's full canonical encoding.
    Full {
        /// Encoded clock bytes (codec-canonical).
        clock: &'a [u8],
    },
    /// The minting dot plus the assumed-context fingerprint.
    Delta {
        /// Encoded dot bytes (codec-canonical).
        dot: &'a [u8],
        /// Fingerprint of the context the sender assumes is shared.
        ctx_fp: u64,
    },
}

impl DeltaFrame<'_> {
    /// Encoded size of this frame in bytes, including the kind byte and
    /// length prefix — what [`write_delta_frame`] will append.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        match self {
            DeltaFrame::Full { clock } => 1 + varint_len(clock.len() as u64) + clock.len(),
            DeltaFrame::Delta { dot, .. } => 1 + varint_len(dot.len() as u64) + dot.len() + 8,
        }
    }
}

/// Number of bytes [`write_varint`] emits for `value`.
#[must_use]
pub fn varint_len(value: u64) -> usize {
    let bits = (u64::BITS - value.leading_zeros()).max(1) as usize;
    bits.div_ceil(7)
}

/// Appends a [`DeltaFrame`] to `out`: kind byte, framed clock or dot bytes,
/// and (delta only) the 8-byte little-endian context fingerprint.
pub fn write_delta_frame(out: &mut Vec<u8>, frame: &DeltaFrame<'_>) {
    match frame {
        DeltaFrame::Full { clock } => {
            out.push(CLOCK_FRAME_FULL);
            write_frame(out, clock);
        }
        DeltaFrame::Delta { dot, ctx_fp } => {
            out.push(CLOCK_FRAME_DELTA);
            write_frame(out, dot);
            out.extend_from_slice(&ctx_fp.to_le_bytes());
        }
    }
}

/// Reads one [`DeltaFrame`] from the front of `input`, advancing it past
/// the frame. The returned clock/dot bytes borrow from `input` and are
/// **not** validated here — hand them to the codec's `decode_name` (or the
/// backend's clock decoder) for canonicality checking.
///
/// # Errors
///
/// Returns [`DecodeError::UnexpectedEnd`] on truncation and
/// [`DecodeError::Malformed`] on an unknown kind byte.
pub fn read_delta_frame<'a>(input: &mut &'a [u8]) -> Result<DeltaFrame<'a>, DecodeError> {
    let (&kind, rest) = input.split_first().ok_or(DecodeError::UnexpectedEnd)?;
    *input = rest;
    match kind {
        CLOCK_FRAME_FULL => Ok(DeltaFrame::Full { clock: read_frame(input)? }),
        CLOCK_FRAME_DELTA => {
            let dot = read_frame(input)?;
            if input.len() < 8 {
                return Err(DecodeError::UnexpectedEnd);
            }
            let (fp_bytes, rest) = input.split_at(8);
            *input = rest;
            let ctx_fp = u64::from_le_bytes(fp_bytes.try_into().expect("split_at(8) yields 8"));
            Ok(DeltaFrame::Delta { dot, ctx_fp })
        }
        _ => Err(DecodeError::Malformed("unknown clock frame kind")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::Name;
    use crate::packed::PackedName;
    use crate::stamp::{SetStamp, VersionStamp};

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

    fn roundtrip_names<N: NameLike, C: StampCodec<N>>(codec: &C) {
        for lit in SAMPLES {
            let name = N::from_name(&lit.parse::<Name>().unwrap());
            let bytes = codec.encode_name(&name);
            let decoded = codec.decode_name(&bytes).unwrap();
            assert_eq!(decoded, name, "{} roundtrip failed for {lit}", codec.codec_name());
        }
    }

    #[test]
    fn both_codecs_roundtrip_every_representation() {
        roundtrip_names::<Name, _>(&BitTrieCodec);
        roundtrip_names::<PackedName, _>(&BitTrieCodec);
        roundtrip_names::<Name, _>(&VarintCodec);
        roundtrip_names::<PackedName, _>(&VarintCodec);
    }

    #[test]
    fn bit_trie_codec_matches_the_historical_encoding() {
        for lit in SAMPLES {
            let name: Name = lit.parse().unwrap();
            let packed = PackedName::from_name(&name);
            let expected = crate::encode::encode_name(&name);
            assert_eq!(StampCodec::<PackedName>::encode_name(&BitTrieCodec, &packed), expected);
            assert_eq!(StampCodec::<Name>::encode_name(&BitTrieCodec, &name), expected);
        }
        let (a, b) = VersionStamp::seed().fork();
        let stamp = a.update().join_non_reducing(&b);
        assert_eq!(BitTrieCodec.encode_stamp(&stamp), crate::encode::encode_stamp(&stamp));
    }

    #[test]
    fn stamps_roundtrip_through_both_codecs() {
        let seed = VersionStamp::seed();
        let (a, b) = seed.fork();
        let a1 = a.update();
        let joined = a1.join_non_reducing(&b);
        for stamp in [seed, a, b, a1, joined] {
            let bits = BitTrieCodec.encode_stamp(&stamp);
            assert_eq!(BitTrieCodec.decode_stamp(&bits).unwrap(), stamp);
            let frames = VarintCodec.encode_stamp(&stamp);
            assert_eq!(VarintCodec.decode_stamp(&frames).unwrap(), stamp);
            let set: SetStamp = stamp.clone().into();
            assert_eq!(BitTrieCodec.decode_stamp(&BitTrieCodec.encode_stamp(&set)).unwrap(), set);
            assert_eq!(VarintCodec.decode_stamp(&VarintCodec.encode_stamp(&set)).unwrap(), set);
        }
    }

    #[test]
    fn varint_roundtrip_and_rejections() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            buf.clear();
            write_varint(&mut buf, v);
            let mut input = buf.as_slice();
            assert_eq!(read_varint(&mut input).unwrap(), v);
            assert!(input.is_empty());
        }
        // Truncated.
        let mut input: &[u8] = &[0x80];
        assert_eq!(read_varint(&mut input), Err(DecodeError::UnexpectedEnd));
        // Overflow: 11 continuation bytes.
        let mut long = vec![0xFF; 10];
        long.push(0x01);
        let mut input = long.as_slice();
        assert!(matches!(read_varint(&mut input), Err(DecodeError::Malformed(_))));
        // Non-canonical: redundant zero continuation.
        let mut input: &[u8] = &[0x80, 0x00];
        assert!(matches!(read_varint(&mut input), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn frames_roundtrip_and_reject_truncation() {
        let mut out = Vec::new();
        write_frame(&mut out, b"digest");
        write_frame(&mut out, b"");
        write_frame(&mut out, &[0xAB; 200]);
        let mut input = out.as_slice();
        assert_eq!(read_frame(&mut input).unwrap(), b"digest");
        assert_eq!(read_frame(&mut input).unwrap(), b"");
        assert_eq!(read_frame(&mut input).unwrap(), &[0xAB; 200]);
        assert!(input.is_empty());
        assert_eq!(read_frame(&mut input), Err(DecodeError::UnexpectedEnd));
        let mut truncated = &out[..out.len() - 1];
        let _ = read_frame(&mut truncated).unwrap();
        let _ = read_frame(&mut truncated).unwrap();
        assert_eq!(read_frame(&mut truncated), Err(DecodeError::UnexpectedEnd));
    }

    #[test]
    fn varint_codec_decodes_reject_bad_frames() {
        let name = PackedName::from_name(&"{0, 1}".parse::<Name>().unwrap());
        let bytes = StampCodec::<PackedName>::encode_name(&VarintCodec, &name);
        // Truncated payload.
        assert_eq!(
            StampCodec::<PackedName>::decode_name(&VarintCodec, &bytes[..bytes.len() - 1]),
            Err(DecodeError::UnexpectedEnd)
        );
        // Trailing byte.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            StampCodec::<PackedName>::decode_name(&VarintCodec, &trailing),
            Err(DecodeError::TrailingData)
        );
        // Reserved tag value 0b11.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] = 0xFF;
        assert!(matches!(
            StampCodec::<PackedName>::decode_name(&VarintCodec, &bad),
            Err(DecodeError::Malformed(_) | DecodeError::TrailingData)
        ));
        // Absurd tag count.
        let mut absurd = Vec::new();
        write_varint(&mut absurd, u64::MAX);
        assert!(StampCodec::<PackedName>::decode_name(&VarintCodec, &absurd).is_err());
        // Empty input.
        assert_eq!(
            StampCodec::<PackedName>::decode_name(&VarintCodec, &[]),
            Err(DecodeError::UnexpectedEnd)
        );
    }

    #[test]
    fn decoded_stamps_are_validated() {
        // update ⋣ id: {0, 1} over {0}.
        let update = PackedName::from_name(&"{0, 1}".parse::<Name>().unwrap());
        let id = PackedName::from_name(&"{0}".parse::<Name>().unwrap());
        let mut bytes = Vec::new();
        StampCodec::<PackedName>::encode_name_into(&VarintCodec, &update, &mut bytes);
        StampCodec::<PackedName>::encode_name_into(&VarintCodec, &id, &mut bytes);
        assert!(matches!(
            StampCodec::<PackedName>::decode_stamp(&VarintCodec, &bytes),
            Err(DecodeError::Malformed(_))
        ));
    }

    #[test]
    fn codec_objects_are_dynamically_dispatchable() {
        let codecs: Vec<Box<dyn StampCodec<PackedName>>> =
            vec![Box::new(BitTrieCodec), Box::new(VarintCodec)];
        let stamp = VersionStamp::seed();
        for codec in &codecs {
            let bytes = codec.encode_stamp(&stamp);
            assert_eq!(codec.decode_stamp(&bytes).unwrap(), stamp);
            assert!(!codec.codec_name().is_empty());
        }
    }
}
