//! Property suite for the codec seam: both wire formats round-trip every
//! name representation and every reachable stamp, the two codecs agree on
//! what they encode, and no malformed, truncated or corrupted input ever
//! panics a decoder — every error path is a [`DecodeError`].

use proptest::prelude::*;
use vstamp_core::codec::{
    read_delta_frame, read_frame, read_varint, write_delta_frame, write_frame, write_varint,
    BitTrieCodec, DeltaFrame, StampCodec, VarintCodec,
};
use vstamp_core::{Bit, BitString, DecodeError, Name, NameLike, PackedName, VersionStamp};

/// Strategy producing arbitrary binary strings up to `max_len` bits.
fn bitstring(max_len: usize) -> impl Strategy<Value = BitString> {
    prop::collection::vec(any::<bool>(), 0..=max_len)
        .prop_map(|bits| bits.into_iter().map(Bit::from).collect())
}

/// Strategy producing arbitrary names (the constructor normalizes).
fn name(max_len: usize, max_strings: usize) -> impl Strategy<Value = Name> {
    prop::collection::vec(bitstring(max_len), 0..=max_strings).prop_map(Name::from_strings)
}

/// A reachable stamp: replay a random fork/update/join script from the seed.
fn stamp(script_len: usize) -> impl Strategy<Value = VersionStamp> {
    prop::collection::vec((any::<u8>(), any::<u8>()), 0..=script_len).prop_map(|script| {
        let mut frontier = vec![VersionStamp::seed()];
        for (kind, pick) in script {
            let index = pick as usize % frontier.len();
            match kind % 3 {
                0 => {
                    let (a, b) = frontier[index].fork();
                    frontier[index] = a;
                    frontier.push(b);
                }
                1 => frontier[index] = frontier[index].update(),
                _ => {
                    if frontier.len() >= 2 {
                        let other = frontier.swap_remove((index + 1) % frontier.len());
                        let index = pick as usize % frontier.len();
                        frontier[index] = frontier[index].join_non_reducing(&other);
                    }
                }
            }
        }
        frontier.swap_remove(0)
    })
}

fn roundtrip_name<N: NameLike, C: StampCodec<N>>(codec: &C, n: &Name) {
    let value = N::from_name(n);
    let bytes = codec.encode_name(&value);
    let decoded = codec.decode_name(&bytes).expect("round-trip decodes");
    assert_eq!(decoded, value, "{} round-trip failed for {n}", codec.codec_name());
}

/// Decoding any mangled buffer must return an error or a valid value —
/// never panic (checked by simply running to completion).
fn never_panics<N: NameLike, C: StampCodec<N>>(codec: &C, bytes: &[u8]) {
    if let Ok(value) = codec.decode_name(bytes) {
        // Whatever decoded must re-encode to the same bytes (canonical
        // format) for the byte-aligned codec; the bit codec is checked via
        // its own round-trip property.
        let _ = codec.encode_name(&value);
    }
    let _ = codec.decode_stamp(bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Both codecs round-trip names in both representations.
    #[test]
    fn names_roundtrip_everywhere(n in name(7, 10)) {
        roundtrip_name::<Name, _>(&BitTrieCodec, &n);
        roundtrip_name::<PackedName, _>(&BitTrieCodec, &n);
        roundtrip_name::<Name, _>(&VarintCodec, &n);
        roundtrip_name::<PackedName, _>(&VarintCodec, &n);
    }

    /// The bit-trie codec is byte-identical across representations and to
    /// the historical `encode` module.
    #[test]
    fn bit_codec_is_representation_independent(n in name(7, 10)) {
        let set_bytes = StampCodec::<Name>::encode_name(&BitTrieCodec, &n);
        let packed = PackedName::from_name(&n);
        prop_assert_eq!(&set_bytes, &StampCodec::<PackedName>::encode_name(&BitTrieCodec, &packed));
        prop_assert_eq!(&set_bytes, &vstamp_core::encode::encode_name(&n));
        prop_assert_eq!(set_bytes.len(), vstamp_core::encode::encoded_name_bits(&n).div_ceil(8));
    }

    /// The varint codec is representation independent too.
    #[test]
    fn varint_codec_is_representation_independent(n in name(7, 10)) {
        let set_bytes = StampCodec::<Name>::encode_name(&VarintCodec, &n);
        let packed_bytes =
            StampCodec::<PackedName>::encode_name(&VarintCodec, &PackedName::from_name(&n));
        prop_assert_eq!(&set_bytes, &packed_bytes);
    }

    /// Reachable stamps round-trip through both codecs in every
    /// representation, and the bit codec matches the historical encoder.
    #[test]
    fn stamps_roundtrip_everywhere(s in stamp(12)) {
        prop_assert_eq!(BitTrieCodec.decode_stamp(&BitTrieCodec.encode_stamp(&s)).unwrap(), s.clone());
        prop_assert_eq!(VarintCodec.decode_stamp(&VarintCodec.encode_stamp(&s)).unwrap(), s.clone());
        prop_assert_eq!(BitTrieCodec.encode_stamp(&s), vstamp_core::encode::encode_stamp(&s));
        let set = s.to_set_stamp();
        prop_assert_eq!(BitTrieCodec.decode_stamp(&BitTrieCodec.encode_stamp(&set)).unwrap(), set.clone());
        prop_assert_eq!(VarintCodec.decode_stamp(&VarintCodec.encode_stamp(&set)).unwrap(), set);
    }

    /// Every strict prefix of a valid encoding fails to decode — and fails
    /// with an error, not a panic.
    #[test]
    fn truncations_error_cleanly(s in stamp(8)) {
        let bit_bytes = BitTrieCodec.encode_stamp(&s);
        for cut in 0..bit_bytes.len() {
            prop_assert!(
                StampCodec::<PackedName>::decode_stamp(&BitTrieCodec, &bit_bytes[..cut]).is_err(),
                "bit-trie decoder accepted a truncation at {cut}"
            );
            never_panics::<PackedName, _>(&BitTrieCodec, &bit_bytes[..cut]);
            never_panics::<Name, _>(&BitTrieCodec, &bit_bytes[..cut]);
        }
        let frame_bytes = VarintCodec.encode_stamp(&s);
        for cut in 0..frame_bytes.len() {
            prop_assert!(
                StampCodec::<PackedName>::decode_stamp(&VarintCodec, &frame_bytes[..cut]).is_err(),
                "varint decoder accepted a truncation at {cut}"
            );
            never_panics::<PackedName, _>(&VarintCodec, &frame_bytes[..cut]);
            never_panics::<Name, _>(&VarintCodec, &frame_bytes[..cut]);
        }
    }

    /// Arbitrary byte soup never panics any decoder, in any representation.
    #[test]
    fn fuzzing_decoders_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        never_panics::<PackedName, _>(&BitTrieCodec, &bytes);
        never_panics::<Name, _>(&BitTrieCodec, &bytes);
        never_panics::<PackedName, _>(&VarintCodec, &bytes);
        never_panics::<Name, _>(&VarintCodec, &bytes);
        let mut input = bytes.as_slice();
        let _ = read_frame(&mut input);
        let mut input = bytes.as_slice();
        let _ = read_varint(&mut input);
    }

    /// Single-byte corruptions either fail cleanly or decode to a valid
    /// (well-formed) stamp — decoders must validate what they accept.
    #[test]
    fn corruptions_never_yield_invalid_stamps(s in stamp(8), flip_at in any::<u8>(), flip_bit in any::<u8>()) {
        for bytes in [BitTrieCodec.encode_stamp(&s), VarintCodec.encode_stamp(&s)] {
            let mut corrupted = bytes.clone();
            if corrupted.is_empty() { continue; }
            let index = flip_at as usize % corrupted.len();
            corrupted[index] ^= 1 << (flip_bit % 8);
            if let Ok(decoded) = StampCodec::<PackedName>::decode_stamp(&BitTrieCodec, &corrupted) {
                prop_assert!(decoded.validate().is_ok());
            }
            if let Ok(decoded) = StampCodec::<PackedName>::decode_stamp(&VarintCodec, &corrupted) {
                prop_assert!(decoded.validate().is_ok());
            }
        }
    }

    /// Both delta-frame kinds round-trip the codec-canonical bytes of every
    /// name representation, consume exactly what they wrote, and report
    /// their encoded size exactly via `encoded_len`.
    #[test]
    fn delta_frames_roundtrip_every_representation(n in name(7, 10), ctx_fp in any::<u64>()) {
        for bytes in [
            StampCodec::<Name>::encode_name(&BitTrieCodec, &n),
            StampCodec::<PackedName>::encode_name(&BitTrieCodec, &PackedName::from_name(&n)),
            StampCodec::<Name>::encode_name(&VarintCodec, &n),
            StampCodec::<PackedName>::encode_name(&VarintCodec, &PackedName::from_name(&n)),
        ] {
            for frame in [
                DeltaFrame::Full { clock: &bytes },
                DeltaFrame::Delta { dot: &bytes, ctx_fp },
            ] {
                let mut out = Vec::new();
                write_delta_frame(&mut out, &frame);
                prop_assert_eq!(out.len(), frame.encoded_len());
                let mut input = out.as_slice();
                prop_assert_eq!(read_delta_frame(&mut input).unwrap(), frame);
                prop_assert!(input.is_empty());
            }
        }
    }

    /// Every strict prefix of either delta-frame kind fails to decode with
    /// an error — truncations never panic and never yield a frame.
    #[test]
    fn delta_frame_truncations_error_cleanly(s in stamp(8), ctx_fp in any::<u64>()) {
        let clock = VarintCodec.encode_stamp(&s);
        for frame in [
            DeltaFrame::Full { clock: &clock },
            DeltaFrame::Delta { dot: &clock, ctx_fp },
        ] {
            let mut wire = Vec::new();
            write_delta_frame(&mut wire, &frame);
            for cut in 0..wire.len() {
                let mut input = &wire[..cut];
                prop_assert!(
                    read_delta_frame(&mut input).is_err(),
                    "delta-frame decoder accepted a truncation at {cut}"
                );
            }
        }
    }

    /// Arbitrary byte soup never panics the delta-frame decoder, and any
    /// unknown kind byte is rejected as malformed up front.
    #[test]
    fn delta_frame_fuzzing_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64), kind in 2u8..=u8::MAX) {
        let mut input = bytes.as_slice();
        let _ = read_delta_frame(&mut input);
        let mut tagged = vec![kind];
        tagged.extend_from_slice(&bytes);
        let mut input = tagged.as_slice();
        prop_assert!(matches!(read_delta_frame(&mut input), Err(DecodeError::Malformed(_))));
    }

    /// The delta fast path and the fingerprint-miss fallback converge on
    /// the same clock: when the receiver's context fingerprint matches it
    /// reconstructs `context ⊔ dot` from the delta frame; when perturbed it
    /// refetches the full frame — either way it ends holding exactly the
    /// sender's clock, so correctness never depends on the fingerprint.
    #[test]
    fn fingerprint_miss_falls_back_and_converges(ctx in stamp(8), perturb in any::<u64>()) {
        let (context, spare) = ctx.fork();
        let dot = spare.update();
        let clock = context.join_non_reducing(&dot);

        // O(1) context fingerprint: each side hashes its own context view.
        let fingerprint = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
                (hash ^ u64::from(*byte)).wrapping_mul(0x100_0000_01b3)
            })
        };
        let sender_fp = fingerprint(&VarintCodec.encode_stamp(&context));
        let receiver_fp = sender_fp ^ perturb;

        let dot_bytes = VarintCodec.encode_stamp(&dot);
        let mut wire = Vec::new();
        write_delta_frame(&mut wire, &DeltaFrame::Delta { dot: &dot_bytes, ctx_fp: sender_fp });
        let mut input = wire.as_slice();
        let DeltaFrame::Delta { dot: dot_frame, ctx_fp } = read_delta_frame(&mut input).unwrap()
        else {
            return Err(TestCaseError::Fail("delta frame decoded as full".into()));
        };
        let received = if ctx_fp == receiver_fp {
            // Fast path: one join against the shared context.
            context.join_non_reducing(&VarintCodec.decode_stamp(dot_frame).unwrap())
        } else {
            // Miss: NAK and refetch the full canonical frame.
            let clock_bytes = VarintCodec.encode_stamp(&clock);
            let mut wire = Vec::new();
            write_delta_frame(&mut wire, &DeltaFrame::Full { clock: &clock_bytes });
            let mut input = wire.as_slice();
            let DeltaFrame::Full { clock: frame } = read_delta_frame(&mut input).unwrap()
            else {
                return Err(TestCaseError::Fail("full frame decoded as delta".into()));
            };
            VarintCodec.decode_stamp(frame).unwrap()
        };
        prop_assert_eq!(&received, &clock);
        prop_assert_eq!(perturb == 0, ctx_fp == receiver_fp);
    }

    /// Varints and frames round-trip and report consumed lengths exactly.
    #[test]
    fn varints_and_frames_roundtrip(v in any::<u64>(), payload in prop::collection::vec(any::<u8>(), 0..48)) {
        let mut out = Vec::new();
        write_varint(&mut out, v);
        write_frame(&mut out, &payload);
        let mut input = out.as_slice();
        prop_assert_eq!(read_varint(&mut input).unwrap(), v);
        prop_assert_eq!(read_frame(&mut input).unwrap(), payload.as_slice());
        prop_assert!(input.is_empty());
        prop_assert_eq!(read_frame(&mut input), Err(DecodeError::UnexpectedEnd));
    }
}
