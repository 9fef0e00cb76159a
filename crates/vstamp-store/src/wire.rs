//! Anti-entropy wire protocol: digest, delta and NAK messages, chunked
//! into the length-prefixed frames of [`vstamp_core::codec`].
//!
//! The exchange is pull-based and batched:
//!
//! 0. with delta frames on, the requester first sends an 8-byte **probe**
//!    of its digest root. `Ack` ends the exchange; `Miss` carries the
//!    responder's bucket sums at a level `L` ([`encode_miss`]; empty at
//!    `L = 0`, for replicas under 128 keys);
//! 1. the requester sends a **digest** — one `(key, fingerprint, ctx_fp)`
//!    triple per key it holds, where the fingerprint hashes the sibling
//!    clock set and the element's knowledge, and `ctx_fp` is the sibling
//!    set's own order-independent hash (the context fingerprint delta
//!    frames are gated on). After a `Miss` with sums it lists only the
//!    keys of the buckets whose sums differ and appends a [`BucketMask`]
//!    trailer ([`encode_digest_scoped`]); the responder then answers for
//!    those buckets alone;
//! 2. the responder answers with a **delta** — for every key whose
//!    fingerprint differs (or which the requester lacks), the responder's
//!    freshly-forked element plus its full sibling set. Each version rides
//!    either a *full* clock frame (the canonical encoding) or, when the
//!    version's mint-time context fingerprint equals the requester's
//!    `ctx_fp`, a *delta* frame: just the minting dot plus that
//!    fingerprint ([`DeltaFrame`]);
//! 3. the requester absorbs the delta: element `join` plus sibling merge.
//!    A delta frame whose fingerprint still matches the local sibling set
//!    reconstructs its clock as `context ⊔ dot` — one join instead of a
//!    full clock on the wire. A mismatch (the set changed between digest
//!    and apply, or a deliberately perturbed fingerprint) marks the key
//!    **missed**;
//! 4. missed keys go back in a **NAK**, answered with full frames only —
//!    correctness never depends on the fingerprint, only the fast path.
//!
//! All message payloads are self-contained byte buffers, so the same
//! encoding serves in-process exchanges and TCP nodes alike. Byte
//! accounting is envelope-inclusive via
//! [`envelope_len`] — the honest end-to-end cost of a message, not just
//! its payload.
//!
//! Delta assembly *borrows*: a shipped sibling set is a vector of
//! [`StoredVersion`]s (`Arc` bumps, no value copies), each full clock
//! rides its already-cached canonical bytes, each delta frame its cached
//! dot bytes, and the decoder hands validated full-clock frames straight
//! back to the stored-version cache instead of re-encoding.

use std::sync::Arc;

use vstamp_core::codec::{
    read_delta_frame, read_frame, read_varint, varint_len, write_delta_frame, write_frame,
    write_varint, DeltaFrame,
};
use vstamp_core::DecodeError;

use crate::backend::StoreBackend;
use crate::store::{DeltaOrigin, Key, StoredVersion, Value, Version};

/// One digest line: a key and the fingerprints of the requester's state
/// for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestEntry {
    /// The key.
    pub key: Key,
    /// FNV-1a over the sibling-set hash and the element knowledge; equal
    /// fingerprints mean the exchange can skip the key.
    pub fingerprint: u64,
    /// The sibling set's order-independent hash on its own — the wrapping
    /// sum of the requester's per-version content hashes. The responder
    /// gates delta frames on it (a version whose mint-time context hash
    /// equals this can ship as dot + fingerprint) and runs subset-sum
    /// over its own versions' hashes against it to infer which versions
    /// the requester already holds, skipping those.
    pub ctx_fp: u64,
}

/// The per-key payload of a delta message.
#[derive(Debug)]
pub struct KeyDelta<B: StoreBackend> {
    /// The key being shipped.
    pub key: Key,
    /// The responder's element half, forked off for this send and consumed
    /// by the requester's `absorb`.
    pub element: B::Element,
    /// The responder's full sibling set for the key (shared, not copied).
    pub versions: Vec<StoredVersion<B>>,
    /// The requester's context fingerprint from its digest (`0`, the
    /// empty-set hash, when the requester lacks the key) — the gate for
    /// shipping a version as a delta frame.
    pub assumed_fp: u64,
}

impl<B: StoreBackend> Clone for KeyDelta<B> {
    fn clone(&self) -> Self {
        KeyDelta {
            key: self.key.clone(),
            element: self.element.clone(),
            versions: self.versions.clone(),
            assumed_fp: self.assumed_fp,
        }
    }
}

impl<B: StoreBackend> PartialEq for KeyDelta<B> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
            && self.element == other.element
            && self.versions == other.versions
            && self.assumed_fp == other.assumed_fp
    }
}

/// One decoded version off the wire: either a complete stored version
/// (full clock frame) or a delta frame awaiting reconstruction against the
/// receiver's sibling-set context.
#[derive(Debug)]
pub enum WireVersion<B: StoreBackend> {
    /// A full frame: clock decoded and cached, ready to merge.
    Full(StoredVersion<B>),
    /// A delta frame: the minting dot (decoded and validated) plus the
    /// fingerprint of the context it must be joined with.
    Delta {
        /// The minting dot as a standalone clock.
        dot: B::Clock,
        /// The dot's canonical wire bytes (retained as the reconstructed
        /// version's origin, so it can be forwarded as a delta again).
        dot_bytes: Arc<[u8]>,
        /// Mint-time context fingerprint; must equal the receiving sibling
        /// set's hash for reconstruction to be sound.
        ctx_fp: u64,
        /// The version's value (`None` is a tombstone).
        value: Option<Value>,
    },
}

impl<B: StoreBackend> PartialEq for WireVersion<B> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (WireVersion::Full(a), WireVersion::Full(b)) => a == b,
            (
                WireVersion::Delta { dot: a, ctx_fp: fa, value: va, .. },
                WireVersion::Delta { dot: b, ctx_fp: fb, value: vb, .. },
            ) => a == b && fa == fb && va == vb,
            _ => false,
        }
    }
}

/// The per-key unit of a decoded delta message.
#[derive(Debug)]
pub struct WireKeyDelta<B: StoreBackend> {
    /// The key being shipped.
    pub key: Key,
    /// The responder's forked element half.
    pub element: B::Element,
    /// The shipped versions, full or delta.
    pub versions: Vec<WireVersion<B>>,
}

impl<B: StoreBackend> PartialEq for WireKeyDelta<B> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.element == other.element && self.versions == other.versions
    }
}

/// Message kind tag carried by a gossip envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageKind {
    /// An O(1) convergence probe (payload: the requester's digest root —
    /// a hash over its maintained bucket sums). Answered with
    /// [`MessageKind::Ack`] when the responder's root matches (nothing to
    /// exchange) or [`MessageKind::Miss`] when it does not.
    Probe,
    /// A probe hit: the peers' digest roots match, the exchange is over.
    Ack,
    /// A probe miss (payload: the responder's bucket sums, see
    /// [`encode_miss`]): the requester follows up with its digest.
    Miss,
    /// A digest request (payload: encoded digest entries, optionally
    /// followed by a bucket-mask trailer, see [`encode_digest_scoped`]).
    Digest,
    /// A delta response (payload: encoded key deltas).
    Delta,
    /// A fingerprint-miss report (payload: encoded key list); answered
    /// with a full-frames-only delta.
    Nak,
    /// A membership join request (payload: the joiner's advertised
    /// address). Answered with [`MessageKind::JoinAck`] carrying a forked
    /// half of the sponsor's membership stamp — decentralized creation.
    Join,
    /// A join grant: the encoded identity stamp plus a member-table
    /// snapshot for peer discovery.
    JoinAck,
    /// A client read (payload: the key). Answered with
    /// [`MessageKind::GetOk`].
    Get,
    /// A client read response: sibling values plus an opaque causal
    /// context.
    GetOk,
    /// A client write (payload: key, value, optional causal context).
    /// Answered with [`MessageKind::PutOk`].
    Put,
    /// A client write acknowledgement.
    PutOk,
    /// A status probe (empty payload). Answered with
    /// [`MessageKind::StatusOk`].
    Status,
    /// A status report: digest root, member table, suspects, id-string
    /// counts.
    StatusOk,
}

impl MessageKind {
    /// The kind's one-byte wire tag.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            MessageKind::Probe => 0,
            MessageKind::Ack => 1,
            MessageKind::Miss => 2,
            MessageKind::Digest => 3,
            MessageKind::Delta => 4,
            MessageKind::Nak => 5,
            MessageKind::Join => 6,
            MessageKind::JoinAck => 7,
            MessageKind::Get => 8,
            MessageKind::GetOk => 9,
            MessageKind::Put => 10,
            MessageKind::PutOk => 11,
            MessageKind::Status => 12,
            MessageKind::StatusOk => 13,
        }
    }

    /// The kind for a wire tag, or `None` for an unknown tag.
    #[must_use]
    pub fn from_tag(tag: u8) -> Option<MessageKind> {
        Some(match tag {
            0 => MessageKind::Probe,
            1 => MessageKind::Ack,
            2 => MessageKind::Miss,
            3 => MessageKind::Digest,
            4 => MessageKind::Delta,
            5 => MessageKind::Nak,
            6 => MessageKind::Join,
            7 => MessageKind::JoinAck,
            8 => MessageKind::Get,
            9 => MessageKind::GetOk,
            10 => MessageKind::Put,
            11 => MessageKind::PutOk,
            12 => MessageKind::Status,
            13 => MessageKind::StatusOk,
            _ => return None,
        })
    }
}

/// A routed protocol message: sender id, kind, and the encoded payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// The sender: a replica index in-process, the sender's port on TCP
    /// (clients send 0).
    pub from: usize,
    /// What the payload encodes.
    pub kind: MessageKind,
    /// The encoded digest, delta or NAK.
    pub payload: Vec<u8>,
}

/// End-to-end wire size of one message: kind byte, varint sender index,
/// varint-framed payload. In-process exchanges hand [`Envelope`] structs
/// over directly, but every byte count the store reports uses this
/// serialized form so the `wire` curves are honest about header overhead.
#[must_use]
pub fn envelope_len(from: usize, payload_len: usize) -> usize {
    1 + varint_len(from as u64) + varint_len(payload_len as u64) + payload_len
}

/// Serializes an envelope into exactly the [`envelope_len`] form the store
/// has always *accounted* in: kind tag byte, varint sender, varint-framed
/// payload. This is the unit the TCP transport length-prefixes onto the
/// socket — promoting the modeled wire cost to the actual one.
#[must_use]
pub fn encode_envelope(envelope: &Envelope) -> Vec<u8> {
    let mut out = Vec::with_capacity(envelope_len(envelope.from, envelope.payload.len()));
    out.push(envelope.kind.tag());
    write_varint(&mut out, envelope.from as u64);
    write_frame(&mut out, &envelope.payload);
    out
}

/// Deserializes an envelope produced by [`encode_envelope`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on an unknown kind tag, truncation, or
/// trailing bytes.
pub fn decode_envelope(bytes: &[u8]) -> Result<Envelope, DecodeError> {
    let (tag, mut input) = bytes.split_first().ok_or(DecodeError::UnexpectedEnd)?;
    let kind =
        MessageKind::from_tag(*tag).ok_or(DecodeError::Malformed("unknown envelope kind tag"))?;
    let from = read_varint(&mut input)? as usize;
    let payload = read_frame(&mut input)?.to_vec();
    if !input.is_empty() {
        return Err(DecodeError::TrailingData);
    }
    Ok(Envelope { from, kind, payload })
}

/// Encoding policy for [`encode_delta`]: whether delta frames may be
/// emitted at all, and whether their fingerprints are deliberately
/// perturbed (a test/bench knob that forces the miss→NAK fallback while
/// leaving every correctness property intact).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaPolicy {
    /// Emit delta frames when a version's origin matches the assumed
    /// context (otherwise every version ships full).
    pub delta_frames: bool,
    /// XOR a mask into every emitted delta-frame fingerprint so the
    /// receiver's genuine comparison misses.
    pub perturb_fingerprints: bool,
}

impl DeltaPolicy {
    /// The adaptive default: delta frames on, honest fingerprints.
    pub const ADAPTIVE: DeltaPolicy =
        DeltaPolicy { delta_frames: true, perturb_fingerprints: false };
    /// Full frames only — the pre-delta wire format, kept as the
    /// benchmark baseline and the NAK-refetch response policy.
    pub const FULL_ONLY: DeltaPolicy =
        DeltaPolicy { delta_frames: false, perturb_fingerprints: false };
}

/// The mask [`DeltaPolicy::perturb_fingerprints`] XORs into emitted
/// fingerprints.
pub(crate) const PERTURB_MASK: u64 = 0x5A5A_5A5A_5A5A_5A5A;

/// Frame counters of one [`encode_delta`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaEncodeStats {
    /// Versions emitted as delta frames (dot + fingerprint).
    pub delta_frames: usize,
    /// Versions emitted as full clock frames.
    pub full_frames: usize,
    /// Bytes the delta frames saved versus shipping their full clock
    /// frames (the adaptive check keeps every term non-negative).
    pub bytes_saved: usize,
    /// Total bytes of the clock frames actually emitted (full and delta),
    /// kind bytes and length prefixes included — `frame_bytes /
    /// (delta_frames + full_frames)` is the mean clock bytes shipped per
    /// replicated version.
    pub frame_bytes: usize,
    /// The delta frames' share of `frame_bytes` — `delta_frame_bytes /
    /// delta_frames` is the mean size of a delta frame (the O(1) figure),
    /// and adding `bytes_saved` recovers their full-frame cost.
    pub delta_frame_bytes: usize,
}

/// Encodes a digest-root probe payload: the 8-byte root fingerprint.
#[must_use]
pub fn encode_probe(root: u64) -> Vec<u8> {
    root.to_le_bytes().to_vec()
}

/// Decodes a digest-root probe payload.
///
/// # Errors
///
/// Returns a [`DecodeError`] unless the payload is exactly 8 bytes.
pub fn decode_probe(bytes: &[u8]) -> Result<u64, DecodeError> {
    let root: [u8; 8] =
        bytes.try_into().map_err(|_| DecodeError::Malformed("probe is not 8 bytes"))?;
    Ok(u64::from_le_bytes(root))
}

/// Finest bucket level of a scoped exchange: `2^8` buckets, the resolution
/// every data plane maintains. A `Miss` or digest trailer claiming more is
/// malformed.
pub const MAX_BUCKET_LEVEL: u8 = 8;

/// Encodes a probe-miss payload: empty at level 0 (the requester sends its
/// full digest), else `[level][2^level × u64 LE]` — the responder's bucket
/// sums folded to `level`.
#[must_use]
pub fn encode_miss(level: u8, sums: &[u64]) -> Vec<u8> {
    if level == 0 {
        return Vec::new();
    }
    debug_assert_eq!(sums.len(), 1 << level);
    let mut out = Vec::with_capacity(1 + 8 * sums.len());
    out.push(level);
    for sum in sums {
        out.extend_from_slice(&sum.to_le_bytes());
    }
    out
}

/// Decodes a probe-miss payload into its level and bucket sums (level 0
/// and no sums for an empty payload). The level is checked before
/// anything is allocated, so a peer can never make this hold more than
/// `2^8` sums.
///
/// # Errors
///
/// Returns a [`DecodeError`] for a level of 0 or above
/// [`MAX_BUCKET_LEVEL`], or a length other than `1 + 8 · 2^level`.
pub fn decode_miss(bytes: &[u8]) -> Result<(u8, Vec<u64>), DecodeError> {
    let Some((&level, sums)) = bytes.split_first() else { return Ok((0, Vec::new())) };
    if level == 0 || level > MAX_BUCKET_LEVEL {
        return Err(DecodeError::Malformed("miss bucket level out of range"));
    }
    if sums.len() != 8 << level {
        return Err(DecodeError::Malformed("miss holds the wrong number of bucket sums"));
    }
    let sums = sums
        .chunks_exact(8)
        .map(|sum| u64::from_le_bytes(sum.try_into().expect("chunks of 8")))
        .collect();
    Ok((level, sums))
}

/// A set of digest buckets at one level (`1..=`[`MAX_BUCKET_LEVEL`]): the
/// scope of a digest that lists only the keys of buckets whose sums
/// differ. Bucket `i` is bit `i % 8` of byte `i / 8`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketMask {
    level: u8,
    bits: Vec<u8>,
}

impl BucketMask {
    /// The empty mask at `level`.
    ///
    /// # Panics
    ///
    /// If `level` is 0 or above [`MAX_BUCKET_LEVEL`].
    #[must_use]
    pub fn empty(level: u8) -> Self {
        assert!((1..=MAX_BUCKET_LEVEL).contains(&level), "bucket level {level} out of range");
        BucketMask { level, bits: vec![0; mask_len(level)] }
    }

    /// The mask's bucket level.
    #[must_use]
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Adds bucket `bucket` (below `2^level`).
    pub fn insert(&mut self, bucket: usize) {
        self.bits[bucket / 8] |= 1 << (bucket % 8);
    }

    /// Whether bucket `bucket` is in the mask.
    #[must_use]
    pub fn contains(&self, bucket: usize) -> bool {
        self.bits.get(bucket / 8).is_some_and(|byte| byte & (1 << (bucket % 8)) != 0)
    }

    /// Whether no bucket is in the mask.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&byte| byte == 0)
    }
}

/// Bytes of a bucket mask at `level`: `⌈2^level / 8⌉`.
fn mask_len(level: u8) -> usize {
    (1usize << level).div_ceil(8)
}

/// Encodes a digest message payload.
#[must_use]
pub fn encode_digest(entries: &[DigestEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, entries.len() as u64);
    for entry in entries {
        write_frame(&mut out, entry.key.as_bytes());
        write_varint(&mut out, entry.fingerprint);
        out.extend_from_slice(&entry.ctx_fp.to_le_bytes());
    }
    out
}

/// Encodes a digest scoped to `scope`'s buckets: the [`encode_digest`]
/// bytes followed by the trailer `[level][mask]`. Without a scope it is
/// exactly [`encode_digest`] — a full digest.
#[must_use]
pub fn encode_digest_scoped(entries: &[DigestEntry], scope: Option<&BucketMask>) -> Vec<u8> {
    let mut out = encode_digest(entries);
    if let Some(mask) = scope {
        out.push(mask.level);
        out.extend_from_slice(&mask.bits);
    }
    out
}

/// Decodes a digest message payload.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or malformed input, or on bytes
/// after the last entry.
pub fn decode_digest(bytes: &[u8]) -> Result<Vec<DigestEntry>, DecodeError> {
    let (entries, rest) = decode_digest_prefix(bytes)?;
    if !rest.is_empty() {
        return Err(DecodeError::TrailingData);
    }
    Ok(entries)
}

/// Decodes a digest that may carry a bucket-mask trailer (see
/// [`encode_digest_scoped`]); no trailer means a full digest.
///
/// # Errors
///
/// Returns a [`DecodeError`] on a malformed digest, a trailer level of 0
/// or above [`MAX_BUCKET_LEVEL`], a mask of the wrong length, or mask bits
/// set beyond bucket `2^level − 1`.
pub fn decode_digest_scoped(
    bytes: &[u8],
) -> Result<(Vec<DigestEntry>, Option<BucketMask>), DecodeError> {
    let (entries, rest) = decode_digest_prefix(bytes)?;
    let Some((&level, bits)) = rest.split_first() else { return Ok((entries, None)) };
    if level == 0 || level > MAX_BUCKET_LEVEL {
        return Err(DecodeError::Malformed("digest trailer level out of range"));
    }
    if bits.len() != mask_len(level) {
        return Err(DecodeError::Malformed("digest trailer mask has the wrong length"));
    }
    // Levels below 3 use only the low 2^level bits of the single byte.
    if level < 3 && bits[0] >> (1 << level) != 0 {
        return Err(DecodeError::Malformed("digest trailer marks a bucket beyond its level"));
    }
    Ok((entries, Some(BucketMask { level, bits: bits.to_vec() })))
}

/// Decodes the entries of a digest payload, returning the bytes after the
/// last one.
fn decode_digest_prefix(bytes: &[u8]) -> Result<(Vec<DigestEntry>, &[u8]), DecodeError> {
    let mut input = bytes;
    let count = read_varint(&mut input)?;
    let mut entries = Vec::with_capacity(count.min(1 << 16) as usize);
    for _ in 0..count {
        let key_bytes = read_frame(&mut input)?;
        let key = String::from_utf8(key_bytes.to_vec())
            .map_err(|_| DecodeError::Malformed("key is not valid UTF-8"))?;
        let fingerprint = read_varint(&mut input)?;
        if input.len() < 8 {
            return Err(DecodeError::UnexpectedEnd);
        }
        let (fp_bytes, rest) = input.split_at(8);
        input = rest;
        let ctx_fp = u64::from_le_bytes(fp_bytes.try_into().expect("split_at(8) yields 8"));
        entries.push(DigestEntry { key, fingerprint, ctx_fp });
    }
    Ok((entries, input))
}

/// Encodes a NAK payload: the keys whose delta frames missed.
#[must_use]
pub fn encode_nak(keys: &[Key]) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, keys.len() as u64);
    for key in keys {
        write_frame(&mut out, key.as_bytes());
    }
    out
}

/// Decodes a NAK payload.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or malformed input.
pub fn decode_nak(bytes: &[u8]) -> Result<Vec<Key>, DecodeError> {
    let mut input = bytes;
    let count = read_varint(&mut input)?;
    let mut keys = Vec::with_capacity(count.min(1 << 16) as usize);
    for _ in 0..count {
        let key_bytes = read_frame(&mut input)?;
        keys.push(
            String::from_utf8(key_bytes.to_vec())
                .map_err(|_| DecodeError::Malformed("key is not valid UTF-8"))?,
        );
    }
    if !input.is_empty() {
        return Err(DecodeError::TrailingData);
    }
    Ok(keys)
}

/// Encodes a delta message payload with the backend's codec, picking full
/// versus delta per version: a version ships as a delta frame when the
/// policy allows it, its mint-time context fingerprint equals the key's
/// `assumed_fp`, *and* the delta frame is actually smaller. Full clock
/// frames reuse each version's cached canonical bytes, delta frames its
/// cached dot bytes — nothing is re-encoded.
#[must_use]
pub fn encode_delta<B: StoreBackend>(
    backend: &B,
    deltas: &[KeyDelta<B>],
    policy: DeltaPolicy,
) -> (Vec<u8>, DeltaEncodeStats) {
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    let mut stats = DeltaEncodeStats::default();
    let fp_mask = if policy.perturb_fingerprints { PERTURB_MASK } else { 0 };
    write_varint(&mut out, deltas.len() as u64);
    for delta in deltas {
        write_frame(&mut out, delta.key.as_bytes());
        scratch.clear();
        backend.encode_element(&delta.element, &mut scratch);
        write_frame(&mut out, &scratch);
        write_varint(&mut out, delta.versions.len() as u64);
        for version in &delta.versions {
            let full = DeltaFrame::Full { clock: version.clock_bytes() };
            let slim = policy
                .delta_frames
                .then(|| version.origin())
                .flatten()
                .filter(|origin| origin.ctx_fp == delta.assumed_fp)
                .map(|origin| DeltaFrame::Delta {
                    dot: &origin.dot_bytes,
                    ctx_fp: origin.ctx_fp ^ fp_mask,
                })
                .filter(|frame| frame.encoded_len() < full.encoded_len());
            match slim {
                Some(frame) => {
                    stats.delta_frames += 1;
                    stats.bytes_saved += full.encoded_len() - frame.encoded_len();
                    stats.frame_bytes += frame.encoded_len();
                    stats.delta_frame_bytes += frame.encoded_len();
                    write_delta_frame(&mut out, &frame);
                }
                None => {
                    stats.full_frames += 1;
                    stats.frame_bytes += full.encoded_len();
                    write_delta_frame(&mut out, &full);
                }
            }
            match &version.version().value {
                Some(value) => {
                    out.push(1);
                    write_frame(&mut out, value);
                }
                None => out.push(0),
            }
        }
    }
    (out, stats)
}

/// Decodes a delta message payload with the backend's codec. Full frames
/// come back as ready [`StoredVersion`]s (the validated clock frame is
/// retained as the cached canonical bytes — the receive path never
/// re-encodes a clock); delta frames come back as decoded dots awaiting
/// context reconstruction in the store's apply path.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or malformed input (including
/// malformed embedded clocks, dots or elements).
pub fn decode_delta<B: StoreBackend>(
    backend: &B,
    bytes: &[u8],
) -> Result<Vec<WireKeyDelta<B>>, DecodeError> {
    let mut input = bytes;
    let count = read_varint(&mut input)?;
    let mut deltas = Vec::with_capacity(count.min(1 << 16) as usize);
    for _ in 0..count {
        let key_bytes = read_frame(&mut input)?;
        let key = String::from_utf8(key_bytes.to_vec())
            .map_err(|_| DecodeError::Malformed("key is not valid UTF-8"))?;
        let element = backend.decode_element(read_frame(&mut input)?)?;
        let version_count = read_varint(&mut input)?;
        let mut versions = Vec::with_capacity(version_count.min(1 << 16) as usize);
        for _ in 0..version_count {
            let frame = read_delta_frame(&mut input)?;
            let version = match frame {
                DeltaFrame::Full { clock: clock_frame } => {
                    let clock = backend.decode_clock(clock_frame)?;
                    let value = decode_value_flag(&mut input)?;
                    WireVersion::Full(StoredVersion::with_clock_bytes(
                        Version { clock, value },
                        Arc::from(clock_frame),
                        None,
                    ))
                }
                DeltaFrame::Delta { dot: dot_frame, ctx_fp } => {
                    let dot = backend.decode_clock(dot_frame)?;
                    let value = decode_value_flag(&mut input)?;
                    WireVersion::Delta { dot, dot_bytes: Arc::from(dot_frame), ctx_fp, value }
                }
            };
            versions.push(version);
        }
        deltas.push(WireKeyDelta { key, element, versions });
    }
    if !input.is_empty() {
        return Err(DecodeError::TrailingData);
    }
    Ok(deltas)
}

fn decode_value_flag(input: &mut &[u8]) -> Result<Option<Value>, DecodeError> {
    let (flag, rest) = input.split_first().ok_or(DecodeError::UnexpectedEnd)?;
    let flag = *flag;
    *input = rest;
    match flag {
        0 => Ok(None),
        1 => Ok(Some(read_frame(input)?.to_vec())),
        _ => Err(DecodeError::Malformed("unknown version flag")),
    }
}

/// Reconstructs a delta-frame version against the receiver's sibling-set
/// context: `clock = context ⊔ dot`, with the dot bytes and fingerprint
/// retained as the version's [`DeltaOrigin`] so it can ride the wire as a
/// delta again on the next hop.
#[must_use]
pub fn rebuild_wire_version<B: StoreBackend>(
    backend: &B,
    context: Option<&B::Clock>,
    dot: &B::Clock,
    dot_bytes: Arc<[u8]>,
    ctx_fp: u64,
    value: Option<Value>,
) -> StoredVersion<B> {
    let clock = backend.rebuild_clock(context, dot);
    StoredVersion::new_with_origin(
        backend,
        Version { clock, value },
        Some(DeltaOrigin { dot_bytes, ctx_fp }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{DynamicVvBackend, VstampBackend};

    #[test]
    fn digest_roundtrip_and_rejections() {
        let entries = vec![
            DigestEntry { key: "cart:alice".into(), fingerprint: 0xDEAD_BEEF, ctx_fp: 42 },
            DigestEntry { key: "π-keys".into(), fingerprint: u64::MAX, ctx_fp: u64::MAX },
            DigestEntry { key: String::new(), fingerprint: 0, ctx_fp: 0 },
        ];
        let bytes = encode_digest(&entries);
        assert_eq!(decode_digest(&bytes).unwrap(), entries);
        assert!(decode_digest(&bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(9);
        assert_eq!(decode_digest(&trailing), Err(DecodeError::TrailingData));
        assert_eq!(decode_digest(&[]), Err(DecodeError::UnexpectedEnd));
    }

    #[test]
    fn miss_and_scoped_digest_roundtrip_and_rejections() {
        assert_eq!(encode_miss(0, &[7]), Vec::<u8>::new());
        assert_eq!(decode_miss(&[]), Ok((0, Vec::new())));
        let sums: Vec<u64> = (0..32).map(|i| i * 0x0101_0101_0101).collect();
        let bytes = encode_miss(5, &sums);
        assert_eq!(bytes.len(), 1 + 8 * 32);
        assert_eq!(decode_miss(&bytes), Ok((5, sums)));
        assert!(decode_miss(&bytes[..bytes.len() - 1]).is_err());

        let entries = vec![DigestEntry { key: "k".into(), fingerprint: 3, ctx_fp: 4 }];
        assert_eq!(encode_digest_scoped(&entries, None), encode_digest(&entries));
        assert_eq!(decode_digest_scoped(&encode_digest(&entries)), Ok((entries.clone(), None)));
        let mut mask = BucketMask::empty(4);
        assert!(mask.is_empty());
        mask.insert(0);
        mask.insert(13);
        assert!(mask.contains(13) && !mask.contains(12) && !mask.contains(16));
        let bytes = encode_digest_scoped(&entries, Some(&mask));
        assert_eq!(bytes.len(), encode_digest(&entries).len() + 3);
        assert_eq!(decode_digest_scoped(&bytes), Ok((entries, Some(mask))));
        // The plain decoder still treats a trailer as trailing data.
        assert_eq!(decode_digest(&bytes), Err(DecodeError::TrailingData));
    }

    #[test]
    fn envelope_roundtrip_matches_modeled_length() {
        let kinds = [
            MessageKind::Probe,
            MessageKind::Ack,
            MessageKind::Miss,
            MessageKind::Digest,
            MessageKind::Delta,
            MessageKind::Nak,
            MessageKind::Join,
            MessageKind::JoinAck,
            MessageKind::Get,
            MessageKind::GetOk,
            MessageKind::Put,
            MessageKind::PutOk,
            MessageKind::Status,
            MessageKind::StatusOk,
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            assert_eq!(MessageKind::from_tag(kind.tag()), Some(kind));
            let envelope = Envelope { from: i * 131, kind, payload: vec![0xAB; i * 37] };
            let bytes = encode_envelope(&envelope);
            assert_eq!(bytes.len(), envelope_len(envelope.from, envelope.payload.len()));
            let decoded = decode_envelope(&bytes).unwrap();
            assert_eq!(decoded.from, envelope.from);
            assert_eq!(decoded.kind, envelope.kind);
            assert_eq!(decoded.payload, envelope.payload);
            assert!(decode_envelope(&bytes[..bytes.len() - 1]).is_err());
        }
        assert_eq!(MessageKind::from_tag(14), None);
        assert!(decode_envelope(&[]).is_err());
        assert!(decode_envelope(&[200, 0, 0]).is_err(), "unknown tag must be rejected");
        let mut trailing =
            encode_envelope(&Envelope { from: 0, kind: MessageKind::Ack, payload: Vec::new() });
        trailing.push(0);
        assert_eq!(decode_envelope(&trailing), Err(DecodeError::TrailingData));
    }

    #[test]
    fn nak_roundtrip_and_rejections() {
        let keys: Vec<Key> = vec!["a".into(), "π".into(), String::new()];
        let bytes = encode_nak(&keys);
        assert_eq!(decode_nak(&bytes).unwrap(), keys);
        assert!(decode_nak(&bytes[..bytes.len() - 2]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(decode_nak(&trailing), Err(DecodeError::TrailingData));
    }

    #[test]
    fn delta_roundtrip_both_backends_full_frames() {
        let backend = VstampBackend::gc();
        let (mut state, elements) = backend.new_key(2);
        let (element, clock, _) = backend.write(&mut state, &elements[0], None);
        let deltas = vec![KeyDelta::<VstampBackend> {
            key: "k".into(),
            element,
            versions: vec![
                StoredVersion::new(
                    &backend,
                    Version { clock: clock.clone(), value: Some(b"hello".to_vec()) },
                ),
                StoredVersion::new(&backend, Version { clock, value: None }),
            ],
            assumed_fp: 0,
        }];
        let (bytes, stats) = encode_delta(&backend, &deltas, DeltaPolicy::ADAPTIVE);
        // No origins on hand-built versions: everything ships full.
        assert_eq!((stats.delta_frames, stats.full_frames, stats.bytes_saved), (0, 2, 0));
        assert!(stats.frame_bytes > 0);
        let decoded = decode_delta(&backend, &bytes).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].key, deltas[0].key);
        assert_eq!(decoded[0].element, deltas[0].element);
        for (wire, sent) in decoded[0].versions.iter().zip(&deltas[0].versions) {
            assert_eq!(*wire, WireVersion::Full(sent.clone()));
        }
        for cut in 1..bytes.len() {
            assert!(
                decode_delta(&backend, &bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }

        let dv = DynamicVvBackend::new();
        let (mut state, elements) = dv.new_key(2);
        let (element, clock, _) = dv.write(&mut state, &elements[1], None);
        let deltas = vec![KeyDelta::<DynamicVvBackend> {
            key: "vv".into(),
            element,
            versions: vec![StoredVersion::new(&dv, Version { clock, value: Some(vec![1, 2, 3]) })],
            assumed_fp: 0,
        }];
        let (bytes, _) = encode_delta(&dv, &deltas, DeltaPolicy::ADAPTIVE);
        let decoded = decode_delta(&dv, &bytes).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].versions[0], WireVersion::Full(deltas[0].versions[0].clone()));
    }

    #[test]
    fn delta_frames_ride_when_fingerprints_match_and_rebuild_byte_equal() {
        for (label, backend) in
            [("stamps-gc", VstampBackend::gc()), ("stamps-eager", VstampBackend::eager())]
        {
            let (mut state, elements) = backend.new_key(2);
            // Seed version minted against an empty (None) context.
            let (_, c0, d0) = backend.write(&mut state, &elements[0], None);
            let mut d0_bytes = Vec::new();
            backend.encode_clock(&d0, &mut d0_bytes);
            let v0 = StoredVersion::new_with_origin(
                &backend,
                Version { clock: c0.clone(), value: Some(b"x".to_vec()) },
                Some(DeltaOrigin { dot_bytes: d0_bytes.into(), ctx_fp: 7 }),
            );
            let deltas = vec![KeyDelta {
                key: "k".into(),
                element: elements[1].clone(),
                versions: vec![v0.clone()],
                assumed_fp: 7,
            }];
            let (bytes, stats) = encode_delta(&backend, &deltas, DeltaPolicy::ADAPTIVE);
            // A singleton dot equals its clock here, so the delta frame (dot
            // + 8-byte fp) is *larger* than the full frame and the adaptive
            // size check keeps the full form — verify that, then check the
            // genuinely-smaller case below with a joined clock.
            assert_eq!(stats.delta_frames + stats.full_frames, 1, "{label}");
            let decoded = decode_delta(&backend, &bytes).unwrap();
            assert_eq!(decoded[0].versions.len(), 1, "{label}");

            // Second write against the first as context: the clock is a
            // join, the dot a singleton — delta frame strictly smaller once
            // the clock outgrows dot + fingerprint.
            let (_, c1, d1) = backend.write(&mut state, &elements[0], Some(&c0));
            let mut d1_bytes = Vec::new();
            backend.encode_clock(&d1, &mut d1_bytes);
            let v1 = StoredVersion::new_with_origin(
                &backend,
                Version { clock: c1.clone(), value: Some(b"y".to_vec()) },
                Some(DeltaOrigin { dot_bytes: d1_bytes.into(), ctx_fp: 9 }),
            );
            let deltas = vec![KeyDelta {
                key: "k".into(),
                element: elements[1].clone(),
                versions: vec![v1.clone()],
                assumed_fp: 9,
            }];
            let (bytes, stats) = encode_delta(&backend, &deltas, DeltaPolicy::ADAPTIVE);
            if stats.delta_frames == 1 {
                assert!(stats.bytes_saved > 0, "{label}: adaptive check implies savings");
                let decoded = decode_delta(&backend, &bytes).unwrap();
                let WireVersion::Delta { dot, dot_bytes, ctx_fp, value } = &decoded[0].versions[0]
                else {
                    panic!("{label}: expected delta frame");
                };
                assert_eq!(*ctx_fp, 9, "{label}");
                // Reconstruction against the mint context is byte-equal.
                let rebuilt = rebuild_wire_version(
                    &backend,
                    Some(&c0),
                    dot,
                    Arc::clone(dot_bytes),
                    *ctx_fp,
                    value.clone(),
                );
                assert_eq!(rebuilt.clock_bytes(), v1.clock_bytes(), "{label}");
                assert_eq!(rebuilt.clock(), &c1, "{label}");
            }

            // Mismatched assumed_fp: falls back to a full frame.
            let mut missed = deltas.clone();
            missed[0].assumed_fp = 8;
            let (_, missed_stats) = encode_delta(&backend, &missed, DeltaPolicy::ADAPTIVE);
            assert_eq!(missed_stats.delta_frames, 0, "{label}");
            assert_eq!(missed_stats.full_frames, 1, "{label}");

            // FULL_ONLY policy: never a delta frame.
            let (_, full_stats) = encode_delta(&backend, &deltas, DeltaPolicy::FULL_ONLY);
            assert_eq!(full_stats.delta_frames, 0, "{label}");

            // Perturbed fingerprints still emit delta frames (when the size
            // check allows), but carry a flipped fp the receiver will miss.
            let (bytes, perturbed_stats) = encode_delta(
                &backend,
                &deltas,
                DeltaPolicy { delta_frames: true, perturb_fingerprints: true },
            );
            if perturbed_stats.delta_frames == 1 {
                let decoded = decode_delta(&backend, &bytes).unwrap();
                let WireVersion::Delta { ctx_fp, .. } = &decoded[0].versions[0] else {
                    panic!("{label}: expected delta frame");
                };
                assert_ne!(*ctx_fp, 9, "{label}: perturbation must change the fp");
            }
        }
    }

    #[test]
    fn dvv_delta_frames_rebuild_value_equal() {
        let dv = DynamicVvBackend::new();
        let (mut state, elements) = dv.new_key(8);
        // Grow the context across distinct actors so the full clock (dot +
        // multi-entry vector) is strictly larger than dot + fingerprint.
        let (_, mut c0, _) = dv.write(&mut state, &elements[0], None);
        for element in &elements[1..7] {
            let (_, next, _) = dv.write(&mut state, element, Some(&c0));
            c0 = next;
        }
        let (_, c1, d1) = dv.write(&mut state, &elements[7], Some(&c0));
        let mut d1_bytes = Vec::new();
        dv.encode_clock(&d1, &mut d1_bytes);
        let v1 = StoredVersion::new_with_origin(
            &dv,
            Version { clock: c1.clone(), value: Some(b"y".to_vec()) },
            Some(DeltaOrigin { dot_bytes: d1_bytes.into(), ctx_fp: 3 }),
        );
        let deltas = vec![KeyDelta {
            key: "k".into(),
            element: elements[0].clone(),
            versions: vec![v1.clone()],
            assumed_fp: 3,
        }];
        let (bytes, stats) = encode_delta(&dv, &deltas, DeltaPolicy::ADAPTIVE);
        assert_eq!(stats.delta_frames, 1);
        let decoded = decode_delta(&dv, &bytes).unwrap();
        let WireVersion::Delta { dot, dot_bytes, ctx_fp, value } = &decoded[0].versions[0] else {
            panic!("expected delta frame");
        };
        let rebuilt = rebuild_wire_version(
            &dv,
            Some(&c0),
            dot,
            Arc::clone(dot_bytes),
            *ctx_fp,
            value.clone(),
        );
        assert_eq!(rebuilt.clock(), &c1);
        assert_eq!(rebuilt.clock_bytes(), v1.clock_bytes());
    }
}
