//! Core store types: versions, cached-order sibling sets and the
//! per-replica sharded data plane.
//!
//! Each key holds a **sibling set** — a DVV-style antichain of
//! `(clock, value)` pairs, one per causally-concurrent write — plus the
//! replica's *element*, the per-`(key, replica)` handle in the backend's
//! fork/join/update lifecycle. The sibling-merge rule is the classic one:
//! an incoming version is discarded when a stored clock strictly dominates
//! it, it evicts every stored version its clock dominates, and clock-equal
//! versions deduplicate with a deterministic value tie-break so concurrent
//! merges converge.
//!
//! # Cached order
//!
//! Stored versions are shared ([`StoredVersion`] wraps an
//! `Arc<Version>` plus its canonical clock bytes), and the sibling set
//! memoizes everything the hot paths used to re-derive per call:
//!
//! * the **joined context clock** (what `get` returns and what a follow-up
//!   `put` carries) is maintained incrementally — one clock join per
//!   insertion — instead of a fold over the whole set per read;
//! * each version's **canonical clock bytes** are encoded exactly once;
//!   digests, deltas and the convergence snapshot borrow them;
//! * the per-set **order-independent hash** of those bytes is maintained
//!   in O(1) per mutation, making the anti-entropy fingerprint a constant
//!   amount of hashing per key instead of a re-encode of every sibling;
//! * the **pairwise partial order** of stored siblings is an invariant,
//!   not a cache: the merge rule keeps the set an antichain (all pairs
//!   concurrent), so the dominance matrix degenerates to two memoized
//!   fast paths — byte-equal clocks short-circuit to `Equal` with all
//!   other relations known (`Concurrent`), and a `put` whose context
//!   equals the cached set context supersedes every sibling with **zero**
//!   relation checks (its fresh dot makes the domination strict);
//! * the whole set is published as an **`Arc`-swapped [`KeySnapshot`]**
//!   rebuilt once per mutation, so a causal `get` under concurrency is one
//!   `Arc` clone under a briefly-held shard read lock — contention-free
//!   against writers on other keys of the shard and copy-free always.
//!
//! # Digest summary
//!
//! Each key caches its anti-entropy fingerprint, and each replica's data
//! plane keeps 256 bucket sums over its keys: a key lands in the bucket
//! named by the top 8 bits of its mixed key hash (never by its shard, so
//! replicas with different shard counts agree) and adds a hash of
//! `(key, fingerprint)` to that bucket's wrapping sum. The digest root is
//! a hash over the 256 sums, and a scoped exchange compares sums folded to
//! fewer bits to find the buckets that differ. The shard maps are only
//! writable through `ShardWrite` and `KeyMut`, which reseal the
//! fingerprint and move the bucket sum on every mutation, so a stale sum
//! (and with it a false "in sync") cannot be written without failing to
//! compile.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use vstamp_core::Relation;

use crate::backend::StoreBackend;

/// Key type of the store.
pub type Key = String;

/// Value type of the store (opaque bytes).
pub type Value = Vec<u8>;

/// One stored version: its causal clock and its value (`None` marks a
/// tombstone left by a delete).
#[derive(Debug)]
pub struct Version<B: StoreBackend> {
    /// The causal history of the write that produced this version.
    pub clock: B::Clock,
    /// The written value; `None` is a delete tombstone.
    pub value: Option<Value>,
}

// Manual impls: derive would demand `B: Clone`/`B: PartialEq` although only
// the associated types appear in the fields.
impl<B: StoreBackend> Clone for Version<B> {
    fn clone(&self) -> Self {
        Version { clock: self.clock.clone(), value: self.value.clone() }
    }
}

impl<B: StoreBackend> PartialEq for Version<B> {
    fn eq(&self, other: &Self) -> bool {
        self.clock == other.clock && self.value == other.value
    }
}

/// Delta provenance of a stored version: the encoded dot it was minted
/// from and the fingerprint of the context it was minted against (the
/// writing replica's sibling-set hash at mint time). Versions carrying an
/// origin can ride the wire as delta frames — dot plus fingerprint — and be
/// reconstructed as `context ⊔ dot` by any receiver whose sibling set
/// matches the fingerprint. Versions without one (stale-context writes,
/// merged/reminted survivors, full-frame decodes) always ship full clocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaOrigin {
    /// Canonical encoded bytes of the minting dot (a standalone clock).
    pub dot_bytes: Arc<[u8]>,
    /// Sibling-set fingerprint of the mint-time context (the sibling
    /// set's `versions_hash`, order-independent and O(1)-maintained).
    pub ctx_fp: u64,
}

/// A shared stored version: the version behind an `Arc` (shipping a
/// sibling set in a delta bumps refcounts instead of deep-copying values)
/// plus its canonical clock bytes and content hash, both computed exactly
/// once when the version enters the cluster (local write or wire decode),
/// and — when the version was minted against a known context — its delta
/// origin for adaptive wire encoding.
#[derive(Debug)]
pub struct StoredVersion<B: StoreBackend> {
    version: Arc<Version<B>>,
    clock_bytes: Arc<[u8]>,
    hash: u64,
    origin: Option<DeltaOrigin>,
}

impl<B: StoreBackend> StoredVersion<B> {
    /// Wraps a locally-created version, encoding its clock with the
    /// backend codec.
    pub fn new(backend: &B, version: Version<B>) -> Self {
        Self::new_with_origin(backend, version, None)
    }

    /// Wraps a locally-created version together with its delta origin.
    pub fn new_with_origin(backend: &B, version: Version<B>, origin: Option<DeltaOrigin>) -> Self {
        let mut bytes = Vec::new();
        backend.encode_clock(&version.clock, &mut bytes);
        Self::with_clock_bytes(version, bytes.into(), origin)
    }

    /// Wraps a version decoded from the wire, reusing the already-validated
    /// clock frame instead of re-encoding (the codec is canonical, so the
    /// frame equals the local encoding byte for byte).
    pub(crate) fn with_clock_bytes(
        version: Version<B>,
        clock_bytes: Arc<[u8]>,
        origin: Option<DeltaOrigin>,
    ) -> Self {
        let hash = version_hash(&clock_bytes, version.value.as_deref());
        StoredVersion { version: Arc::new(version), clock_bytes, hash, origin }
    }

    /// The version's delta origin, if it is delta-eligible.
    #[must_use]
    pub fn origin(&self) -> Option<&DeltaOrigin> {
        self.origin.as_ref()
    }

    /// The stored version.
    #[must_use]
    pub fn version(&self) -> &Version<B> {
        &self.version
    }

    /// The version's clock.
    #[must_use]
    pub fn clock(&self) -> &B::Clock {
        &self.version.clock
    }

    /// The canonical wire bytes of the clock (encoded once, borrowed by
    /// digests, deltas and fingerprints).
    #[must_use]
    pub fn clock_bytes(&self) -> &[u8] {
        &self.clock_bytes
    }

    /// Content hash of this version (clock bytes plus value), the unit the
    /// sibling-set hash sums and the per-version digest entries ship.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        self.hash
    }

    /// Canonical byte form of the whole version (clock bytes, tombstone
    /// flag, value) — the convergence-snapshot unit.
    pub(crate) fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.clock_bytes.len() + 10);
        out.extend_from_slice(&(self.clock_bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.clock_bytes);
        out.push(u8::from(self.version.value.is_some()));
        if let Some(value) = &self.version.value {
            out.extend_from_slice(value);
        }
        out
    }
}

impl<B: StoreBackend> Clone for StoredVersion<B> {
    fn clone(&self) -> Self {
        StoredVersion {
            version: Arc::clone(&self.version),
            clock_bytes: Arc::clone(&self.clock_bytes),
            hash: self.hash,
            origin: self.origin.clone(),
        }
    }
}

impl<B: StoreBackend> PartialEq for StoredVersion<B> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && *self.version == *other.version
    }
}

/// Content hash of one version, combined order-independently into the
/// sibling-set fingerprint (so the fingerprint never needs a sort).
fn version_hash(clock_bytes: &[u8], value: Option<&[u8]>) -> u64 {
    let mut hash = fnv1a_extend(FNV_OFFSET, &(clock_bytes.len() as u64).to_le_bytes());
    hash = fnv1a_extend(hash, clock_bytes);
    match value {
        Some(value) => fnv1a_extend(fnv1a_extend(hash, &[1]), value),
        None => fnv1a_extend(hash, &[0]),
    }
}

/// An immutable point-in-time view of one key's sibling set: the stored
/// versions (shared `Arc` handles, no copies) plus the set's joined
/// context clock.
///
/// The sibling set maintains one of these behind an `Arc` and swaps it on
/// every mutation, so a causal `get` is a single `Arc` clone under a
/// briefly-held shard read lock — it never takes a write lock, folds a
/// context, or clones a version, and the view it returns stays coherent
/// however many writes land afterwards.
#[derive(Debug)]
pub struct KeySnapshot<B: StoreBackend> {
    versions: Vec<StoredVersion<B>>,
    context: B::Clock,
}

impl<B: StoreBackend> KeySnapshot<B> {
    /// Every stored version of the key at snapshot time, tombstones
    /// included.
    #[must_use]
    pub fn versions(&self) -> &[StoredVersion<B>] {
        &self.versions
    }

    /// The joined context clock of the whole set (what a follow-up `put`
    /// carries to supersede it).
    #[must_use]
    pub fn context(&self) -> &B::Clock {
        &self.context
    }
}

/// The outcome of a causal `get`: a shared [`KeySnapshot`] of the sibling
/// set, or nothing when the key is absent at this replica.
#[derive(Debug)]
pub struct GetResult<B: StoreBackend> {
    snapshot: Option<Arc<KeySnapshot<B>>>,
}

impl<B: StoreBackend> GetResult<B> {
    pub(crate) fn new(snapshot: Option<Arc<KeySnapshot<B>>>) -> Self {
        GetResult { snapshot }
    }

    /// The underlying shared snapshot (`None` when the key is absent).
    #[must_use]
    pub fn snapshot(&self) -> Option<&Arc<KeySnapshot<B>>> {
        self.snapshot.as_ref()
    }

    /// Live (non-tombstone) sibling values, one per concurrent write.
    /// Allocates a fresh vector; the borrow-based
    /// [`GetResult::iter_values`] is the hot-path accessor.
    #[must_use]
    pub fn values(&self) -> Vec<Value> {
        self.iter_values().map(<[u8]>::to_vec).collect()
    }

    /// Borrowing iterator over the live sibling values.
    pub fn iter_values(&self) -> impl Iterator<Item = &[u8]> {
        self.snapshot
            .iter()
            .flat_map(|snapshot| snapshot.versions.iter())
            .filter_map(|version| version.version().value.as_deref())
    }

    /// Number of live (non-tombstone) siblings.
    #[must_use]
    pub fn live_len(&self) -> usize {
        self.iter_values().count()
    }

    /// Join of every stored sibling clock (tombstones included), or `None`
    /// when the key is absent at this replica — the causal context a
    /// follow-up `put` should carry.
    #[must_use]
    pub fn context(&self) -> Option<&B::Clock> {
        self.snapshot.as_ref().map(|snapshot| &snapshot.context)
    }
}

impl<B: StoreBackend> Clone for GetResult<B> {
    fn clone(&self) -> Self {
        GetResult { snapshot: self.snapshot.clone() }
    }
}

/// The sibling set of one key at one replica, with the cached order state
/// described in the [module docs](self).
#[derive(Debug)]
pub(crate) struct SiblingSet<B: StoreBackend> {
    versions: Vec<StoredVersion<B>>,
    /// Cached join of every stored clock; `None` iff the set is empty.
    context: Option<B::Clock>,
    /// Order-independent combination of the version hashes.
    versions_hash: u64,
    /// The shared read-path view, swapped wholesale after every mutation:
    /// `get` hands out an `Arc` clone of this and touches nothing else.
    snapshot: Option<Arc<KeySnapshot<B>>>,
    /// Set when a deferred merge invalidated the cached context (an
    /// eviction, whose join contribution cannot be subtracted back out);
    /// [`SiblingSet::finish_deferred`] pays the one k-way rebuild iff this
    /// is set. Deferred *stores* keep the context exact incrementally, so
    /// an eviction-free batch closes without any rebuild at all.
    deferred_dirty: bool,
}

impl<B: StoreBackend> SiblingSet<B> {
    fn new() -> Self {
        SiblingSet {
            versions: Vec::new(),
            context: None,
            versions_hash: 0,
            snapshot: None,
            deferred_dirty: false,
        }
    }

    /// The shared point-in-time view (`None` iff the set is empty).
    pub(crate) fn snapshot(&self) -> Option<Arc<KeySnapshot<B>>> {
        self.snapshot.clone()
    }

    /// Rebuilds the read-path snapshot after a mutation: `Arc` bumps of the
    /// stored versions plus one context clone — the write pays this so
    /// every read pays nothing.
    fn refresh_snapshot(&mut self) {
        self.snapshot = self.context.as_ref().map(|context| {
            Arc::new(KeySnapshot { versions: self.versions.clone(), context: context.clone() })
        });
    }

    pub(crate) fn len(&self) -> usize {
        self.versions.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &StoredVersion<B>> {
        self.versions.iter()
    }

    /// The cached causal context of the whole set (tombstones included).
    /// The serving read path reads it off the snapshot; delta-frame
    /// reconstruction reads it here, under the shard lock, as the base
    /// clock that matching incoming dots join against.
    pub(crate) fn context(&self) -> Option<&B::Clock> {
        self.context.as_ref()
    }

    /// Whether `context` covers exactly this set: the caller read the set
    /// as it stands, so a write carrying it supersedes every sibling.
    pub(crate) fn matches_context(&self, context: Option<&B::Clock>) -> bool {
        match (context, &self.context) {
            (Some(provided), Some(cached)) => provided == cached,
            (None, None) => true,
            _ => false,
        }
    }

    /// Live sibling values, in stored order (test accessor; the serving
    /// read path goes through [`SiblingSet::snapshot`]).
    #[cfg(test)]
    pub(crate) fn live_values(&self) -> Vec<Value> {
        self.versions.iter().filter_map(|v| v.version.value.clone()).collect()
    }

    /// Sorted canonical byte forms (convergence snapshot).
    pub(crate) fn canonical_versions(&self) -> Vec<Vec<u8>> {
        let mut encoded: Vec<Vec<u8>> =
            self.versions.iter().map(StoredVersion::canonical_bytes).collect();
        encoded.sort();
        encoded
    }

    /// Order-independent hash of the stored versions, maintained in O(1)
    /// per mutation; the anti-entropy fingerprint mixes it with the
    /// element knowledge.
    pub(crate) fn versions_hash(&self) -> u64 {
        self.versions_hash
    }

    fn push(&mut self, backend: &B, incoming: StoredVersion<B>) {
        self.versions_hash = self.versions_hash.wrapping_add(incoming.hash);
        self.context = Some(match self.context.take() {
            Some(context) => backend.join_clocks(&context, incoming.clock()),
            None => incoming.clock().clone(),
        });
        self.versions.push(incoming);
    }

    /// Stores a version during a deferred batch: while the cached context
    /// is still exact the incremental join keeps it exact (same cost as
    /// the per-key path), but once an eviction dirtied it there is no
    /// point joining into a context that [`SiblingSet::finish_deferred`]
    /// will rebuild anyway — only the O(1) hash is maintained.
    fn store_deferred(&mut self, backend: &B, incoming: StoredVersion<B>) {
        if self.deferred_dirty {
            self.versions_hash = self.versions_hash.wrapping_add(incoming.hash);
            self.versions.push(incoming);
        } else {
            self.push(backend, incoming);
        }
    }

    fn remove(&mut self, index: usize) -> StoredVersion<B> {
        let version = self.versions.swap_remove(index);
        self.versions_hash = self.versions_hash.wrapping_sub(version.hash);
        version
    }

    /// Recomputes the cached context after evictions (joins are not
    /// invertible, so removal cannot update it incrementally). One k-way
    /// join over the surviving clocks — [`StoreBackend::join_clock_set`]
    /// builds a single output instead of folding pairwise.
    fn refresh_context(&mut self, backend: &B) {
        self.context = backend.join_clock_set(self.versions.iter().map(StoredVersion::clock));
    }

    /// Evicts every stored sibling and stores `incoming` — the
    /// matched-context fast path of a `put`. Sound because every stored
    /// clock is ≤ the set context the caller proved it read, and the
    /// incoming clock is that context joined with a *fresh* dot, so the
    /// domination is strict for every sibling.
    pub(crate) fn replace_all(
        &mut self,
        backend: &B,
        incoming: StoredVersion<B>,
    ) -> Vec<StoredVersion<B>> {
        let evicted = std::mem::take(&mut self.versions);
        self.versions_hash = 0;
        self.context = None;
        self.push(backend, incoming);
        self.refresh_snapshot();
        evicted
    }

    /// Merges `incoming` into the sibling set.
    ///
    /// `local_write` selects the tie-break for clock-equal versions: a
    /// local client write replaces outright (the replica serializes its own
    /// sessions), while anti-entropy resolves deterministically by value so
    /// concurrent merges at different replicas converge to the same set.
    pub(crate) fn merge_version(
        &mut self,
        backend: &B,
        incoming: StoredVersion<B>,
        local_write: bool,
    ) -> MergeOutcome<B> {
        self.merge_version_inner(backend, incoming, local_write, false)
    }

    /// The batched-exchange merge: identical relation logic to
    /// [`SiblingSet::merge_version`], but the cache upkeep — the k-way
    /// context rebuild and the `Arc`-swapped snapshot publish — is
    /// deferred. The caller merges every version of the key's batch, then
    /// closes with one [`SiblingSet::finish_deferred`]; between the two
    /// the cached context and snapshot are stale, so the caller must hold
    /// the shard write lock throughout and capture any reconstruction
    /// base *before* the first deferred merge (the batched apply does
    /// both).
    pub(crate) fn merge_version_deferred(
        &mut self,
        backend: &B,
        incoming: StoredVersion<B>,
    ) -> MergeOutcome<B> {
        self.merge_version_inner(backend, incoming, false, true)
    }

    /// Closes a deferred batch: at most one context rebuild (only if an
    /// eviction dirtied the incremental cache) plus exactly one snapshot
    /// publish, regardless of how many versions the batch merged. Returns
    /// whether the k-way rebuild ran (the profile's `ctx_rebuilds` unit).
    pub(crate) fn finish_deferred(&mut self, backend: &B) -> bool {
        let rebuilt = self.deferred_dirty;
        if rebuilt {
            self.refresh_context(backend);
            self.deferred_dirty = false;
        }
        self.refresh_snapshot();
        rebuilt
    }

    fn merge_version_inner(
        &mut self,
        backend: &B,
        incoming: StoredVersion<B>,
        local_write: bool,
        deferred: bool,
    ) -> MergeOutcome<B> {
        // Memoized fast path: byte-identical clock bytes mean the same
        // causal position (the codec is canonical), and the antichain
        // invariant pins its relation to every *other* sibling at
        // `Concurrent` — no further relation checks needed.
        if let Some(index) =
            self.versions.iter().position(|v| v.clock_bytes == incoming.clock_bytes)
        {
            return self.resolve_equal(backend, incoming, index, local_write, deferred);
        }
        let mut evicted = Vec::new();
        let mut store_incoming = true;
        let mut index = 0;
        while index < self.versions.len() {
            match backend.relation(self.versions[index].clock(), incoming.clock()) {
                // The stored version is causally included in the incoming
                // write: evict it.
                Relation::Dominated => {
                    evicted.push(self.remove(index));
                }
                Relation::Equal => {
                    // Same causal position reached through different wire
                    // forms (identifier backends): resolve like the
                    // byte-equal fast path. No eviction can have preceded
                    // this (a sibling dominated by `incoming` would be
                    // comparable with its equal), so the cached context is
                    // still exact.
                    debug_assert!(evicted.is_empty(), "antichain rules out prior evictions");
                    return self.resolve_equal(backend, incoming, index, local_write, deferred);
                }
                Relation::Dominates => {
                    // A stored dominator: the antichain invariant rules out
                    // any stored sibling being dominated by `incoming`
                    // (it would be comparable with the dominator).
                    store_incoming = false;
                    break;
                }
                Relation::Concurrent => index += 1,
            }
        }
        let mut ctx_rebuilt = false;
        if deferred {
            if !evicted.is_empty() {
                self.deferred_dirty = true;
            }
            if store_incoming {
                self.store_deferred(backend, incoming);
            }
        } else {
            if !evicted.is_empty() {
                self.refresh_context(backend);
                ctx_rebuilt = true;
            }
            if store_incoming {
                self.push(backend, incoming);
            }
            if store_incoming || !evicted.is_empty() {
                self.refresh_snapshot();
            }
        }
        MergeOutcome { stored: store_incoming, evicted, ctx_rebuilt }
    }

    /// Resolves an incoming version against the clock-equal stored sibling
    /// at `index`.
    fn resolve_equal(
        &mut self,
        backend: &B,
        incoming: StoredVersion<B>,
        index: usize,
        local_write: bool,
        deferred: bool,
    ) -> MergeOutcome<B> {
        if local_write || incoming.version.value > self.versions[index].version.value {
            let evicted = self.remove(index);
            if deferred {
                // Byte-identical clocks leave the cached context exact; a
                // different wire form of an Equal clock (identifier
                // backends) dirties it for the finish-time rebuild.
                self.deferred_dirty |= evicted.clock_bytes != incoming.clock_bytes;
                self.store_deferred(backend, incoming);
                return MergeOutcome { stored: true, evicted: vec![evicted], ctx_rebuilt: false };
            }
            let refresh = evicted.clock_bytes != incoming.clock_bytes;
            self.push(backend, incoming);
            // Byte-identical clocks leave the cached context exact; an
            // Equal clock in a different wire form (possible only for
            // identifier backends) conservatively recomputes it.
            if refresh {
                self.refresh_context(backend);
            }
            self.refresh_snapshot();
            MergeOutcome { stored: true, evicted: vec![evicted], ctx_rebuilt: refresh }
        } else {
            MergeOutcome { stored: false, evicted: Vec::new(), ctx_rebuilt: false }
        }
    }

    /// Rewrites the single surviving version after a quiescent re-mint.
    pub(crate) fn remint(&mut self, backend: &B, fresh_clock: B::Clock) {
        debug_assert_eq!(self.versions.len(), 1, "re-mint requires a settled key");
        let value = self.versions[0].version.value.clone();
        let fresh = StoredVersion::new(backend, Version { clock: fresh_clock, value });
        self.versions.clear();
        self.versions_hash = 0;
        self.context = None;
        self.push(backend, fresh);
        self.refresh_snapshot();
    }
}

/// Per-key state held by one replica's data plane.
#[derive(Debug)]
pub(crate) struct KeyData<B: StoreBackend> {
    /// The replica's element in this key's fork/join/update universe.
    element: B::Element,
    /// Cached wire bytes of the element's knowledge (the digest
    /// ingredient); refreshed whenever the element changes.
    knowledge: Vec<u8>,
    /// The sibling set: pairwise-concurrent versions.
    pub(crate) siblings: SiblingSet<B>,
    /// Mixed hash of the key: its top bits pick the digest bucket, and it
    /// salts the key's contribution to that bucket's sum.
    key_hash: u64,
    /// The fingerprint as of the last seal ([`ShardWrite::insert`] or a
    /// dropped [`KeyMut`]).
    fingerprint: u64,
}

/// The outcome of merging one incoming version into a sibling set.
pub(crate) struct MergeOutcome<B: StoreBackend> {
    /// Whether the incoming version was stored.
    pub stored: bool,
    /// Previously-stored versions the merge evicted (their evidence pins
    /// must be released).
    pub evicted: Vec<StoredVersion<B>>,
    /// Whether this merge rebuilt the cached context (a k-way clock
    /// join) — the per-version cost the batched apply amortizes, counted
    /// by the profile's `ctx_rebuilds`.
    pub ctx_rebuilt: bool,
}

impl<B: StoreBackend> KeyData<B> {
    pub(crate) fn new(backend: &B, key: &str, element: B::Element) -> Self {
        let mut knowledge = Vec::new();
        backend.encode_element_knowledge(&element, &mut knowledge);
        KeyData {
            element,
            knowledge,
            siblings: SiblingSet::new(),
            key_hash: mix64(fnv1a(key.as_bytes())),
            fingerprint: 0,
        }
    }

    pub(crate) fn element(&self) -> &B::Element {
        &self.element
    }

    /// Replaces the element, refreshing the cached knowledge bytes.
    pub(crate) fn set_element(&mut self, backend: &B, element: B::Element) {
        self.knowledge.clear();
        backend.encode_element_knowledge(&element, &mut self.knowledge);
        self.element = element;
    }

    /// Fingerprint of this key's state, cached at the last seal: the
    /// order-independent sibling hash mixed with the element's knowledge.
    /// Identical fingerprints let an exchange skip the key; crucially the
    /// fingerprint covers the element's *knowledge*, so exchanges keep
    /// flowing until element knowledge — not just data — has converged,
    /// which is what arms quiescent-point compaction.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The fingerprint recomputed from the current state — what a seal
    /// caches. Constant-size hashing: the per-version work was paid once,
    /// when each version entered the set.
    pub(crate) fn fresh_fingerprint(&self) -> u64 {
        let hash = fnv1a_extend(FNV_OFFSET, &self.siblings.versions_hash().to_le_bytes());
        fnv1a_extend(hash, &self.knowledge)
    }

    /// The key's digest bucket at `level` (the top `level` bits of the
    /// mixed key hash; level 0 is the single whole-digest bucket).
    pub(crate) fn bucket(&self, level: u8) -> usize {
        debug_assert!(level <= BUCKET_BITS);
        // `checked_shr` covers level 0: a shift by 64 is the single bucket 0.
        self.key_hash.checked_shr(64 - u32::from(level)).unwrap_or(0) as usize
    }

    /// What this key adds to its bucket's sum, given its fingerprint.
    fn contribution(&self, fingerprint: u64) -> u64 {
        mix64(self.key_hash ^ mix64(fingerprint ^ 0x5851_F42D_4C95_7F2D))
    }
}

/// Bits of the mixed key hash that pick a key's digest bucket.
pub(crate) const BUCKET_BITS: u8 = 8;

/// Number of digest buckets a data plane maintains.
pub(crate) const BUCKETS: usize = 1 << BUCKET_BITS;

/// The splitmix64 finalizer: spreads FNV's weak high bits before they pick
/// a bucket, and makes bucket contributions independent of each other.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The incremental summary of one replica's digest: per bucket, the
/// wrapping sum of its keys' contributions, plus the key count. Sums
/// depend only on the `(key, fingerprint)` set, never on shard layout or
/// insertion order, so replicas with equal digests hold equal sums.
///
/// Every access is `Relaxed`: the sums publish no other data. A reader
/// that sees a sum a moment stale at worst ends one exchange early or
/// runs one needlessly; the next exchange reads it current.
#[derive(Debug)]
struct DigestSums {
    buckets: [AtomicU64; BUCKETS],
    keys: AtomicUsize,
}

impl DigestSums {
    fn add(&self, bucket: usize, delta: u64) {
        if delta != 0 {
            self.buckets[bucket].fetch_add(delta, Ordering::Relaxed);
        }
    }
}

/// One replica's data plane: hash-partitioned shards, each an
/// independently-locked map, plus the [`DigestSums`] summary every
/// mutation keeps current. Client gets take a shard read lock; writes and
/// anti-entropy merges take the write lock of a single shard through a
/// [`ShardWrite`], the only mutable path to the maps.
#[derive(Debug)]
pub(crate) struct DataPlane<B: StoreBackend> {
    shards: Vec<RwLock<HashMap<Key, KeyData<B>>>>,
    sums: DigestSums,
}

impl<B: StoreBackend> DataPlane<B> {
    pub(crate) fn new(shard_count: usize) -> Self {
        DataPlane {
            shards: (0..shard_count.max(1)).map(|_| RwLock::new(HashMap::new())).collect(),
            sums: DigestSums {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                keys: AtomicUsize::new(0),
            },
        }
    }

    /// Read access to one shard.
    pub(crate) fn read(&self, index: usize) -> RwLockReadGuard<'_, HashMap<Key, KeyData<B>>> {
        self.shards[index].read()
    }

    /// Write access to one shard; every mutation through it reseals.
    pub(crate) fn write(&self, index: usize) -> ShardWrite<'_, B> {
        ShardWrite { map: self.shards[index].write(), sums: &self.sums }
    }

    /// Number of keys the replica holds.
    pub(crate) fn key_count(&self) -> usize {
        self.sums.keys.load(Ordering::Relaxed)
    }

    /// The bucket sums folded to `level`: `2^level` sums, entry `i` the
    /// total of the level-8 buckets whose top `level` bits are `i`.
    pub(crate) fn bucket_sums(&self, level: u8) -> Vec<u64> {
        let mut folded = vec![0u64; 1 << level];
        for (bucket, sum) in self.sums.buckets.iter().enumerate() {
            let slot = &mut folded[bucket >> (BUCKET_BITS - level)];
            *slot = slot.wrapping_add(sum.load(Ordering::Relaxed));
        }
        folded
    }

    /// A 64-bit hash over the 256 bucket sums: lock-free, allocation-free
    /// and independent of the key count.
    pub(crate) fn root(&self) -> u64 {
        self.sums
            .buckets
            .iter()
            .fold(FNV_OFFSET, |root, sum| mix64(root ^ sum.load(Ordering::Relaxed)))
    }

    /// The bucket sums and key count recomputed from scratch, for tests
    /// that check every seal landed.
    #[cfg(test)]
    pub(crate) fn recomputed_sums(&self) -> ([u64; BUCKETS], usize) {
        let mut sums = [0u64; BUCKETS];
        let mut keys = 0;
        for shard in &self.shards {
            for data in shard.read().values() {
                let bucket = data.bucket(BUCKET_BITS);
                sums[bucket] =
                    sums[bucket].wrapping_add(data.contribution(data.fresh_fingerprint()));
                keys += 1;
            }
        }
        (sums, keys)
    }

    /// The maintained bucket sums, unfolded.
    #[cfg(test)]
    pub(crate) fn maintained_sums(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|bucket| self.sums.buckets[bucket].load(Ordering::Relaxed))
    }
}

/// A write-locked shard. It hands out no `&mut` to its map: keys are
/// inserted and removed through it, and mutated through a [`KeyMut`], so
/// no mutation can leave the digest sums stale.
pub(crate) struct ShardWrite<'a, B: StoreBackend> {
    map: RwLockWriteGuard<'a, HashMap<Key, KeyData<B>>>,
    sums: &'a DigestSums,
}

impl<B: StoreBackend> ShardWrite<'_, B> {
    pub(crate) fn contains_key(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }

    /// Mutable access to one key, resealed when the handle drops.
    pub(crate) fn get_mut(&mut self, key: &str) -> Option<KeyMut<'_, B>> {
        let sums = self.sums;
        self.map.get_mut(key).map(|data| KeyMut { data, sums })
    }

    /// Inserts a key absent from the shard, sealing its contribution in.
    pub(crate) fn insert(&mut self, key: Key, mut data: KeyData<B>) {
        data.fingerprint = data.fresh_fingerprint();
        self.sums.add(data.bucket(BUCKET_BITS), data.contribution(data.fingerprint));
        self.sums.keys.fetch_add(1, Ordering::Relaxed);
        let previous = self.map.insert(key, data);
        debug_assert!(previous.is_none(), "insert is for absent keys");
    }

    /// Removes a key, taking its contribution out of the sums.
    pub(crate) fn remove(&mut self, key: &str) -> Option<KeyData<B>> {
        let data = self.map.remove(key)?;
        self.sums.add(data.bucket(BUCKET_BITS), data.contribution(data.fingerprint).wrapping_neg());
        self.sums.keys.fetch_sub(1, Ordering::Relaxed);
        Some(data)
    }
}

/// Mutable access to one stored key. Dropping it reseals: the fingerprint
/// is recomputed and, when it changed, the bucket sum moves by `new − old`
/// in one atomic add, so a concurrent root read sees the key's old or new
/// contribution, never a mix.
pub(crate) struct KeyMut<'a, B: StoreBackend> {
    data: &'a mut KeyData<B>,
    sums: &'a DigestSums,
}

impl<B: StoreBackend> std::ops::Deref for KeyMut<'_, B> {
    type Target = KeyData<B>;

    fn deref(&self) -> &KeyData<B> {
        self.data
    }
}

impl<B: StoreBackend> std::ops::DerefMut for KeyMut<'_, B> {
    fn deref_mut(&mut self) -> &mut KeyData<B> {
        self.data
    }
}

impl<B: StoreBackend> Drop for KeyMut<'_, B> {
    fn drop(&mut self) {
        let fresh = self.data.fresh_fingerprint();
        if fresh != self.data.fingerprint {
            let delta = self
                .data
                .contribution(fresh)
                .wrapping_sub(self.data.contribution(self.data.fingerprint));
            self.sums.add(self.data.bucket(BUCKET_BITS), delta);
            self.data.fingerprint = fresh;
        }
    }
}

/// FNV-1a offset basis — every store hash (sharding, version hashes,
/// fingerprints) is the same hash family, built on [`fnv1a_extend`].
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Streams `bytes` into a running FNV-1a state.
#[must_use]
pub(crate) fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a — the stable hash used for shard selection and anti-entropy
/// digests (must agree across replicas and runs, unlike `DefaultHasher`).
#[must_use]
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Shard index dispatch: hash-partitions keys across a fixed shard count,
/// resolved once at cluster construction. Power-of-two counts (the
/// [`ClusterConfig`](crate::ClusterConfig) default) dispatch with a single
/// mask instead of a 64-bit modulo on every key touch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardIndexer {
    count: usize,
    /// `count − 1` when `count` is a power of two; `u64::MAX` marks the
    /// general modulo path.
    mask: u64,
}

impl ShardIndexer {
    pub(crate) fn new(count: usize) -> Self {
        let count = count.max(1);
        let mask = if count.is_power_of_two() { count as u64 - 1 } else { u64::MAX };
        ShardIndexer { count, mask }
    }

    /// The shard count the indexer dispatches over.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Shard index of a key.
    #[inline]
    pub(crate) fn index(&self, key: &str) -> usize {
        let hash = fnv1a(key.as_bytes());
        if self.mask == u64::MAX {
            (hash % self.count as u64) as usize
        } else {
            (hash & self.mask) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::VstampBackend;

    fn stored(
        backend: &VstampBackend,
        clock: <VstampBackend as StoreBackend>::Clock,
        value: Option<&[u8]>,
    ) -> StoredVersion<VstampBackend> {
        StoredVersion::new(backend, Version { clock, value: value.map(<[u8]>::to_vec) })
    }

    #[test]
    fn merge_keeps_concurrent_and_evicts_dominated() {
        let backend = VstampBackend::gc();
        let (mut state, elements) = backend.new_key(2);
        let mut data = KeyData::<VstampBackend>::new(&backend, "k", elements[0].clone());
        let (e0, c0, _) = backend.write(&mut state, &elements[0], None);
        let outcome =
            data.siblings.merge_version(&backend, stored(&backend, c0.clone(), Some(b"v0")), true);
        assert!(outcome.stored && outcome.evicted.is_empty());
        data.set_element(&backend, e0);

        // A concurrent write from the other replica becomes a sibling.
        let (_, c1, _) = backend.write(&mut state, &elements[1], None);
        let outcome =
            data.siblings.merge_version(&backend, stored(&backend, c1.clone(), Some(b"v1")), false);
        assert!(outcome.stored && outcome.evicted.is_empty());
        assert_eq!(data.siblings.len(), 2);
        assert_eq!(data.siblings.live_values().len(), 2);

        // A write with the joined context evicts both.
        let context = data.siblings.context().cloned().unwrap();
        let (_, c2, _) = backend.write(&mut state, data.element(), Some(&context));
        let outcome =
            data.siblings.merge_version(&backend, stored(&backend, c2, Some(b"merged")), true);
        assert!(outcome.stored);
        assert_eq!(outcome.evicted.len(), 2);
        assert_eq!(data.siblings.live_values(), vec![b"merged".to_vec()]);
    }

    #[test]
    fn equal_clock_merges_converge_on_the_larger_value() {
        let backend = VstampBackend::gc();
        let (mut state, elements) = backend.new_key(1);
        let (_, clock, _) = backend.write(&mut state, &elements[0], None);
        let mut left = KeyData::<VstampBackend>::new(&backend, "k", elements[0].clone());
        let mut right = KeyData::<VstampBackend>::new(&backend, "k", elements[0].clone());
        let a = stored(&backend, clock.clone(), Some(b"aaa"));
        let b = stored(&backend, clock, Some(b"zzz"));
        left.siblings.merge_version(&backend, a.clone(), false);
        left.siblings.merge_version(&backend, b.clone(), false);
        right.siblings.merge_version(&backend, b, false);
        right.siblings.merge_version(&backend, a, false);
        assert_eq!(left.siblings.live_values(), right.siblings.live_values());
        assert_eq!(left.siblings.live_values(), vec![b"zzz".to_vec()]);
        assert_eq!(left.fresh_fingerprint(), right.fresh_fingerprint());
    }

    #[test]
    fn obsolete_incoming_is_dropped() {
        let backend = VstampBackend::gc();
        let (mut state, elements) = backend.new_key(2);
        // Replica 0 writes, replica 1 writes causally after it (context):
        // the second clock strictly dominates the first.
        let (_, c1, _) = backend.write(&mut state, &elements[0], None);
        let (e2, c2, _) = backend.write(&mut state, &elements[1], Some(&c1));
        assert_eq!(backend.relation(&c1, &c2), Relation::Dominated);
        let mut data = KeyData::<VstampBackend>::new(&backend, "k", e2);
        data.siblings.merge_version(&backend, stored(&backend, c2, Some(b"new")), true);
        let outcome =
            data.siblings.merge_version(&backend, stored(&backend, c1, Some(b"old")), false);
        assert!(!outcome.stored);
        assert_eq!(data.siblings.live_values(), vec![b"new".to_vec()]);
    }

    #[test]
    fn cached_context_tracks_merges_and_evictions() {
        let backend = VstampBackend::gc();
        let (mut state, elements) = backend.new_key(2);
        let mut data = KeyData::<VstampBackend>::new(&backend, "k", elements[0].clone());
        assert!(data.siblings.matches_context(None));
        let (_, c0, _) = backend.write(&mut state, &elements[0], None);
        let (_, c1, _) = backend.write(&mut state, &elements[1], None);
        data.siblings.merge_version(&backend, stored(&backend, c0.clone(), Some(b"a")), true);
        data.siblings.merge_version(&backend, stored(&backend, c1.clone(), Some(b"b")), false);
        // Cached context equals the explicit fold.
        let expected = backend.join_clocks(&c0, &c1);
        assert_eq!(data.siblings.context(), Some(&expected));
        assert!(data.siblings.matches_context(Some(&expected)));
        assert!(!data.siblings.matches_context(Some(&c0)));
        // The matched-context fast path supersedes everything.
        let (_, c2, _) = backend.write(&mut state, data.element(), Some(&expected));
        let evicted = data.siblings.replace_all(&backend, stored(&backend, c2.clone(), Some(b"m")));
        assert_eq!(evicted.len(), 2);
        assert_eq!(data.siblings.context(), Some(&c2));
        assert_eq!(data.siblings.live_values(), vec![b"m".to_vec()]);
        // Eviction through the slow path refreshes the cache too.
        let (_, c3, _) = backend.write(&mut state, data.element(), Some(&c2));
        data.siblings.merge_version(&backend, stored(&backend, c3.clone(), Some(b"n")), false);
        assert_eq!(data.siblings.context(), Some(&c3));
    }

    #[test]
    fn fnv_and_sharding_are_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        let pow2 = ShardIndexer::new(8);
        assert_eq!(pow2.index("cart:alice"), pow2.index("cart:alice"));
        assert!(pow2.index("x") < 8);
        assert_eq!(pow2.count(), 8);
        // The mask dispatch must agree with the generic modulo: a power of
        // two makes `hash & (n − 1)` and `hash % n` identical.
        for key in ["a", "cart:alice", "π-keys", "", "key-42"] {
            let hash = fnv1a(key.as_bytes());
            assert_eq!(pow2.index(key), (hash % 8) as usize, "mask/modulo split for {key:?}");
        }
        let odd = ShardIndexer::new(7);
        for key in ["a", "b", "key-3"] {
            assert_eq!(odd.index(key), (fnv1a(key.as_bytes()) % 7) as usize);
            assert!(odd.index(key) < 7);
        }
        assert_eq!(ShardIndexer::new(0).count(), 1);
    }
}
