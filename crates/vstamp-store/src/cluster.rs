//! The replicated store cluster: N replicas, each a sharded data plane,
//! plus the cluster-shared clock plane (per-key coordination state of the
//! backend), the anti-entropy engine ([`Cluster::pull`] and
//! [`Cluster::serve`], shared by in-process exchanges and TCP nodes) and
//! quiescent-point compaction.
//!
//! # Concurrency
//!
//! Every lock is per shard. An operation touching a key takes at most two
//! locks, always in the same order — the clock-plane shard first, then one
//! data-plane shard — so client traffic and concurrent exchanges never
//! deadlock. Reads (`get`, digest building) take only a data shard read
//! lock. The digest root ([`Cluster::digest_root`]) takes no lock at all:
//! it hashes the data plane's 256 bucket sums, which every mutation keeps
//! current with one atomic add.
//!
//! # Coordination caveat
//!
//! The clock plane is shared cluster state: for the version-stamp backend
//! it carries the per-key GC evidence pins, for the baseline the per-key
//! identifier allocator. A real deployment would piggyback the evidence on
//! the anti-entropy protocol itself (and the baseline would need a real
//! identifier service); the in-process plane stands in for both, exactly
//! as the `FrontierGc` mirror does in `vstamp-core` (see its module docs).

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use vstamp_core::Relation;

use crate::backend::StoreBackend;
use crate::profile::{ProfileSnapshot, StoreProfile};
use crate::store::{
    DataPlane, DeltaOrigin, GetResult, Key, KeyData, ShardIndexer, ShardWrite, StoredVersion,
    Value, Version,
};
use crate::transport::{invalid, Link};
use crate::wire::{
    decode_delta, decode_digest_scoped, decode_miss, decode_nak, decode_probe, encode_delta,
    encode_digest_scoped, encode_miss, encode_nak, encode_probe, envelope_len,
    rebuild_wire_version, BucketMask, DeltaEncodeStats, DeltaPolicy, DigestEntry, Envelope,
    KeyDelta, MessageKind, WireKeyDelta, WireVersion, MAX_BUCKET_LEVEL, PERTURB_MASK,
};

/// Per-key entry of the clock plane: the backend's coordination state plus
/// the initial elements replicas have not yet claimed.
#[derive(Debug)]
struct KeyPlane<B: StoreBackend> {
    state: B::KeyState,
    unclaimed: Vec<Option<B::Element>>,
}

/// Bound on NAK rounds within one [`Cluster::pull`]. A refetch ships full
/// frames, which cannot miss, so a well-behaved responder needs one round;
/// the bound only caps what a misbehaving peer can make a pull cost.
const NAK_ROUNDS: usize = 3;

/// Cumulative wire counters of a whole cluster: every envelope the
/// anti-entropy engine sent since construction (or the last snapshot diff
/// the caller keeps). Counted once, by the side that sends the envelope,
/// envelope header included ([`envelope_len`]), so the `wire` benchmark
/// curves reflect what a transport carries, not just encoded bodies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipStats {
    /// Pull exchanges initiated ([`Cluster::pull`] calls).
    pub exchanges: usize,
    /// Digest bytes sent, envelopes included.
    pub digest_bytes: usize,
    /// Delta-direction bytes sent (deltas, NAKs, refetches), envelopes
    /// included.
    pub delta_bytes: usize,
    /// Versions shipped as delta frames.
    pub delta_frames: usize,
    /// Versions shipped as full clock frames.
    pub full_frames: usize,
    /// Keys refetched after a fingerprint miss.
    pub nak_refetches: usize,
    /// Bytes saved by delta frames versus their full clock frames.
    pub wire_bytes_saved: usize,
    /// Total bytes of the clock frames shipped (full and delta).
    pub frame_bytes: usize,
    /// The delta frames' share of `frame_bytes`.
    pub delta_frame_bytes: usize,
    /// Versions never shipped because the requester's digest proved it
    /// already held them.
    pub versions_skipped: usize,
    /// Exchanges opened with an O(1) digest-root probe.
    pub root_probes: usize,
    /// Probes that hit: converged peers that exchanged nothing further.
    pub root_matches: usize,
    /// Non-empty delta replies applied (one per reply, through the
    /// per-shard batched path). Always counted, profiling on or off — the
    /// latency driver gates on it being nonzero.
    pub batched_applies: usize,
}

/// Atomic backing store of [`GossipStats`], shared by every concurrent
/// [`Cluster::pull`] and [`Cluster::serve`].
#[derive(Debug, Default)]
struct WireCounters {
    exchanges: AtomicUsize,
    digest_bytes: AtomicUsize,
    delta_bytes: AtomicUsize,
    delta_frames: AtomicUsize,
    full_frames: AtomicUsize,
    nak_refetches: AtomicUsize,
    wire_bytes_saved: AtomicUsize,
    frame_bytes: AtomicUsize,
    delta_frame_bytes: AtomicUsize,
    versions_skipped: AtomicUsize,
    root_probes: AtomicUsize,
    root_matches: AtomicUsize,
    batched_applies: AtomicUsize,
}

impl WireCounters {
    fn snapshot(&self) -> GossipStats {
        GossipStats {
            exchanges: self.exchanges.load(Ordering::Relaxed),
            digest_bytes: self.digest_bytes.load(Ordering::Relaxed),
            delta_bytes: self.delta_bytes.load(Ordering::Relaxed),
            delta_frames: self.delta_frames.load(Ordering::Relaxed),
            full_frames: self.full_frames.load(Ordering::Relaxed),
            nak_refetches: self.nak_refetches.load(Ordering::Relaxed),
            wire_bytes_saved: self.wire_bytes_saved.load(Ordering::Relaxed),
            frame_bytes: self.frame_bytes.load(Ordering::Relaxed),
            delta_frame_bytes: self.delta_frame_bytes.load(Ordering::Relaxed),
            versions_skipped: self.versions_skipped.load(Ordering::Relaxed),
            root_probes: self.root_probes.load(Ordering::Relaxed),
            root_matches: self.root_matches.load(Ordering::Relaxed),
            batched_applies: self.batched_applies.load(Ordering::Relaxed),
        }
    }

    fn record_delta_payload(&self, bytes: usize, stats: DeltaEncodeStats) {
        self.delta_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.delta_frames.fetch_add(stats.delta_frames, Ordering::Relaxed);
        self.full_frames.fetch_add(stats.full_frames, Ordering::Relaxed);
        self.wire_bytes_saved.fetch_add(stats.bytes_saved, Ordering::Relaxed);
        self.frame_bytes.fetch_add(stats.frame_bytes, Ordering::Relaxed);
        self.delta_frame_bytes.fetch_add(stats.delta_frame_bytes, Ordering::Relaxed);
    }
}

/// Space metrics of the whole cluster — the per-key metadata curves of
/// `bench_store_json`.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreMetrics {
    /// Backend label.
    pub label: &'static str,
    /// Distinct keys present on at least one replica.
    pub keys: usize,
    /// Stored versions summed over replicas.
    pub total_versions: usize,
    /// Largest sibling set anywhere.
    pub max_siblings: usize,
    /// Wire bits of every stored clock summed over replicas.
    pub clock_bits_total: usize,
    /// Wire bits of every replica element summed over replicas.
    pub element_bits_total: usize,
    /// Mean per-`(replica, key)` metadata footprint (element + clocks), in
    /// bits.
    pub mean_key_metadata_bits: f64,
    /// Largest per-`(replica, key)` metadata footprint, in bits.
    pub max_key_metadata_bits: usize,
}

/// Counters of one [`Cluster::compact`] sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Keys whose identity universe was re-minted.
    pub keys_recycled: usize,
    /// Fully-deleted keys dropped from every replica.
    pub keys_dropped: usize,
    /// `(key, replica)` elements rewritten by the forced GC pass.
    pub elements_flushed: usize,
}

/// Construction parameters of a [`Cluster`]: replica count and the data/
/// clock-plane shard count.
///
/// The shard count is the concurrency grain of the whole store — every
/// data-shard lock *and* every clock-plane stripe is per shard — so it
/// should comfortably exceed the expected number of concurrently-writing
/// threads. The default (16, a power of two) keeps the key→shard dispatch
/// on the mask fast path; non-power-of-two counts work and fall back to a
/// modulo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of replicas (at least 1).
    pub replicas: usize,
    /// Number of hash-partitioned shards per replica, also the stripe
    /// count of the cluster-shared clock plane (at least 1).
    pub shards: usize,
    /// Ship versions as delta frames (dot + context fingerprint) when the
    /// receiver's digest proves the context is shared. Default on; off
    /// reproduces the full-frame wire format (the benchmark baseline).
    pub delta_frames: bool,
    /// Deliberately perturb emitted delta-frame fingerprints so every
    /// delta frame misses and takes the NAK/refetch fallback — a
    /// correctness-stress knob, never on by default.
    pub perturb_fingerprints: bool,
    /// Read repair on [`Cluster::get`]: a read consults every replica,
    /// serves the merged sibling set, and pushes versions a lagging
    /// replica is missing back into it — monotonic reads across replica
    /// switches at the cost of a cluster-wide read. Default off.
    pub read_repair: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::new(3, 16)
    }
}

impl ClusterConfig {
    /// A config with explicit replica and shard counts (delta frames on,
    /// fingerprints honest).
    #[must_use]
    pub fn new(replicas: usize, shards: usize) -> Self {
        ClusterConfig {
            replicas,
            shards,
            delta_frames: true,
            perturb_fingerprints: false,
            read_repair: false,
        }
    }

    /// Disables delta frames: every version ships its full clock frame.
    #[must_use]
    pub fn without_delta_frames(mut self) -> Self {
        self.delta_frames = false;
        self
    }

    /// Perturbs every emitted delta-frame fingerprint (forces the
    /// miss→NAK fallback path).
    #[must_use]
    pub fn with_perturbed_fingerprints(mut self) -> Self {
        self.perturb_fingerprints = true;
        self
    }

    /// Enables read repair on [`Cluster::get`].
    #[must_use]
    pub fn with_read_repair(mut self) -> Self {
        self.read_repair = true;
        self
    }

    fn policy(&self) -> DeltaPolicy {
        DeltaPolicy {
            delta_frames: self.delta_frames,
            perturb_fingerprints: self.perturb_fingerprints,
        }
    }
}

/// A replicated KV cluster over one [`StoreBackend`]. See the
/// [module docs](self) and the crate docs for the data model.
#[derive(Debug)]
pub struct Cluster<B: StoreBackend> {
    backend: B,
    replicas: Vec<DataPlane<B>>,
    plane: Vec<Mutex<HashMap<Key, KeyPlane<B>>>>,
    shards: ShardIndexer,
    profile: Arc<StoreProfile>,
    policy: DeltaPolicy,
    read_repair: bool,
    wire: WireCounters,
}

/// The in-process [`Link`]: a request is answered by [`Cluster::serve`] on
/// another replica of the same cluster, with no transport in between.
struct LocalLink<'a, B: StoreBackend> {
    cluster: &'a Cluster<B>,
    responder: usize,
}

impl<B: StoreBackend> Link for LocalLink<'_, B> {
    fn request(&mut self, request: &Envelope) -> io::Result<Envelope> {
        self.cluster
            .serve(self.responder, self.responder, request)
            .ok_or_else(|| invalid("request refused"))
    }
}

/// Adds one sent envelope's wire size to `counter`.
fn count_sent(counter: &AtomicUsize, envelope: &Envelope) {
    counter.fetch_add(envelope_len(envelope.from, envelope.payload.len()), Ordering::Relaxed);
}

/// Infers which of the responder's sibling versions the requester already
/// holds, given nothing but the requester's set hash: that hash is the
/// wrapping sum of its versions' content hashes, so whenever the
/// requester's set is a subset of the responder's — the common case, since
/// anti-entropy pulls make sets grow toward each other — exactly one
/// subset of the responder's hashes sums to it (up to 64-bit collisions,
/// the trust model the whole-key fingerprint skip already accepts).
/// Sibling sets are small, so the `2^n` scan is trivial; oversized sets
/// and the empty-set hash (`0`) skip dedup and ship everything. Returns
/// the matched subset as a bitmask over `hashes`, preferring the largest.
fn known_subset(hashes: &[u64], ctx_fp: u64) -> u32 {
    if ctx_fp == 0 || hashes.is_empty() || hashes.len() > 16 {
        return 0;
    }
    let mut best = 0u32;
    for mask in 1u32..(1u32 << hashes.len()) {
        let sum = hashes
            .iter()
            .enumerate()
            .filter(|(index, _)| mask & (1 << index) != 0)
            .fold(0u64, |acc, (_, hash)| acc.wrapping_add(*hash));
        if sum == ctx_fp && mask.count_ones() > best.count_ones() {
            best = mask;
        }
    }
    best
}

/// Keys a responder must hold before its `Miss` carries bucket sums;
/// smaller replicas answer with an empty `Miss` and get the full digest.
const SCOPE_MIN_KEYS: usize = 128;

/// The bucket level a responder holding `keys` keys scopes an exchange
/// to: none below [`SCOPE_MIN_KEYS`], else about 64 keys per bucket, at
/// most the [`MAX_BUCKET_LEVEL`] resolution the data plane maintains.
fn scope_level(keys: usize) -> u8 {
    if keys < SCOPE_MIN_KEYS {
        0
    } else {
        (keys / 64).ilog2().min(u32::from(MAX_BUCKET_LEVEL)) as u8
    }
}

/// Whether a key falls in a digest scope (`None` is the whole digest).
fn in_scope<B: StoreBackend>(scope: Option<&BucketMask>, data: &KeyData<B>) -> bool {
    scope.map_or(true, |mask| mask.contains(data.bucket(mask.level())))
}

impl<B: StoreBackend> Cluster<B> {
    /// Builds a cluster of `replicas` nodes, each with `shard_count`
    /// hash-partitioned shards.
    #[must_use]
    pub fn new(backend: B, replicas: usize, shard_count: usize) -> Self {
        Self::with_config(backend, ClusterConfig::new(replicas, shard_count))
    }

    /// Builds a cluster from a [`ClusterConfig`].
    #[must_use]
    pub fn with_config(backend: B, config: ClusterConfig) -> Self {
        let replicas = config.replicas.max(1);
        let shards = ShardIndexer::new(config.shards);
        Cluster {
            backend,
            replicas: (0..replicas).map(|_| DataPlane::new(shards.count())).collect(),
            plane: (0..shards.count()).map(|_| Mutex::new(HashMap::new())).collect(),
            shards,
            profile: Arc::new(StoreProfile::default()),
            policy: config.policy(),
            read_repair: config.read_repair,
            wire: WireCounters::default(),
        }
    }

    /// Cumulative wire counters since construction — snapshot and diff to
    /// get per-epoch bytes-on-wire curves.
    #[must_use]
    pub fn gossip_stats(&self) -> GossipStats {
        self.wire.snapshot()
    }

    /// Switches on wall-clock attribution (GC / join / relation / codec /
    /// lock sections) for this cluster and its backend. Off by default;
    /// when off every probe is a single relaxed load.
    pub fn enable_profiling(&mut self) {
        self.profile.enable();
        let profile = Arc::clone(&self.profile);
        self.backend.attach_profile(profile);
    }

    /// The accumulated profile (all zeros unless
    /// [`Cluster::enable_profiling`] was called).
    #[must_use]
    pub fn profile_snapshot(&self) -> ProfileSnapshot {
        self.profile.snapshot()
    }

    /// The backend in force.
    #[must_use]
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Number of replicas.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Number of shards per replica.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.count()
    }

    /// Causal read at one replica: a shared snapshot of the sibling set
    /// (live values plus the context a follow-up [`Cluster::put`] should
    /// carry).
    ///
    /// Contention-free read path: the write path publishes each key's
    /// sibling set as an `Arc`-swapped
    /// [`KeySnapshot`](crate::store::KeySnapshot), so a get is one hash
    /// lookup and one `Arc` clone under a shard read lock held for
    /// nanoseconds — no write lock, no context fold, no version clones,
    /// and gossip or GC bookkeeping on *other* shards never touches it.
    #[must_use]
    pub fn get(&self, replica: usize, key: &str) -> GetResult<B> {
        if self.read_repair {
            return self.get_repaired(replica, key);
        }
        let shard = self.replicas[replica].read(self.shards.index(key));
        GetResult::new(shard.get(key).and_then(|data| data.siblings.snapshot()))
    }

    /// Read-repair read: consults every replica's snapshot, computes the
    /// merged sibling antichain, pushes versions a lagging replica is
    /// missing back into it, and serves the queried replica's refreshed
    /// view. With the flag on, a client that switches replicas between
    /// reads still observes monotonic reads: whatever one read returned is
    /// stored (or dominated by something stored) at *every* replica before
    /// the read returns.
    fn get_repaired(&self, replica: usize, key: &str) -> GetResult<B> {
        let shard_index = self.shards.index(key);
        let snapshots: Vec<_> = (0..self.replicas.len())
            .map(|r| {
                let shard = self.replicas[r].read(shard_index);
                shard.get(key).and_then(|data| data.siblings.snapshot())
            })
            .collect();
        // Merge every replica's versions into one antichain: dominated
        // versions drop, byte-equal clocks deduplicate (value tie-break,
        // mirroring the sibling-set merge rule so the repaired sets match
        // what anti-entropy would converge to).
        let mut merged: Vec<StoredVersion<B>> = Vec::new();
        for version in snapshots.iter().flatten().flat_map(|snapshot| snapshot.versions()) {
            if let Some(index) =
                merged.iter().position(|held| held.clock_bytes() == version.clock_bytes())
            {
                if version.version().value > merged[index].version().value {
                    merged[index] = version.clone();
                }
                continue;
            }
            let mut dominated = false;
            let mut index = 0;
            while index < merged.len() {
                match self.backend.relation(merged[index].clock(), version.clock()) {
                    Relation::Dominated => {
                        merged.swap_remove(index);
                    }
                    Relation::Dominates | Relation::Equal => {
                        dominated = true;
                        break;
                    }
                    Relation::Concurrent => index += 1,
                }
            }
            if !dominated {
                merged.push(version.clone());
            }
        }
        if merged.is_empty() {
            return GetResult::new(None);
        }
        for (r, snapshot) in snapshots.iter().enumerate() {
            let missing: Vec<StoredVersion<B>> = merged
                .iter()
                .filter(|version| {
                    !snapshot.as_ref().is_some_and(|snapshot| {
                        snapshot
                            .versions()
                            .iter()
                            .any(|held| held.clock_bytes() == version.clock_bytes())
                    })
                })
                .cloned()
                .collect();
            if !missing.is_empty() {
                self.repair_replica(r, shard_index, key, missing);
            }
        }
        let shard = self.replicas[replica].read(shard_index);
        GetResult::new(shard.get(key).and_then(|data| data.siblings.snapshot()))
    }

    /// Pushes read-repair versions into one replica: the apply-side merge
    /// path minus the element absorb (repair moves versions, not identity
    /// knowledge — fingerprints still differ afterwards, and anti-entropy
    /// settles them as usual).
    fn repair_replica(
        &self,
        replica: usize,
        shard_index: usize,
        key: &str,
        versions: Vec<StoredVersion<B>>,
    ) {
        let (mut plane, mut shard) = {
            let _timer = self.profile.is_enabled().then(|| self.profile.time(&self.profile.lock));
            (self.plane[shard_index].lock(), self.replicas[replica].write(shard_index))
        };
        let Some(entry) = plane.get_mut(key) else { return };
        if !shard.contains_key(key) {
            let claimed =
                entry.unclaimed[replica].take().expect("initial element claimed exactly once");
            shard.insert(key.to_owned(), KeyData::new(&self.backend, key, claimed));
        }
        let mut data = shard.get_mut(key).expect("inserted above");
        for incoming in versions {
            let clock = incoming.clock().clone();
            let outcome = data.siblings.merge_version(&self.backend, incoming, false);
            if outcome.stored {
                self.backend.retain_clock(&mut entry.state, &clock);
            }
            for evicted in &outcome.evicted {
                self.backend.release_clock(&mut entry.state, evicted.clock());
            }
        }
    }

    /// Causal write at one replica. The new version's clock dominates
    /// everything in `context` (plus the writing element's own knowledge);
    /// stored siblings the context covers are evicted, the rest remain
    /// concurrent siblings. Returns the written version's clock.
    pub fn put(
        &self,
        replica: usize,
        key: &str,
        value: Value,
        context: Option<&B::Clock>,
    ) -> B::Clock {
        self.write(replica, key, Some(value), context)
    }

    /// Causal delete at one replica: a tombstone write. The key is fully
    /// dropped later, by [`Cluster::compact`], once the tombstone is the
    /// sole version everywhere.
    pub fn delete(&self, replica: usize, key: &str, context: Option<&B::Clock>) -> B::Clock {
        self.write(replica, key, None, context)
    }

    fn write(
        &self,
        replica: usize,
        key: &str,
        value: Option<Value>,
        context: Option<&B::Clock>,
    ) -> B::Clock {
        let shard_index = self.shards.index(key);
        let (mut plane, mut shard) = {
            let _timer = self.profile.is_enabled().then(|| self.profile.time(&self.profile.lock));
            (self.plane[shard_index].lock(), self.replicas[replica].write(shard_index))
        };
        // The common case is an already-known key: probe before allocating
        // an owned copy for the map entry.
        if !plane.contains_key(key) {
            let (state, elements) = self.backend.new_key(self.replicas.len());
            plane.insert(
                key.to_owned(),
                KeyPlane { state, unclaimed: elements.into_iter().map(Some).collect() },
            );
        }
        let entry = plane.get_mut(key).expect("inserted above");
        if !shard.contains_key(key) {
            let element =
                entry.unclaimed[replica].take().expect("initial element claimed exactly once");
            shard.insert(key.to_owned(), KeyData::new(&self.backend, key, element));
        }
        let mut data = shard.get_mut(key).expect("inserted above");
        let (advanced, clock, dot) = {
            let _timer = self.profile.is_enabled().then(|| self.profile.time(&self.profile.join));
            self.backend.write(&mut entry.state, data.element(), context)
        };
        data.set_element(&self.backend, advanced);
        // Memoized-order fast path: a context that equals the sibling
        // set's cached context supersedes every sibling without a single
        // relation check (the fresh dot makes each domination strict).
        // Exactly these writes are delta-eligible: the mint-time context
        // is the set itself, whose identity the O(1)-maintained sibling
        // hash pins — record `(dot, hash)` as the version's origin so
        // anti-entropy can ship it as dot + fingerprint.
        let matched = data.siblings.matches_context(context);
        let origin = (matched && self.policy.delta_frames).then(|| {
            let mut dot_bytes = Vec::new();
            self.backend.encode_clock(&dot, &mut dot_bytes);
            DeltaOrigin { dot_bytes: dot_bytes.into(), ctx_fp: data.siblings.versions_hash() }
        });
        let incoming = StoredVersion::new_with_origin(
            &self.backend,
            Version { clock: clock.clone(), value },
            origin,
        );
        let _timer = self.profile.is_enabled().then(|| self.profile.time(&self.profile.relation));
        let (stored, evicted) = if matched {
            (true, data.siblings.replace_all(&self.backend, incoming))
        } else {
            let outcome = data.siblings.merge_version(&self.backend, incoming, true);
            (outcome.stored, outcome.evicted)
        };
        if stored {
            self.backend.retain_clock(&mut entry.state, &clock);
        }
        for evicted in &evicted {
            self.backend.release_clock(&mut entry.state, evicted.clock());
        }
        clock
    }

    /// Whether `key`'s universe exists anywhere in the cluster's clock
    /// plane.
    #[must_use]
    pub fn has_key(&self, key: &str) -> bool {
        self.plane[self.shards.index(key)].lock().contains_key(key)
    }

    /// Creates `key`'s universe rooted at `root` — the decentralized
    /// creation path. Multi-process nodes call this with a fork half of
    /// their membership identity before their first write of an unknown
    /// key, so independent creations of the same key at different nodes
    /// mint disjoint identity subtrees that later merge as ordinary
    /// siblings. Returns `false` (leaving the plane untouched) when the
    /// key already exists or the backend cannot root universes without
    /// coordination.
    pub fn create_key_rooted(&self, key: &str, root: &B::Element) -> bool {
        let shard_index = self.shards.index(key);
        let mut plane = self.plane[shard_index].lock();
        if plane.contains_key(key) {
            return false;
        }
        let Some((state, elements)) = self.backend.new_key_rooted(self.replicas.len(), root) else {
            return false;
        };
        plane.insert(
            key.to_owned(),
            KeyPlane { state, unclaimed: elements.into_iter().map(Some).collect() },
        );
        true
    }

    /// The digest of one replica's whole data plane. Fingerprints are the
    /// keys' sealed fingerprints — nothing is hashed or encoded here.
    #[must_use]
    pub fn build_digest(&self, replica: usize) -> Vec<DigestEntry> {
        self.digest_entries(replica, None)
    }

    /// The digest lines of the keys in `scope`'s buckets (every key when
    /// `scope` is `None`), sorted by key.
    fn digest_entries(&self, replica: usize, scope: Option<&BucketMask>) -> Vec<DigestEntry> {
        let mut entries = Vec::new();
        for shard_index in 0..self.shards.count() {
            let shard = self.replicas[replica].read(shard_index);
            for (key, data) in shard.iter().filter(|(_, data)| in_scope(scope, data)) {
                debug_assert_eq!(data.fingerprint(), data.fresh_fingerprint(), "unsealed {key}");
                entries.push(DigestEntry {
                    key: key.clone(),
                    fingerprint: data.fingerprint(),
                    ctx_fp: data.siblings.versions_hash(),
                });
            }
        }
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        entries
    }

    /// An O(1) root fingerprint of one replica's whole digest: a hash over
    /// the data plane's 256 bucket sums, which every write keeps current.
    /// It takes no lock, allocates nothing and sorts nothing. Equal roots
    /// mean equal digests mean nothing to exchange — the adaptive wire
    /// opens every exchange with this 8-byte probe and skips the
    /// digest/delta flow entirely on a hit. Correctness never depends on
    /// it: a miss (or a 64-bit collision, the same trust model as the
    /// per-key fingerprint skip) just falls back to the digest round.
    #[must_use]
    pub fn digest_root(&self, replica: usize) -> u64 {
        self.replicas[replica].root()
    }

    /// The buckets, at `level`, where the requester's sums differ from the
    /// responder's `theirs` (`2^level` sums, length checked by the
    /// decoder).
    fn differing_buckets(&self, replica: usize, level: u8, theirs: &[u64]) -> BucketMask {
        let mut mask = BucketMask::empty(level);
        let ours = self.replicas[replica].bucket_sums(level);
        for (bucket, (ours, theirs)) in ours.iter().zip(theirs).enumerate() {
            if ours != theirs {
                mask.insert(bucket);
            }
        }
        mask
    }

    /// Builds the responder's delta for a requester digest: every key in
    /// `scope` the responder holds whose fingerprint differs (or which the
    /// requester lacks) is shipped — forked element plus the shared
    /// sibling set (`Arc` bumps, no value copies).
    fn respond_delta(
        &self,
        responder: usize,
        digest: &[DigestEntry],
        scope: Option<&BucketMask>,
    ) -> (Vec<KeyDelta<B>>, usize) {
        let requested: HashMap<&str, &DigestEntry> =
            digest.iter().map(|entry| (entry.key.as_str(), entry)).collect();
        let mut deltas = Vec::new();
        let mut skipped = 0usize;
        for shard_index in 0..self.shards.count() {
            let keys: Vec<(Key, u64)> = {
                let shard = self.replicas[responder].read(shard_index);
                shard
                    .iter()
                    .filter(|(_, data)| in_scope(scope, data))
                    .filter_map(|(key, data)| match requested.get(key.as_str()) {
                        Some(entry) if entry.fingerprint == data.fingerprint() => None,
                        Some(entry) => Some((key.clone(), entry.ctx_fp)),
                        // The requester lacks the key: its sibling set is
                        // empty, whose hash is 0.
                        None => Some((key.clone(), 0)),
                    })
                    .collect()
            };
            for (key, assumed_fp) in keys {
                if let Some((delta, skips)) =
                    self.ship_key(responder, shard_index, &key, assumed_fp)
                {
                    skipped += skips;
                    deltas.push(delta);
                }
            }
        }
        deltas.sort_by(|a, b| a.key.cmp(&b.key));
        (deltas, skipped)
    }

    /// Forks the responder's element for `key` and ships its sibling set
    /// (`Arc` bumps, no value copies), minus any version the requester
    /// provably already holds — reshipping those would be pure redundancy.
    /// Which versions those are is inferred from `assumed_fp` alone (see
    /// [`known_subset`]), so dedup costs zero extra digest bytes. Returns
    /// the delta plus the number of versions skipped that way. The element
    /// always ships (fingerprint mismatches can be element-only), and the
    /// full-frame baseline ships whole sibling sets — the PR 5 wire.
    fn ship_key(
        &self,
        responder: usize,
        shard_index: usize,
        key: &Key,
        assumed_fp: u64,
    ) -> Option<(KeyDelta<B>, usize)> {
        let (mut plane, mut shard) = {
            let _timer = self.profile.is_enabled().then(|| self.profile.time(&self.profile.lock));
            (self.plane[shard_index].lock(), self.replicas[responder].write(shard_index))
        };
        let entry = plane.get_mut(key)?;
        let mut data = shard.get_mut(key)?;
        let (kept, shipped) = {
            let _timer = self.profile.is_enabled().then(|| self.profile.time(&self.profile.join));
            self.backend.detach(&mut entry.state, data.element())
        };
        data.set_element(&self.backend, kept);
        let known = if self.policy.delta_frames {
            let hashes: Vec<u64> = data.siblings.iter().map(StoredVersion::content_hash).collect();
            known_subset(&hashes, assumed_fp)
        } else {
            0
        };
        let versions: Vec<_> = data
            .siblings
            .iter()
            .enumerate()
            .filter(|(index, _)| known & (1 << index) == 0)
            .map(|(_, version)| version.clone())
            .collect();
        let skipped = known.count_ones() as usize;
        Some((KeyDelta { key: key.clone(), element: shipped, versions, assumed_fp }, skipped))
    }

    /// Builds the full-frames refetch for a NAK: the responder re-ships
    /// exactly the missed keys (`assumed_fp` of 0 is irrelevant — the
    /// refetch is encoded with [`DeltaPolicy::FULL_ONLY`]).
    fn respond_nak(&self, responder: usize, keys: &[Key]) -> Vec<KeyDelta<B>> {
        let mut deltas: Vec<KeyDelta<B>> = keys
            .iter()
            .filter_map(|key| {
                self.ship_key(responder, self.shards.index(key), key, 0).map(|(delta, _)| delta)
            })
            .collect();
        deltas.sort_by(|a, b| a.key.cmp(&b.key));
        deltas
    }

    /// Applies one delta reply at the requester: element `join` (with the
    /// backend's merge-time GC) plus sibling merges. Delta-frame versions
    /// whose context fingerprint matches the local sibling set are
    /// reconstructed as `context ⊔ dot`; the rest are **missed** — the
    /// returned keys need a NAK/full-frame refetch round.
    ///
    /// Frames are grouped by destination shard, the (clock-plane,
    /// data-shard) lock pair is taken **once per shard** instead of once
    /// per key, and each key's sibling cache upkeep runs once after all of
    /// the key's versions merged instead of once per version — the
    /// `Arc`-swapped snapshot publishes exactly once, and the k-way context
    /// rebuild runs **at most** once (only when an eviction invalidated the
    /// incrementally-maintained context — see `SiblingSet::finish_deferred`).
    fn apply_delta_batch(&self, requester: usize, deltas: Vec<WireKeyDelta<B>>) -> Vec<Key> {
        let mut misses = Vec::new();
        if deltas.is_empty() {
            return misses;
        }
        self.wire.batched_applies.fetch_add(1, Ordering::Relaxed);
        self.profile.count(&self.profile.batched_exchanges);
        let mut grouped: Vec<(usize, WireKeyDelta<B>)> =
            deltas.into_iter().map(|delta| (self.shards.index(&delta.key), delta)).collect();
        grouped.sort_by_key(|(shard_index, _)| *shard_index);
        let mut grouped = grouped.into_iter().peekable();
        while let Some(&(shard_index, _)) = grouped.peek() {
            let (mut plane, mut shard) = {
                let _timer =
                    self.profile.is_enabled().then(|| self.profile.time(&self.profile.lock));
                (self.plane[shard_index].lock(), self.replicas[requester].write(shard_index))
            };
            while let Some((_, delta)) =
                grouped.next_if(|&(next_shard, _)| next_shard == shard_index)
            {
                if let Some(miss) = self.apply_key_delta(requester, &mut plane, &mut shard, delta) {
                    misses.push(miss);
                }
            }
        }
        misses
    }

    /// Applies one key's wire delta under already-held shard locks: element
    /// absorb (one watermark-gated collapse check), then every version
    /// merge. Returns the key on a delta-frame fingerprint miss (it needs
    /// a NAK/full-frame refetch). The sibling cache upkeep is deferred to
    /// a single close after the last version (one snapshot publish, a
    /// context rebuild only if an eviction forced one) — sound because the
    /// reconstruction base is captured before the first merge and the
    /// shard write lock is held across the whole key.
    fn apply_key_delta(
        &self,
        requester: usize,
        plane: &mut HashMap<Key, KeyPlane<B>>,
        shard: &mut ShardWrite<'_, B>,
        delta: WireKeyDelta<B>,
    ) -> Option<Key> {
        let WireKeyDelta { key, element, versions } = delta;
        // A key this cluster has never seen: a multi-process node learning
        // it from a peer. Adopt the shipped element as the local replica's
        // first element — never mint a fresh universe here, that would
        // collide with the sender's. Single-replica clusters only (the
        // node topology); elsewhere, and for backends that cannot adopt
        // foreign elements, the key is skipped as before.
        let adopted = if plane.contains_key(&key) {
            false
        } else {
            if self.replicas.len() != 1 {
                return None;
            }
            let state = self.backend.adopt_key(&element)?;
            plane.insert(key.clone(), KeyPlane { state, unclaimed: vec![None] });
            shard.insert(key.clone(), KeyData::new(&self.backend, &key, element.clone()));
            true
        };
        let entry = plane.get_mut(&key).expect("present or just adopted");
        if !shard.contains_key(&key) {
            let claimed =
                entry.unclaimed[requester].take().expect("initial element claimed exactly once");
            shard.insert(key.clone(), KeyData::new(&self.backend, &key, claimed));
        }
        let mut data = shard.get_mut(&key).expect("inserted above");
        // An adopted element was consumed as the local element; there is
        // nothing separate to absorb.
        if !adopted {
            let absorbed = {
                let _timer =
                    self.profile.is_enabled().then(|| self.profile.time(&self.profile.join));
                self.backend.absorb(&mut entry.state, data.element(), &element)
            };
            data.set_element(&self.backend, absorbed);
        }
        let _timer = self.profile.is_enabled().then(|| self.profile.time(&self.profile.relation));
        // Every delta frame of this batch was minted against one
        // sibling-set state, so the base context and its hash are
        // captured once, *before* any merge of the batch mutates the
        // set — merges of earlier versions must not invalidate the
        // reconstruction base of later ones.
        let base_fp = data.siblings.versions_hash();
        let base_ctx = versions
            .iter()
            .any(|version| matches!(version, WireVersion::Delta { .. }))
            .then(|| data.siblings.context().cloned())
            .flatten();
        let mut key_missed = false;
        let mut mutated = false;
        for version in versions {
            let incoming = match version {
                WireVersion::Full(stored) => stored,
                WireVersion::Delta { dot, dot_bytes, ctx_fp, value } => {
                    if ctx_fp != base_fp {
                        key_missed = true;
                        continue;
                    }
                    rebuild_wire_version(
                        &self.backend,
                        base_ctx.as_ref(),
                        &dot,
                        dot_bytes,
                        ctx_fp,
                        value,
                    )
                }
            };
            let clock = incoming.clock().clone();
            let outcome = data.siblings.merge_version_deferred(&self.backend, incoming);
            if outcome.ctx_rebuilt {
                self.profile.count(&self.profile.ctx_rebuilds);
            }
            mutated |= outcome.stored || !outcome.evicted.is_empty();
            if outcome.stored {
                self.backend.retain_clock(&mut entry.state, &clock);
            }
            for evicted in &outcome.evicted {
                self.backend.release_clock(&mut entry.state, evicted.clock());
            }
        }
        if mutated && data.siblings.finish_deferred(&self.backend) {
            self.profile.count(&self.profile.ctx_rebuilds);
        }
        key_missed.then_some(key)
    }

    /// One in-process anti-entropy exchange: `requester` [pulls](Self::pull)
    /// from `responder` over a link that answers with
    /// [`serve`](Self::serve) on the responder — the exact message flow of
    /// a TCP node, minus the socket. Envelopes carry the replica index as
    /// their sender.
    pub fn anti_entropy(&self, requester: usize, responder: usize) {
        let mut link = LocalLink { cluster: self, responder };
        self.pull(requester, requester, &mut link)
            .expect("in-process exchanges carry only locally-encoded messages");
    }

    /// The requester half of the anti-entropy protocol: one pull of
    /// `replica` from the peer behind `link`. Opens with an 8-byte
    /// digest-root probe (a hit means the peers already converged and the
    /// pull ends). A miss carries the responder's bucket sums at some
    /// level (none below 128 keys); the digest then holds only the keys of
    /// the buckets whose sums differ, marked by a bucket-mask trailer.
    /// The delta reply is applied through the batched path, and
    /// fingerprint misses are refetched as full frames in at most three
    /// NAK rounds. `from` is the sender id stamped on every envelope this
    /// side sends.
    ///
    /// Every merge is idempotent, so a duplicated, dropped or replayed
    /// reply can fail one pull but never corrupt the store.
    ///
    /// # Errors
    ///
    /// Transport failures from the link, and replies of the wrong kind or
    /// that fail to decode ([`io::ErrorKind::InvalidData`]).
    pub fn pull(&self, replica: usize, from: usize, link: &mut impl Link) -> io::Result<()> {
        self.wire.exchanges.fetch_add(1, Ordering::Relaxed);
        let mut scope = None;
        if self.policy.delta_frames {
            // The perturb knob forces misses so benches and tests exercise
            // the digest fallback.
            let mut root = self.digest_root(replica);
            if self.policy.perturb_fingerprints {
                root ^= PERTURB_MASK;
            }
            let probe = Envelope { from, kind: MessageKind::Probe, payload: encode_probe(root) };
            self.wire.root_probes.fetch_add(1, Ordering::Relaxed);
            count_sent(&self.wire.digest_bytes, &probe);
            let reply = link.request(&probe)?;
            match reply.kind {
                MessageKind::Ack => return Ok(()),
                MessageKind::Miss => {
                    let (level, theirs) =
                        decode_miss(&reply.payload).map_err(|_| invalid("miss did not decode"))?;
                    if level > 0 {
                        let mask = self.differing_buckets(replica, level, &theirs);
                        if mask.is_empty() {
                            // Every bucket already agrees: the root differed
                            // only across writes racing this exchange.
                            return Ok(());
                        }
                        scope = Some(mask);
                    }
                }
                _ => return Err(invalid("probe reply was neither Ack nor Miss")),
            }
        }
        let digest = self.digest_entries(replica, scope.as_ref());
        let payload = self.with_codec(|| encode_digest_scoped(&digest, scope.as_ref()));
        let digest = Envelope { from, kind: MessageKind::Digest, payload };
        count_sent(&self.wire.digest_bytes, &digest);
        let mut reply = link.request(&digest)?;
        for round in 0..=NAK_ROUNDS {
            if reply.kind != MessageKind::Delta {
                return Err(invalid("reply was not a Delta"));
            }
            let deltas = self
                .with_codec(|| decode_delta(&self.backend, &reply.payload))
                .map_err(|_| invalid("delta did not decode"))?;
            let misses = self.apply_delta_batch(replica, deltas);
            if misses.is_empty() || round == NAK_ROUNDS {
                break;
            }
            let nak = Envelope { from, kind: MessageKind::Nak, payload: encode_nak(&misses) };
            self.wire.nak_refetches.fetch_add(misses.len(), Ordering::Relaxed);
            count_sent(&self.wire.delta_bytes, &nak);
            reply = link.request(&nak)?;
        }
        Ok(())
    }

    /// The responder half of the anti-entropy protocol: answers one
    /// request addressed to `replica` — Probe with Ack (digest roots
    /// equal) or Miss (carrying bucket sums once the replica holds 128
    /// keys), Digest with the adaptively-framed Delta of the keys in its
    /// bucket scope, Nak with a full-frame Delta of the missed keys.
    /// `from` is the sender id stamped on the reply. Returns `None` for a
    /// payload that does not decode and for every other message kind;
    /// peer input never panics.
    pub fn serve(&self, replica: usize, from: usize, request: &Envelope) -> Option<Envelope> {
        let (payload, stats) = match request.kind {
            MessageKind::Probe => {
                let root = decode_probe(&request.payload).ok()?;
                let plane = &self.replicas[replica];
                let reply = if root == plane.root() {
                    self.wire.root_matches.fetch_add(1, Ordering::Relaxed);
                    Envelope { from, kind: MessageKind::Ack, payload: Vec::new() }
                } else {
                    let level = scope_level(plane.key_count());
                    let payload = encode_miss(level, &plane.bucket_sums(level));
                    Envelope { from, kind: MessageKind::Miss, payload }
                };
                count_sent(&self.wire.digest_bytes, &reply);
                return Some(reply);
            }
            MessageKind::Digest => {
                let (digest, scope) =
                    self.with_codec(|| decode_digest_scoped(&request.payload)).ok()?;
                let (deltas, versions_skipped) =
                    self.respond_delta(replica, &digest, scope.as_ref());
                self.wire.versions_skipped.fetch_add(versions_skipped, Ordering::Relaxed);
                self.with_codec(|| encode_delta(&self.backend, &deltas, self.policy))
            }
            MessageKind::Nak => {
                let keys = decode_nak(&request.payload).ok()?;
                let refetch = self.respond_nak(replica, &keys);
                self.with_codec(|| encode_delta(&self.backend, &refetch, DeltaPolicy::FULL_ONLY))
            }
            _ => return None,
        };
        let reply = Envelope { from, kind: MessageKind::Delta, payload };
        self.wire.record_delta_payload(envelope_len(from, reply.payload.len()), stats);
        Some(reply)
    }

    /// Runs `f` inside the profile's codec section.
    fn with_codec<T>(&self, f: impl FnOnce() -> T) -> T {
        let _timer = self.profile.is_enabled().then(|| self.profile.time(&self.profile.codec));
        f()
    }

    /// Whether every replica holds the identical sibling set for every key
    /// (values and clocks; element identities are allowed to differ).
    #[must_use]
    pub fn converged(&self) -> bool {
        let reference: HashMap<Key, Vec<Vec<u8>>> = self.sibling_snapshot(0);
        (1..self.replicas.len()).all(|replica| self.sibling_snapshot(replica) == reference)
    }

    fn sibling_snapshot(&self, replica: usize) -> HashMap<Key, Vec<Vec<u8>>> {
        let mut snapshot = HashMap::new();
        for shard_index in 0..self.shards.count() {
            let shard = self.replicas[replica].read(shard_index);
            for (key, data) in shard.iter() {
                snapshot.insert(key.clone(), data.siblings.canonical_versions());
            }
        }
        snapshot
    }

    /// Quiescent-point compaction, shard by shard. Two passes per key:
    ///
    /// 1. a **forced GC flush** of every replica element — the amortized
    ///    GC's deferred collapses all land here, so a compaction boundary
    ///    leaves no watermark debt behind;
    /// 2. for every key whose sibling set has converged to a single
    ///    version on every replica and whose elements have reached equal
    ///    knowledge, the backend re-mints the whole per-key identity
    ///    universe; keys whose sole surviving version is a tombstone are
    ///    dropped outright.
    ///
    /// Takes `&mut self`: compaction rewrites clocks wholesale, so it must
    /// run at a true quiescent point (no concurrent clients or gossip) —
    /// the exclusive borrow enforces exactly that.
    pub fn compact(&mut self) -> CompactionStats {
        let mut stats = CompactionStats::default();
        for shard_index in 0..self.shards.count() {
            let plane = self.plane[shard_index].get_mut();
            let keys: Vec<Key> = plane.keys().cloned().collect();
            for key in keys {
                let entry = plane.get_mut(&key).expect("listed key");
                // Forced GC pass: clear any deferred collapse debt.
                for replica in &self.replicas {
                    let mut shard = replica.write(shard_index);
                    if let Some(mut data) = shard.get_mut(&key) {
                        if let Some(flushed) =
                            self.backend.flush_gc(&mut entry.state, data.element())
                        {
                            data.set_element(&self.backend, flushed);
                            stats.elements_flushed += 1;
                        }
                    };
                }
                // Gather every replica's element and its single version.
                let mut elements = Vec::with_capacity(self.replicas.len());
                let mut versions: Vec<StoredVersion<B>> = Vec::with_capacity(self.replicas.len());
                let mut eligible = true;
                for replica in &self.replicas {
                    let shard = replica.read(shard_index);
                    match shard.get(&key) {
                        Some(data) if data.siblings.len() == 1 => {
                            elements.push(data.element().clone());
                            versions
                                .push(data.siblings.iter().next().expect("length checked").clone());
                        }
                        _ => {
                            eligible = false;
                            break;
                        }
                    }
                }
                if !eligible || versions.is_empty() {
                    continue;
                }
                let same = versions[1..].iter().all(|version| {
                    version.version().value == versions[0].version().value
                        && self.backend.relation(version.clock(), versions[0].clock())
                            == vstamp_core::Relation::Equal
                });
                if !same {
                    continue;
                }
                if versions[0].version().value.is_none() {
                    // A fully-settled tombstone: drop the key everywhere.
                    // This needs no clock recycling, only the quiescence
                    // the checks above established, so it applies to every
                    // backend alike (identifier-based ones included).
                    for replica in &self.replicas {
                        replica.write(shard_index).remove(&key);
                    }
                    plane.remove(&key);
                    stats.keys_dropped += 1;
                    continue;
                }
                if let Some((fresh_elements, fresh_clock)) = self.backend.compact_quiescent(
                    &mut entry.state,
                    &elements,
                    std::slice::from_ref(versions[0].clock()),
                ) {
                    for (replica, fresh) in self.replicas.iter().zip(fresh_elements) {
                        let mut shard = replica.write(shard_index);
                        let mut data = shard.get_mut(&key).expect("eligibility checked");
                        data.set_element(&self.backend, fresh);
                        data.siblings.remint(&self.backend, fresh_clock.clone());
                    }
                    stats.keys_recycled += 1;
                }
            }
        }
        stats
    }

    /// Space metrics over the whole cluster.
    #[must_use]
    pub fn metrics(&self) -> StoreMetrics {
        let mut keys = std::collections::HashSet::new();
        let mut total_versions = 0usize;
        let mut max_siblings = 0usize;
        let mut clock_bits_total = 0usize;
        let mut element_bits_total = 0usize;
        let mut per_key_samples = 0usize;
        let mut per_key_total = 0usize;
        let mut max_key_metadata_bits = 0usize;
        for replica in &self.replicas {
            for shard_index in 0..self.shards.count() {
                let shard = replica.read(shard_index);
                for (key, data) in shard.iter() {
                    keys.insert(key.clone());
                    total_versions += data.siblings.len();
                    max_siblings = max_siblings.max(data.siblings.len());
                    let clocks: usize =
                        data.siblings.iter().map(|v| self.backend.clock_bits(v.clock())).sum();
                    let element = self.backend.element_bits(data.element());
                    clock_bits_total += clocks;
                    element_bits_total += element;
                    per_key_samples += 1;
                    per_key_total += clocks + element;
                    max_key_metadata_bits = max_key_metadata_bits.max(clocks + element);
                }
            }
        }
        StoreMetrics {
            label: self.backend.label(),
            keys: keys.len(),
            total_versions,
            max_siblings,
            clock_bits_total,
            element_bits_total,
            mean_key_metadata_bits: if per_key_samples == 0 {
                0.0
            } else {
                per_key_total as f64 / per_key_samples as f64
            },
            max_key_metadata_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{DynamicVvBackend, GcWatermarks, VstampBackend};
    use crate::wire::encode_digest;

    fn full_sweep<B: StoreBackend>(cluster: &Cluster<B>) {
        let n = cluster.replica_count();
        for _ in 0..n {
            for requester in 0..n {
                for responder in 0..n {
                    if requester != responder {
                        cluster.anti_entropy(requester, responder);
                    }
                }
            }
        }
    }

    #[test]
    fn put_get_roundtrip_and_context_supersedes() {
        let cluster = Cluster::new(VstampBackend::gc(), 3, 4);
        cluster.put(0, "cart", b"milk".to_vec(), None);
        let read = cluster.get(0, "cart");
        assert_eq!(read.values(), vec![b"milk".to_vec()]);
        let context = read.context().cloned().expect("key present");
        cluster.put(0, "cart", b"milk+bread".to_vec(), Some(&context));
        let read = cluster.get(0, "cart");
        assert_eq!(read.values(), vec![b"milk+bread".to_vec()]);
        // Another replica sees nothing until anti-entropy runs.
        assert!(cluster.get(1, "cart").values().is_empty());
        cluster.anti_entropy(1, 0);
        assert_eq!(cluster.get(1, "cart").values(), vec![b"milk+bread".to_vec()]);
    }

    #[test]
    fn concurrent_writes_surface_as_siblings_and_merge() {
        let cluster = Cluster::new(VstampBackend::gc(), 2, 2);
        cluster.put(0, "k", b"left".to_vec(), None);
        cluster.put(1, "k", b"right".to_vec(), None);
        cluster.anti_entropy(0, 1);
        let read = cluster.get(0, "k");
        assert_eq!(read.values().len(), 2, "concurrent writes must both survive");
        // A context-carrying resolution collapses the siblings.
        let context = read.context().cloned().unwrap();
        cluster.put(0, "k", b"merged".to_vec(), Some(&context));
        assert_eq!(cluster.get(0, "k").values(), vec![b"merged".to_vec()]);
        full_sweep(&cluster);
        assert!(cluster.converged());
        assert_eq!(cluster.get(1, "k").values(), vec![b"merged".to_vec()]);
    }

    #[test]
    fn get_snapshots_are_point_in_time_stable() {
        let cluster = Cluster::new(VstampBackend::gc(), 2, 4);
        cluster.put(0, "k", b"v1".to_vec(), None);
        let before = cluster.get(0, "k");
        let held = before.snapshot().cloned().expect("key present");
        // A later write swaps the published snapshot but must not disturb
        // a handle a reader already holds.
        cluster.put(0, "k", b"v2".to_vec(), before.context());
        assert_eq!(before.values(), vec![b"v1".to_vec()]);
        assert_eq!(held.versions().len(), 1);
        let after = cluster.get(0, "k");
        assert_eq!(after.values(), vec![b"v2".to_vec()]);
        // Absent keys stay snapshot-free; tombstoned keys keep a context.
        assert!(cluster.get(0, "missing").snapshot().is_none());
        cluster.delete(0, "k", after.context());
        let tombstoned = cluster.get(0, "k");
        assert_eq!(tombstoned.live_len(), 0);
        assert!(tombstoned.context().is_some());
    }

    #[test]
    fn cluster_config_controls_sharding() {
        let cluster = Cluster::with_config(VstampBackend::gc(), ClusterConfig::default());
        assert_eq!(cluster.shard_count(), 16);
        assert_eq!(cluster.replica_count(), 3);
        // Non-power-of-two shard counts take the modulo path and still
        // round-trip traffic correctly.
        let odd = Cluster::with_config(DynamicVvBackend::new(), ClusterConfig::new(2, 7));
        assert_eq!(odd.shard_count(), 7);
        for i in 0..24 {
            odd.put(i % 2, &format!("key-{i}"), vec![i as u8], None);
        }
        for _ in 0..2 {
            odd.anti_entropy(0, 1);
            odd.anti_entropy(1, 0);
        }
        assert!(odd.converged());
        for i in 0..24 {
            assert_eq!(odd.get(1, &format!("key-{i}")).values(), vec![vec![i as u8]]);
        }
        // Degenerate configs clamp instead of panicking.
        let tiny = Cluster::with_config(VstampBackend::eager(), ClusterConfig::new(0, 0));
        assert_eq!(tiny.replica_count(), 1);
        assert_eq!(tiny.shard_count(), 1);
    }

    #[test]
    fn exchanges_skip_in_sync_keys() {
        let cluster = Cluster::new(VstampBackend::gc(), 2, 2);
        cluster.put(0, "a", b"1".to_vec(), None);
        full_sweep(&cluster);
        // Everything in sync: a further exchange is one probe hit and
        // ships nothing.
        let before = cluster.gossip_stats();
        cluster.anti_entropy(1, 0);
        let after = cluster.gossip_stats();
        assert_eq!(after.root_matches - before.root_matches, 1);
        assert!(after.digest_bytes > before.digest_bytes);
        assert_eq!(after.delta_bytes, before.delta_bytes);
        // Without the probe the digest round runs, and still ships no
        // version.
        let full = Cluster::with_config(
            VstampBackend::gc(),
            ClusterConfig::new(2, 2).without_delta_frames(),
        );
        full.put(0, "a", b"1".to_vec(), None);
        full_sweep(&full);
        let before = full.gossip_stats();
        full.anti_entropy(1, 0);
        let after = full.gossip_stats();
        assert_eq!(after.root_probes, before.root_probes);
        assert_eq!(after.full_frames, before.full_frames);
        assert_eq!(after.delta_frames, before.delta_frames);
    }

    #[test]
    fn delete_then_compact_drops_the_key() {
        let mut cluster = Cluster::new(VstampBackend::gc(), 2, 2);
        cluster.put(0, "gone", b"v".to_vec(), None);
        full_sweep(&cluster);
        let context = cluster.get(1, "gone").context().cloned().unwrap();
        cluster.delete(1, "gone", Some(&context));
        full_sweep(&cluster);
        assert!(cluster.get(0, "gone").values().is_empty());
        let stats = cluster.compact();
        assert_eq!(stats.keys_dropped, 1);
        assert!(cluster.get(0, "gone").context().is_none());
        assert_eq!(cluster.metrics().keys, 0);
    }

    #[test]
    fn compaction_recycles_quiescent_keys_and_preserves_causality() {
        let mut cluster = Cluster::new(VstampBackend::gc(), 3, 2);
        let context = cluster.put(0, "k", b"v1".to_vec(), None);
        cluster.put(0, "k", b"v2".to_vec(), Some(&context));
        full_sweep(&cluster);
        assert!(cluster.converged());
        let before = cluster.metrics();
        let stats = cluster.compact();
        assert_eq!(stats.keys_recycled, 1);
        let after = cluster.metrics();
        assert!(
            after.clock_bits_total + after.element_bits_total
                <= before.clock_bits_total + before.element_bits_total
        );
        // Causality still works after the re-mint: a new write dominates.
        let read = cluster.get(2, "k");
        assert_eq!(read.values(), vec![b"v2".to_vec()]);
        cluster.put(2, "k", b"v3".to_vec(), read.context());
        full_sweep(&cluster);
        assert_eq!(cluster.get(0, "k").values(), vec![b"v3".to_vec()]);
    }

    #[test]
    fn deferred_gc_debt_is_flushed_at_the_compaction_boundary() {
        // Watermarks that never fire on their own: every collapse is debt
        // owed to the forced pass in `compact`.
        let never = GcWatermarks { merge_interval: u32::MAX, element_bits: u32::MAX };
        let mut cluster = Cluster::new(VstampBackend::gc_with(never), 3, 2);
        for round in 0..30u8 {
            for replica in 0..3 {
                let read = cluster.get(replica, "k");
                cluster.put(replica, "k", vec![round, replica as u8], read.context());
            }
            cluster.anti_entropy(usize::from(round) % 3, (usize::from(round) + 1) % 3);
        }
        // Leave genuine siblings behind so the key cannot re-mint and the
        // flush pass is the only collapse route.
        cluster.put(0, "k", b"left".to_vec(), None);
        cluster.put(1, "k", b"right".to_vec(), None);
        full_sweep(&cluster);
        let before = cluster.metrics().element_bits_total;
        let stats = cluster.compact();
        assert_eq!(stats.keys_recycled, 0);
        assert!(stats.elements_flushed > 0, "deferred collapse debt must flush");
        assert!(cluster.metrics().element_bits_total < before);
        // Causality is intact afterwards.
        let read = cluster.get(0, "k");
        cluster.put(0, "k", b"final".to_vec(), read.context());
        full_sweep(&cluster);
        assert_eq!(cluster.get(2, "k").values(), vec![b"final".to_vec()]);
    }

    #[test]
    fn profiling_sections_accumulate_when_enabled() {
        let mut cluster = Cluster::new(VstampBackend::gc(), 2, 2);
        cluster.enable_profiling();
        for i in 0..8u8 {
            let read = cluster.get(i as usize % 2, "p");
            cluster.put(i as usize % 2, "p", vec![i], read.context());
        }
        cluster.anti_entropy(0, 1);
        cluster.anti_entropy(1, 0);
        let snapshot = cluster.profile_snapshot();
        assert!(snapshot.join.calls > 0);
        assert!(snapshot.relation.calls > 0);
        assert!(snapshot.codec.calls > 0);
        assert!(snapshot.lock.calls > 0);
        // An unprofiled cluster stays at zero.
        let quiet = Cluster::new(VstampBackend::gc(), 2, 2);
        quiet.put(0, "q", b"v".to_vec(), None);
        assert_eq!(quiet.profile_snapshot().join.calls, 0);
    }

    #[test]
    fn gossip_mode_converges_like_direct_exchanges() {
        // One gossip thread per replica, each pulling from round-robin
        // peers while the others pull from it.
        let cluster = Cluster::new(VstampBackend::gc(), 4, 4);
        for i in 0..20 {
            cluster.put(i % 4, &format!("key-{i}"), vec![i as u8], None);
        }
        std::thread::scope(|scope| {
            for replica in 0..4 {
                let cluster = &cluster;
                scope.spawn(move || {
                    for round in 0..6 {
                        cluster.anti_entropy(replica, (replica + 1 + round % 3) % 4);
                    }
                });
            }
        });
        full_sweep(&cluster);
        assert!(cluster.converged());
        for i in 0..20 {
            for replica in 0..4 {
                assert_eq!(cluster.get(replica, &format!("key-{i}")).values(), vec![vec![i as u8]]);
            }
        }
    }

    #[test]
    fn dynamic_vv_backend_supports_the_same_protocol() {
        let cluster = Cluster::new(DynamicVvBackend::new(), 3, 2);
        cluster.put(0, "k", b"a".to_vec(), None);
        cluster.put(1, "k", b"b".to_vec(), None);
        full_sweep(&cluster);
        assert!(cluster.converged());
        let read = cluster.get(2, "k");
        assert_eq!(read.values().len(), 2);
        let context = read.context().cloned().unwrap();
        cluster.put(2, "k", b"resolved".to_vec(), Some(&context));
        full_sweep(&cluster);
        assert_eq!(cluster.get(0, "k").values(), vec![b"resolved".to_vec()]);
        assert_eq!(cluster.metrics().label, "dynamic-vv");
    }

    #[test]
    fn shard_indexer_modulo_dispatch_is_uniform_and_roundtrips() {
        // Non-power-of-two counts take ShardIndexer's modulo path; FNV
        // dispatch must still spread keys evenly and serve traffic.
        for shards in [3usize, 7] {
            let indexer = ShardIndexer::new(shards);
            let keys = 3000usize;
            let mut counts = vec![0usize; shards];
            for i in 0..keys {
                counts[indexer.index(&format!("key-{i}"))] += 1;
            }
            let expected = keys / shards;
            for (shard, &count) in counts.iter().enumerate() {
                assert!(
                    count > expected / 2 && count < expected * 2,
                    "shards={shards}: shard {shard} got {count} of {keys} (expected ≈{expected})"
                );
            }
            let cluster = Cluster::new(VstampBackend::gc(), 2, shards);
            assert_eq!(cluster.shard_count(), shards);
            for i in 0..40usize {
                cluster.put(i % 2, &format!("key-{i}"), vec![i as u8], None);
            }
            for _ in 0..2 {
                cluster.anti_entropy(0, 1);
                cluster.anti_entropy(1, 0);
            }
            assert!(cluster.converged());
            for i in 0..40usize {
                assert_eq!(cluster.get(0, &format!("key-{i}")).values(), vec![vec![i as u8]]);
            }
        }
    }

    #[test]
    fn delta_frames_flow_and_perturbed_fingerprints_fall_back() {
        // One replica writes, the other pulls after every write, so the
        // receiver is always exactly one version behind the writer — the
        // delta-frame sweet spot. The dynamic-vv clock grows a vector
        // entry per write, so full frames quickly outgrow dot +
        // fingerprint and the adaptive encoder switches over.
        let run = |config: ClusterConfig| {
            let cluster = Cluster::with_config(DynamicVvBackend::new(), config);
            cluster.put(0, "hot", b"seed".to_vec(), None);
            cluster.anti_entropy(1, 0);
            for round in 0..12u8 {
                let read = cluster.get(0, "hot");
                cluster.put(0, "hot", vec![round], read.context());
                cluster.anti_entropy(1, 0);
            }
            full_sweep(&cluster);
            assert!(cluster.converged(), "workload must converge");
            assert_eq!(
                cluster.get(1, "hot").values(),
                vec![vec![11u8]],
                "the last write must win everywhere"
            );
            cluster.gossip_stats()
        };
        let adaptive = run(ClusterConfig::new(2, 4));
        assert!(adaptive.delta_frames > 0, "one-behind pulls must ship delta frames");
        assert!(adaptive.wire_bytes_saved > 0);
        assert_eq!(adaptive.nak_refetches, 0, "serial exchanges never miss");

        let full = run(ClusterConfig::new(2, 4).without_delta_frames());
        assert_eq!(full.delta_frames, 0);
        assert!(
            adaptive.delta_bytes < full.delta_bytes,
            "adaptive wire must be smaller: {} vs {}",
            adaptive.delta_bytes,
            full.delta_bytes
        );

        // Perturbed fingerprints force every delta frame to miss: the
        // NAK/full-frame fallback carries the exchange and the cluster
        // still converges to the same state (asserted inside `run`).
        let perturbed = run(ClusterConfig::new(2, 4).with_perturbed_fingerprints());
        assert!(perturbed.nak_refetches > 0, "perturbation must exercise the NAK path");
        assert!(perturbed.delta_bytes > adaptive.delta_bytes, "misses cost an extra round");
    }

    #[test]
    fn apply_delta_batch_counts_one_lock_section_per_shard() {
        let mut cluster = Cluster::with_config(VstampBackend::gc(), ClusterConfig::new(2, 4));
        for key in ["a", "b", "c", "d", "e", "f"] {
            cluster.put(0, key, key.as_bytes().to_vec(), None);
        }
        cluster.enable_profiling();
        let digest = cluster.build_digest(1);
        let (deltas, _) = cluster.respond_delta(0, &digest, None);
        let shards_touched: std::collections::HashSet<usize> =
            deltas.iter().map(|delta| cluster.shards.index(&delta.key)).collect();
        let (payload, _) = encode_delta(cluster.backend(), &deltas, DeltaPolicy::FULL_ONLY);
        let decoded = decode_delta(cluster.backend(), &payload).expect("decodes");
        let before = cluster.profile_snapshot();
        let misses = cluster.apply_delta_batch(1, decoded);
        assert!(misses.is_empty());
        let after = cluster.profile_snapshot();
        // One lock section per touched shard — not one per key — plus at
        // most one context rebuild per key.
        assert_eq!(after.lock.calls - before.lock.calls, shards_touched.len() as u64);
        assert!(after.ctx_rebuilds - before.ctx_rebuilds <= deltas.len() as u64);
        assert_eq!(after.batched_exchanges - before.batched_exchanges, 1);
        assert_eq!(cluster.get(1, "a").values(), vec![b"a".to_vec()]);
    }

    /// A two-replica cluster with diverged data on both sides.
    fn diverged_pair() -> Cluster<VstampBackend> {
        let cluster = Cluster::new(VstampBackend::gc(), 2, 4);
        for i in 0..8u8 {
            cluster.put(usize::from(i % 2), &format!("k{i}"), vec![i], None);
        }
        cluster
    }

    fn is_request(kind: MessageKind) -> bool {
        matches!(kind, MessageKind::Probe | MessageKind::Digest | MessageKind::Nak)
    }

    #[test]
    fn serve_refuses_truncated_and_unexpected_messages() {
        let cluster = diverged_pair();
        let valid = [
            (MessageKind::Probe, encode_probe(cluster.digest_root(1))),
            (MessageKind::Digest, encode_digest(&cluster.build_digest(1))),
            (MessageKind::Nak, encode_nak(&["k0".to_owned(), "k2".to_owned()])),
        ];
        let serve = |kind, payload: &[u8]| {
            cluster.serve(0, 0, &Envelope { from: 1, kind, payload: payload.to_vec() })
        };
        for (kind, payload) in &valid {
            assert!(serve(*kind, payload).is_some(), "{kind:?}: a valid request is answered");
            for cut in 0..payload.len() {
                assert_eq!(serve(*kind, &payload[..cut]), None, "{kind:?} cut to {cut} bytes");
            }
        }
        // Replies, node-serving kinds and anything else that is not a
        // protocol request are refused whatever they carry.
        for kind in (0..=u8::MAX).filter_map(MessageKind::from_tag) {
            if is_request(kind) {
                continue;
            }
            for (_, payload) in &valid {
                assert_eq!(serve(kind, payload), None, "{kind:?} must be refused");
            }
            assert_eq!(serve(kind, &[]), None, "{kind:?} must be refused");
        }
        // Digest trailers: a scoped digest is answered, and cutting into
        // its trailer is refused — except a cut of the whole trailer,
        // which leaves a valid full digest.
        let digest = cluster.build_digest(1);
        let full = encode_digest(&digest);
        let mut mask = BucketMask::empty(3);
        mask.insert(5);
        let scoped = encode_digest_scoped(&digest, Some(&mask));
        assert!(serve(MessageKind::Digest, &scoped).is_some(), "a scoped digest is answered");
        for cut in full.len() + 1..scoped.len() {
            assert_eq!(serve(MessageKind::Digest, &scoped[..cut]), None, "trailer cut to {cut}");
        }
        assert!(serve(MessageKind::Digest, &scoped[..full.len()]).is_some());
        for (trailer, why) in [
            (vec![0], "level 0"),
            (vec![0, 0xFF], "level 0 with a mask"),
            ([vec![9], vec![0xFF; 64]].concat(), "level above 8"),
            (vec![200, 1], "level far above 8"),
            (vec![3], "missing mask"),
            (vec![3, 1, 1], "mask too long"),
            (vec![8, 1], "mask too short"),
            (vec![2, 0x10], "bucket beyond the level"),
        ] {
            let payload = [full.clone(), trailer].concat();
            assert_eq!(serve(MessageKind::Digest, &payload), None, "{why} must be refused");
        }
    }

    /// Whether `trailer` is a valid digest trailer: none at all, or a
    /// level in `1..=8`, a mask of `⌈2^level / 8⌉` bytes, and no bucket
    /// beyond `2^level − 1`.
    fn valid_trailer(trailer: &[u8]) -> bool {
        let Some((&level, mask)) = trailer.split_first() else { return true };
        (1..=8).contains(&level)
            && mask.len() == (1usize << level).div_ceil(8)
            && (level >= 3 || mask[0] >> (1 << level) == 0)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random payloads never panic the responder: a probe is answered
        /// only when it is exactly 8 bytes, a digest or NAK only with a
        /// Delta that decodes, and every other kind is refused.
        #[test]
        fn serve_never_panics_on_random_payloads(
            tag in 0u8..16,
            payload in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48),
        ) {
            let cluster = diverged_pair();
            let Some(kind) = MessageKind::from_tag(tag) else { return Ok(()) };
            let reply = cluster.serve(0, 0, &Envelope { from: 1, kind, payload: payload.clone() });
            match (kind, reply) {
                (MessageKind::Probe, reply) => {
                    proptest::prop_assert_eq!(reply.is_some(), payload.len() == 8);
                }
                (MessageKind::Digest | MessageKind::Nak, Some(reply)) => {
                    proptest::prop_assert_eq!(reply.kind, MessageKind::Delta);
                    proptest::prop_assert!(decode_delta(cluster.backend(), &reply.payload).is_ok());
                }
                (kind, reply) => {
                    proptest::prop_assert!(is_request(kind) || reply.is_none());
                }
            }
        }

        /// Random bytes after a valid digest are answered exactly when
        /// they form a valid bucket-mask trailer, and never panic.
        #[test]
        fn serve_never_panics_on_random_digest_trailers(
            level in 0u8..12,
            mask in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..40),
            bare in proptest::prelude::any::<bool>(),
        ) {
            let cluster = diverged_pair();
            let trailer = if bare { Vec::new() } else { [vec![level], mask].concat() };
            let payload = [encode_digest(&cluster.build_digest(1)), trailer.clone()].concat();
            let reply =
                cluster.serve(0, 0, &Envelope { from: 1, kind: MessageKind::Digest, payload });
            proptest::prop_assert_eq!(reply.is_some(), valid_trailer(&trailer));
            if let Some(reply) = reply {
                proptest::prop_assert!(decode_delta(cluster.backend(), &reply.payload).is_ok());
            }
        }

        /// Every mutation path — put, blind put, delete, anti-entropy,
        /// compaction and read-repair get — leaves each replica's cached
        /// fingerprints and bucket sums equal to a from-scratch
        /// recomputation, and two replicas' digest roots agree exactly
        /// when their `(key, fingerprint)` digests do.
        #[test]
        fn seals_match_a_fresh_recomputation_after_every_step(
            ops in proptest::collection::vec((0u8..7, 0u8..6, 0usize..3, 0usize..3), 1..40),
        ) {
            let mut cluster = Cluster::with_config(
                VstampBackend::gc(),
                ClusterConfig::new(3, 4).with_read_repair(),
            );
            for (step, (op, key, replica, other)) in ops.into_iter().enumerate() {
                let key = format!("k{key}");
                match op {
                    0 => {
                        let read = cluster.get(replica, &key);
                        cluster.put(replica, &key, vec![step as u8], read.context());
                    }
                    1 => {
                        cluster.put(replica, &key, vec![step as u8], None);
                    }
                    2 => {
                        let read = cluster.get(replica, &key);
                        cluster.delete(replica, &key, read.context());
                    }
                    3 if replica != other => cluster.anti_entropy(replica, other),
                    4 => {
                        let _repaired = cluster.get(replica, &key);
                    }
                    5 => {
                        cluster.compact();
                    }
                    _ => full_sweep(&cluster),
                }
                for plane in &cluster.replicas {
                    let (sums, keys) = plane.recomputed_sums();
                    proptest::prop_assert_eq!(plane.maintained_sums(), sums, "step {}", step);
                    proptest::prop_assert_eq!(plane.key_count(), keys, "step {}", step);
                    for shard_index in 0..cluster.shard_count() {
                        for data in plane.read(shard_index).values() {
                            proptest::prop_assert_eq!(data.fingerprint(), data.fresh_fingerprint());
                        }
                    }
                }
                let lines = |replica| -> Vec<(Key, u64)> {
                    let digest = cluster.build_digest(replica);
                    digest.into_iter().map(|entry| (entry.key, entry.fingerprint)).collect()
                };
                for (a, b) in [(0, 1), (0, 2), (1, 2)] {
                    proptest::prop_assert_eq!(
                        cluster.digest_root(a) == cluster.digest_root(b),
                        lines(a) == lines(b),
                        "step {}: replicas {} and {}", step, a, b
                    );
                }
            }
        }
    }

    #[test]
    fn read_repair_pushes_merged_set_to_lagging_replicas() {
        let cluster =
            Cluster::with_config(VstampBackend::gc(), ClusterConfig::new(3, 4).with_read_repair());
        cluster.put(0, "k", b"v0".to_vec(), None);
        cluster.put(1, "k", b"v1".to_vec(), None);
        // Replica 2 has never heard of the key; a repaired read serves the
        // merged siblings and back-fills every replica.
        let read = cluster.get(2, "k");
        assert_eq!(read.values().len(), 2, "read must serve the cluster-wide merge");
        for replica in 0..3 {
            let shard = cluster.replicas[replica].read(cluster.shards.index("k"));
            assert_eq!(
                shard.get("k").map(|data| data.siblings.len()),
                Some(2),
                "replica {replica} must hold the merged set after repair"
            );
        }
        // A dominating write then supersedes everywhere it repairs to.
        let context = read.context().cloned().unwrap();
        cluster.put(0, "k", b"merged".to_vec(), Some(&context));
        assert_eq!(cluster.get(1, "k").values(), vec![b"merged".to_vec()]);
        assert_eq!(cluster.get(2, "k").values(), vec![b"merged".to_vec()]);
    }

    #[test]
    fn scope_level_follows_the_key_count() {
        assert_eq!(scope_level(0), 0);
        assert_eq!(scope_level(127), 0);
        assert_eq!(scope_level(128), 1);
        assert_eq!(scope_level(4_000), 5);
        assert_eq!(scope_level(10_000), 7);
        assert_eq!(scope_level(16_384), 8);
        assert_eq!(scope_level(usize::MAX), 8);
    }

    #[test]
    fn scoped_exchange_ships_only_the_differing_buckets() {
        let cluster = Cluster::new(VstampBackend::gc(), 2, 16);
        for i in 0..4_000u32 {
            cluster.put(0, &format!("key-{i}"), i.to_le_bytes().to_vec(), None);
        }
        for _ in 0..4 {
            cluster.anti_entropy(1, 0);
            cluster.anti_entropy(0, 1);
        }
        assert_eq!(cluster.digest_root(0), cluster.digest_root(1), "the pair starts in sync");
        // The responder moves on three keys; the requester lacks one.
        for key in ["key-7", "key-2024"] {
            let read = cluster.get(0, key);
            cluster.put(0, key, b"updated".to_vec(), read.context());
        }
        cluster.put(0, "brand-new", b"fresh".to_vec(), None);
        assert_eq!(scope_level(cluster.replicas[0].key_count()), 5, "32 buckets");
        let full_digest = encode_digest(&cluster.build_digest(1)).len();

        let before = cluster.gossip_stats();
        cluster.anti_entropy(1, 0);
        let after = cluster.gossip_stats();
        assert!(cluster.converged(), "one scoped pull must converge the pair");
        assert_eq!(cluster.get(1, "brand-new").values(), vec![b"fresh".to_vec()]);
        assert_eq!(cluster.get(1, "key-2024").values(), vec![b"updated".to_vec()]);
        let spent = after.digest_bytes - before.digest_bytes;
        assert!(
            spent * 5 < full_digest,
            "probe + Miss + scoped Digest cost {spent} B against a {full_digest} B full digest"
        );
    }

    /// A peer that answers every probe with a fixed `Miss` payload and
    /// records what it was asked.
    struct ScriptedMiss {
        miss: Vec<u8>,
        asked: Vec<MessageKind>,
    }

    impl Link for ScriptedMiss {
        fn request(&mut self, request: &Envelope) -> io::Result<Envelope> {
            self.asked.push(request.kind);
            Ok(Envelope { from: 9, kind: MessageKind::Miss, payload: self.miss.clone() })
        }
    }

    #[test]
    fn pull_rejects_malformed_bucket_sums() {
        let cluster = diverged_pair();
        let sums = |level: u32, count: usize| [vec![level as u8], vec![0xAB; 8 * count]].concat();
        for (miss, why) in [
            (vec![0, 0, 0, 0, 0, 0, 0, 0, 0], "level 0 with sums"),
            (sums(9, 512), "level 9 with all its sums"),
            (sums(64, 4), "level 64"),
            (sums(255, 0), "level 255"),
            (sums(5, 31), "one sum short"),
            (sums(5, 33), "one sum over"),
            (vec![3, 1, 2, 3], "a torn sum"),
            (vec![1], "no sums"),
        ] {
            let mut link = ScriptedMiss { miss, asked: Vec::new() };
            let error = cluster.pull(1, 1, &mut link).expect_err(why);
            assert_eq!(error.kind(), io::ErrorKind::InvalidData, "{why}");
            assert_eq!(link.asked, vec![MessageKind::Probe], "{why}: no digest follows");
        }
        // Whatever level a payload claims, decoding holds at most 2^8 sums.
        for level in 0..=u8::MAX {
            let payload = [vec![level], vec![0; 8 << level.min(12)]].concat();
            if let Ok((decoded, held)) = decode_miss(&payload) {
                assert!((1..=MAX_BUCKET_LEVEL).contains(&decoded));
                assert!(held.len() <= 1 << MAX_BUCKET_LEVEL);
            }
        }
    }

    #[test]
    fn vstamp_metadata_stays_bounded_under_churn() {
        let mut cluster = Cluster::new(VstampBackend::gc(), 3, 2);
        for round in 0..30 {
            for replica in 0..3 {
                let read = cluster.get(replica, "hot");
                cluster.put(replica, "hot", vec![round as u8, replica as u8], read.context());
            }
            cluster.anti_entropy(round % 3, (round + 1) % 3);
        }
        full_sweep(&cluster);
        cluster.compact();
        let metrics = cluster.metrics();
        assert!(
            metrics.max_key_metadata_bits < 4096,
            "stamp metadata exploded: {} bits",
            metrics.max_key_metadata_bits
        );
    }
}
