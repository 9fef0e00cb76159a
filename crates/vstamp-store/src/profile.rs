//! Wall-clock attribution of store time: where an operation's nanoseconds
//! go — GC, element joins, sibling relations, wire codec, locking.
//!
//! Profiling is off by default and costs one relaxed atomic load per probe
//! site. [`Cluster::enable_profiling`](crate::Cluster::enable_profiling)
//! turns it on for a cluster (and hands the sink to the backend, so the
//! GC section is timed inside [`VstampBackend`](crate::VstampBackend)
//! where the collapse actually runs); `bench_store_json --profile` prints
//! and records the resulting breakdown per backend, which is what makes
//! the remaining stamps-vs-baseline throughput gap attributable.
//!
//! Sections overlap deliberately in one place: the GC section is nested
//! inside the join section (a collapse happens during an element absorb),
//! so `join - gc` is the pure join/shrink cost.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One timed section: accumulated nanoseconds and probe count.
#[derive(Debug, Default)]
pub(crate) struct SectionCounter {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl SectionCounter {
    fn record(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> SectionSnapshot {
        SectionSnapshot {
            secs: self.nanos.load(Ordering::Relaxed) as f64 / 1e9,
            calls: self.calls.load(Ordering::Relaxed),
        }
    }
}

/// The profiling sink of one cluster. All counters are atomics so probe
/// sites work from `&self` on every store path, including concurrent exchanges.
#[derive(Debug, Default)]
pub struct StoreProfile {
    enabled: AtomicBool,
    pub(crate) gc: SectionCounter,
    pub(crate) join: SectionCounter,
    pub(crate) relation: SectionCounter,
    pub(crate) codec: SectionCounter,
    pub(crate) lock: SectionCounter,
    pub(crate) ctx_rebuilds: AtomicU64,
    pub(crate) gc_checks: AtomicU64,
    pub(crate) batched_exchanges: AtomicU64,
}

impl StoreProfile {
    /// Switches the probe sites on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Whether probes are currently recording.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Starts a timer for `section`; the elapsed time is recorded when the
    /// returned guard drops. A disabled profile returns an inert guard.
    pub(crate) fn time<'a>(&'a self, section: &'a SectionCounter) -> SectionTimer<'a> {
        SectionTimer { section, start: if self.is_enabled() { Some(Instant::now()) } else { None } }
    }

    /// Bumps an event counter when profiling is on. Event counters track
    /// *how often* a structural event happens (context rebuilds, watermark
    /// checks, batched exchanges) rather than where time goes — the
    /// batched-vs-per-key apply comparison is counted in these.
    pub(crate) fn count(&self, counter: &AtomicU64) {
        if self.is_enabled() {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The accumulated per-section totals.
    #[must_use]
    pub fn snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot {
            gc: self.gc.snapshot(),
            join: self.join.snapshot(),
            relation: self.relation.snapshot(),
            codec: self.codec.snapshot(),
            lock: self.lock.snapshot(),
            ctx_rebuilds: self.ctx_rebuilds.load(Ordering::Relaxed),
            gc_checks: self.gc_checks.load(Ordering::Relaxed),
            batched_exchanges: self.batched_exchanges.load(Ordering::Relaxed),
        }
    }
}

/// RAII probe of one section; see [`StoreProfile::time`].
#[derive(Debug)]
pub(crate) struct SectionTimer<'a> {
    section: &'a SectionCounter,
    start: Option<Instant>,
}

impl Drop for SectionTimer<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.section.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Accumulated wall-clock of one section.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SectionSnapshot {
    /// Total seconds spent inside the section.
    pub secs: f64,
    /// Number of timed entries.
    pub calls: u64,
}

/// A point-in-time copy of every section counter.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProfileSnapshot {
    /// Frontier-evidence collapses (subset of `join`: the GC runs inside
    /// element absorbs).
    pub gc: SectionSnapshot,
    /// Backend element operations: write minting, detach forks and absorb
    /// joins (including any nested GC time).
    pub join: SectionSnapshot,
    /// Sibling-set merge work: clock relations, eviction, cache upkeep.
    pub relation: SectionSnapshot,
    /// Wire encode/decode of digests and deltas.
    pub codec: SectionSnapshot,
    /// Shard and clock-plane lock acquisitions.
    pub lock: SectionSnapshot,
    /// Sibling-set cached-context rebuilds (k-way clock joins) — the
    /// eviction-forced cache refresh the batched apply amortizes to at
    /// most one per mutated key per exchange.
    pub ctx_rebuilds: u64,
    /// GC watermark checks (`collapse_due` probes on absorb and the
    /// write-path bits check).
    pub gc_checks: u64,
    /// Non-empty delta replies applied by [`Cluster::pull`] (one increment
    /// per reply, regardless of key count).
    ///
    /// [`Cluster::pull`]: crate::Cluster::pull
    pub batched_exchanges: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profile_records_nothing() {
        let profile = StoreProfile::default();
        {
            let _timer = profile.time(&profile.gc);
        }
        assert_eq!(profile.snapshot().gc.calls, 0);
        assert!(!profile.is_enabled());
    }

    #[test]
    fn enabled_profile_accumulates_sections() {
        let profile = StoreProfile::default();
        profile.enable();
        assert!(profile.is_enabled());
        for _ in 0..3 {
            let _timer = profile.time(&profile.relation);
        }
        let snapshot = profile.snapshot();
        assert_eq!(snapshot.relation.calls, 3);
        assert!(snapshot.relation.secs >= 0.0);
        assert_eq!(snapshot.codec.calls, 0);
    }
}
