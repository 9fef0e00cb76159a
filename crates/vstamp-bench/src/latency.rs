//! Open-loop latency measurement: mergeable log-bucketed histograms, a
//! deterministic zipfian workload generator, and the arrival-schedule
//! machinery the `bench_latency_json` binary drives the store with.
//!
//! The measurement discipline is **open loop**: every operation has a
//! scheduled arrival time precomputed before the run (exponential
//! inter-arrivals at a fixed offered rate), and latency is measured from
//! the *scheduled* arrival to completion — not from when a blocked client
//! thread finally got around to issuing it. A closed-loop harness that
//! stalls on a slow operation silently drops the arrivals that would have
//! queued behind it, which is exactly the coordinated-omission bias that
//! makes tail percentiles look flat; charging the queueing delay to every
//! op keeps p99/p999 honest.
//!
//! Everything here is deterministic from a single seed: the arrival
//! offsets, the zipfian key draws and the op mix all come from
//! [`SplitMix64`] streams derived from it, and [`schedule_digest`] folds
//! the generated schedule into one u64 so a report can prove two runs
//! replayed the identical workload byte for byte.

/// Values below this record exactly (one bucket per nanosecond); above it
/// buckets are logarithmic with 64 subdivisions per octave.
pub const LINEAR_CUTOFF: u64 = 128;

/// Sub-bucket resolution: each power-of-two octave splits into
/// `2^SUB_BITS` equal-width buckets.
const SUB_BITS: u32 = 6;

/// Buckets per octave above the linear range.
const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Octaves covered: most-significant-bit positions 7..=63.
const OCTAVES: usize = 57;

/// Total bucket count (~30 KiB of `u64`s — cheap enough per thread).
const BUCKETS: usize = LINEAR_CUTOFF as usize + OCTAVES * SUB_BUCKETS;

/// Worst-case relative error of a reported quantile, by construction:
/// bucket midpoints sit within half a bucket width of any member value,
/// and a bucket spans at most `1/64` of its lower bound, so the midpoint
/// is within `1/128 ≈ 0.8%`. Documented as 2% to leave slack for the
/// rank landing on a bucket boundary.
pub const QUANTILE_RELATIVE_ERROR: f64 = 0.02;

/// A fixed-size log-bucketed latency histogram (HDR-style): O(1) record,
/// exact counts below [`LINEAR_CUTOFF`] ns, ≤2% relative quantile error
/// above it, and an associative [`merge`](LatencyHist::merge) so each
/// worker thread records into its own histogram and the driver folds them
/// together afterwards — no shared atomics on the latency path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHist {
    buckets: Vec<u64>,
    count: u64,
    /// Exact maximum, tracked outside the buckets so `quantile(1.0)` and
    /// the reported max never suffer bucket rounding.
    max: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist::new()
    }
}

impl LatencyHist {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHist { buckets: vec![0; BUCKETS], count: 0, max: 0 }
    }

    /// The bucket index of a value.
    fn bucket_of(value: u64) -> usize {
        if value < LINEAR_CUTOFF {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let octave = (msb - SUB_BITS - 1) as usize; // 0-based: msb 7 → 0
        let sub = ((value >> (msb - SUB_BITS)) as usize) & (SUB_BUCKETS - 1);
        LINEAR_CUTOFF as usize + octave * SUB_BUCKETS + sub
    }

    /// The representative (midpoint) value of a bucket index.
    fn bucket_value(index: usize) -> u64 {
        if index < LINEAR_CUTOFF as usize {
            return index as u64;
        }
        let rel = index - LINEAR_CUTOFF as usize;
        let octave = (rel / SUB_BUCKETS) as u32;
        let sub = (rel % SUB_BUCKETS) as u64;
        let shift = octave + 1; // bucket width within this octave is 2^shift
        let lower = (SUB_BUCKETS as u64 + sub) << shift;
        lower + (1 << shift) / 2
    }

    /// Records one sample (nanoseconds). O(1), no allocation.
    pub fn record(&mut self, nanos: u64) {
        self.buckets[Self::bucket_of(nanos)] += 1;
        self.count += 1;
        self.max = self.max.max(nanos);
    }

    /// Folds another histogram into this one. Element-wise addition, so
    /// the merge is associative and commutative: per-thread histograms
    /// fold in any order to the identical result.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The exact maximum sample, 0 if empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in nanoseconds: the representative
    /// value of the bucket holding the rank-`⌈q·count⌉` sample, clamped to
    /// the exact max. Returns 0 on an empty histogram. Relative error is
    /// bounded by [`QUANTILE_RELATIVE_ERROR`].
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            // The top rank is the tracked exact maximum — don't round it
            // to its bucket's midpoint.
            return self.max;
        }
        let mut seen = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return Self::bucket_value(index).min(self.max);
            }
        }
        self.max
    }
}

/// SplitMix64: the workload generator's RNG. Tiny and seedable; every
/// thread and every purpose (arrivals, keys, op mix) gets its own
/// deterministic stream from the one `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded for a `(seed, stream)` pair. Small streams of
    /// one seed can replay each other at a shift; the schedules reseed
    /// from a first output to get independent streams.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64 { state: seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `0..bound` (`bound > 0`).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        // Multiply-shift: unbiased enough for workload mixing (bias is
        // ≤ bound/2^64), and branch-free.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// The zipfian exponent every workload here uses (the YCSB default).
pub const ZIPF_S: f64 = 0.99;

/// A zipfian key-popularity sampler over ranks `0..n`: rank `k` is drawn
/// with probability proportional to `1/(k+1)^s`. Sampling is a binary
/// search over the precomputed CDF — O(log n) per draw, no rejection, and
/// byte-deterministic given the RNG stream.
#[derive(Debug, Clone)]
pub struct Zipfian {
    /// `cdf[k]` = cumulative probability of ranks `0..=k`; last is 1.0.
    cdf: Vec<f64>,
}

impl Zipfian {
    /// A sampler over `n ≥ 1` ranks with exponent `s`.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        let n = n.max(1);
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for mass in cdf.iter_mut() {
            *mass /= total;
        }
        Zipfian { cdf }
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler covers no ranks (never: `new` clamps to ≥ 1).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The exact probability mass of rank `k` — the closed form the
    /// distribution tests compare observed frequencies against.
    #[must_use]
    pub fn mass(&self, k: usize) -> f64 {
        let prev = if k == 0 { 0.0 } else { self.cdf[k - 1] };
        self.cdf[k] - prev
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&mass| mass < u).min(self.cdf.len() - 1)
    }
}

/// What one scheduled operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Read the key's siblings (a session read).
    Get,
    /// Session write: read, then put with the read's context.
    Put,
    /// Session delete: read, then delete with the read's context.
    Delete,
}

/// One precomputed arrival: *when* (nanoseconds from run start), *what*,
/// and *which key rank*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledOp {
    /// Scheduled arrival offset from the run's start, in nanoseconds.
    pub at_nanos: u64,
    /// Operation kind.
    pub kind: OpKind,
    /// Zipfian key rank (index into the key space).
    pub key: u32,
}

/// The op mix in percent; the remainder after `get` and `delete` is puts.
#[derive(Debug, Clone, Copy)]
pub struct OpMix {
    /// Percent of operations that are pure reads.
    pub get_percent: u64,
    /// Percent of operations that are deletes.
    pub delete_percent: u64,
}

impl OpMix {
    /// The default read-mostly mix: 50% get / 45% put / 5% delete.
    #[must_use]
    pub fn read_mostly() -> Self {
        OpMix { get_percent: 50, delete_percent: 5 }
    }
}

/// Builds one thread's open-loop arrival schedule: `ops` operations at an
/// offered rate of `rate_per_sec`, exponential inter-arrival gaps, key
/// ranks drawn from `zipf`, kinds from `mix`. Streams are derived from
/// `(seed, thread)` so per-thread schedules are independent and the whole
/// workload is reproducible from the one seed.
#[must_use]
pub fn open_loop_schedule(
    ops: usize,
    rate_per_sec: u64,
    zipf: &Zipfian,
    mix: OpMix,
    seed: u64,
    thread: u64,
) -> Vec<ScheduledOp> {
    let mut arrivals = stream_rng(seed, thread.wrapping_mul(3).wrapping_add(1));
    let mut keys = stream_rng(seed, thread.wrapping_mul(3).wrapping_add(2));
    let mut kinds = stream_rng(seed, thread.wrapping_mul(3).wrapping_add(3));
    let mean_gap_nanos = 1.0e9 / rate_per_sec.max(1) as f64;
    let mut at = 0.0f64;
    let mut schedule = Vec::with_capacity(ops);
    for _ in 0..ops {
        // Exponential inter-arrival: -ln(1-u) * mean. `1 - u` never hits
        // 0.0 because next_f64 is in [0, 1).
        at += -(1.0 - arrivals.next_f64()).ln() * mean_gap_nanos;
        let roll = kinds.next_below(100);
        let kind = if roll < mix.get_percent {
            OpKind::Get
        } else if roll < mix.get_percent + mix.delete_percent {
            OpKind::Delete
        } else {
            OpKind::Put
        };
        schedule.push(ScheduledOp {
            at_nanos: at as u64,
            kind,
            key: zipf.sample(&mut keys) as u32,
        });
    }
    schedule
}

/// An independent generator per `(seed, stream)`. `SplitMix64::new` alone
/// is not enough: for small seeds and streams its start states
/// `seed ^ stream·φ` often differ by an exact multiple of φ, its step, so
/// one stream replays another a few draws later (seed 1 gave thread 2 the
/// keys of thread 0, six ops on). Reseeding from the first output breaks
/// that relation.
fn stream_rng(seed: u64, stream: u64) -> SplitMix64 {
    SplitMix64::new(SplitMix64::new(seed, stream).next_u64(), 0)
}

/// FNV-1a over every field of every op, in order: the proof-of-identical-
/// workload digest recorded in each latency row. Two runs with the same
/// seed produce the same digest; any divergence in arrivals, kinds or key
/// draws changes it.
#[must_use]
pub fn schedule_digest(schedules: &[Vec<ScheduledOp>]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut fold = |value: u64| {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for schedule in schedules {
        for op in schedule {
            fold(op.at_nanos);
            fold(match op.kind {
                OpKind::Get => 0,
                OpKind::Put => 1,
                OpKind::Delete => 2,
            });
            fold(u64::from(op.key));
        }
    }
    hash
}

/// Locates a top-level `"name": <value>` entry: returns
/// `(key_start, value_start, value_end)` byte offsets, `None` if absent.
/// String-literal aware, so braces inside labels don't confuse the depth
/// scan.
fn json_section_span(json: &str, name: &str) -> Option<(usize, usize, usize)> {
    let needle = format!("\"{name}\":");
    let key_start = json.find(&needle)?;
    let bytes = json.as_bytes();
    let mut end = key_start + needle.len();
    // Scan the value: skip whitespace, then either a bracketed value
    // (depth-matched) or a scalar (up to `,` or `}`).
    while end < bytes.len() && (bytes[end] as char).is_whitespace() {
        end += 1;
    }
    let value_start = end;
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    loop {
        if end >= bytes.len() {
            break;
        }
        let c = bytes[end] as char;
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            end += 1;
            continue;
        }
        match c {
            '"' => in_string = true,
            '[' | '{' => depth += 1,
            ']' | '}' => {
                if depth == 0 {
                    break; // scalar value ran into the enclosing `}`
                }
                depth -= 1;
                if depth == 0 {
                    end += 1;
                    break;
                }
            }
            ',' if depth == 0 => break,
            _ => {}
        }
        end += 1;
    }
    Some((key_start, value_start, end))
}

/// The rendered value of a top-level `"name": <value>` entry, verbatim,
/// if present — what lets a regenerating binary carry a sibling binary's
/// section forward instead of dropping it.
#[must_use]
pub fn json_section_value(json: &str, name: &str) -> Option<String> {
    json_section_span(json, name).map(|(_, start, end)| json[start..end].to_owned())
}

/// Returns `json` with the top-level `"name": <value>` entry removed (the
/// value may be any balanced array/object/scalar), or unchanged if the
/// section is absent.
#[must_use]
pub fn without_json_section(json: &str, name: &str) -> String {
    let Some((key_start, _, mut end)) = json_section_span(json, name) else {
        return json.to_owned();
    };
    let bytes = json.as_bytes();
    // Take the trailing comma (and one newline) if present, else the
    // preceding comma, so the remaining object stays valid.
    let mut start = key_start;
    let after = &json[end..];
    if let Some(rest) = after.strip_prefix(',') {
        end = json.len() - rest.len();
        if let Some(rest) = rest.strip_prefix('\n') {
            end = json.len() - rest.len();
        }
        // Also swallow the indentation that preceded the key.
        while start > 0 && matches!(bytes[start - 1] as char, ' ' | '\t') {
            start -= 1;
        }
    } else {
        while start > 0 && (bytes[start - 1] as char).is_whitespace() {
            start -= 1;
        }
        if start > 0 && bytes[start - 1] == b',' {
            start -= 1;
        }
    }
    format!("{}{}", &json[..start], &json[end..])
}

/// Returns `json` (a top-level object) with `"name": <rendered_value>`
/// inserted as its last entry, replacing any existing section of that
/// name. `rendered_value` must itself be valid JSON.
#[must_use]
pub fn with_json_section(json: &str, name: &str, rendered_value: &str) -> String {
    let without = without_json_section(json, name);
    let close = without.rfind('}').expect("top-level JSON object");
    let head = without[..close].trim_end();
    let head = head.strip_suffix(',').unwrap_or(head);
    format!("{head},\n  \"{name}\": {rendered_value}\n}}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_range_is_exact() {
        let mut hist = LatencyHist::new();
        for v in 0..LINEAR_CUTOFF {
            hist.record(v);
        }
        assert_eq!(hist.count(), LINEAR_CUTOFF);
        assert_eq!(hist.quantile(0.5), 63);
        assert_eq!(hist.max(), LINEAR_CUTOFF - 1);
    }

    #[test]
    fn quantiles_stay_within_documented_error() {
        let mut hist = LatencyHist::new();
        let mut values = Vec::new();
        let mut rng = SplitMix64::new(7, 0);
        for _ in 0..10_000 {
            let v = 1 + rng.next_below(40_000_000);
            hist.record(v);
            values.push(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1] as f64;
            let approx = hist.quantile(q) as f64;
            let err = (approx - exact).abs() / exact;
            assert!(err <= QUANTILE_RELATIVE_ERROR, "q={q}: {approx} vs {exact} ({err:.4})");
        }
        assert_eq!(hist.quantile(1.0), *values.last().expect("nonempty"));
    }

    #[test]
    fn merge_equals_single_histogram() {
        let mut rng = SplitMix64::new(3, 1);
        let mut whole = LatencyHist::new();
        let mut parts = [LatencyHist::new(), LatencyHist::new(), LatencyHist::new()];
        for i in 0..3_000 {
            let v = rng.next_below(1 << 30);
            whole.record(v);
            parts[i % 3].record(v);
        }
        let mut merged = LatencyHist::new();
        for part in &parts {
            merged.merge(part);
        }
        assert_eq!(merged.buckets, whole.buckets);
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.max(), whole.max());
    }

    #[test]
    fn zipfian_masses_sum_to_one_and_decrease() {
        let zipf = Zipfian::new(1000, ZIPF_S);
        let total: f64 = (0..zipf.len()).map(|k| zipf.mass(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(zipf.mass(0) > zipf.mass(1));
        assert!(zipf.mass(1) > zipf.mass(999));
    }

    #[test]
    fn schedule_is_deterministic_and_open_loop() {
        let zipf = Zipfian::new(100, ZIPF_S);
        let a = open_loop_schedule(500, 10_000, &zipf, OpMix::read_mostly(), 42, 0);
        let b = open_loop_schedule(500, 10_000, &zipf, OpMix::read_mostly(), 42, 0);
        assert_eq!(a, b);
        let c = open_loop_schedule(500, 10_000, &zipf, OpMix::read_mostly(), 42, 1);
        assert_ne!(a, c, "threads get independent streams");
        assert!(a.windows(2).all(|w| w[0].at_nanos <= w[1].at_nanos), "arrivals are ordered");
        assert_ne!(schedule_digest(&[a]), schedule_digest(&[c]));
    }

    #[test]
    fn thread_schedules_draw_independent_keys() {
        // Shifted-copy streams would make one thread's keys repeat the
        // other's a few ops later; independent zipfian draws over 10k
        // ranks coincide only a few percent of the time at any shift.
        let zipf = Zipfian::new(10_000, ZIPF_S);
        for seed in 1..=3 {
            let keys: Vec<Vec<u32>> = (0..4)
                .map(|thread| {
                    open_loop_schedule(400, 10_000, &zipf, OpMix::read_mostly(), seed, thread)
                        .iter()
                        .map(|op| op.key)
                        .collect()
                })
                .collect();
            for (i, lead) in keys.iter().enumerate() {
                for (j, lag) in keys.iter().enumerate().filter(|&(j, _)| j != i) {
                    for shift in 0..=16 {
                        let same = lead[shift..].iter().zip(lag).filter(|(x, y)| x == y).count();
                        assert!(
                            same < 40,
                            "seed {seed}, threads {i}/{j}, shift {shift}: {same} of 400 coincide"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn json_section_splicing_round_trips() {
        let base = "{\n  \"benchmark\": \"x\",\n  \"results\": [\n    {\"a\": 1}\n  ]\n}\n";
        let spliced = with_json_section(base, "latency", "[\n    {\"p50\": 10}\n  ]");
        assert!(spliced.contains("\"latency\": ["));
        assert!(spliced.contains("\"results\""));
        // Replacing is idempotent in shape: splice again, still one section.
        let again = with_json_section(&spliced, "latency", "[\n    {\"p50\": 20}\n  ]");
        assert_eq!(again.matches("\"latency\"").count(), 1);
        assert!(again.contains("\"p50\": 20") && !again.contains("\"p50\": 10"));
        // Removing a middle section keeps the object valid (no dangling comma).
        let removed = without_json_section(&again, "results");
        assert!(!removed.contains("\"results\""));
        assert!(removed.contains("\"latency\""));
        let removed = without_json_section(&removed, "latency");
        assert!(!removed.contains("\"latency\""));
        assert!(removed.trim_end().ends_with('}'));
        assert!(!removed.contains(",\n}"));
    }

    #[test]
    fn scalar_sections_are_removable() {
        let base = "{\n  \"seed\": 42,\n  \"smoke\": false\n}\n";
        let removed = without_json_section(base, "seed");
        assert!(!removed.contains("seed"));
        assert!(removed.contains("\"smoke\": false"));
        let removed = without_json_section(base, "smoke");
        assert!(removed.contains("\"seed\": 42"));
        assert!(!removed.contains("smoke"));
    }

    #[test]
    fn section_values_extract_verbatim() {
        let base =
            "{\n  \"seed\": 42,\n  \"latency\": [\n    {\"p50\": 7}\n  ],\n  \"done\": true\n}\n";
        assert_eq!(json_section_value(base, "seed").as_deref(), Some("42"));
        assert_eq!(
            json_section_value(base, "latency").as_deref(),
            Some("[\n    {\"p50\": 7}\n  ]")
        );
        assert_eq!(json_section_value(base, "absent"), None);
        // Round trip: extract + re-splice preserves the section.
        let value = json_section_value(base, "latency").expect("present");
        let rebuilt = with_json_section("{\n  \"seed\": 43\n}\n", "latency", &value);
        assert_eq!(json_section_value(&rebuilt, "latency"), Some(value));
    }
}
