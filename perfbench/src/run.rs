//! One benchmark run: set-up, the open-loop phase, the closed-loop phase,
//! the correctness gate, and the figures.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::sync::{Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use vstamp_bench::latency::{OpKind, ScheduledOp, SplitMix64};
use vstamp_core::PackedName;
use vstamp_sim::{decode_id, encode_id, KeyOracle};
use vstamp_store::{NodeClient, NodeStatus, StoreBackend, TransportConfig, VstampBackend};

use crate::nodes::{loopback_bytes, total_usage, NodeProc};
use crate::relay::{Relay, ServiceTimes, Snapshot};
use crate::stats::{median_of, Samples, Windowed};
use crate::workload::{key_name, Plan, Shape, Workload, CONNS};

/// Nodes per cluster.
pub const NODES: usize = 3;

/// A put becomes a replication-lag sample when the connection's last
/// sample is at least this old, bounding the observer's polling load.
const LAG_SAMPLE_GAP: Duration = Duration::from_millis(10);

/// Open-loop windows per phase; latency figures are medians over them.
pub const WINDOWS: usize = 3;

/// Closed-loop bursts; `peak_ops_s` is their median rate.
const BURSTS: usize = 5;

/// How often an observer re-reads a lag sample's key.
const LAG_POLL: Duration = Duration::from_millis(5);

/// A lag sample not visible on the other node by then fails the run.
const LAG_TIMEOUT: Duration = Duration::from_secs(5);

/// Budget for the cluster to reach one digest root.
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(40);

/// Keys read on every node by the final sweep.
const SWEEP_KEYS: usize = 300;

/// Node CPU is sampled this long between set-up and load.
const IDLE_WINDOW: Duration = Duration::from_secs(1);

/// Gets of an absent key per connection for the transport floor.
const RTT_PROBES: usize = 200;

fn client(addr: &str) -> NodeClient {
    // Generous I/O budget: an op that needs longer counts as failed.
    let transport = TransportConfig {
        connect_timeout: Duration::from_secs(2),
        io_timeout: Duration::from_secs(5),
    };
    NodeClient::connect(addr, transport, 0xC11E)
}

/// Value id of a write: the writer's tag in the high bits (0 for the
/// preload, `1 + conn` for a connection) and a sequence number.
fn write_id(tag: u64, seq: u64) -> u64 {
    (tag << 48) | seq
}

// ---------------------------------------------------------------------
// Cluster set-up.
// ---------------------------------------------------------------------

/// Three live node processes, plus their relays when traced.
pub struct Cluster {
    pub nodes: Vec<NodeProc>,
    pub relays: Vec<Relay>,
}

impl Cluster {
    fn relay_snapshot(&self) -> Snapshot {
        self.relays.iter().fold(Snapshot::default(), |acc, r| acc.plus(&r.counters().snapshot()))
    }

    fn take_service(&self) -> ServiceTimes {
        let mut all = ServiceTimes::default();
        for relay in &self.relays {
            let s = relay.counters().take_service();
            all.probe_us.extend(s.probe_us);
            all.digest_us.extend(s.digest_us);
        }
        all
    }

    /// Polls until every node sees three active members and all report
    /// one digest root.
    fn converge(
        &self,
        clients: &mut [NodeClient],
        timeout: Duration,
    ) -> Result<Vec<NodeStatus>, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let statuses: Vec<NodeStatus> = clients
                .iter_mut()
                .map(NodeClient::status)
                .collect::<io::Result<_>>()
                .map_err(|e| format!("status failed: {e}"))?;
            let settled = statuses.iter().all(|s| s.active_members == NODES)
                && statuses.windows(2).all(|p| p[0].digest_root == p[1].digest_root);
            if settled {
                return Ok(statuses);
            }
            if Instant::now() >= deadline {
                let roots: Vec<String> = statuses
                    .iter()
                    .map(|s| format!("{:016x}/{} members", s.digest_root, s.active_members))
                    .collect();
                return Err(format!("no single digest root after {timeout:?}: {roots:?}"));
            }
            thread::sleep(Duration::from_millis(25));
        }
    }

    fn stop(self) {
        drop(self.nodes);
        for relay in &self.relays {
            relay.stop();
        }
    }
}

/// The preloaded writes, per key index.
type Preload = Vec<(u32, u64)>;

/// Spawns the cluster, preloads the keyspace through `NodeClient`, waits
/// for one digest root. Returns the cluster, the preload, and the
/// service times of the creating puts. Each `round` seeds the nodes'
/// gossip peer choice differently, so the median over a run's set-ups
/// averages over it instead of repeating one draw.
fn setup(
    w: &Workload,
    seed: u64,
    round: usize,
    traced: bool,
) -> Result<(Cluster, Preload, Samples), String> {
    let relays: Vec<Relay> = if traced {
        (0..NODES).map(|_| Relay::start()).collect::<io::Result<_>>().map_err(|e| e.to_string())?
    } else {
        Vec::new()
    };
    let advertise = |i: usize| relays.get(i).map(|r| r.addr().to_owned());
    let node_seed =
        |i: usize| SplitMix64::new(seed, (round * NODES + i) as u64 + 0x5EED).next_u64();
    let spawn_err = |e: io::Error| format!("node spawn failed: {e}");
    let mut bootstrap =
        NodeProc::spawn(node_seed(0), advertise(0).as_deref(), None).map_err(spawn_err)?;
    bootstrap.await_listen(advertise(0).as_deref()).map_err(spawn_err)?;
    if let Some(relay) = relays.first() {
        relay.set_target(&bootstrap.addr);
    }
    let sponsor = bootstrap.advertised.clone();
    let mut nodes = vec![bootstrap];
    for i in 1..NODES {
        nodes.push(
            NodeProc::spawn(node_seed(i), advertise(i).as_deref(), Some(&sponsor))
                .map_err(spawn_err)?,
        );
    }
    for (i, node) in nodes.iter_mut().enumerate().skip(1) {
        node.await_listen(advertise(i).as_deref()).map_err(spawn_err)?;
        if let Some(relay) = relays.get(i) {
            relay.set_target(&node.addr);
        }
    }
    let cluster = Cluster { nodes, relays };

    // Preload: each key through a connection to its rooting node, the
    // rooting nodes in parallel.
    let mut preload = Preload::new();
    let mut create_us = Samples::new();
    let results: Vec<Result<(Preload, Samples), String>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|conn| {
                let addr = cluster.nodes[conn].addr.clone();
                scope.spawn(move || {
                    let mut c = client(&addr);
                    let mut written = Preload::new();
                    let mut times = Samples::new();
                    for key in (0..w.preload_keys).filter(|&k| w.preload_root(k) == conn) {
                        let id = write_id(0, u64::from(key) + 1);
                        let start = Instant::now();
                        c.put(&key_name(key), encode_id(id), None)
                            .map_err(|e| format!("preload put failed: {e}"))?;
                        times.push(start.elapsed().as_secs_f64() * 1e6);
                        written.push((key, id));
                    }
                    Ok((written, times))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("preload thread panicked")).collect()
    });
    for result in results {
        let (written, times) = result?;
        preload.extend(written);
        create_us.extend(&times);
    }
    let mut clients: Vec<NodeClient> = cluster.nodes.iter().map(|n| client(&n.addr)).collect();
    cluster.converge(&mut clients, CONVERGE_TIMEOUT)?;
    Ok((cluster, preload, create_us))
}

// ---------------------------------------------------------------------
// The causal oracle shared by both connections.
// ---------------------------------------------------------------------

#[derive(Default)]
struct Oracle {
    keys: HashMap<u32, KeyOracle>,
    written: HashSet<u64>,
    /// Writes whose put failed: they may or may not have landed.
    ghosts: HashSet<u64>,
    false_concurrency: usize,
}

/// A write one connection asks the other to watch for.
#[derive(Clone, Copy)]
struct LagSample {
    key: u32,
    id: u64,
    window: usize,
    acked: Instant,
    next_poll: Instant,
}

struct Shared {
    workload: Workload,
    oracle: Mutex<Oracle>,
    /// `inbox[c]`: lag samples connection `c` should observe.
    inbox: [Mutex<Vec<LagSample>>; CONNS],
}

impl Shared {
    /// Whether `ids` (a read of `key`) shows write `id`: the id itself or
    /// a write that causally covers it.
    fn shows(&self, key: u32, ids: &[u64], id: u64) -> bool {
        ids.contains(&id) || {
            let oracle = self.oracle.lock().expect("oracle lock poisoned");
            oracle.keys.get(&key).is_some_and(|k| ids.iter().any(|&r| k.covers(r, id)))
        }
    }
}

// ---------------------------------------------------------------------
// One client connection.
// ---------------------------------------------------------------------

/// Figures one connection gathers in one phase.
struct ConnStats {
    attempted: u64,
    failed: u64,
    get_us: Windowed,
    put_us: Windowed,
    lateness_us: Samples,
    lag_ms: Windowed,
    lag_unresolved: usize,
    gets: u64,
    siblings: u64,
    ctx_bytes: u64,
    // Traced only.
    get_svc_us: Samples,
    create_svc_us: Samples,
    update_svc_us: Samples,
    ctx_strings: Samples,
    contexts: Vec<PackedName>,
    last_ctx: HashMap<u32, PackedName>,
}

impl Default for ConnStats {
    fn default() -> Self {
        ConnStats {
            attempted: 0,
            failed: 0,
            get_us: Windowed::new(WINDOWS),
            put_us: Windowed::new(WINDOWS),
            lateness_us: Samples::new(),
            lag_ms: Windowed::new(WINDOWS),
            lag_unresolved: 0,
            gets: 0,
            siblings: 0,
            ctx_bytes: 0,
            get_svc_us: Samples::new(),
            create_svc_us: Samples::new(),
            update_svc_us: Samples::new(),
            ctx_strings: Samples::new(),
            contexts: Vec::new(),
            last_ctx: HashMap::new(),
        }
    }
}

impl ConnStats {
    fn absorb(&mut self, other: ConnStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.get_us.extend(&other.get_us);
        self.put_us.extend(&other.put_us);
        self.lateness_us.extend(&other.lateness_us);
        self.lag_ms.extend(&other.lag_ms);
        self.lag_unresolved += other.lag_unresolved;
        self.gets += other.gets;
        self.siblings += other.siblings;
        self.ctx_bytes += other.ctx_bytes;
        self.get_svc_us.extend(&other.get_svc_us);
        self.create_svc_us.extend(&other.create_svc_us);
        self.update_svc_us.extend(&other.update_svc_us);
        self.ctx_strings.extend(&other.ctx_strings);
        self.contexts.extend(other.contexts);
    }
}

/// Keep one returned context in this many for the codec timings.
const CONTEXT_SAMPLE_EVERY: u64 = 8;

struct Conn<'a> {
    index: usize,
    client: NodeClient,
    backend: VstampBackend,
    shared: &'a Shared,
    traced: bool,
    seq: u64,
    last_lag_sample: Option<Instant>,
    /// The open-loop window of the op being executed; `None` outside the
    /// open loop, where puts are not lag samples.
    window: Option<usize>,
    stats: ConnStats,
    scratch: Vec<u8>,
}

fn micros_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

impl<'a> Conn<'a> {
    fn new(index: usize, addr: &str, shared: &'a Shared, traced: bool) -> Conn<'a> {
        Conn {
            index,
            client: client(addr),
            backend: VstampBackend::gc(),
            shared,
            traced,
            seq: 0,
            last_lag_sample: None,
            window: None,
            stats: ConnStats::default(),
            scratch: Vec::new(),
        }
    }

    fn note_context(&mut self, key: u32, ctx: &PackedName) {
        if self.traced {
            self.stats.ctx_strings.push(ctx.string_count() as f64);
            if self.stats.gets.is_multiple_of(CONTEXT_SAMPLE_EVERY) {
                self.stats.contexts.push(ctx.clone());
            }
            self.stats.last_ctx.insert(key, ctx.clone());
        }
    }

    /// A causal read, checked against the oracle.
    fn get(&mut self, key: u32) -> io::Result<(Vec<u64>, Option<PackedName>)> {
        let start = Instant::now();
        let (values, ctx) = self.client.get(&key_name(key))?;
        if self.traced {
            self.stats.get_svc_us.push(micros_since(start));
        }
        let ids: Vec<u64> = values.iter().map(|v| decode_id(v)).collect();
        self.stats.gets += 1;
        self.stats.siblings += ids.len() as u64;
        if let Some(ctx) = &ctx {
            self.scratch.clear();
            self.backend.encode_clock(ctx, &mut self.scratch);
            self.stats.ctx_bytes += self.scratch.len() as u64;
            self.note_context(key, ctx);
        }
        if ids.len() > 1 {
            let mut oracle = self.shared.oracle.lock().expect("oracle lock poisoned");
            let violations = oracle.keys.get(&key).map_or(0, |k| k.false_concurrency(&ids));
            oracle.false_concurrency += violations;
        }
        Ok((ids, ctx))
    }

    /// A write: a fresh key is created blind; otherwise a get supplies the
    /// context the put supersedes.
    fn put(&mut self, key: u32) -> io::Result<()> {
        let fresh = self.shared.workload.shape == Shape::FreshKeys;
        let (read_ids, ctx) = if fresh { (Vec::new(), None) } else { self.get(key)? };
        self.seq += 1;
        let id = write_id(1 + self.index as u64, self.seq);
        {
            // Recorded before the put is sent, so a concurrent reader that
            // sees the write always finds its causal past.
            let mut oracle = self.shared.oracle.lock().expect("oracle lock poisoned");
            oracle.keys.entry(key).or_default().record_write(id, &read_ids, false);
            oracle.written.insert(id);
        }
        let start = Instant::now();
        let clock = match self.client.put(&key_name(key), encode_id(id), ctx.as_ref()) {
            Ok(clock) => clock,
            Err(error) => {
                self.shared.oracle.lock().expect("oracle lock poisoned").ghosts.insert(id);
                return Err(error);
            }
        };
        let acked = Instant::now();
        if self.traced {
            let svc = micros_since(start);
            if fresh {
                self.stats.create_svc_us.push(svc);
            } else {
                self.stats.update_svc_us.push(svc);
            }
            self.stats.last_ctx.insert(key, clock);
        }
        let due = self.last_lag_sample.is_none_or(|last| acked - last >= LAG_SAMPLE_GAP);
        if let (Some(window), true) = (self.window, due) {
            self.last_lag_sample = Some(acked);
            let other = (self.index + 1) % CONNS;
            let sample = LagSample { key, id, window, acked, next_poll: acked };
            self.shared.inbox[other].lock().expect("inbox lock poisoned").push(sample);
        }
        Ok(())
    }

    fn execute(&mut self, op: &ScheduledOp) -> io::Result<()> {
        match op.kind {
            OpKind::Put | OpKind::Delete => self.put(op.key),
            OpKind::Get => self.get(op.key).map(drop),
        }
    }

    /// Re-reads one lag sample's key; true once the write is visible.
    fn poll(&mut self, sample: &mut LagSample) -> bool {
        self.stats.attempted += 1;
        let Ok((values, _)) = self.client.get(&key_name(sample.key)) else {
            self.stats.failed += 1;
            sample.next_poll = Instant::now() + LAG_POLL;
            return false;
        };
        let now = Instant::now();
        let ids: Vec<u64> = values.iter().map(|v| decode_id(v)).collect();
        if self.shared.shows(sample.key, &ids, sample.id) {
            let ms = now.duration_since(sample.acked).as_secs_f64() * 1e3;
            self.stats.lag_ms.push(sample.window, ms);
            true
        } else {
            sample.next_poll = now + LAG_POLL;
            false
        }
    }

    /// Waits for `due`, polling lag samples that fall due meanwhile.
    fn idle_until(&mut self, due: Instant, pending: &mut Vec<LagSample>) {
        loop {
            pending.append(&mut self.shared.inbox[self.index].lock().expect("inbox lock poisoned"));
            let now = Instant::now();
            if now >= due {
                return;
            }
            if let Some(i) = pending.iter().position(|s| s.next_poll <= now) {
                let mut sample = pending[i];
                if self.poll(&mut sample) {
                    pending.swap_remove(i);
                } else {
                    pending[i] = sample;
                }
                continue;
            }
            let next_poll = pending.iter().map(|s| s.next_poll).min().unwrap_or(due);
            thread::sleep(next_poll.min(due).saturating_duration_since(now));
        }
    }

    /// The open-loop phase: every op is sent at its scheduled time (or as
    /// soon as the previous one returns, if that is later) and timed from
    /// the scheduled time, so a stall is charged to every op queued behind
    /// it (no coordinated omission).
    fn run_open(
        &mut self,
        schedule: &[ScheduledOp],
        start: Instant,
        window_nanos: u64,
    ) -> ConnStats {
        let mut pending = Vec::new();
        for op in schedule {
            let window = (op.at_nanos / window_nanos.max(1)) as usize;
            self.window = Some(window);
            let due = start + Duration::from_nanos(op.at_nanos);
            self.idle_until(due, &mut pending);
            self.stats.lateness_us.push(Instant::now().duration_since(due).as_secs_f64() * 1e6);
            self.stats.attempted += 1;
            match self.execute(op) {
                Ok(()) => {
                    let us = micros_since(due);
                    match op.kind {
                        OpKind::Get => self.stats.get_us.push(window, us),
                        _ => self.stats.put_us.push(window, us),
                    }
                }
                Err(_) => self.stats.failed += 1,
            }
        }
        self.window = None;
        // Let the samples still in flight resolve.
        let deadline = Instant::now() + LAG_TIMEOUT;
        loop {
            pending.append(&mut self.shared.inbox[self.index].lock().expect("inbox lock poisoned"));
            if pending.is_empty() || Instant::now() >= deadline {
                break;
            }
            self.idle_until((Instant::now() + LAG_POLL).min(deadline), &mut pending);
        }
        self.stats.lag_unresolved += pending.len();
        std::mem::take(&mut self.stats)
    }

    /// The closed-loop phase: ops back to back.
    fn run_closed(&mut self, schedule: &[ScheduledOp]) -> ConnStats {
        for op in schedule {
            self.stats.attempted += 1;
            if self.execute(op).is_err() {
                self.stats.failed += 1;
            }
        }
        std::mem::take(&mut self.stats)
    }
}

// ---------------------------------------------------------------------
// One pass: set-up(s), load, gate, figures.
// ---------------------------------------------------------------------

/// A named figure with its unit.
pub type Figures = BTreeMap<String, (f64, &'static str)>;

/// What one pass measured.
pub struct PassResult {
    pub end_to_end: Figures,
    /// Per-layer figures (traced passes only).
    pub layers: Figures,
    pub attempted: u64,
    pub failed: u64,
    /// Phase durations and counts for the provenance record.
    pub phases: BTreeMap<&'static str, f64>,
}

/// Pass options.
pub struct PassSpec {
    pub setups: usize,
    pub traced: bool,
    pub measure_idle: bool,
}

fn put_fig(map: &mut Figures, name: &str, value: f64, unit: &'static str) {
    map.insert(name.to_owned(), (value, unit));
}

/// A windowed percentile, or NaN (printed as such, never gated) when a
/// window holds too few samples for it — say, with a short `--seconds`.
fn windowed(samples: &mut Windowed, q: f64) -> f64 {
    samples.percentile(q).unwrap_or(f64::NAN)
}

pub fn run_pass(
    w: &Workload,
    seed: u64,
    plan: &Plan,
    spec: &PassSpec,
) -> Result<PassResult, String> {
    let mut phases = BTreeMap::new();
    let mut setup_times = Vec::new();
    let mut kept = None;
    for round in 0..spec.setups.max(1) {
        let start = Instant::now();
        let result = setup(w, seed, round, spec.traced)?;
        setup_times.push(start.elapsed().as_secs_f64());
        if round + 1 == spec.setups.max(1) {
            kept = Some(result);
        } else {
            result.0.stop();
        }
    }
    let (mut cluster, preload, preload_create_us) = kept.expect("at least one set-up ran");
    phases.insert("setups", setup_times.len() as f64);
    phases.insert("setup_min_s", setup_times.iter().copied().fold(f64::INFINITY, f64::min));
    phases.insert("setup_max_s", setup_times.iter().copied().fold(0.0, f64::max));
    let shared = Shared {
        workload: *w,
        oracle: Mutex::new(Oracle::default()),
        inbox: std::array::from_fn(|_| Mutex::new(Vec::new())),
    };
    {
        let mut oracle = shared.oracle.lock().expect("oracle lock poisoned");
        for &(key, id) in &preload {
            oracle.keys.entry(key).or_default().record_write(id, &[], false);
            oracle.written.insert(id);
        }
    }

    let mut layers = Figures::new();
    let usage = |c: &Cluster| total_usage(&c.nodes).map_err(|e| format!("/proc read failed: {e}"));
    if spec.measure_idle {
        let before = usage(&cluster)?;
        let start = Instant::now();
        thread::sleep(IDLE_WINDOW);
        let after = usage(&cluster)?;
        let ms_per_s = (after.cpu_s - before.cpu_s) * 1e3 / start.elapsed().as_secs_f64();
        put_fig(&mut layers, "proc.idle_cpu_ms_per_s", ms_per_s, "ms/s");
    }
    if spec.traced {
        for node in &mut cluster.nodes {
            node.start_trace().map_err(|e| format!("trace start failed: {e}"))?;
        }
    }

    // --- Open loop. ---
    let mut conns: Vec<Conn> =
        (0..CONNS).map(|c| Conn::new(c, &cluster.nodes[c].addr, &shared, spec.traced)).collect();
    let relay_before = cluster.relay_snapshot();
    cluster.take_service();
    let usage_before = usage(&cluster)?;
    let net_err = |e: io::Error| format!("/proc/net/dev read failed: {e}");
    let net_before = loopback_bytes().map_err(net_err)?;
    let open_start = Instant::now() + Duration::from_millis(20);
    let last_arrival = plan.open.iter().filter_map(|s| s.last()).map(|op| op.at_nanos).max();
    let window_nanos = last_arrival.unwrap_or(0) / WINDOWS as u64 + 1;
    let open: Vec<ConnStats> = thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&plan.open)
            .map(|(conn, schedule)| {
                scope.spawn(move || conn.run_open(schedule, open_start, window_nanos))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let usage_after = usage(&cluster)?;
    let net_after = loopback_bytes().map_err(net_err)?;
    let open_secs = open_start.elapsed().as_secs_f64();
    let relay_open = cluster.relay_snapshot().since(&relay_before);
    let service = cluster.take_service();
    phases.insert("open_loop_s", open_secs);

    // --- Closed loop, in bursts; peak_ops_s is the median burst rate. ---
    let barrier = Barrier::new(CONNS);
    let closed_start = Instant::now();
    let mut closed = Vec::new();
    let mut burst_rates = Vec::new();
    for burst in 0..BURSTS {
        let part = |len: usize| {
            let per = len.div_ceil(BURSTS);
            (burst * per).min(len)..((burst + 1) * per).min(len)
        };
        let start = Instant::now();
        let stats: Vec<ConnStats> = thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(&plan.closed)
                .map(|(conn, schedule)| {
                    let (barrier, ops) = (&barrier, &schedule[part(schedule.len())]);
                    scope.spawn(move || {
                        barrier.wait();
                        conn.run_closed(ops)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let ops: u64 = stats.iter().map(|s| s.attempted).sum();
        burst_rates.push(ops as f64 / start.elapsed().as_secs_f64());
        closed.extend(stats);
    }
    let closed_secs = closed_start.elapsed().as_secs_f64();
    phases.insert("closed_loop_s", closed_secs);

    let mut total = ConnStats::default();
    let mut last_ctx: [HashMap<u32, PackedName>; CONNS] = Default::default();
    for (c, stats) in open.into_iter().enumerate() {
        let mut stats = stats;
        last_ctx[c] = std::mem::take(&mut stats.last_ctx);
        total.absorb(stats);
    }
    let mut closed_total = ConnStats::default();
    for stats in closed {
        closed_total.absorb(stats);
    }

    // --- Transport floor (traced): gets of a key that never exists. ---
    let mut rtt_us = Samples::new();
    if spec.traced {
        for conn in &mut conns {
            for _ in 0..RTT_PROBES {
                let start = Instant::now();
                if conn.client.get("absent-key").is_ok() {
                    rtt_us.push(micros_since(start));
                }
            }
        }
    }

    // --- Correctness gate. ---
    let gate_start = Instant::now();
    let mut status_clients: Vec<NodeClient> =
        cluster.nodes.iter().map(|n| client(&n.addr)).collect();
    let statuses = cluster.converge(&mut status_clients, CONVERGE_TIMEOUT)?;
    check(&shared, &mut status_clients, &statuses)?;
    phases.insert("gate_s", gate_start.elapsed().as_secs_f64());
    let attempted = total.attempted + closed_total.attempted;
    let failed = total.failed + closed_total.failed;
    if total.lag_unresolved > 0 {
        return Err(format!(
            "{} sampled writes never became visible on the other node within {LAG_TIMEOUT:?}",
            total.lag_unresolved
        ));
    }

    // --- End-to-end figures. ---
    let end_usage = usage(&cluster)?;
    let open_done = total.get_us.len() + total.put_us.len();
    let mut e2e = Figures::new();
    put_fig(&mut e2e, "setup_s", median_of(&setup_times), "s");
    put_fig(&mut e2e, "get_p50_us", windowed(&mut total.get_us, 0.5), "us");
    put_fig(&mut e2e, "get_p99_us", windowed(&mut total.get_us, 0.99), "us");
    put_fig(&mut e2e, "put_p50_us", windowed(&mut total.put_us, 0.5), "us");
    put_fig(&mut e2e, "put_p99_us", windowed(&mut total.put_us, 0.99), "us");
    put_fig(&mut e2e, "peak_ops_s", median_of(&burst_rates), "1/s");
    put_fig(&mut e2e, "repl_lag_p50_ms", windowed(&mut total.lag_ms, 0.5), "ms");
    put_fig(&mut e2e, "repl_lag_p90_ms", windowed(&mut total.lag_ms, 0.9), "ms");
    put_fig(&mut e2e, "ctx_bytes_mean", total.ctx_bytes as f64 / total.gets as f64, "bytes");
    put_fig(&mut e2e, "siblings_per_get", total.siblings as f64 / total.gets as f64, "values");
    let cpu_s = usage_after.cpu_s - usage_before.cpu_s;
    put_fig(&mut e2e, "node_cpu_us_per_op", cpu_s * 1e6 / open_done as f64, "us");
    let sent = net_after - net_before;
    put_fig(&mut e2e, "net_bytes_per_op", sent as f64 / open_done as f64, "bytes");
    put_fig(&mut e2e, "node_rss_mb", end_usage.peak_rss_kb as f64 / 1024.0, "MiB");
    put_fig(&mut e2e, "failed_ops_ratio", failed as f64 / attempted.max(1) as f64, "ratio");

    phases.insert("open_ops_completed", open_done as f64);
    phases.insert("lag_samples", total.lag_ms.len() as f64);
    phases.insert("lateness_p50_us", total.lateness_us.median().unwrap_or(f64::NAN));
    phases.insert("lateness_p99_us", total.lateness_us.percentile(0.99).unwrap_or(f64::NAN));
    phases.insert("get_samples", total.get_us.len() as f64);
    phases.insert("put_samples", total.put_us.len() as f64);

    if spec.traced {
        let ops = open_done as f64;
        total.create_svc_us.extend(&preload_create_us);
        layer_figures(
            &mut layers,
            &mut cluster,
            &mut total,
            &last_ctx,
            &statuses,
            LayerInputs { relay: relay_open, service, rtt_us, ops, open_secs, failed },
        )?;
    }
    cluster.stop();
    Ok(PassResult { end_to_end: e2e, layers, attempted, failed, phases })
}

/// The correctness gate: no false concurrency during the run, no
/// evictions, and a sweep of sampled keys on every node that must agree
/// and match the oracle — no lost acked write, no resurrection.
fn check(
    shared: &Shared,
    clients: &mut [NodeClient],
    statuses: &[NodeStatus],
) -> Result<(), String> {
    let oracle = shared.oracle.lock().expect("oracle lock poisoned");
    if oracle.false_concurrency > 0 {
        return Err(format!("{} falsely concurrent sibling pairs read", oracle.false_concurrency));
    }
    let evictions: usize = statuses.iter().map(|s| s.evictions + s.evicted_members).sum();
    if evictions > 0 {
        return Err(format!("{evictions} evictions in a fault-free run"));
    }
    let mut keys: Vec<u32> = oracle.keys.keys().copied().collect();
    keys.sort_unstable();
    let stride = keys.len().div_ceil(SWEEP_KEYS).max(1);
    for &key in keys.iter().step_by(stride) {
        let mut reads: Vec<Vec<u64>> = Vec::with_capacity(clients.len());
        for c in clients.iter_mut() {
            let (values, _) =
                c.get(&key_name(key)).map_err(|e| format!("sweep get failed: {e}"))?;
            let mut ids: Vec<u64> = values.iter().map(|v| decode_id(v)).collect();
            ids.sort_unstable();
            reads.push(ids);
        }
        if reads.windows(2).any(|p| p[0] != p[1]) {
            return Err(format!("{} differs across nodes: {reads:?}", key_name(key)));
        }
        let live = &reads[0];
        let k = &oracle.keys[&key];
        if k.false_concurrency(live) > 0 {
            return Err(format!("{} holds falsely concurrent siblings {live:?}", key_name(key)));
        }
        for id in k.expected_live() {
            if !live.contains(&id) && !oracle.ghosts.contains(&id) {
                return Err(format!(
                    "lost acked write {id:#x} on {}: live {live:?}",
                    key_name(key)
                ));
            }
        }
        if let Some(id) = live.iter().find(|id| !oracle.written.contains(id)) {
            return Err(format!("resurrected never-written id {id:#x} on {}", key_name(key)));
        }
    }
    Ok(())
}

struct LayerInputs {
    relay: Snapshot,
    service: ServiceTimes,
    rtt_us: Samples,
    ops: f64,
    open_secs: f64,
    failed: u64,
}

/// Median time of `reps` calls of `f`, per call, over `items`.
fn time_each<T>(items: &[T], reps: u32, mut f: impl FnMut(&T)) -> f64 {
    let mut per_item = Samples::new();
    for item in items {
        let start = Instant::now();
        for _ in 0..reps {
            f(item);
        }
        per_item.push(start.elapsed().as_nanos() as f64 / f64::from(reps));
    }
    per_item.median().or_else(|| per_item.mean()).unwrap_or(0.0)
}

fn median_or_zero(samples: &mut Samples) -> f64 {
    samples.median().unwrap_or(0.0)
}

fn layer_figures(
    layers: &mut Figures,
    cluster: &mut Cluster,
    total: &mut ConnStats,
    last_ctx: &[HashMap<u32, PackedName>; CONNS],
    statuses: &[NodeStatus],
    mut inputs: LayerInputs,
) -> Result<(), String> {
    use vstamp_store::MessageKind as K;
    let fig = |layers: &mut Figures, name: &str, value: f64, unit: &'static str| {
        put_fig(layers, name, value, unit);
    };
    // node: client spans around NodeClient.
    fig(layers, "node.put_create_us_p50", median_or_zero(&mut total.create_svc_us), "us");
    fig(layers, "node.put_update_us_p50", median_or_zero(&mut total.update_svc_us), "us");
    fig(layers, "node.get_us_p50", median_or_zero(&mut total.get_svc_us), "us");
    fig(layers, "node.failed_ops", inputs.failed as f64, "count");
    // transport.
    fig(layers, "transport.rtt_us_p50", median_or_zero(&mut inputs.rtt_us), "us");
    fig(layers, "transport.reconnects", inputs.relay.redials as f64, "count");
    // exchange protocol, counted on the relays during the open loop.
    let r = &inputs.relay;
    let probes = r.frames_of(K::Probe) as f64;
    fig(layers, "exchange.probes_per_s", probes / inputs.open_secs, "1/s");
    fig(layers, "exchange.probe_hit_ratio", r.frames_of(K::Ack) as f64 / probes.max(1.0), "ratio");
    let mut probe_us = Samples::new();
    inputs.service.probe_us.iter().for_each(|&v| probe_us.push(v));
    let mut digest_us = Samples::new();
    inputs.service.digest_us.iter().for_each(|&v| digest_us.push(v));
    fig(layers, "exchange.probe_service_us_p50", median_or_zero(&mut probe_us), "us");
    fig(layers, "exchange.digest_service_us_p50", median_or_zero(&mut digest_us), "us");
    let deltas = r.frames_of(K::Delta) as f64;
    fig(layers, "exchange.nak_per_delta", r.frames_of(K::Nak) as f64 / deltas.max(1.0), "ratio");
    let per_op = |bytes: u64| bytes as f64 / inputs.ops;
    let probe_bytes = r.bytes_of(K::Probe) + r.bytes_of(K::Ack) + r.bytes_of(K::Miss);
    fig(layers, "wire.probe_bytes_per_op", per_op(probe_bytes), "bytes");
    fig(layers, "wire.digest_bytes_per_op", per_op(r.bytes_of(K::Digest)), "bytes");
    fig(layers, "wire.delta_bytes_per_op", per_op(r.bytes_of(K::Delta)), "bytes");
    fig(layers, "wire.nak_bytes_per_op", per_op(r.bytes_of(K::Nak)), "bytes");

    // Node-side samples of the live store.
    let mut reports: Vec<HashMap<String, f64>> = Vec::new();
    for node in &mut cluster.nodes {
        let pairs = node.report().map_err(|e| format!("node report failed: {e}"))?;
        reports.push(pairs.into_iter().collect());
    }
    let value = |r: &HashMap<String, f64>, name: &str| r.get(name).copied().unwrap_or(f64::NAN);
    let mean_over =
        |name: &str| reports.iter().map(|r| value(r, name)).sum::<f64>() / reports.len() as f64;
    fig(layers, "wire.encode_digest_us", mean_over("encode_digest_us"), "us");
    fig(layers, "wire.decode_digest_us", mean_over("decode_digest_us"), "us");
    fig(layers, "cluster.digest_root_us", mean_over("digest_root_us"), "us");
    fig(layers, "cluster.build_digest_us", mean_over("build_digest_us"), "us");
    fig(layers, "cluster.get_ns", mean_over("get_ns"), "ns");
    fig(layers, "store.mean_key_metadata_bits", mean_over("mean_key_metadata_bits"), "bits");
    let max_siblings = reports.iter().map(|r| value(r, "max_siblings")).fold(0.0, f64::max);
    fig(layers, "store.max_siblings", max_siblings, "values");
    let sum_over = |name: &str| reports.iter().map(|r| value(r, name)).sum::<f64>();
    fig(layers, "store.element_bits_total", sum_over("element_bits_total"), "bits");
    fig(layers, "store.clock_bits_total", sum_over("clock_bits_total"), "bits");
    // Node 0 roots every hot-contended key (and half the preload of the
    // other workloads); node 2 never serves a client, so it adopts all.
    fig(layers, "gc.meta_bits_rooting_node", value(&reports[0], "mean_key_metadata_bits"), "bits");
    let adopting = (value(&reports[1], "mean_key_metadata_bits")
        + value(&reports[2], "mean_key_metadata_bits"))
        / 2.0;
    fig(layers, "gc.meta_bits_adopting_nodes", adopting, "bits");

    // wire: decoding the contexts clients were handed.
    let backend = VstampBackend::gc();
    let encoded: Vec<Vec<u8>> = total
        .contexts
        .iter()
        .map(|ctx| {
            let mut out = Vec::new();
            backend.encode_clock(ctx, &mut out);
            out
        })
        .collect();
    let decode_ns = time_each(&encoded, 32, |bytes| {
        std::hint::black_box(
            backend.decode_clock(std::hint::black_box(bytes)).expect("context decodes"),
        );
    });
    fig(layers, "wire.decode_clock_ns", decode_ns, "ns");

    // vstamp-core: pairs of contexts for one key returned by different
    // nodes.
    let pairs: Vec<(PackedName, PackedName)> = last_ctx[0]
        .iter()
        .filter_map(|(key, a)| last_ctx[1].get(key).map(|b| (a.clone(), b.clone())))
        .take(512)
        .collect();
    let join_ns = time_each(&pairs, 32, |(a, b)| {
        std::hint::black_box(std::hint::black_box(a).join(std::hint::black_box(b)));
    });
    let leq_ns = time_each(&pairs, 32, |(a, b)| {
        std::hint::black_box(std::hint::black_box(a).leq(std::hint::black_box(b)));
    });
    fig(layers, "core.join_ns", join_ns, "ns");
    fig(layers, "core.leq_ns", leq_ns, "ns");
    fig(layers, "core.ctx_strings_mean", total.ctx_strings.mean().unwrap_or(0.0), "strings");
    fig(layers, "core.context_pairs", pairs.len() as f64, "count");

    // membership and failure, from the nodes' status.
    let id_bits = statuses.iter().map(|s| s.id_bits).max().unwrap_or(0);
    let table_bytes = statuses.iter().map(|s| s.table.encode().len()).max().unwrap_or(0);
    fig(layers, "membership.id_bits_max", id_bits as f64, "bits");
    fig(layers, "membership.table_bytes", table_bytes as f64, "bytes");
    let evictions: usize = statuses.iter().map(|s| s.evictions).sum();
    fig(layers, "failure.evictions", evictions as f64, "count");
    Ok(())
}
