//! Socket-level nemesis: deterministic fault injection for real TCP
//! clusters.
//!
//! Every node's *advertised* address points at a [`Proxy`] owned by the
//! harness; inter-node traffic therefore crosses a proxy that parses the
//! length-prefixed codec frames and misbehaves on purpose — dropping,
//! delaying and duplicating individual frames, or black-holing a node's
//! inbound side entirely (a directed partition). Clients talk to the
//! nodes' real listeners and bypass the nemesis, so the causal oracle
//! observes the system as a user would.
//!
//! Determinism: the fault *plan* (which node is partitioned or crashed,
//! when, for how long) and every per-frame dice roll derive from one
//! seed via splitmix64. Socket scheduling itself remains real — the
//! nemesis makes fault *injection* reproducible, not thread interleaving.
//!
//! Crash/restart is not a proxy concern: the harness SIGKILLs the node
//! process and later starts a fresh one that joins as a *new* member
//! behind a new proxy, which is exactly what decentralized creation
//! promises to make cheap.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use parking_lot::Mutex;

/// Per-frame misbehaviour rates, in permille (so configs stay integral
/// and seed-stable).
#[derive(Debug, Clone, Copy)]
pub struct NemesisConfig {
    /// Chance a frame is silently dropped.
    pub drop_per_mille: u16,
    /// Chance a frame is forwarded twice.
    pub duplicate_per_mille: u16,
    /// Chance a frame (and everything queued behind it) is delayed.
    pub delay_per_mille: u16,
    /// Upper bound on an injected delay.
    pub max_delay: Duration,
}

impl NemesisConfig {
    /// A nemesis that faithfully forwards everything (control runs).
    #[must_use]
    pub fn faithful() -> Self {
        NemesisConfig {
            drop_per_mille: 0,
            duplicate_per_mille: 0,
            delay_per_mille: 0,
            max_delay: Duration::ZERO,
        }
    }

    /// The default faulty profile used by the harness.
    #[must_use]
    pub fn faulty() -> Self {
        NemesisConfig {
            drop_per_mille: 20,
            duplicate_per_mille: 10,
            delay_per_mille: 30,
            max_delay: Duration::from_millis(80),
        }
    }
}

/// One scheduled fault in a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Black-hole the node's inbound proxy for `duration` starting at
    /// `at` (relative to the start of the fault phase). Peers stop being
    /// able to pull from the node; the node itself keeps pulling, so the
    /// failure is a *directed* cut — and, because its outbound requests
    /// keep feeding peer heartbeats, a partitioned node is never
    /// mistaken for a dead one.
    Partition {
        /// Index of the partitioned node.
        node: usize,
        /// Offset from the start of the fault phase.
        at: Duration,
        /// How long the inbound side stays black-holed.
        duration: Duration,
    },
    /// SIGKILL the node's process at `at`, wait `downtime`, then start a
    /// fresh process that joins as a new member. The killed incarnation
    /// must end up evicted with its identity retired.
    CrashRestart {
        /// Index of the crashed node.
        node: usize,
        /// Offset from the start of the fault phase.
        at: Duration,
        /// Gap between the kill and the replacement's join.
        downtime: Duration,
    },
}

/// The seeded fault schedule for one harness run.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Events ordered by their `at` offset.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Derives the schedule from a seed: one directed partition and one
    /// crash-restart, hitting two *different* non-bootstrap nodes, with
    /// seed-jittered times. `nodes` must be at least 3 so the bootstrap
    /// (index 0) is never the victim.
    #[must_use]
    pub fn generate(seed: u64, nodes: usize) -> FaultPlan {
        assert!(nodes >= 3, "fault plan needs a bootstrap plus two victims");
        let mut rng = Dice::new(seed ^ 0xFEED_FACE_CAFE_BEEF);
        let victims = nodes - 1;
        let partitioned = 1 + (rng.roll(victims as u64) as usize);
        // A different victim for the crash, chosen among the rest.
        let mut crashed = 1 + (rng.roll((victims - 1) as u64) as usize);
        if crashed >= partitioned {
            crashed += 1;
        }
        let partition_at = Duration::from_millis(200 + rng.roll(300));
        let partition_for = Duration::from_millis(600 + rng.roll(500));
        let crash_at = partition_at + partition_for + Duration::from_millis(700 + rng.roll(300));
        let downtime = Duration::from_millis(800 + rng.roll(400));
        FaultPlan {
            events: vec![
                FaultEvent::Partition {
                    node: partitioned,
                    at: partition_at,
                    duration: partition_for,
                },
                FaultEvent::CrashRestart { node: crashed, at: crash_at, downtime },
            ],
        }
    }
}

/// Seeded splitmix64 dice.
#[derive(Debug, Clone)]
struct Dice {
    state: u64,
}

impl Dice {
    fn new(seed: u64) -> Self {
        Dice { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn roll(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        self.next() % bound
    }

    fn chance(&mut self, per_mille: u16) -> bool {
        self.roll(1000) < u64::from(per_mille)
    }
}

/// A frame-level TCP proxy in front of one node's listener.
#[derive(Debug)]
pub struct Proxy {
    listen_addr: SocketAddr,
    target: Arc<Mutex<Option<String>>>,
    blocked: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

impl Proxy {
    /// Binds the proxy's public listener (the node's advertised address)
    /// and starts accepting. The forwarding target is set later, once
    /// the node process reports its real listener via
    /// [`Proxy::set_target`]; until then connections are dropped.
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind.
    pub fn start(config: NemesisConfig, seed: u64) -> io::Result<Proxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let listen_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let target = Arc::new(Mutex::new(None));
        let blocked = Arc::new(AtomicBool::new(false));
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = {
            let target = Arc::clone(&target);
            let blocked = Arc::clone(&blocked);
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || accept_loop(listener, target, blocked, shutdown, config, seed))
        };
        Ok(Proxy {
            listen_addr,
            target,
            blocked,
            shutdown,
            accept_thread: Mutex::new(Some(thread)),
        })
    }

    /// The address peers should advertise and dial.
    #[must_use]
    pub fn listen_addr(&self) -> String {
        self.listen_addr.to_string()
    }

    /// Points the proxy at the node's real listener (also used after a
    /// crash-restart when the replacement process reuses the proxy).
    pub fn set_target(&self, addr: impl Into<String>) {
        *self.target.lock() = Some(addr.into());
    }

    /// Black-holes (or heals) the node's inbound side. Existing
    /// connections are torn down within one frame poll; new ones are
    /// accepted and immediately dropped, like a host behind a stateful
    /// firewall.
    pub fn set_blocked(&self, blocked: bool) {
        self.blocked.store(blocked, Ordering::SeqCst);
    }

    /// Stops the proxy; in-flight pump threads unwind on their next poll.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: TcpListener,
    target: Arc<Mutex<Option<String>>>,
    blocked: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    config: NemesisConfig,
    seed: u64,
) {
    let mut connection_seq = 0u64;
    while !shutdown.load(Ordering::SeqCst) {
        let (client, _) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(error)
                if error.kind() == io::ErrorKind::WouldBlock
                    || error.kind() == io::ErrorKind::TimedOut =>
            {
                thread::sleep(Duration::from_millis(5));
                continue;
            }
            Err(_) => {
                thread::sleep(Duration::from_millis(20));
                continue;
            }
        };
        connection_seq += 1;
        if blocked.load(Ordering::SeqCst) {
            let _ = client.shutdown(Shutdown::Both);
            continue;
        }
        let Some(addr) = target.lock().clone() else {
            let _ = client.shutdown(Shutdown::Both);
            continue;
        };
        let Ok(server) = TcpStream::connect(&addr) else {
            let _ = client.shutdown(Shutdown::Both);
            continue;
        };
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        for (index, (from, to)) in
            [(client.try_clone(), server.try_clone()), (Ok(server), Ok(client))]
                .into_iter()
                .enumerate()
        {
            let (Ok(from), Ok(to)) = (from, to) else { break };
            let blocked = Arc::clone(&blocked);
            let shutdown = Arc::clone(&shutdown);
            let dice =
                Dice::new(seed ^ connection_seq.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ index as u64);
            thread::spawn(move || pump(from, to, dice, config, blocked, shutdown));
        }
    }
}

/// Forwards length-prefixed frames one direction, rolling the dice per
/// frame. Any I/O error or a partition tears the connection down — the
/// transport layer on both sides is built to reconnect.
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    mut dice: Dice,
    config: NemesisConfig,
    blocked: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(100)));
    let mut prefix = [0u8; 4];
    'frames: loop {
        if shutdown.load(Ordering::SeqCst) || blocked.load(Ordering::SeqCst) {
            break;
        }
        let mut read = 0;
        while read < prefix.len() {
            match from.read(&mut prefix[read..]) {
                Ok(0) => break 'frames,
                Ok(n) => read += n,
                Err(error)
                    if error.kind() == io::ErrorKind::WouldBlock
                        || error.kind() == io::ErrorKind::TimedOut =>
                {
                    if shutdown.load(Ordering::SeqCst) || blocked.load(Ordering::SeqCst) {
                        break 'frames;
                    }
                }
                Err(_) => break 'frames,
            }
        }
        let len = u32::from_le_bytes(prefix) as usize;
        let mut body = vec![0u8; len];
        if read_fully(&mut from, &mut body, &shutdown, &blocked).is_err() {
            break;
        }
        // A read that was already in flight when the partition started
        // still completes; the frame it delivered must not cross the cut.
        if shutdown.load(Ordering::SeqCst) || blocked.load(Ordering::SeqCst) {
            break;
        }
        if dice.chance(config.drop_per_mille) {
            continue;
        }
        if dice.chance(config.delay_per_mille) {
            let delay = dice.roll(config.max_delay.as_millis().max(1) as u64);
            thread::sleep(Duration::from_millis(delay));
        }
        let copies = if dice.chance(config.duplicate_per_mille) { 2 } else { 1 };
        for _ in 0..copies {
            if to.write_all(&prefix).is_err() || to.write_all(&body).is_err() {
                break 'frames;
            }
        }
        let _ = to.flush();
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

fn read_fully(
    from: &mut TcpStream,
    buffer: &mut [u8],
    shutdown: &AtomicBool,
    blocked: &AtomicBool,
) -> io::Result<()> {
    let mut read = 0;
    while read < buffer.len() {
        match from.read(&mut buffer[read..]) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed")),
            Ok(n) => read += n,
            Err(error)
                if error.kind() == io::ErrorKind::WouldBlock
                    || error.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) || blocked.load(Ordering::SeqCst) {
                    return Err(io::Error::new(io::ErrorKind::Interrupted, "nemesis cut"));
                }
            }
            Err(error) => return Err(error),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_is_deterministic_and_picks_distinct_victims() {
        let a = FaultPlan::generate(7, 3);
        let b = FaultPlan::generate(7, 3);
        assert_eq!(a.events, b.events);
        let FaultEvent::Partition { node: partitioned, .. } = a.events[0] else {
            panic!("first event must be the partition");
        };
        let FaultEvent::CrashRestart { node: crashed, .. } = a.events[1] else {
            panic!("second event must be the crash");
        };
        assert_ne!(partitioned, 0, "bootstrap is never a victim");
        assert_ne!(crashed, 0, "bootstrap is never a victim");
        assert_ne!(partitioned, crashed, "victims must differ");
        assert_ne!(
            FaultPlan::generate(8, 3).events,
            a.events,
            "different seeds give different plans"
        );
    }

    #[test]
    fn proxy_forwards_frames_and_partitions_on_demand() {
        let backend = TcpListener::bind("127.0.0.1:0").expect("bind backend");
        let backend_addr = backend.local_addr().expect("addr").to_string();
        thread::spawn(move || {
            for stream in backend.incoming().flatten() {
                thread::spawn(move || {
                    let mut stream = stream;
                    let mut buffer = [0u8; 9];
                    while stream.read_exact(&mut buffer).is_ok() {
                        // Echo the 5-byte frame (4-byte prefix + 1 payload).
                        if stream.write_all(&buffer).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        let proxy = Proxy::start(NemesisConfig::faithful(), 5).expect("proxy");
        proxy.set_target(backend_addr);
        let mut client = TcpStream::connect(proxy.listen_addr()).expect("dial proxy");
        client.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let frame = [5u8, 0, 0, 0, b'a', b'b', b'c', b'd', b'e'];
        client.write_all(&frame).expect("send");
        let mut echoed = [0u8; 9];
        client.read_exact(&mut echoed).expect("echo");
        assert_eq!(echoed, frame);

        proxy.set_blocked(true);
        client.set_read_timeout(Some(Duration::from_millis(500))).expect("timeout");
        let dead = client.write_all(&frame).is_err() || client.read_exact(&mut echoed).is_err();
        assert!(dead, "blocked proxy must sever the connection");
        proxy.stop();
    }
}
