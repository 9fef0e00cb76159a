//! A frame-counting relay in front of one node, used only by the traced
//! run. Each node advertises its relay's address, so every inter-node
//! exchange (probe, digest, delta, NAK, join) crosses a relay the way
//! `cluster_harness` routes node traffic through its nemesis proxies —
//! here without faults, counting frames and bytes per message kind and
//! timing each request until its reply comes back.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use vstamp_store::MessageKind;

/// Kinds are tagged 0..KINDS on the wire.
pub const KINDS: usize = 14;

/// Frame-length cap, as in the transport: a larger prefix is a protocol
/// error, not an allocation request.
const MAX_FRAME_LEN: u32 = 64 << 20;

/// Frame and byte counts per message kind, plus request→reply service
/// times for probes and digests.
#[derive(Debug, Default)]
pub struct Counters {
    frames: [AtomicU64; KINDS],
    bytes: [AtomicU64; KINDS],
    connections: AtomicU64,
    /// Connections whose first frame came from a member already seen on
    /// this relay (a re-dial of an existing link); joins excluded.
    redials: AtomicU64,
    senders: Mutex<Vec<u64>>,
    service: Mutex<ServiceTimes>,
}

/// Request→reply times seen at the relay, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct ServiceTimes {
    pub probe_us: Vec<f64>,
    pub digest_us: Vec<f64>,
}

/// A point-in-time copy of [`Counters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    pub frames: [u64; KINDS],
    pub bytes: [u64; KINDS],
    pub connections: u64,
    pub redials: u64,
}

impl Snapshot {
    pub fn frames_of(&self, kind: MessageKind) -> u64 {
        self.frames[kind.tag() as usize]
    }

    pub fn bytes_of(&self, kind: MessageKind) -> u64 {
        self.bytes[kind.tag() as usize]
    }

    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            frames: std::array::from_fn(|k| self.frames[k] - earlier.frames[k]),
            bytes: std::array::from_fn(|k| self.bytes[k] - earlier.bytes[k]),
            connections: self.connections - earlier.connections,
            redials: self.redials - earlier.redials,
        }
    }

    /// Field-wise sum.
    pub fn plus(&self, other: &Snapshot) -> Snapshot {
        Snapshot {
            frames: std::array::from_fn(|k| self.frames[k] + other.frames[k]),
            bytes: std::array::from_fn(|k| self.bytes[k] + other.bytes[k]),
            connections: self.connections + other.connections,
            redials: self.redials + other.redials,
        }
    }
}

impl Counters {
    fn count(&self, tag: u8, len: usize) {
        if let Some(slot) = self.frames.get(tag as usize) {
            slot.fetch_add(1, Ordering::Relaxed);
            self.bytes[tag as usize].fetch_add(len as u64, Ordering::Relaxed);
        }
    }

    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            frames: std::array::from_fn(|k| self.frames[k].load(Ordering::Relaxed)),
            bytes: std::array::from_fn(|k| self.bytes[k].load(Ordering::Relaxed)),
            connections: self.connections.load(Ordering::Relaxed),
            redials: self.redials.load(Ordering::Relaxed),
        }
    }

    /// Takes the service times recorded so far, leaving none.
    pub fn take_service(&self) -> ServiceTimes {
        std::mem::take(&mut *self.service.lock().expect("relay service lock poisoned"))
    }
}

/// Reads one length-prefixed frame (prefix included) into `buf`. Returns
/// `Ok(false)` on a clean end of stream before a prefix; a timeout while
/// waiting for a prefix comes back as the I/O error so the caller can
/// poll its shutdown flag.
pub fn read_frame<R: Read>(reader: &mut R, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut prefix = [0u8; 4];
    let mut read = 0;
    while read < prefix.len() {
        match reader.read(&mut prefix[read..]) {
            Ok(0) if read == 0 => return Ok(false),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => read += n,
            Err(error) if read > 0 && is_timeout(&error) => continue,
            Err(error) => return Err(error),
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad frame length"));
    }
    buf.clear();
    buf.extend_from_slice(&prefix);
    buf.resize(4 + len as usize, 0);
    let mut filled = 4;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(error) if is_timeout(&error) => continue,
            Err(error) => return Err(error),
        }
    }
    Ok(true)
}

fn is_timeout(error: &io::Error) -> bool {
    matches!(error.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// The kind tag of a frame read by [`read_frame`].
pub fn frame_tag(frame: &[u8]) -> u8 {
    frame[4]
}

/// The sender field of a frame: the varint after the kind tag (a node's
/// advertised port, 0 for clients).
fn frame_from(frame: &[u8]) -> u64 {
    let mut value = 0u64;
    for (i, byte) in frame[5..].iter().take(10).enumerate() {
        value |= u64::from(byte & 0x7F) << (7 * i);
        if byte & 0x80 == 0 {
            break;
        }
    }
    value
}

/// The last request forwarded on one connection, for pairing replies.
type Pending = Arc<Mutex<Option<(u8, Instant)>>>;

/// Forwards frames from `from` to `to`, counting each. Requests (the
/// dialer's direction) park their kind and forward time in `pending`;
/// replies close the pair and record the service time.
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    counters: &Counters,
    pending: &Pending,
    request_side: bool,
    shutdown: &AtomicBool,
) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(100)));
    let mut buf = Vec::new();
    let mut first = request_side;
    loop {
        match read_frame(&mut from, &mut buf) {
            Ok(true) => {}
            Ok(false) => break,
            Err(error) if is_timeout(&error) => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        let tag = frame_tag(&buf);
        counters.count(tag, buf.len());
        if first {
            first = false;
            note_sender(counters, tag, frame_from(&buf));
        }
        let now = Instant::now();
        let mut slot = pending.lock().expect("relay pending lock poisoned");
        if request_side {
            *slot = Some((tag, now));
        } else if let Some((request, sent)) = slot.take() {
            let micros = now.duration_since(sent).as_secs_f64() * 1e6;
            let mut service = counters.service.lock().expect("relay service lock poisoned");
            if request == MessageKind::Probe.tag() {
                service.probe_us.push(micros);
            } else if request == MessageKind::Digest.tag() && tag == MessageKind::Delta.tag() {
                service.digest_us.push(micros);
            }
        }
        drop(slot);
        if to.write_all(&buf).is_err() {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

fn note_sender(counters: &Counters, tag: u8, sender: u64) {
    if tag == MessageKind::Join.tag() {
        return;
    }
    let mut senders = counters.senders.lock().expect("relay sender lock poisoned");
    if senders.contains(&sender) {
        counters.redials.fetch_add(1, Ordering::Relaxed);
    } else {
        senders.push(sender);
    }
}

/// One relay: a listener forwarding every accepted connection to a
/// target address set once the node behind it reports its listener.
pub struct Relay {
    addr: String,
    target: Arc<Mutex<Option<String>>>,
    counters: Arc<Counters>,
    shutdown: Arc<AtomicBool>,
    threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Relay {
    /// Binds a loopback listener and starts accepting.
    pub fn start() -> io::Result<Relay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        listener.set_nonblocking(true)?;
        let relay = Relay {
            addr,
            target: Arc::new(Mutex::new(None)),
            counters: Arc::new(Counters::default()),
            shutdown: Arc::new(AtomicBool::new(false)),
            threads: Arc::new(Mutex::new(Vec::new())),
        };
        let (target, counters, shutdown, threads) = (
            Arc::clone(&relay.target),
            Arc::clone(&relay.counters),
            Arc::clone(&relay.shutdown),
            Arc::clone(&relay.threads),
        );
        let accept = thread::spawn(move || {
            accept_loop(&listener, &target, &counters, &shutdown, &threads);
        });
        relay.threads.lock().expect("relay thread list lock poisoned").push(accept);
        Ok(relay)
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn set_target(&self, addr: &str) {
        *self.target.lock().expect("relay target lock poisoned") = Some(addr.to_owned());
    }

    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Stops accepting and joins every relay thread. Pumps notice within
    /// one read timeout (or as soon as the node behind them exits).
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        loop {
            let handle = self.threads.lock().expect("relay thread list lock poisoned").pop();
            match handle {
                Some(handle) => handle.join().expect("relay thread panicked"),
                None => break,
            }
        }
    }
}

impl Drop for Relay {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

fn accept_loop(
    listener: &TcpListener,
    target: &Mutex<Option<String>>,
    counters: &Arc<Counters>,
    shutdown: &Arc<AtomicBool>,
    threads: &Mutex<Vec<JoinHandle<()>>>,
) {
    while !shutdown.load(Ordering::SeqCst) {
        let client = match listener.accept() {
            Ok((client, _)) => client,
            Err(_) => {
                thread::sleep(Duration::from_millis(2));
                continue;
            }
        };
        let addr = target.lock().expect("relay target lock poisoned").clone();
        let server = match addr.map(TcpStream::connect) {
            Some(Ok(server)) => server,
            _ => {
                let _ = client.shutdown(Shutdown::Both);
                continue;
            }
        };
        counters.connections.fetch_add(1, Ordering::Relaxed);
        let _ = client.set_nonblocking(false);
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        let pending: Pending = Arc::new(Mutex::new(None));
        let (Ok(client_rx), Ok(server_rx)) = (client.try_clone(), server.try_clone()) else {
            continue;
        };
        let mut spawned = threads.lock().expect("relay thread list lock poisoned");
        for (from, to, request_side) in [(client_rx, server, true), (server_rx, client, false)] {
            let (counters, pending, shutdown) =
                (Arc::clone(counters), Arc::clone(&pending), Arc::clone(shutdown));
            spawned.push(thread::spawn(move || {
                pump(from, to, &counters, &pending, request_side, &shutdown);
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstamp_store::{recv_envelope, send_envelope, Envelope};

    fn envelope(kind: MessageKind, from: usize, payload_len: usize) -> Envelope {
        Envelope { kind, from, payload: vec![0xAB; payload_len] }
    }

    #[test]
    fn reads_length_prefixed_frames_back_to_back() {
        let sent = [
            envelope(MessageKind::Probe, 40_001, 8),
            envelope(MessageKind::Digest, 40_001, 300),
            envelope(MessageKind::Delta, 40_002, 0),
        ];
        let mut stream = Vec::new();
        for e in &sent {
            send_envelope(&mut stream, e).unwrap();
        }
        let mut reader = stream.as_slice();
        let mut buf = Vec::new();
        let mut total = 0;
        for e in &sent {
            assert!(read_frame(&mut reader, &mut buf).unwrap());
            assert_eq!(frame_tag(&buf), e.kind.tag());
            assert_eq!(frame_from(&buf), e.from as u64);
            let mut one = Vec::new();
            send_envelope(&mut one, e).unwrap();
            assert_eq!(buf, one, "a frame is forwarded byte for byte");
            total += buf.len();
        }
        assert_eq!(total, stream.len());
        assert!(!read_frame(&mut reader, &mut buf).unwrap(), "clean end of stream");
    }

    #[test]
    fn rejects_truncated_and_oversized_frames() {
        let mut stream = Vec::new();
        send_envelope(&mut stream, &envelope(MessageKind::Nak, 1, 50)).unwrap();
        let mut buf = Vec::new();
        assert!(read_frame(&mut &stream[..stream.len() - 1], &mut buf).is_err());
        let huge = (MAX_FRAME_LEN + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..], &mut buf).is_err());
    }

    /// A real relay between a client and a one-shot echo server counts
    /// every frame in both directions and pairs the probe with its reply.
    #[test]
    fn relay_counts_both_directions_over_tcp() {
        let server = TcpListener::bind("127.0.0.1:0").unwrap();
        let server_addr = server.local_addr().unwrap().to_string();
        let echo = thread::spawn(move || {
            let (mut stream, _) = server.accept().unwrap();
            for reply in [MessageKind::Miss, MessageKind::Delta] {
                let request = recv_envelope(&mut stream).unwrap();
                send_envelope(&mut stream, &envelope(reply, 9, request.payload.len())).unwrap();
            }
        });
        let relay = Relay::start().unwrap();
        relay.set_target(&server_addr);
        let mut client = TcpStream::connect(relay.addr()).unwrap();
        for (kind, len) in [(MessageKind::Probe, 8), (MessageKind::Digest, 100)] {
            send_envelope(&mut client, &envelope(kind, 7, len)).unwrap();
            recv_envelope(&mut client).unwrap();
        }
        echo.join().unwrap();
        drop(client);
        relay.stop();
        let snap = relay.counters().snapshot();
        for kind in [MessageKind::Probe, MessageKind::Miss, MessageKind::Digest, MessageKind::Delta]
        {
            assert_eq!(snap.frames_of(kind), 1, "{kind:?}");
        }
        assert_eq!(snap.bytes_of(MessageKind::Probe), 4 + 1 + 1 + 1 + 8);
        assert_eq!(snap.bytes_of(MessageKind::Digest), 4 + 1 + 1 + 1 + 100);
        assert_eq!(snap.frames.iter().sum::<u64>(), 4);
        assert_eq!((snap.connections, snap.redials), (1, 0));
        let service = relay.counters().take_service();
        assert_eq!((service.probe_us.len(), service.digest_us.len()), (1, 1));
    }
}
