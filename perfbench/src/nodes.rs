//! The node processes: this binary re-run with `--node`, wrapping the
//! public `vstamp_store::Node` API exactly as `cluster_harness` does, plus
//! the parent's handle on each child and its `/proc` readings.
//!
//! A child talks to the parent over its standard streams: it prints
//! `LISTEN <addr>` once serving; the parent may then send `trace` (start
//! sampling the live store) and `report` (print one `REPORT` line of
//! per-layer figures). End of input shuts the node down, so a parent that
//! dies never leaks nodes.

use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use vstamp_bench::latency::SplitMix64;
use vstamp_store::wire::{decode_digest, encode_digest};
use vstamp_store::{Cluster, Node, NodeConfig, VstampBackend};

use crate::stats::Samples;

/// How often the traced node samples its live store.
const SAMPLE_EVERY: Duration = Duration::from_millis(200);

/// Point reads timed per sample.
const GETS_PER_SAMPLE: usize = 16;

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

/// Entry point of a `--node` child.
pub fn child_main(args: &[String]) {
    let seed: u64 = arg_value(args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(1);
    let config = NodeConfig {
        advertise_addr: arg_value(args, "--advertise"),
        seed,
        ..NodeConfig::default()
    };
    let node = match arg_value(args, "--sponsor") {
        None => Node::bootstrap(config).expect("bootstrap node"),
        Some(sponsor) => Node::join(config, &sponsor).expect("join cluster"),
    };
    let node = Arc::new(node);
    println!("LISTEN {}", node.local_addr());
    io::stdout().flush().expect("flush LISTEN line");
    let samples = Arc::new(Mutex::new(LiveSamples::default()));
    let stop = Arc::new(AtomicBool::new(false));
    let mut sampler = None;
    for line in io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        match line.trim() {
            "trace" if sampler.is_none() => {
                let (node, samples, stop) =
                    (Arc::clone(&node), Arc::clone(&samples), Arc::clone(&stop));
                sampler = Some(thread::spawn(move || sample_loop(&node, &samples, &stop, seed)));
            }
            "report" => {
                let line = report(node.cluster(), &mut samples.lock().expect("sample lock"));
                println!("{line}");
                io::stdout().flush().expect("flush REPORT line");
            }
            _ => {}
        }
    }
    stop.store(true, Ordering::SeqCst);
    if let Some(handle) = sampler {
        handle.join().expect("sampler thread panicked");
    }
    node.shutdown();
}

/// Timings of the live store's public functions, taken inside the node.
#[derive(Default)]
struct LiveSamples {
    digest_root_us: Samples,
    build_digest_us: Samples,
    encode_digest_us: Samples,
    decode_digest_us: Samples,
    get_ns: Samples,
}

fn sample_loop(node: &Node, samples: &Mutex<LiveSamples>, stop: &AtomicBool, seed: u64) {
    let cluster = node.cluster();
    let mut rng = SplitMix64::new(seed, 0x5A3);
    while !stop.load(Ordering::SeqCst) {
        thread::sleep(SAMPLE_EVERY);
        let micros = |start: Instant| start.elapsed().as_secs_f64() * 1e6;
        let start = Instant::now();
        std::hint::black_box(cluster.digest_root(0));
        let root_us = micros(start);
        let start = Instant::now();
        let digest = cluster.build_digest(0);
        let build_us = micros(start);
        let start = Instant::now();
        let bytes = encode_digest(&digest);
        let encode_us = micros(start);
        let start = Instant::now();
        let decoded = decode_digest(&bytes).expect("a live digest decodes");
        let decode_us = micros(start);
        assert_eq!(decoded.len(), digest.len());
        let mut gets = Vec::with_capacity(GETS_PER_SAMPLE);
        if !digest.is_empty() {
            for _ in 0..GETS_PER_SAMPLE {
                let key = &digest[rng.next_below(digest.len() as u64) as usize].key;
                let start = Instant::now();
                std::hint::black_box(cluster.get(0, key).live_len());
                gets.push(start.elapsed().as_nanos() as f64);
            }
        }
        let mut s = samples.lock().expect("sample lock");
        s.digest_root_us.push(root_us);
        s.build_digest_us.push(build_us);
        s.encode_digest_us.push(encode_us);
        s.decode_digest_us.push(decode_us);
        for ns in gets {
            s.get_ns.push(ns);
        }
    }
}

/// One `REPORT k=v ...` line: sampled medians (`nan` when too few) and the
/// store's space metrics.
fn report(cluster: &Cluster<VstampBackend>, samples: &mut LiveSamples) -> String {
    let m = cluster.metrics();
    let median = |s: &mut Samples| s.median().unwrap_or(f64::NAN);
    format!(
        "REPORT digest_root_us={} build_digest_us={} encode_digest_us={} decode_digest_us={} \
         get_ns={} samples={} keys={} mean_key_metadata_bits={} max_siblings={} \
         element_bits_total={} clock_bits_total={}",
        median(&mut samples.digest_root_us),
        median(&mut samples.build_digest_us),
        median(&mut samples.encode_digest_us),
        median(&mut samples.decode_digest_us),
        median(&mut samples.get_ns),
        samples.digest_root_us.len(),
        m.keys,
        m.mean_key_metadata_bits,
        m.max_siblings,
        m.element_bits_total,
        m.clock_bits_total,
    )
}

/// Parses a `REPORT` line into `(name, value)` pairs.
pub fn parse_report(line: &str) -> Option<Vec<(String, f64)>> {
    let rest = line.trim().strip_prefix("REPORT ")?;
    rest.split_whitespace()
        .map(|pair| {
            let (k, v) = pair.split_once('=')?;
            Some((k.to_owned(), v.parse().ok()?))
        })
        .collect()
}

/// The parent's handle on one node process. Dropping it kills the child
/// and waits for it.
pub struct NodeProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// The node's own listener — what clients dial.
    pub addr: String,
    /// The address in the member table (a relay's, when traced).
    pub advertised: String,
}

impl NodeProc {
    /// Spawns a node; `sponsor = None` bootstraps a fresh cluster.
    pub fn spawn(
        seed: u64,
        advertise: Option<&str>,
        sponsor: Option<&str>,
    ) -> io::Result<NodeProc> {
        let mut command = Command::new(std::env::current_exe()?);
        command.arg("--node").args(["--seed", &seed.to_string()]);
        if let Some(advertise) = advertise {
            command.args(["--advertise", advertise]);
        }
        if let Some(sponsor) = sponsor {
            command.args(["--sponsor", sponsor]);
        }
        let mut child = command.stdin(Stdio::piped()).stdout(Stdio::piped()).spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("child stdout is piped"));
        Ok(NodeProc { child, stdin, stdout, addr: String::new(), advertised: String::new() })
    }

    /// Waits for the child's `LISTEN` line.
    pub fn await_listen(&mut self, advertise: Option<&str>) -> io::Result<()> {
        let line = self.read_line()?;
        let addr = line.trim().strip_prefix("LISTEN ").ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("node said {line:?}"))
        })?;
        self.addr = addr.to_owned();
        self.advertised = advertise.unwrap_or(addr).to_owned();
        Ok(())
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "node exited"));
        }
        Ok(line)
    }

    fn send(&mut self, command: &str) -> io::Result<()> {
        let stdin = self.stdin.as_mut().ok_or(io::ErrorKind::BrokenPipe)?;
        writeln!(stdin, "{command}")?;
        stdin.flush()
    }

    /// Starts the node's live-store sampler.
    pub fn start_trace(&mut self) -> io::Result<()> {
        self.send("trace")
    }

    /// Asks for and parses one `REPORT` line.
    pub fn report(&mut self) -> io::Result<Vec<(String, f64)>> {
        self.send("report")?;
        let line = self.read_line()?;
        parse_report(&line).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad report {line:?}"))
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Reads this node's `/proc` counters.
    pub fn usage(&self) -> io::Result<Usage> {
        Usage::of(self.pid())
    }

    fn stop(&mut self) {
        self.stdin = None;
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for NodeProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times.
const CLOCK_TICKS: f64 = 100.0;

/// Process counters from `/proc`: CPU time and peak resident set.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub cpu_s: f64,
    pub peak_rss_kb: u64,
}

impl Usage {
    pub fn of(pid: u32) -> io::Result<Usage> {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th fields overall.
        let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or_default();
        let fields: Vec<&str> = after.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
        let cpu_s = (ticks(11) + ticks(12)) as f64 / CLOCK_TICKS;
        let field = |text: &str, name: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(name))
                .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
                .unwrap_or(0)
        };
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
        Ok(Usage { cpu_s, peak_rss_kb: field(&status, "VmHWM:") })
    }
}

/// Sums the counters of every node.
pub fn total_usage(nodes: &[NodeProc]) -> io::Result<Usage> {
    let mut total = Usage::default();
    for node in nodes {
        let u = node.usage()?;
        total.cpu_s += u.cpu_s;
        total.peak_rss_kb += u.peak_rss_kb;
    }
    Ok(total)
}

/// Bytes sent over the loopback interface so far (`/proc/net/dev`),
/// IP and TCP headers included. Per-process `wchar` in `/proc/<pid>/io`
/// would be the finer figure, but it only counts `write(2)`, and the
/// standard library's `TcpStream` writes with `send(2)`.
pub fn loopback_bytes() -> io::Result<u64> {
    let dev = std::fs::read_to_string("/proc/net/dev")?;
    dev.lines()
        .find_map(|line| line.trim_start().strip_prefix("lo:"))
        .and_then(|counters| counters.split_whitespace().nth(8)?.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no lo line in /proc/net/dev"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_lines_parse() {
        let pairs = parse_report("REPORT a=1.5 b=nan c=3\n").unwrap();
        assert_eq!(pairs[0], ("a".to_owned(), 1.5));
        assert!(pairs[1].1.is_nan());
        assert_eq!(pairs.len(), 3);
        assert!(parse_report("LISTEN 127.0.0.1:1").is_none());
    }
}
