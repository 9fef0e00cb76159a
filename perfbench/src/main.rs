//! The repository benchmark: seeded open-loop clients against three real
//! `vstamp_store::Node` processes over loopback TCP.
//!
//! ```text
//! perfbench --workload <read-mostly|fresh-keys|hot-contended|all>
//!           --seed <n> --seconds <open-loop seconds> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end figures; `--trace 1` runs an
//! untraced pass and then a traced one (relays on every inter-node link,
//! a sampler inside every node, spans around every client call) and
//! prints the per-layer figures plus the traced/untraced ratios. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod nodes;
mod relay;
mod run;
mod stats;
mod workload;

use std::fmt::Write as _;

use run::{run_pass, Figures, PassResult, PassSpec};
use workload::{Plan, Workload, WORKLOADS};

/// The end-to-end figures in the `--trace 0` JSON, each gated by a bound
/// in `BENCHMARK.json`. The others are printed in the table, and the
/// `--trace 1` JSON carries them as `e2e.<name>` from its untraced pass:
/// on a shared 2-CPU host their run-to-run spread (latency percentiles,
/// closed-loop peak, replication lag) is wider than any bound a gate may
/// use. `failed_ops_ratio` is 0 in a fault-free run; the JSON carries it
/// as `failed` / `attempted`.
const GATED: [&str; 6] = [
    "setup_s",
    "ctx_bytes_mean",
    "siblings_per_get",
    "node_cpu_us_per_op",
    "net_bytes_per_op",
    "node_rss_mb",
];

/// End-to-end figures whose traced/untraced ratio the traced run reports.
const OVERHEAD_OF: [&str; 5] =
    ["get_p50_us", "put_p50_us", "peak_ops_s", "node_cpu_us_per_op", "repl_lag_p50_ms"];

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |name: &str| -> Result<String, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = value("--workload")?;
    let workloads = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload::by_name(&workload).ok_or_else(|| format!("unknown workload {workload}"))?]
    };
    let seed = value("--seed")?.parse().map_err(|_| "bad --seed".to_owned())?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|_| "bad --seconds".to_owned())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    let trace = match value("--trace").as_deref() {
        Ok("1") => true,
        Ok("0") | Err(_) => false,
        Ok(other) => return Err(format!("bad --trace {other}")),
    };
    Ok(Args { workloads, seed, seconds, trace })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--node") {
        nodes::child_main(&args);
        return;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut ok = true;
    for w in &args.workloads {
        ok &= run_workload(w, &args);
    }
    std::process::exit(if ok { 0 } else { 1 });
}

/// Runs one workload, prints its figures and its JSON line; false if the
/// run failed its correctness gate.
fn run_workload(w: &Workload, args: &Args) -> bool {
    let plan = w.plan(args.seed, args.seconds);
    let untraced = PassSpec {
        setups: if args.trace { 1 } else { w.setups },
        traced: false,
        measure_idle: args.trace,
    };
    let outcome = run_pass(w, args.seed, &plan, &untraced).and_then(|base| {
        if args.trace {
            let traced = run_pass(
                w,
                args.seed,
                &plan,
                &PassSpec { setups: 1, traced: true, measure_idle: false },
            )?;
            Ok((base, Some(traced)))
        } else {
            Ok((base, None))
        }
    });
    let (base, traced) = match outcome {
        Ok(passes) => passes,
        Err(failure) => {
            eprintln!("perfbench: {} FAILED: {failure}", w.name);
            // The failed run itself is the one failed attempt; no figures.
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            return false;
        }
    };
    print_provenance(w, args, &plan, &base);
    print_table(&format!("{} end to end (untraced)", w.name), &base.end_to_end);
    let (metrics, attempted, failed) = match &traced {
        None => (
            json_figures(&base.end_to_end, |name| GATED.contains(&name)),
            base.attempted,
            base.failed,
        ),
        Some(traced) => {
            let mut layers = base.layers.clone();
            layers.extend(traced.layers.clone());
            for (name, figure) in &base.end_to_end {
                if !GATED.contains(&name.as_str()) && name != "failed_ops_ratio" {
                    layers.insert(format!("e2e.{name}"), *figure);
                }
            }
            for name in OVERHEAD_OF {
                let ratio = traced.end_to_end[name].0 / base.end_to_end[name].0;
                layers.insert(format!("trace.overhead.{name}"), (ratio, "ratio"));
            }
            print_table(&format!("{} end to end (traced)", w.name), &traced.end_to_end);
            print_table(&format!("{} per layer (traced)", w.name), &layers);
            (json_figures(&layers, |_| true), traced.attempted, traced.failed)
        }
    };
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    );
    true
}

fn print_table(title: &str, figures: &Figures) {
    println!("# {title}");
    for (name, (value, unit)) in figures {
        println!("{name:<34} {value:>14.3} {unit}");
    }
}

fn json_figures(figures: &Figures, keep: impl Fn(&str) -> bool) -> String {
    let mut out = String::new();
    for (name, (value, unit)) in figures.iter().filter(|(name, _)| keep(name)) {
        if !out.is_empty() {
            out.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out
}

/// The checkout's commit, read from `.git` in the working directory when
/// there is one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|rev| rev.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".to_owned(),
    }
}

fn print_provenance(w: &Workload, args: &Args, plan: &Plan, base: &PassResult) {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let mut phases = String::new();
    for (name, value) in &base.phases {
        let value = if value.is_finite() { *value } else { -1.0 };
        let _ = write!(phases, ", \"{name}\": {value:.6}");
    }
    println!(
        "# provenance {{\"workload\": \"{}\", \"git_rev\": \"{}\", \"host_cpus\": {cpus}, \
         \"seed\": {}, \"trace\": {}, \"schedule_digest\": \"{:016x}\", \
         \"offered_ops_s_per_conn\": {}, \"offered_ops_s\": {}, \"connections\": {}, \
         \"nodes\": {}, \"preload_keys\": {}, \"open_ops\": {}, \"closed_ops\": {}{phases}}}",
        w.name,
        git_rev(),
        args.seed,
        args.trace,
        plan.digest(),
        w.rate_per_conn,
        w.rate_per_conn * workload::CONNS as u64,
        workload::CONNS,
        run::NODES,
        w.preload_keys,
        plan.open_ops(),
        plan.closed_ops(),
    );
}
