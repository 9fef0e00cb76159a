//! Experiment E1 — regenerates Figure 1: fixed version vectors tracking
//! updates among three replicas A, B and C.

use vstamp_baselines::FixedVersionVectorMechanism;
use vstamp_bench::{header, render_final_relations};
use vstamp_core::VersionStampMechanism;
use vstamp_sim::scenario::{figure1, figure1_version_vectors, verify_figure1_relations};

fn main() {
    let scenario = figure1();
    header("Figure 1 — version vectors over three replicas (A, B, C)");
    println!(
        "trace: {} operations ({:?} updates/forks/joins)",
        scenario.trace.len(),
        scenario.trace.op_counts()
    );

    header("final version vectors (paper: A=[2,0,0], B=C=[1,0,1])");
    for (label, vector) in figure1_version_vectors() {
        println!("  {label}: {vector}");
    }

    header("final pairwise relations (version vectors)");
    for line in render_final_relations(FixedVersionVectorMechanism::new(), &scenario.trace) {
        println!("  {line}");
    }

    header("same trace under version stamps (no global identifiers used)");
    for line in render_final_relations(VersionStampMechanism::reducing(), &scenario.trace) {
        println!("  {line}");
    }

    match verify_figure1_relations(FixedVersionVectorMechanism::new())
        .and_then(|()| verify_figure1_relations(VersionStampMechanism::reducing()))
    {
        Ok(()) => println!("\nRESULT: relations match the paper's Figure 1 for both mechanisms."),
        Err(e) => println!("\nRESULT: MISMATCH — {e}"),
    }
}
