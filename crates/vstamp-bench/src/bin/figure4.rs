//! Experiment E4 — regenerates Figure 4: the evolution of Figure 2 tracked
//! with version stamps, printed step by step in the paper's `[update | id]`
//! notation, followed by the simplification when the frontier is joined
//! back together (Section 6).

use vstamp_bench::header;
use vstamp_core::{Configuration, Operation, VersionStampMechanism};
use vstamp_sim::scenario::{figure4, stamp_walkthrough};

fn main() {
    let scenario = figure4();
    header("Figure 4 — version stamps on the Figure 2 evolution");
    for step in stamp_walkthrough(&scenario) {
        match step.operation {
            None => println!("initial configuration:"),
            Some(op) => println!("after {op}:"),
        }
        for (id, stamp) in &step.frontier {
            println!("    {id}: {stamp}");
        }
    }

    header("joining the frontier back (simplification of Section 6)");
    let mut reducing = scenario.replay(VersionStampMechanism::reducing());
    let mut plain: Configuration<_> = scenario.replay(VersionStampMechanism::non_reducing());
    while reducing.len() > 1 {
        let ids = reducing.ids();
        let op = Operation::Join(ids[0], ids[1]);
        reducing.apply(op).expect("join of live elements");
        plain.apply(op).expect("join of live elements");
        let id = reducing.ids()[0];
        println!(
            "after {op}: reduced = {}   non-reduced = {}",
            reducing.get(reducing.ids().last().copied().unwrap_or(id)).expect("live"),
            plain.get(plain.ids().last().copied().unwrap_or(id)).expect("live")
        );
    }
    let final_id = reducing.ids()[0];
    println!(
        "\nRESULT: final reduced stamp {} vs non-reduced {} — the rewriting rule recovers the seed identity.",
        reducing.get(final_id).expect("live"),
        plain.get(final_id).expect("live")
    );
}
