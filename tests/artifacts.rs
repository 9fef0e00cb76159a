//! The benchmark artifacts committed at the repository root are the source
//! of every figure README and ROADMAP quote, so they must be full-grid
//! runs. A smoke run (the seconds-scale grid `VSTAMP_BENCH_SMOKE=1` or
//! `--smoke` produces) committed by accident fails here.

use std::path::Path;

const ARTIFACTS: &[&str] = &["BENCH_gc.json", "BENCH_repr.json", "BENCH_STORE.json"];

#[test]
fn committed_benchmark_artifacts_are_not_smoke_runs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for artifact in ARTIFACTS {
        let json = std::fs::read_to_string(root.join(artifact))
            .unwrap_or_else(|err| panic!("cannot read {artifact}: {err}"));
        // The report binaries write one top-level key per line, indented by
        // two spaces; nested objects sit deeper or share a line.
        let smoke: Vec<&str> = json
            .lines()
            .filter_map(|line| line.strip_prefix("  \"smoke\":"))
            .map(|value| value.trim().trim_end_matches(','))
            .collect();
        assert_eq!(
            smoke,
            ["false"],
            "{artifact} must be a full-grid run (top-level \"smoke\": false)"
        );
    }
}
