#!/usr/bin/env bash
# Deterministic-equivalence gate for refactors of the store's exchange
# path: regenerates the seeded `wire` grid and the `profile` pass of
# BENCH_STORE.json in a temporary directory and fails on any difference
# from the committed artifact (`git show HEAD:BENCH_STORE.json`) in the
# whole `wire` section or in the count fields of the `batched` profile
# rows. Timings are not compared. Needs `jq`. Run from anywhere in the
# repository:
#
#   scripts/bench_equivalence.sh
set -euo pipefail

root="$(git rev-parse --show-toplevel)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

git -C "$root" show HEAD:BENCH_STORE.json > "$work/committed.json"
(cd "$work" && cargo run --release -q --manifest-path "$root/Cargo.toml" \
  -p vstamp-bench --bin bench_store_json -- --wire-only --profile > bench.log)

project='{wire: .wire,
  profile: [.profile[] | select(.apply_mode == "batched")
    | {scenario, backend, lock_acquisitions, ctx_rebuilds, gc_checks, gc_runs,
       batched_exchanges, exchanges}]}'
if diff <(jq -S "$project" "$work/committed.json") <(jq -S "$project" "$work/BENCH_STORE.json"); then
  echo "bench equivalence: wire section and batched profile counts reproduce exactly"
else
  echo "bench equivalence: regenerated BENCH_STORE.json differs from HEAD (diff above)" >&2
  exit 1
fi
