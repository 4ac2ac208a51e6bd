#!/usr/bin/env bash
# CI gate: formatting, lints, and the test suite must all be clean.
#
#   ./scripts/ci.sh
#
# Runs from the repo root regardless of the caller's cwd.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --workspace -- -D warnings (doc links must resolve)"
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline

echo "== cargo test -q --workspace (KRSP_THREADS=1: sequential oracle)"
KRSP_THREADS=1 cargo test -q --workspace

echo "== cargo test -q --workspace (default width: parallel pool)"
cargo test -q --workspace

echo "== cargo test --release -- --ignored stress"
cargo test -q --release --workspace -- --ignored stress

echo "== chaos suite (failpoints + panic isolation + drain + krsp-load smoke in every client shape)"
cargo test -q --test chaos
# The same suite must hold with ambient jitter injected from the
# environment — the env spec is additive on top of each test's own sites.
KRSP_FAILPOINTS='cache.get=delay(1);singleflight.join=delay(1);proto.read=delay(1);cache.disk_write=delay(1);cache.disk_read=delay(1)' \
    cargo test -q --test chaos
echo "== chaos storm (T10: mid-replay shutdown under load)"
cargo test -q --release --test chaos -- --ignored t10_chaos_storm_report
echo "== epoch report (T14: rolling retention, warm vs cold, SIGKILL restart)"
# Regenerates results/t14_epochs.json and asserts the acceptance numbers
# inside the test: retention > 0.8, warm p50 < cold p50 on
# seed-participating re-solves, restart hit rate > 0 with disk recovery.
cargo test -q --release --test chaos -- --ignored t14_epoch_warm_disk_report

echo "== replica-ring suite (router unit + chaos: failover, drain handoff, hedging)"
cargo test -q -p krsp-service --lib router
cargo test -q --test ring
# The same chaos suite must hold with ambient router jitter injected from
# the environment — tests that arm their own failure scripts replace these
# sites, everything else absorbs the extra latency.
KRSP_FAILPOINTS='router.dial=delay(1);router.forward=delay(1);router.probe=delay(1)' \
    cargo test -q --test ring
echo "== ring storm (T15: 1-vs-3 replica A/B + mid-replay replica kill)"
# Regenerates results/t15_ring.json through real `krsp-cli route`/`serve`
# processes; the test asserts 100% id-matched availability in every phase,
# including the window where one of three replicas is killed mid-replay.
cargo test -q --release --test ring -- --ignored t15_ring_storm_report

echo "== warm-start differential suite (seeded ≡ guarantees ≡ cold, widths 1/2/8)"
cargo test -q --test warm_diff

echo "== batch differential suite (solve_batch ≡ N independent solves)"
cargo test -q --test batch

echo "== kernel differential suite (classic ≡ guarantees ≡ interval, widths 1/2/8)"
cargo test -q --test kernel_diff

echo "== frontend scaling smoke (512 conns, bounded threads, no drops)"
cargo test -q --release -p krsp-service --test frontend -- --ignored scaling

echo "== bench harness smoke (tiny sizes, JSON must validate)"
smoke_out="$(mktemp)"
cargo run -q --release -p krsp-bench --bin kernels -- --smoke --out "$smoke_out" >/dev/null
# The binary self-validates its JSON before writing; a nonempty file with
# the expected schema line means the harness ran end to end. The smoke
# grid includes the batch-axis rows (csp_batch / solve_batch), whose
# checksum cross-validation against unbatched solves runs inside the
# binary — reaching this grep means the batch plane answered every query
# bit-identically. The rsp_kernel rows run BOTH kernels (classic and
# interval) and guarantee-audit each against the exact DP inside the
# binary — reaching these greps means both kernels answered every smoke
# instance within (1+ε)·OPT under the delay bound.
grep -q '"schema": "krsp-bench-kernels/v2"' "$smoke_out"
# The budget_dp and rsp_fptas rows race the sparse DP (exact, and under the
# FPTAS) against the dense 2-D reference and assert in-binary that both
# returned the same path on every grid instance: reaching these greps means
# sparse ≡ reference held across the grid.
grep -q '"bench": "budget_dp"' "$smoke_out"
grep -q '"bench": "rsp_fptas"' "$smoke_out"
# The threshold_search rows race the FPTAS's scratch threshold search against
# the full-Dijkstra reference and assert in-binary that both returned the
# same c* and the same witness path on every instance.
grep -q '"bench": "threshold_search"' "$smoke_out"
grep -q '"bench": "solve_batch"' "$smoke_out"
grep -q '"variant": "classic"' "$smoke_out"
grep -q '"variant": "interval"' "$smoke_out"
grep -q '"ratio": "classic/interval"' "$smoke_out"
# The bellman_ford(cycle) rows race pass 1's cycle search on packed i64 keys
# against its Lex2 run and assert in-binary that both returned the same
# cycle; the min_cost_flow rows race the Dijkstra min-cost flow against the
# Bellman–Ford-per-augmentation oracle and assert that both reached the same
# total weight, and the min_cost_flow(packed) rows race it on packed keys
# against its Lex2 run and assert that both returned the same edges.
grep -q '"bench": "bellman_ford(cycle)"' "$smoke_out"
grep -q '"bench": "min_cost_flow"' "$smoke_out"
grep -q '"bench": "min_cost_flow(packed)"' "$smoke_out"
grep -q '"ratio": "lex2/packed"' "$smoke_out"
rm -f "$smoke_out"

echo "== experiments all (every paper claim: T1 bifactor, T2 pairing, F3 Lemma 12, F5 cost cap, ...)"
# The harness exits 1 on any FAIL row. It writes results/ under its working
# directory, so it runs in a temporary one and the committed results/ keep
# their recorded numbers.
exp_dir="$(mktemp -d)"
(cd "$exp_dir" && cargo run -q --release --offline --manifest-path "$root/Cargo.toml" \
    -p krsp-bench --bin experiments -- all >run.log) || {
    cat "$exp_dir/run.log"
    exit 1
}
rm -rf "$exp_dir"

echo "== benchmark self-tests (perfbench: every answer audited on all four workloads)"
# perfbench is a package of its own; its tests run a small version of each
# workload through the service and audit every answer with the benchmark's
# independent checker: k disjoint simple s-t paths, cost and delay
# recomputed from the edges, and cost <= 2 x the exact RSP optimum for
# k = 1. This stage only reads perfbench/.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "CI OK"
