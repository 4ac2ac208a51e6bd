#!/usr/bin/env bash
# Kernel benchmark runner: regenerates BENCH_kernels.json (EXPERIMENTS.md T8).
#
#   ./scripts/bench.sh            # full run, writes BENCH_kernels.json
#   ./scripts/bench.sh --smoke    # tiny sizes, for CI validation only
#
# The workload grid, seeds, and iteration counts are pinned inside the
# `kernels` binary, so two runs on the same machine measure exactly the
# same work; only wall-clock noise differs. Every row runs 5 trials (an
# A/B pair alternates its variants' trials) and reports the median with its
# IQR. Run on an idle machine before committing updated numbers. The
# `bicameral_search` rows sweep the solver thread count (threads1/2/4) on
# the same sweep, up to the host's `nproc`; the report records `nproc`.
set -euo pipefail
cd "$(dirname "$0")/.."

cores="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
if [ "$cores" -le 1 ]; then
    echo "!!==========================================================!!" >&2
    echo "!! WARNING: single-core host (nproc = $cores).                  !!" >&2
    echo "!! The threads-axis (bicameral_search) and batch-axis rows  !!" >&2
    echo "!! cannot show parallel gains here; the report's \"caveat\"   !!" >&2
    echo "!! field records this. Do not quote parallel speedups from  !!" >&2
    echo "!! this run. Per-iteration A/B and kernel-axis comparisons  !!" >&2
    echo "!! remain valid.                                            !!" >&2
    echo "!!==========================================================!!" >&2
fi

cargo run --release -p krsp-bench --bin kernels -- "$@" >/dev/null
echo "BENCH_kernels.json updated:"
grep -A2 '"speedups"' -m1 BENCH_kernels.json >/dev/null # sanity: section exists
grep -E '"bench"|"ratio"|"speedup"' BENCH_kernels.json | tail -60
