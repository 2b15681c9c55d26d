#!/bin/sh
# Regenerates the headline figures at full paper scale (1000 cities,
# 5000 pairs, 96 snapshots, 0.5 deg relay grid) from a release build
# (`cargo build --release --offline`). The figures write their CSVs into
# results/ under the working directory, and the repo's results/*.csv are
# the tracked bench-scale goldens, so they run in a separate directory:
# DIR if given (created if missing), else a fresh `mktemp -d`. Their
# output also goes to DIR/paper_scale_run.log, and the last line printed
# is DIR. On 2 vCPUs fig2 takes ~35 s and fig4 ~28 s (measured with
# LEO_LOG=off); both use every core. Exits 1 if a figure fails. With
# LEO_LOG=off the log is byte for byte results/paper_scale_run.log,
# which scripts/ci.sh compares it with under LEO_CI_PAPER_SMOKE=1.
#
# Usage: sh run_paper_scale.sh [DIR]
set -eu
repo_root=$(cd "$(dirname "$0")" && pwd)
dir=${1:-$(mktemp -d)}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
if [ "$dir" = "$repo_root" ]; then
    echo "run_paper_scale.sh: DIR must not be the repo root (its results/ holds the goldens)" >&2
    exit 2
fi
cd "$dir"
{
    echo "################ fig2_latency PAPER" &&
        "$repo_root"/target/release/fig2_latency --scale paper &&
        echo "################ fig4_throughput PAPER" &&
        "$repo_root"/target/release/fig4_throughput --scale paper --disconnected &&
        echo PAPER_RUNS_DONE
} 2>&1 | tee paper_scale_run.log
if [ "$(tail -n 1 paper_scale_run.log)" != PAPER_RUNS_DONE ]; then
    echo "run_paper_scale.sh: a figure failed; see $dir/paper_scale_run.log" >&2
    exit 1
fi
echo "$dir"
