#!/usr/bin/env bash
# Tier-1 verification, fully offline.
#
# 1. Hermeticity guard: [workspace.dependencies] may only name in-tree
#    path crates. Any crates-io (version) dependency fails the build
#    before cargo even runs, so a registry dep can't sneak back in.
# 2. Offline release build + full test suite (`--offline` makes cargo
#    error out instead of touching the network). leo-graph's tests also
#    run optimized, right after the release build: the benchmark runs
#    its heap index arithmetic only in release builds, where
#    `debug_assert!` is compiled out and integer overflow wraps.
# 3. Style gates: rustfmt (check mode) and clippy with -D warnings —
#    the tree must be lint-clean, not just compiling.
# 4. Static invariants: `leo-lint --deny` must pass — the source-level
#    rules (determinism, panic-free libs, zero-alloc hot paths, the
#    call-graph reachability rules, and the stale-suppression audit; see
#    DESIGN.md "Static invariants") with every suppression reasoned.
#    The run persists the workspace symbol graph to
#    target/lint-symgraph.jsonl for post-hoc queries (jq/grep over
#    lint_symbol/lint_edge records).
#    4b. Sanitizer lane (opt-in: LEO_CI_SANITIZE=1, needs a nightly
#    toolchain): re-runs the lock-free fan-out (leo-core par), telemetry
#    sink, and sketch suites under ThreadSanitizer. Skips gracefully
#    with a notice when nightly is not installed, so the default lane
#    stays stable-only and offline.
# 5. Doc gate: `cargo doc` with warnings denied — broken intra-doc links
#    and malformed doc comments fail the build.
# 6. Telemetry schema guard: one Tiny figure run with LEO_LOG=info must
#    produce a RUN_*.jsonl in which every line is a known event type and
#    the final record is the run manifest (validate_run checks both).
#    The run inherits LEO_LINT_CLEAN=1 from the lint lane, and
#    validate_run --require-lint-clean rejects manifests that don't
#    carry lint_clean="true".
# 7. leo-report lane: run the Tiny fig2 a second time into the same
#    log dir (exercising the RUN_*.jsonl collision suffix — the second
#    run must land in RUN_fig2_latency-01.jsonl), then A/B-diff the two
#    runs with leo-report. Identical configs ⇒ every deterministic
#    quantity (counters, series stats) must match exactly; only wall
#    times may drift, and those are informational. The lane also
#    exercises --assert-peak-rss-mb on the second run with a generous
#    Tiny budget.
# 8. Paper-scale RSS smoke (opt-in: LEO_CI_PAPER_SMOKE=1, ~40 min on
#    one core): run the full 96-snapshot paper-scale fig2 under
#    heartbeats and require peak RSS under a fixed 512 MiB budget.
#    The streaming drivers hold per-snapshot samples only inside
#    fixed-size sketches, so memory is O(1) in snapshot count —
#    observed peak is ~140 MiB (dominated by the constellation and
#    visibility state, not by samples); the budget is loose for
#    machine-to-machine noise but fails loudly if anyone reintroduces
#    per-sample Vec accumulation.
# 9. Routing-bench smoke: run benches/routing.rs and require the
#    workspace+bundle inner loop to beat the seed path by >= 1.1x
#    (the committed BENCH_routing.json shows ~2.4x; the smoke threshold
#    is loose to tolerate CI noise but loud when the optimisation
#    regresses to parity).
# 10. Snapshot-bench smoke: run benches/snapshot.rs and require a
#    consecutive-instant TimeSweep step to beat the per-instant
#    snapshot_bundle rebuild by >= 1.5x (committed BENCH_snapshot.json
#    shows ~2.2x; same loose-floor rationale as the routing gate).
# 11. Golden results: run EXPERIMENTS.md's bench-scale regeneration loop
#    (all 15 figure/extension binaries) in a temp dir and `cmp` every
#    results/*.csv, and the loop's combined output against
#    results/bench_scale_run.log. The tracked results are the
#    behavioural contract; this makes "byte-reproducible" a gate
#    instead of a manual check (~30 s on 2 cores).
# 12. Shard identity lane: bench-scale fig2 run as 4 spawned OS shard
#    workers (spill + merge); its stdout+stderr must be byte-identical
#    to the unsharded fig2 run of lane 11, and its CSV to the tracked
#    results/fig2_latency.csv. This is the out-of-core contract —
#    sharding is an execution strategy, never a result change.
# 13. Pinned-digest lane: `leo_benchmark run --seconds 1` times every
#    workload of BENCHMARK.json at full size and seed 42 (at least five
#    repetitions each, ~1.5 min in all) and checks each repetition's
#    output digest against the one pinned in its workloads.rs. Every
#    workload must print its JSON result line, and every line must read
#    "correct":true.
# 14. Shard-bench smoke: run benches/shard.rs and require the 4-shard
#    merge (decode + validate + concatenate + sketch merges) to cost
#    <= 5% of one unsharded latency fold (committed BENCH_shard.json
#    shows ~0.3%; the loose ceiling is loud if the merge ever turns
#    into a per-pair recompute).
# 15. Million-pair smoke (opt-in: LEO_CI_MILLION_PAIRS=1, ~1 min):
#    ext_million_pairs at full scale — 1,000,000 pairs over 4 workers,
#    each asserted under a 512 MiB peak-RSS budget via its manifest.
#
# Usage: scripts/ci.sh   (from anywhere; cd's to the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."
repo_root=$(pwd)

echo "== hermeticity guard: [workspace.dependencies] must be path-only =="
violations=$(
    awk '
        /^\[workspace.dependencies\]/ { in_deps = 1; next }
        /^\[/                         { in_deps = 0 }
        in_deps && NF && $0 !~ /^#/ && $0 !~ /path *=/ { print }
    ' Cargo.toml
)
if [ -n "$violations" ]; then
    echo "ERROR: non-path entries in [workspace.dependencies]:" >&2
    echo "$violations" >&2
    echo "The workspace must build offline; fold the dependency into crates/util instead." >&2
    exit 1
fi
echo "ok: all workspace dependencies are path deps"

echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo test --release -q --offline -p leo-graph =="
cargo test --release -q --offline -p leo-graph

echo "== cargo test -q --offline =="
cargo test -q --offline

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --offline --all-targets -- -D warnings =="
cargo clippy -q --offline --all-targets -- -D warnings

echo "== static invariants: leo-lint --deny =="
cargo run -q --release --offline -p leo-lint -- --deny --graph-out target/lint-symgraph.jsonl
export LEO_LINT_CLEAN=1

if [ "${LEO_CI_SANITIZE:-0}" = "1" ]; then
    echo "== sanitize lane (opt-in): ThreadSanitizer on par/telemetry/sketch =="
    # TSan needs an instrumented std (-Zbuild-std): without it, the
    # happens-before edges inside std (thread::scope joins, channel
    # sends) are invisible and every cross-thread handoff is a false
    # positive. That in turn needs nightly + the rust-src component.
    std_lock=""
    if cargo +nightly --version >/dev/null 2>&1; then
        std_lock="$(rustc +nightly --print sysroot)/lib/rustlib/src/rust/library/Cargo.lock"
    fi
    if [ -n "$std_lock" ] && [ -f "$std_lock" ]; then
        host=$(rustc -vV | sed -n 's/^host: //p')
        # A separate target dir keeps instrumented artifacts out of the
        # stable cache; --target scopes -Zsanitizer to test binaries so
        # build scripts stay uninstrumented.
        RUSTFLAGS="-Zsanitizer=thread" CARGO_TARGET_DIR=target/tsan \
            cargo +nightly test -q --offline -Zbuild-std --target "$host" \
            -p leo-core --lib par::
        RUSTFLAGS="-Zsanitizer=thread" CARGO_TARGET_DIR=target/tsan \
            cargo +nightly test -q --offline -Zbuild-std --target "$host" \
            -p leo-util --lib telemetry::
        RUSTFLAGS="-Zsanitizer=thread" CARGO_TARGET_DIR=target/tsan \
            cargo +nightly test -q --offline -Zbuild-std --target "$host" \
            -p leo-util --lib sketch::
    else
        echo "skip: needs nightly with rust-src (rustup toolchain install nightly && rustup component add rust-src --toolchain nightly)"
    fi
fi

echo "== doc gate: cargo doc --no-deps with warnings denied =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline

echo "== telemetry schema: Tiny fig2 run under LEO_LOG=info =="
log_dir=$(mktemp -d)
trap 'rm -rf "$log_dir" "${paper_dir:-}" "${golden_dir:-}" "${shard_dir:-}" "${million_dir:-}"' EXIT
# Figure binaries write results/ into their cwd, so every figure run
# below happens inside a temp dir: the tracked results/ goldens must
# stay untouched for the golden-results lane.
(cd "$log_dir" && LEO_LOG=info LEO_LOG_DIR="$log_dir" \
    "$repo_root"/target/release/fig2_latency --scale tiny > /dev/null)
cargo run -q --release --offline -p leo-bench --bin validate_run -- \
    --require-lint-clean "$log_dir/RUN_fig2_latency.jsonl"

echo "== leo-report: second Tiny fig2 run, collision suffix, empty self-diff =="
(cd "$log_dir" && LEO_LOG=info LEO_LOG_DIR="$log_dir" \
    "$repo_root"/target/release/fig2_latency --scale tiny > /dev/null)
if [ ! -f "$log_dir/RUN_fig2_latency-01.jsonl" ]; then
    echo "ERROR: second run did not land in RUN_fig2_latency-01.jsonl" >&2
    ls "$log_dir" >&2
    exit 1
fi
cargo run -q --release --offline -p leo-bench --bin leo-report -- \
    --assert-peak-rss-mb 64 \
    "$log_dir/RUN_fig2_latency.jsonl" "$log_dir/RUN_fig2_latency-01.jsonl"

if [ "${LEO_CI_PAPER_SMOKE:-0}" = "1" ]; then
    echo "== paper-scale fig2 RSS smoke: peak RSS must stay under 512 MiB =="
    paper_dir=$(mktemp -d)
    (cd "$paper_dir" && LEO_LOG=info LEO_LOG_HEARTBEAT=30 LEO_LOG_DIR="$paper_dir" \
        "$repo_root"/target/release/fig2_latency --scale paper > /dev/null)
    cargo run -q --release --offline -p leo-bench --bin leo-report -- \
        --assert-peak-rss-mb 512 "$paper_dir/RUN_fig2_latency.jsonl"
    rm -rf "$paper_dir"
fi

echo "== routing bench smoke: workspace inner loop must beat seed path =="
LEO_LOG=off LEO_BENCH_DIR="$log_dir" \
    cargo bench -q --offline -p leo-bench --bench routing > /dev/null
awk -F'"median_ns":' '
    /"bench":"inner_loop_seed"/      { split($2, a, /[,}]/); seed = a[1] }
    /"bench":"inner_loop_workspace"/ { split($2, a, /[,}]/); ws = a[1] }
    END {
        if (seed == "" || ws == "" || ws <= 0) {
            print "ERROR: inner_loop benches missing from BENCH_routing.json" > "/dev/stderr"
            exit 1
        }
        ratio = seed / ws
        printf "inner loop: seed %d ns vs workspace %d ns  (%.2fx)\n", seed, ws, ratio
        if (ratio < 1.1) {
            printf "ERROR: workspace speedup %.2fx below 1.1x smoke floor\n", ratio > "/dev/stderr"
            exit 1
        }
    }
' "$log_dir/BENCH_routing.json"

echo "== delta lane: Tiny delta-vs-full equivalence (>= 1000 bitwise-verified repairs) =="
cargo test -q --offline -p leo-integration-tests --test sweep \
    spt_repairs_match_fresh_dijkstra_through_sweep_deltas -- --exact

echo "== delta bench smoke: delta step must beat full per-instant Dijkstra =="
LEO_LOG=off LEO_BENCH_DIR="$log_dir" \
    cargo bench -q --offline -p leo-bench --bench delta > /dev/null
awk -F'"median_ns":' '
    /"bench":"fig2_inner_full_dijkstra"/ { split($2, a, /[,}]/); full = a[1] }
    /"bench":"fig2_inner_delta_spt"/     { split($2, a, /[,}]/); delta = a[1] }
    END {
        if (full == "" || delta == "" || delta <= 0) {
            print "ERROR: fig2_inner benches missing from BENCH_delta.json" > "/dev/stderr"
            exit 1
        }
        ratio = full / delta
        printf "fig2 inner loop: full %d ns vs delta %d ns  (%.2fx)\n", full, delta, ratio
        if (ratio < 1.2) {
            printf "ERROR: delta speedup %.2fx below 1.2x smoke floor\n", ratio > "/dev/stderr"
            exit 1
        }
    }
' "$log_dir/BENCH_delta.json"

echo "== snapshot bench smoke: sweep step must beat per-instant rebuild =="
LEO_LOG=off LEO_BENCH_DIR="$log_dir" \
    cargo bench -q --offline -p leo-bench --bench snapshot > /dev/null
awk -F'"median_ns":' '
    /"bench":"bundle_per_instant_rebuild"/ { split($2, a, /[,}]/); rebuild = a[1] }
    /"bench":"sweep_consecutive"/          { split($2, a, /[,}]/); sweep = a[1] }
    END {
        if (rebuild == "" || sweep == "" || sweep <= 0) {
            print "ERROR: snapshot benches missing from BENCH_snapshot.json" > "/dev/stderr"
            exit 1
        }
        ratio = rebuild / sweep
        printf "snapshot: rebuild %d ns vs sweep step %d ns  (%.2fx)\n", rebuild, sweep, ratio
        if (ratio < 1.5) {
            printf "ERROR: sweep speedup %.2fx below 1.5x smoke floor\n", ratio > "/dev/stderr"
            exit 1
        }
    }
' "$log_dir/BENCH_snapshot.json"

echo "== golden results: bench-scale regeneration loop vs tracked results/ =="
golden_dir=$(mktemp -d)
(
    cd "$golden_dir"
    {
        # fig2's output is kept on its own for the shard identity lane.
        LEO_LOG=off "$repo_root"/target/release/fig2_latency > fig2_latency.out 2>&1
        cat fig2_latency.out
        for bin in fig3_path_variability "fig4_throughput --disconnected" \
                   fig5_isl_sweep fig6_attenuation fig7_delhi_sydney fig8_exceedance \
                   fig9_gso_arc fig10_cross_shell fig11_fiber ablation_lax_maxflow \
                   ext_routing_ablation ext_path_churn ext_weather_throughput \
                   ext_packet_delay; do
            # shellcheck disable=SC2086 # "$bin" may carry a flag
            LEO_LOG=off "$repo_root"/target/release/$bin
        done
    } > bench_scale_run.log 2>&1
)
golden_bad=0
for f in results/*.csv; do
    if ! cmp "$f" "$golden_dir/$f"; then
        golden_bad=1
    fi
done
if ! cmp results/bench_scale_run.log "$golden_dir/bench_scale_run.log"; then
    golden_bad=1
fi
csv_count=$(find results -maxdepth 1 -name '*.csv' | wc -l)
if [ "$golden_bad" != 0 ] || [ "$csv_count" != 15 ]; then
    echo "ERROR: regenerated results differ from the tracked ones ($csv_count tracked CSVs)" >&2
    exit 1
fi
echo "ok: all $csv_count results/*.csv and the run log reproduced byte for byte"

echo "== shard identity: bench-scale fig2, 4 spawned shards vs the unsharded run =="
shard_dir=$(mktemp -d)
(cd "$shard_dir" && LEO_LOG=off "$repo_root/target/release/fig2_latency" --scale bench \
    --shards 4 > fig2_latency.out 2>&1)
if ! cmp "$golden_dir/fig2_latency.out" "$shard_dir/fig2_latency.out" ||
    ! cmp results/fig2_latency.csv "$shard_dir/results/fig2_latency.csv"; then
    echo "ERROR: sharded fig2 output differs from the unsharded run" >&2
    diff "$golden_dir/fig2_latency.out" "$shard_dir/fig2_latency.out" >&2 || true
    exit 1
fi
echo "ok: output and CSV byte-identical with and without sharding"
rm -rf "$golden_dir" "$shard_dir"

echo "== pinned digests: every benchmark workload reproduces its seed-42 output =="
workloads=$(grep -c '{"name": "[a-z_]*", "why"' BENCHMARK.json)
if ! bench_out=$(LEO_LOG=off cargo run -q --release --offline -p leo-bench \
    --bin leo_benchmark -- run --seconds 1); then
    printf '%s\n' "$bench_out" >&2
    echo "ERROR: leo_benchmark run failed" >&2
    exit 1
fi
results=$(printf '%s\n' "$bench_out" | grep -c '^{"correct":' || true)
correct=$(printf '%s\n' "$bench_out" | grep -c '^{"correct":true,' || true)
if [ "$results" != "$workloads" ] || [ "$correct" != "$workloads" ]; then
    printf '%s\n' "$bench_out" >&2
    echo "ERROR: $correct of $workloads workloads reproduced their pinned digests ($results result lines)" >&2
    exit 1
fi
echo "ok: all $workloads workloads reproduced their pinned seed-42 digests"

echo "== shard bench smoke: merge must stay a tiny fraction of the fold =="
LEO_LOG=off LEO_BENCH_DIR="$log_dir" \
    cargo bench -q --offline -p leo-bench --bench shard > /dev/null
awk -F'"median_ns":' '
    /"bench":"latency_unsharded"/ { split($2, a, /[,}]/); fold = a[1] }
    /"bench":"merge_4_shards"/    { split($2, a, /[,}]/); merge = a[1] }
    END {
        if (fold == "" || merge == "" || fold <= 0) {
            print "ERROR: shard benches missing from BENCH_shard.json" > "/dev/stderr"
            exit 1
        }
        ratio = merge / fold
        printf "shard: fold %d ns vs 4-shard merge %d ns  (overhead %.4fx)\n", fold, merge, ratio
        if (ratio > 0.05) {
            printf "ERROR: merge overhead %.4fx above the 0.05x ceiling\n", ratio > "/dev/stderr"
            exit 1
        }
    }
' "$log_dir/BENCH_shard.json"

if [ "${LEO_CI_MILLION_PAIRS:-0}" = "1" ]; then
    echo "== million-pair smoke: 1M pairs, 4 workers, 512 MiB/worker budget =="
    million_dir=$(mktemp -d)
    (cd "$million_dir" && "$repo_root/target/release/ext_million_pairs")
    rm -rf "$million_dir"
fi

echo "tier-1 verify passed"
