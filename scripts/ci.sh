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
#    `debug_assert!` is compiled out and integer overflow wraps. The
#    debug suite runs with --no-fail-fast: every test binary runs and
#    reports even after one fails, and the step still fails if any did.
# 3. Style gates and clippy: rustfmt (check mode), then clippy with
#    -D warnings in two lanes that also deny the lints owning the
#    invariants clippy checks exactly (DESIGN.md "Static invariants").
#    The lints come from one list, `moved_lints`. The all-targets lane
#    denies its `all` lints: a `// SAFETY:` comment on every unsafe
#    block, and no wall-clock reads (disallowed_methods/_types, set in
#    clippy.toml). The `--workspace --lib` lane denies its `lib` lints,
#    which hold in library code only: no unwrap/expect and no stdio.
#    Bins, tests and benches may unwrap and print. Each exception is an
#    `#[expect(clippy::…, reason = "…")]`, and under -D warnings an
#    expectation that no longer fires fails the lane. A last step runs
#    the whole list over crates/lint/tests/fixtures/clippy (one
#    violation per lint) and fails unless clippy rejects it and names
#    every lint, so a lint that stops firing cannot pass unnoticed.
# 4. Static invariants rustc and clippy can't see: `leo-lint --deny`
#    must pass — hash-order-free result paths, seeded RNG, zero-alloc
#    hot paths, explicit float comparisons in tests, the call-graph
#    reachability rules, and the stale-suppression audit — with every
#    suppression reasoned. The run persists the workspace symbol graph
#    to target/lint-symgraph.jsonl for post-hoc queries (jq/grep over
#    lint_symbol/lint_edge records). LEO_LINT_CLEAN=1 is exported only
#    after lanes 3 and 4 pass.
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
#    The run inherits LEO_LINT_CLEAN=1 from lanes 3-4, and
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
# 8. Paper-scale smoke (opt-in: LEO_CI_PAPER_SMOKE=1, ~2 min on
#    2 vCPUs): run the full 96-snapshot paper-scale fig2 under
#    heartbeats and require peak RSS under a fixed 512 MiB budget,
#    then run `run_paper_scale.sh` (fig2 and fig4 --disconnected at
#    paper scale, LEO_LOG=off) and `cmp` its log against the tracked
#    results/paper_scale_run.log, so a change that moves a paper-scale
#    figure byte fails here.
#    The streaming drivers hold per-snapshot samples only inside
#    fixed-size sketches, so memory is O(1) in snapshot count —
#    observed peak is 186.0 MiB of VmHWM in 39.4 s (this lane's
#    command, then `leo-report` on its run log; mostly the live
#    snapshot graphs, the visibility state and, at this log level,
#    both link-arena buffers, not samples); the budget is loose for
#    machine-to-machine noise but fails loudly if anyone reintroduces
#    per-sample Vec accumulation.
# 9. Delta equivalence: the Tiny sweep test in tests/sweep.rs that
#    repairs shortest-path trees from the sweep's edge deltas and checks
#    at least 1,000 repairs bit for bit against fresh Dijkstra.
# 10. Golden results: run EXPERIMENTS.md's bench-scale regeneration loop
#    (all 15 figure/extension binaries) in a temp dir and `cmp` every
#    results/*.csv, and the loop's combined output against
#    results/bench_scale_run.log. The tracked results are the
#    behavioural contract; this makes "byte-reproducible" a gate
#    instead of a manual check (~30 s on 2 cores).
# 11. Pinned-digest lane: `leo_benchmark run --seconds 1` times every
#    workload of BENCHMARK.json at full size and seed 42 (at least five
#    repetitions each, ~1.5 min in all) and checks each repetition's
#    output digest against the one pinned in its workloads.rs. Every
#    workload must print its JSON result line, and every line must read
#    "correct":true.
# 12. Million-pair lane: ext_million_pairs at full scale — 1,000,000
#    pairs folded in one process (~5 s on 2 cores), which exits 1 when
#    its peak RSS (the kernel's VmHWM) is over a 512 MiB budget.
# 13. Routing-bench smoke: run benches/routing.rs and require the
#    workspace+bundle inner loop to beat the seed path by >= 1.1x
#    (the committed BENCH_routing.json shows ~1.4x; the smoke threshold
#    is loose to tolerate CI noise but loud when the optimisation
#    regresses to parity).
# 14. Delta-bench smoke: run benches/delta.rs and require the delta
#    step of the fig2 inner loop to beat full per-instant Dijkstra by
#    >= 1.2x (same loose-floor rationale as the routing gate).
# 15. Snapshot-bench smoke: run benches/snapshot.rs and require a
#    consecutive-instant TimeSweep step to beat the per-instant
#    snapshot_bundle rebuild by >= 1.5x (committed BENCH_snapshot.json
#    shows ~2.2x; same loose-floor rationale as the routing gate).
#    The three bench-ratio smokes run after every correctness lane, so
#    a noisy ratio cannot skip one.
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

echo "== cargo test -q --offline --no-fail-fast =="
cargo test -q --offline --no-fail-fast

echo "== cargo fmt --check =="
cargo fmt --check

# The clippy lints that own leo-lint's former file-local rules, as
# scope:lint. `lib` lints hold in library code only; `all` lints hold in
# every target.
moved_lints="
lib:unwrap_used
lib:expect_used
lib:print_stdout
lib:print_stderr
lib:dbg_macro
all:undocumented_unsafe_blocks
all:disallowed_methods
all:disallowed_types
"
# deny_flags SCOPE: `-D clippy::<lint>` for every moved lint in SCOPE.
deny_flags() {
    local entry
    for entry in $moved_lints; do
        if [ "${entry%%:*}" = "$1" ]; then
            printf -- '-D clippy::%s ' "${entry#*:}"
        fi
    done
}

echo "== cargo clippy --offline --all-targets -- -D warnings $(deny_flags all)=="
# shellcheck disable=SC2046 # one word per flag
cargo clippy -q --offline --all-targets -- -D warnings $(deny_flags all)

echo "== cargo clippy --offline --workspace --lib -- -D warnings $(deny_flags lib)=="
# shellcheck disable=SC2046 # one word per flag
cargo clippy -q --offline --workspace --lib -- -D warnings $(deny_flags lib)

echo "== clippy fixture: every moved lint fires on its bad fixture =="
fixture=crates/lint/tests/fixtures/clippy
# shellcheck disable=SC2046 # one word per flag
if fixture_out=$(cargo clippy --offline --manifest-path "$fixture/Cargo.toml" \
    --target-dir target/clippy-fixture -- $(deny_flags all) $(deny_flags lib) 2>&1); then
    printf '%s\n' "$fixture_out" >&2
    echo "ERROR: clippy passed $fixture/src/lib.rs, which breaks every moved lint" >&2
    exit 1
fi
missing=""
for entry in $moved_lints; do
    if ! printf '%s\n' "$fixture_out" | grep -q "index\.html#${entry#*:}\$"; then
        missing="$missing ${entry#*:}"
    fi
done
if [ -n "$missing" ]; then
    printf '%s\n' "$fixture_out" >&2
    echo "ERROR: clippy did not flag$missing on $fixture/src/lib.rs" >&2
    exit 1
fi
echo "ok: clippy rejects the fixture and names every moved lint"

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
trap 'rm -rf "$log_dir" "${paper_dir:-}" "${golden_dir:-}" "${million_dir:-}"' EXIT
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
    echo "== paper-scale figures vs tracked results/paper_scale_run.log =="
    LEO_LOG=off sh "$repo_root"/run_paper_scale.sh "$paper_dir/figures" > /dev/null
    cmp "$repo_root"/results/paper_scale_run.log "$paper_dir/figures/paper_scale_run.log"
    rm -rf "$paper_dir"
fi

echo "== delta lane: Tiny delta-vs-full equivalence (>= 1000 bitwise-verified repairs) =="
cargo test -q --offline -p leo-integration-tests --test sweep \
    spt_repairs_match_fresh_dijkstra_through_sweep_deltas -- --exact

echo "== golden results: bench-scale regeneration loop vs tracked results/ =="
golden_dir=$(mktemp -d)
(
    cd "$golden_dir"
    {
        for bin in fig2_latency fig3_path_variability "fig4_throughput --disconnected" \
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

rm -rf "$golden_dir"

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

echo "== million pairs: 1M pairs in one process, 512 MiB peak-RSS budget =="
million_dir=$(mktemp -d)
(cd "$million_dir" && "$repo_root/target/release/ext_million_pairs")
rm -rf "$million_dir"

# The bench-ratio smokes run last: their floors are loose, but a noisy
# run can still miss one, and a failure here must not skip a
# correctness lane.
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

echo "tier-1 verify passed"
