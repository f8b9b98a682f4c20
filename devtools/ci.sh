#!/usr/bin/env bash
# CI: the checks every change must pass before it lands.
#
#   1. cargo build --release && cargo test -q  — the Tier-1 command
#   2. cargo clippy -- -D warnings             — zero clippy findings,
#                                                including the workspace
#                                                lint policy (unwrap_used,
#                                                dbg_macro, missing_docs)
#   3. cargo fmt --check                       — formatting is canonical
#   4. no `pub fn` that nothing names
#   5. the crates' own suites, property tests included
#   6. the gates below, each over the binaries and tests it names
#
# The workspace depends on no registry crate, so every step runs
# offline. UPDATE_FIXTURES=1 regenerates every golden in place instead
# of comparing against it.
set -euo pipefail

REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO"

echo "== ci: tier-1 =="
cargo build --release
cargo test -q

echo "== ci: clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== ci: cargo fmt --check =="
cargo fmt --check

# Unused-surface gate: every `pub fn` in crates/*/src and src/ must be
# named on some .rs line besides a definition; a caller, a test or a doc
# link each counts. A listed name is public surface that nothing runs:
# delete it, or use it.
echo "== ci: unused public functions =="
DEFINED=$(git grep --untracked -h -o -E '\bpub (const |async |unsafe )*fn [A-Za-z_][A-Za-z0-9_]*' \
    -- 'crates/*/src/*.rs' 'src/*.rs' | awk '{print $NF}' | sort -u)
NAMED=$(git grep --untracked -h -I -e '' -- '*.rs' ':!devtools/stubs' |
    sed -E 's/\bfn [A-Za-z_][A-Za-z0-9_]*//g' | grep -o -E '[A-Za-z_][A-Za-z0-9_]*' | sort -u)
UNUSED=$(comm -23 <(echo "$DEFINED") <(echo "$NAMED"))
[ -z "$UNUSED" ] || { echo "unused public functions:"; echo "$UNUSED"; exit 1; }
echo "unused public functions: OK"

echo "== ci: crate suites =="
cargo test -q --workspace --exclude fair-workflows

# Runs a release binary of `package`: `run_bin PACKAGE BIN ARGS...`.
run_bin() {
    local package="$1" bin="$2"
    shift 2
    cargo run -q --release -p "$package" --bin "$bin" -- "$@"
}

# Fault-injection gate (DESIGN.md §6a): the resilient driver's suites
# — the property and determinism tests (tests/resilience.rs,
# tests/parallel_determinism.rs), the campaign goldens
# (tests/golden_fixtures.rs, tests/checkpoint_restart.rs), the
# allocation-loop golden (tests/resilient_loop_golden.rs), the
# resubmission golden of a round-robin plan on a non-fresh board
# (tests/resubmission_golden.rs), the layer-transparency differential
# over every backend and execution (tests/driver_layers.rs), and the
# savanna unit suite, which holds the differential of the dense node-set
# scheduler against its BTreeSet reference and the driver, shard, memo
# and faults unit tests (entry checks, run table, refusals). The seeded
# restart-strategy campaign, resilience_ablation, runs in the figures
# gate below, which asserts its rework advantage and compares its output.
echo "== ci: fault-injection smoke =="
cargo test -q --test resilience --test parallel_determinism --test golden_fixtures \
    --test checkpoint_restart --test resilient_loop_golden --test resubmission_golden \
    --test driver_layers
cargo test -q -p savanna --lib
echo "fault injection: OK"

# Figures gate (README "Reproducing the paper's figures"): run the ten
# figure binaries from a scratch working directory, each asserting the
# paper's shape, and compare their stdout and every CSV they write with
# results/. Only wall-clock fields are masked: fig5's item rates and
# marshalling time and rate, irf_validation's timings, and ablations'
# paste-fanout times and pool-speedup rows (the last of which is labelled
# with the host's core count). In those three files, runs of spaces and
# table rules are collapsed too, since the tables pad to the widest
# (wall-clock) cell. UPDATE_FIXTURES=1 rewrites results/ instead.
echo "== ci: figures =="
FIG_DIR="$REPO/target/figures"
rm -rf "$FIG_DIR" && mkdir -p "$FIG_DIR/results"
for fig in fig1_gauge_matrix fig2_interventions fig3_overhead_sweep fig4_run_variation \
    fig5_policy_throughput fig6_utilization fig7_features_explored irf_validation \
    ablations resilience_ablation; do
    (cd "$FIG_DIR" && run_bin bench "$fig") >"$FIG_DIR/results/$fig.txt" ||
        { echo "figures: $fig failed"; exit 1; }
done
# Prints results file $1 (named as in results/) with its wall-clock fields masked.
mask_wall_clock() {
    local dur='[0-9.]+(ns|µs|ms|s)' squeeze='s/ +/ /g; s/^-+$/-/'
    case "$(basename "$1")" in
    fig5_policy_throughput.txt)
        sed -E -e 's/\([0-9.]+ M items\/s/(<rate> M items\/s/' \
            -e "s/in $dur \\([0-9.]+ MB\\/s\\)/in <time> (<rate> MB\\/s)/" -e "$squeeze" "$1" ;;
    irf_validation.txt)
        sed -E -e "s/\\($dur\\)\$/(<time>)/" -e "$squeeze" "$1" ;;
    ablations.txt)
        sed -E -e "s/^(single paste|staged, fanout)(.*) $dur\$/\\1\\2 <time>/" \
            -e 's/^[0-9]+ threads +[0-9.]+ s +speedup [0-9.]+×$/<pool timing row>/' \
            -e "$squeeze" "$1" ;;
    *) cat "$1" ;;
    esac
}
for out in "$FIG_DIR"/results/*; do
    committed="$REPO/results/$(basename "$out")"
    if [ "${UPDATE_FIXTURES:-0}" = 1 ]; then
        cp "$out" "$committed"
        echo "updated $(basename "$committed")"
    elif ! cmp -s <(mask_wall_clock "$committed") <(mask_wall_clock "$out"); then
        echo "figures: $(basename "$out") diverged from results/ (UPDATE_FIXTURES=1 to regen):"
        diff <(mask_wall_clock "$committed") <(mask_wall_clock "$out") || true
        exit 1
    fi
done
echo "figures: OK"

# Telemetry smoke: regenerate the three seeded baseline scenarios and
# verify (a) two in-memory generations are byte-identical, (b) the
# exports carry the schema ids declared in devtools/schemas/, and
# (c) the metric key sets match the committed results/BENCH_*.json.
echo "== ci: telemetry smoke =="
run_bin bench telemetry_baselines --check results devtools/schemas

# Parallel-determinism smoke: execute a sharded campaign serially
# (inline, no pool) and on thread pools of 1 and 4 workers, with and
# without fault injection, and byte-compare the canonical StatusBoard
# JSON and the telemetry metric exports. Any scheduling leak into
# observable output fails the diff.
echo "== ci: parallel-determinism smoke =="
run_bin bench campaign_parallel --smoke

# Report smoke: run a small seeded campaign, export its trace, and feed
# it through fair-report — summary, digest, and flamegraph. Checks:
# (a) the digest export carries the schema id declared in
#     devtools/schemas/telemetry-digest.schema.json,
# (b) the flamegraph (folded-stack) export is non-empty,
# (c) all three derived outputs are byte-stable across two generations.
echo "== ci: report smoke =="
SMOKE_DIR="$REPO/target/report-smoke"
rm -rf "$SMOKE_DIR" && mkdir -p "$SMOKE_DIR"
for gen in 1 2; do
    run_bin bench report_smoke "$SMOKE_DIR/trace$gen.json"
    run_bin bench fair-report "$SMOKE_DIR/trace$gen.json" >"$SMOKE_DIR/summary$gen.txt"
    run_bin bench fair-report --digest "$SMOKE_DIR/trace$gen.json" >"$SMOKE_DIR/digest$gen.json"
    run_bin bench fair-report --flamegraph "$SMOKE_DIR/trace$gen.json" >"$SMOKE_DIR/folded$gen.txt"
done
grep -q '"\$id": "fair-telemetry-digest/1"' "$REPO/devtools/schemas/telemetry-digest.schema.json" ||
    { echo "report smoke: schema stub missing its \$id"; exit 1; }
grep -q '"schema": "fair-telemetry-digest/1"' "$SMOKE_DIR/digest1.json" ||
    { echo "report smoke: digest export lacks the declared schema id"; exit 1; }
test -s "$SMOKE_DIR/folded1.txt" ||
    { echo "report smoke: flamegraph export is empty"; exit 1; }
for artifact in summary digest folded; do
    ext=txt; [ "$artifact" = digest ] && ext=json
    cmp -s "$SMOKE_DIR/${artifact}1.$ext" "$SMOKE_DIR/${artifact}2.$ext" ||
        { echo "report smoke: $artifact not byte-stable across two runs"; exit 1; }
done
echo "report smoke: OK"

# Lint-corpus gate: the fair-lint CLI over (a) the clean example bundles
# in examples/campaigns/ — must exit 0 with zero findings — and (b) the
# seeded defect corpus in tests/fixtures/lint-corpus/ — every fixture
# must exit 1 and its --json output must be byte-identical to the
# committed golden. The deny flags promote the corpus's warn-level
# findings so every fixture fails the gate on its own.
# Then the fair-lint crate's own tests: the rule suites, the CLI and
# the schedule rule's owner-table differential against its BTreeMap
# reference.
echo "== ci: lint corpus =="
CORPUS_FLAGS=(--json --deny FW401 --deny FW403 --deny FW404 --deny FW406 --deny FW408)
for bundle in "$REPO"/examples/campaigns/*.json; do
    if ! run_bin fair-lint fair-lint --json "$bundle" >"$REPO/target/lint-corpus-out.json"; then
        echo "lint corpus: clean example $(basename "$bundle") did not exit 0"
        exit 1
    fi
    [ "$(cat "$REPO/target/lint-corpus-out.json")" = "[]" ] ||
        { echo "lint corpus: clean example $(basename "$bundle") has findings"; exit 1; }
done
for bundle in "$REPO"/tests/fixtures/lint-corpus/*.json; do
    case "$bundle" in *.expected.json) continue ;; esac
    golden="${bundle%.json}.expected.json"
    status=0
    run_bin fair-lint fair-lint "${CORPUS_FLAGS[@]}" "$bundle" >"$REPO/target/lint-corpus-out.json" ||
        status=$?
    if [ "$status" -ne 1 ]; then
        echo "lint corpus: $(basename "$bundle") exited $status (want 1)"
        exit 1
    fi
    if [ "${UPDATE_FIXTURES:-0}" = 1 ]; then
        cp "$REPO/target/lint-corpus-out.json" "$golden"
        echo "updated $(basename "$golden")"
    elif ! cmp -s "$REPO/target/lint-corpus-out.json" "$golden"; then
        echo "lint corpus: $(basename "$bundle") diverged from its golden (UPDATE_FIXTURES=1 to regen):"
        diff "$golden" "$REPO/target/lint-corpus-out.json" || true
        exit 1
    fi
done
cargo test -q -p fair-lint
echo "lint corpus: OK"

# Crash-durability gate, three layers (README "Durability & recovery"):
# (a) --smoke: run a journaled resilient campaign in a child process,
#     kill -9 it mid-write, recover + resume, and byte-compare board
#     JSON, metrics export, resilience report, and journal bytes
#     against an uninterrupted run;
# (b) --check: the committed results/BENCH_journal_overhead.json keeps
#     the expected metric key set (values are wall-clock and
#     machine-dependent, so only keys are diffed);
# (c) the framed-log wire-format goldens (tests/framing_goldens.rs):
#     journal, memo-store and stream framing bytes under
#     tests/fixtures/{journal,cas,stream}/, plus the recovered-board
#     JSON, must match the committed fixtures byte-for-byte;
# (d) the recovery path: the recovered == uninterrupted differential
#     (tests/crash_recovery.rs), the corruption fuzz over all three
#     framed logs (crates/cheetah/tests/framed_log_fuzz.rs), the
#     telemetry unit tests, which hold the JSON readers' reference
#     differentials and the framing layer's torn-tail rule, cheetah's
#     board, journal and store unit tests with the board and journal
#     decoders' differentials, and the provenance export's tests.
echo "== ci: crash-durability smoke =="
run_bin bench journal_overhead --smoke
run_bin bench journal_overhead --check "$REPO/results"
cargo test -q --test framing_goldens --test crash_recovery
cargo test -q -p cheetah --test framed_log_fuzz
cargo test -q -p telemetry --lib
cargo test -q -p cheetah --lib -- status:: journal:: cas:: differential::
cargo test -q -p provenance
echo "crash durability: OK"

# Perf-smoke gate (EXPERIMENTS.md "Event-core rebuild and the
# parallel-handoff fix"): campaign_parallel --check keeps the committed
# results/BENCH_campaign_parallel.json's metric key set AND every
# par_t{N}.speedup_vs_inline >= 0.95 — the invariant that the shard
# handoff never again costs the parallel path more than 5% against
# inline sharding.
echo "== ci: perf smoke =="
run_bin bench campaign_parallel --check "$REPO/results"
echo "perf smoke: OK"

# Memoization gate, three layers (README "Provenance & memoization"):
# (a) memo_overhead --smoke: cold-execute a checkpointed campaign into a
#     fresh content-addressed store, replay it warm, and fail unless the
#     warm replay executes zero runs with a byte-identical StatusBoard;
# (b) memo_overhead --check: the committed
#     results/BENCH_memo_overhead.json keeps its metric key set AND the
#     two contractual gates hold on a fresh measurement — warm replays
#     execute nothing at >= 10x over cold, cold bookkeeping stays
#     within 50% of the un-memoized baseline;
# (c) the warm/cold differential + hash-stability goldens in
#     tests/memo_differential.rs and tests/memo_goldens.rs — cache keys
#     and the fair-provenance/1 DAG export must match the committed
#     fixtures byte-for-byte.
echo "== ci: memo smoke =="
run_bin bench memo_overhead --smoke
run_bin bench memo_overhead --check "$REPO/results"
cargo test -q --test memo_differential --test memo_goldens
echo "memo smoke: OK"

# Observability gate, three layers (README "Live observability"):
# (a) stream_overhead --smoke: stream the deterministic smoke campaign
#     twice, byte-compare the two stream files, render each with
#     `fair-top --once --mode text`, byte-compare the renders, and diff
#     them against the committed golden
#     tests/fixtures/stream/smoke.top.txt;
# (b) stream_overhead --check: the committed
#     results/BENCH_stream_overhead.json keeps its metric key set AND a
#     fresh interleaved measurement keeps the StreamSink tap's overhead
#     <= 10% vs recorder-only;
# (c) the in-process golden + torn-tail fuzz + stream/snapshot
#     differential suites (tests/fair_top_goldens.rs, the framed-log
#     fuzz crates/cheetah/tests/framed_log_fuzz.rs with its StreamReader
#     live-tail tests, tests/stream_differential.rs).
echo "== ci: observe smoke =="
OBS_DIR="$REPO/target/observe-smoke"
rm -rf "$OBS_DIR" && mkdir -p "$OBS_DIR"
run_bin bench stream_overhead --smoke "$OBS_DIR/smoke1.stream"
run_bin bench stream_overhead --smoke "$OBS_DIR/smoke2.stream"
cmp -s "$OBS_DIR/smoke1.stream" "$OBS_DIR/smoke2.stream" ||
    { echo "observe smoke: stream bytes not stable across two runs"; exit 1; }
run_bin fair-top fair-top --once --mode text "$OBS_DIR/smoke1.stream" >"$OBS_DIR/top1.txt"
run_bin fair-top fair-top --once --mode text "$OBS_DIR/smoke2.stream" >"$OBS_DIR/top2.txt"
cmp -s "$OBS_DIR/top1.txt" "$OBS_DIR/top2.txt" ||
    { echo "observe smoke: fair-top render not stable across two runs"; exit 1; }
TOP_GOLDEN="$REPO/tests/fixtures/stream/smoke.top.txt"
if [ "${UPDATE_FIXTURES:-0}" = 1 ]; then
    cp "$OBS_DIR/top1.txt" "$TOP_GOLDEN"
    echo "updated $(basename "$TOP_GOLDEN")"
elif ! cmp -s "$OBS_DIR/top1.txt" "$TOP_GOLDEN"; then
    echo "observe smoke: fair-top render diverged from its golden (UPDATE_FIXTURES=1 to regen):"
    diff "$TOP_GOLDEN" "$OBS_DIR/top1.txt" || true
    exit 1
fi
run_bin bench stream_overhead --check "$REPO/results"
cargo test -q --test fair_top_goldens --test stream_differential
cargo test -q -p cheetah --test framed_log_fuzz
echo "observe smoke: OK"

echo "ci: OK"
