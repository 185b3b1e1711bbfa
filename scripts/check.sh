#!/usr/bin/env bash
#
# Tier-1 gate: configure, build and run the full test suite under
# the plain Release preset, under ASan+UBSan, under standalone
# UBSan, and under TSan, then smoke-check the parallel sweep
# executor: a small bench_fig6 sweep must print byte-identical
# stdout at --jobs 1 and --jobs 4, cold and warm cache (the TSan
# binary runs the same sweep to catch races in the executor and
# the shared result cache). Every preset also runs the serving
# smoke: a short Poisson arrival trace through bench_serving must
# print byte-identical stdout and trace JSONL across two runs and
# across --jobs 1 vs 4, with and without admission-path fault
# injection, and its --stats-json accounting must conserve every
# arrival. Every preset also runs the timeline smoke: --timeline
# must leave stdout byte-identical, export one valid JSON document
# that is byte-identical across --jobs 1 vs 4, and the cycle-
# attribution breakdowns in --stats-json must conserve every SM
# cycle. The trace smoke runs a traced bench_fig6 sweep at --jobs 4
# and --jobs 1: stdout and cache lines must match the untraced run,
# the JSONL must hold the same lines and the timeline the same
# bytes at both job counts, and the cold traced run must not warn
# that a cache hit bypassed the trace. The serving smoke also checks
# that a malformed --loads value is rejected with an error naming
# it. The default preset additionally runs the benchmark smoke
# (perfbench/smoke.py: every workload at tiny sizes, with its replay,
# reference-engine cross-check and output checks) right after ctest,
# and the engine differential smoke: every simulating figure bench
# and bench_serving must print byte-identical stdout (and
# byte-identical --trace JSONL) under --engine event and --engine
# reference.
#
#   scripts/check.sh            # all four presets + smokes
#   scripts/check.sh default    # just the fast one
#   scripts/check.sh asan       # just the address-sanitized one
#   scripts/check.sh ubsan      # just the UB-sanitized one
#   scripts/check.sh tsan       # just the thread-sanitized one
#
# Each preset's sweep smoke runs with --jobs 4, so every check.sh
# invocation exercises the multi-threaded path.

set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
    presets=(default asan ubsan tsan)
fi

builddir_for() {
    case "$1" in
        default) echo build ;;
        *) echo "build-$1" ;;
    esac
}

sweep_smoke() {
    local preset="$1"
    local bin
    bin="$(builddir_for "$preset")/bench/bench_fig6"
    local flags="--cycles 20000 --warmup 4000 --pairs 2 --trios 2"
    local scratch
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' RETURN

    echo "==> [$preset] sweep smoke (jobs 1 vs 4, cold + warm)"
    # shellcheck disable=SC2086 # word-splitting of $flags is wanted
    "$bin" $flags --jobs 1 --cache "$scratch/c1" \
        > "$scratch/j1.cold" 2>/dev/null
    "$bin" $flags --jobs 4 --cache "$scratch/c4" \
        > "$scratch/j4.cold" 2>/dev/null
    "$bin" $flags --jobs 4 --cache "$scratch/c1" \
        > "$scratch/j4.warm" 2>/dev/null
    cmp "$scratch/j1.cold" "$scratch/j4.cold"
    cmp "$scratch/j1.cold" "$scratch/j4.warm"

    # Fault-injected sweeps must be deterministic at any job count.
    GQOS_FAULT="cache_write:0.5" GQOS_FAULT_SEED=7 \
        "$bin" $flags --jobs 1 --cache "$scratch/f1" \
        > "$scratch/fault.j1" 2>/dev/null
    GQOS_FAULT="cache_write:0.5" GQOS_FAULT_SEED=7 \
        "$bin" $flags --jobs 4 --cache "$scratch/f4" \
        > "$scratch/fault.j4" 2>/dev/null
    cmp "$scratch/fault.j1" "$scratch/fault.j4"

    trace_smoke "$preset"
}

trace_smoke() {
    local preset="$1"
    local bin
    bin="$(builddir_for "$preset")/bench/bench_fig6"
    local flags="--cycles 20000 --warmup 4000 --pairs 2 --trios 2"
    local scratch
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' RETURN

    echo "==> [$preset] trace smoke (--trace/--stats-json, tracing is observer-only)"
    # Telemetry must not perturb the simulation: stdout with tracing
    # on must be byte-identical to the same fresh sweep without it.
    # shellcheck disable=SC2086 # word-splitting of $flags is wanted
    "$bin" $flags --jobs 4 --cache "$scratch/t0" \
        > "$scratch/plain.out" 2>/dev/null
    "$bin" $flags --jobs 4 --cache "$scratch/t1" \
        --trace "$scratch/epochs.jsonl" \
        --timeline "$scratch/timeline.json" \
        --stats-json "$scratch/stats.json" \
        > "$scratch/traced.out" 2> "$scratch/traced.err"
    cmp "$scratch/plain.out" "$scratch/traced.out"
    # Identical cache contents too.
    cmp <(sort "$scratch/t0/"*.csv) <(sort "$scratch/t1/"*.csv)
    # A cold cache holds only entries this sweep simulated and
    # traced, so no cache hit may claim to bypass the trace, and the
    # cache directory holds results only.
    if grep -q "bypasses the requested trace" "$scratch/traced.err"; then
        echo "trace smoke: cold traced sweep warned of a trace bypass" >&2
        return 1
    fi
    if compgen -G "$scratch/t1/*.meta" > /dev/null; then
        echo "trace smoke: cache directory holds a .meta file" >&2
        return 1
    fi

    # The traced sweep must not depend on the job count either. Sweep
    # workers interleave JSONL records across cases, so the trace is
    # compared as a sorted set of lines; the timeline groups events
    # per case and must be byte-identical.
    # shellcheck disable=SC2086
    "$bin" $flags --jobs 1 --cache "$scratch/t2" \
        --trace "$scratch/epochs.j1.jsonl" \
        --timeline "$scratch/timeline.j1.json" \
        > "$scratch/traced.j1.out" 2>/dev/null
    cmp "$scratch/plain.out" "$scratch/traced.j1.out"
    cmp <(sort "$scratch/epochs.jsonl") \
        <(sort "$scratch/epochs.j1.jsonl")
    cmp "$scratch/timeline.json" "$scratch/timeline.j1.json"

    [ -s "$scratch/epochs.jsonl" ] || {
        echo "trace smoke: empty trace file" >&2; return 1; }
    [ -s "$scratch/stats.json" ] || {
        echo "trace smoke: empty stats file" >&2; return 1; }

    if command -v python3 >/dev/null 2>&1; then
        python3 - "$scratch/epochs.jsonl" "$scratch/stats.json" \
            "$scratch/timeline.json" <<'EOF'
import json, sys
trace, stats, timeline = sys.argv[1], sys.argv[2], sys.argv[3]
kinds = {}
with open(trace) as f:
    for n, line in enumerate(f, 1):
        rec = json.loads(line)   # every line must parse alone
        kinds[rec["type"]] = kinds.get(rec["type"], 0) + 1
        assert "schema_version" in rec, f"line {n} lacks schema_version"
assert kinds.get("epoch_kernel", 0) > 0, "no epoch_kernel records"
assert kinds.get("epoch_mem", 0) > 0, "no epoch_mem records"
assert kinds.get("sm_slice", 0) > 0, "no sm_slice records"
with open(stats) as f:
    rep = json.load(f)
assert rep["schema_version"] >= 2, "stats report lacks schema_version"
assert rep["cases"], "stats report has no cases"
assert rep["sweeps"], "stats report has no sweeps"
assert "metrics" in rep, "stats report has no metrics"
cats = ("issued", "quota_gated", "mem_stall", "no_ready_warp",
        "drain_preempt", "inert_skipped")
for case in rep["cases"]:
    if case["from_cache"]:
        continue
    assert case["cycle_breakdown"], case["key"]
    # Conservation: the six categories telescope to one total per
    # kernel, and every kernel of a case covers the same cycles.
    totals = {sum(b[c] for c in cats) for b in case["cycle_breakdown"]}
    assert len(totals) == 1 and totals.pop() > 0, case["key"]
with open(timeline) as f:
    tl = json.load(f)            # the timeline must be one JSON doc
assert tl["schema_version"] >= 2, "timeline lacks schema_version"
phases = {}
for ev in tl["traceEvents"]:
    phases[ev["ph"]] = phases.get(ev["ph"], 0) + 1
assert phases.get("X", 0) > 0, "timeline has no SM occupancy slices"
assert phases.get("C", 0) > 0, "timeline has no counter tracks"
assert phases.get("M", 0) > 0, "timeline has no track metadata"
print("trace smoke: %d trace records, %d cases, %d sweeps, "
      "%d timeline events"
      % (sum(kinds.values()), len(rep["cases"]), len(rep["sweeps"]),
         len(tl["traceEvents"])))
EOF
    else
        echo "trace smoke: python3 not found; skipping JSON validation"
    fi

    timeline_smoke "$preset"
}

timeline_smoke() {
    local preset="$1"
    local bin
    bin="$(builddir_for "$preset")/bench/bench_serving"
    local flags="--launches 60 --loads 1.0,2.0 --rate 0.08 --quiet"
    local scratch
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' RETURN

    echo "==> [$preset] timeline smoke (--timeline is observer-only, jobs 1 vs 4)"
    # The exporter must be invisible to the run (byte-identical
    # stdout) and deterministic (byte-identical timeline file at any
    # job count).
    # shellcheck disable=SC2086 # word-splitting of $flags is wanted
    "$bin" $flags --jobs 1 > "$scratch/plain.out" 2>/dev/null
    # shellcheck disable=SC2086
    "$bin" $flags --jobs 1 --timeline "$scratch/t1.json" \
        --stats-json "$scratch/stats.json" \
        > "$scratch/t1.out" 2>/dev/null
    # shellcheck disable=SC2086
    "$bin" $flags --jobs 4 --timeline "$scratch/t4.json" \
        > "$scratch/t4.out" 2>/dev/null
    cmp "$scratch/plain.out" "$scratch/t1.out"
    cmp "$scratch/plain.out" "$scratch/t4.out"
    cmp "$scratch/t1.json" "$scratch/t4.json"

    if command -v python3 >/dev/null 2>&1; then
        python3 - "$scratch/t1.json" "$scratch/stats.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    tl = json.load(f)
names = {ev["name"] for ev in tl["traceEvents"]}
# SM tracks are thread_name metadata records; the occupancy slices
# on them are "X" events named after the resident kernel.
tracks = {ev["args"]["name"] for ev in tl["traceEvents"]
          if ev["ph"] == "M" and ev["name"] == "thread_name"}
assert any(t.startswith("SM ") for t in tracks), "no SM tracks"
assert any(ev["ph"] == "X" for ev in tl["traceEvents"]), "no slices"
assert any(n.startswith("queue ") for n in names), "no queue counters"
assert "admission level" in names, "no admission-level counter"
for inst in ("arrival", "dispatch", "complete"):
    assert inst in names, f"no {inst} instants"
with open(sys.argv[2]) as f:
    rep = json.load(f)
cats = ("issued", "quota_gated", "mem_stall", "no_ready_warp",
        "drain_preempt", "inert_skipped")
assert rep["serving"], "no serving entries"
for point in rep["serving"]:
    totals = {sum(b[c] for c in cats)
              for b in point["cycle_breakdown"]}
    assert len(totals) == 1 and totals.pop() > 0, point["label"]
print("timeline smoke: %d events, %d serving points conserved"
      % (len(tl["traceEvents"]), len(rep["serving"])))
EOF
    else
        echo "timeline smoke: python3 not found; skipping JSON validation"
    fi
}

serving_smoke() {
    local preset="$1"
    local bin
    bin="$(builddir_for "$preset")/bench/bench_serving"
    # Short Poisson trace at three load points, small enough for the
    # sanitizer builds: ~60 launches per point.
    local flags="--launches 60 --loads 1.0,2.0,4.0 --rate 0.08 --quiet"
    local scratch
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' RETURN

    echo "==> [$preset] serving smoke (rerun + jobs 1 vs 4, byte-identical)"
    # shellcheck disable=SC2086 # word-splitting of $flags is wanted
    "$bin" $flags --jobs 1 --trace "$scratch/a.jsonl" \
        --stats-json "$scratch/a.stats" > "$scratch/a.out" 2>/dev/null
    # shellcheck disable=SC2086
    "$bin" $flags --jobs 1 --trace "$scratch/b.jsonl" \
        > "$scratch/b.out" 2>/dev/null
    # shellcheck disable=SC2086
    "$bin" $flags --jobs 4 --trace "$scratch/c.jsonl" \
        > "$scratch/c.out" 2>/dev/null
    cmp "$scratch/a.out" "$scratch/b.out"
    cmp "$scratch/a.out" "$scratch/c.out"
    cmp "$scratch/a.jsonl" "$scratch/b.jsonl"
    cmp "$scratch/a.jsonl" "$scratch/c.jsonl"

    # Admission-path fault injection: the overloaded server must
    # degrade deterministically, at any job count, never wedge.
    # shellcheck disable=SC2086
    GQOS_FAULT="queue_overflow:0.1,admission_project:0.2" \
        GQOS_FAULT_SEED=7 \
        "$bin" $flags --jobs 1 > "$scratch/f1.out" 2>/dev/null
    # shellcheck disable=SC2086
    GQOS_FAULT="queue_overflow:0.1,admission_project:0.2" \
        GQOS_FAULT_SEED=7 \
        "$bin" $flags --jobs 4 > "$scratch/f4.out" 2>/dev/null
    cmp "$scratch/f1.out" "$scratch/f4.out"

    # A malformed load multiplier is a CLI error naming the flag.
    if "$bin" --launches 60 --loads abc --quiet \
        > /dev/null 2> "$scratch/loads.err"; then
        echo "serving smoke: --loads abc did not fail" >&2
        return 1
    fi
    grep -q -- "--loads" "$scratch/loads.err" || {
        echo "serving smoke: --loads abc error does not name --loads" >&2
        return 1; }

    if command -v python3 >/dev/null 2>&1; then
        python3 - "$scratch/a.stats" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    rep = json.load(f)
serving = rep.get("serving", [])
assert len(serving) == 3, f"expected 3 load points, got {len(serving)}"
for point in serving:
    for t in point["tenants"]:
        rejected = t["rejected"]
        assert t["arrivals"] == t["admitted"] + rejected, t
        assert t["admitted"] == (t["completed"] + t["abandoned"] +
                                 t["dropped_at_shutdown"]), t
    assert not point["engine_stalled"], point["label"]
    assert not point["tenant_stalled"], point["label"]
print("serving smoke: %d load points, accounting conserved"
      % len(serving))
EOF
    else
        echo "serving smoke: python3 not found; skipping JSON validation"
    fi
}

engine_smoke() {
    local preset="$1"
    local bdir
    bdir="$(builddir_for "$preset")/bench"
    local flags="--cycles 20000 --warmup 4000 --pairs 2 --trios 2 --jobs 1"
    local scratch
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' RETURN

    echo "==> [$preset] engine smoke (event vs reference, byte-identical)"
    # The event engine must be an unobservable optimization: every
    # simulating figure bench prints byte-identical stdout and emits
    # a byte-identical --trace JSONL under both engines. Each engine
    # gets its own cold cache so both actually simulate.
    # (bench_table1 is excluded: it prints a static table and never
    # runs the cycle loop.)
    local benches="bench_fig5 bench_fig6 bench_fig7 bench_fig8 \
bench_fig9 bench_fig10 bench_fig11 bench_fig12_13 bench_fig14 \
bench_ablations bench_fairness"
    local b
    for b in $benches; do
        # shellcheck disable=SC2086 # word-splitting of $flags is wanted
        "$bdir/$b" $flags --engine event \
            --cache "$scratch/$b.ev" \
            --trace "$scratch/$b.ev.jsonl" \
            > "$scratch/$b.ev.out" 2>/dev/null
        # shellcheck disable=SC2086
        "$bdir/$b" $flags --engine reference \
            --cache "$scratch/$b.ref" \
            --trace "$scratch/$b.ref.jsonl" \
            > "$scratch/$b.ref.out" 2>/dev/null
        cmp "$scratch/$b.ev.out" "$scratch/$b.ref.out" || {
            echo "engine smoke: $b stdout differs" >&2; return 1; }
        cmp "$scratch/$b.ev.jsonl" "$scratch/$b.ref.jsonl" || {
            echo "engine smoke: $b trace differs" >&2; return 1; }
        echo "    $b: identical"
    done

    # Serving drives manual-launch grids, whole-GPU skips and the
    # quota controller's control points harder than any figure.
    local sflags="--launches 200 --loads 0.5,2.0 --rate 0.08 --jobs 1"
    local e
    for e in event reference; do
        # shellcheck disable=SC2086
        "$bdir/bench_serving" $sflags --engine "$e" \
            --trace "$scratch/serving.$e.jsonl" \
            > "$scratch/serving.$e.out" 2>/dev/null
    done
    cmp "$scratch/serving.event.out" "$scratch/serving.reference.out" || {
        echo "engine smoke: bench_serving stdout differs" >&2; return 1; }
    cmp "$scratch/serving.event.jsonl" \
        "$scratch/serving.reference.jsonl" || {
        echo "engine smoke: bench_serving trace differs" >&2; return 1; }
    echo "    bench_serving: identical"
}

for preset in "${presets[@]}"; do
    echo "==> [$preset] configure"
    cmake --preset "$preset"
    echo "==> [$preset] build"
    cmake --build --preset "$preset" -j "$(nproc)"
    echo "==> [$preset] test"
    ctest --preset "$preset"
    # The benchmark checks its own results (layer replay, reference
    # engine, conservation); run them at tiny sizes so a hot-path
    # change that breaks them fails here, not only in a timed run.
    if [ "$preset" = default ]; then
        echo "==> [$preset] benchmark smoke"
        python3 perfbench/smoke.py
    fi
    sweep_smoke "$preset"
    serving_smoke "$preset"
    # The engine differential smoke simulates 11 benches twice; run
    # it once, on the fast Release binary.
    if [ "$preset" = default ]; then
        engine_smoke "$preset"
    fi
done

echo "==> all checks passed"
