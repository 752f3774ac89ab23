#!/usr/bin/env bash
# Tier-1 gate (ROADMAP.md): plain build + full test suite (the kernel and
# NN suites run once per GEMM dispatch target the host supports), every
# tsan-labelled suite again under thread sanitizer, every test_* suite
# under address+undefined-behaviour sanitizers, and the bench regression
# gate.
# A chaos failure prints the fault schedule (seed, drop rate,
# partition/crash windows) to replay.
#
#   scripts/tier1.sh                      # gate against committed baselines
#   scripts/tier1.sh --update-baselines   # re-baseline after an intentional
#                                         # perf change (commit the files)
set -euo pipefail
cd "$(dirname "$0")/.."

UPDATE_BASELINES=""
if [[ "${1:-}" == "--update-baselines" ]]; then
  UPDATE_BASELINES="--update-baselines"
fi

echo "== tier 1: build + full ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

echo "== tier 1: kernel bench smoke (ctest -L perf) =="
ctest --test-dir build -L perf --output-on-failure

echo "== tier 1: fleet-scale cooperative runs (ctest -L fleet) =="
ctest --test-dir build -L fleet --output-on-failure

echo "== tier 1: successive-halving search scheduler (ctest -L search) =="
ctest --test-dir build -L search --output-on-failure

echo "== tier 1: Chrome trace export + span-tree invariants =="
scripts/trace_check.sh build

# Every suite labelled `tsan` in tests/CMakeLists.txt (the chaos, executor,
# plan-differential, profiler, fleet, telemetry and trace suites, among
# others) runs under ThreadSanitizer; the label list is read back from
# ctest, so the build and the run cannot drift apart.
echo "== tier 1: every tsan-labelled suite under ThreadSanitizer =="
cmake -B build-tsan -S . -DCODA_SANITIZE=thread >/dev/null
TSAN_SUITES=$(ctest --test-dir build-tsan -L tsan -N |
    sed -n 's/^ *Test *#[0-9]*: *//p')
cmake --build build-tsan -j"$(nproc)" --target ${TSAN_SUITES}
ctest --test-dir build-tsan -L tsan --output-on-failure

# Every test_* suite also runs under AddressSanitizer + UBSan: the
# executor's tasks capture its state by reference and rely on the
# wheel-then-pool destruction order (ASan catches a task that outlives
# them), and UBSan flags any undefined arithmetic on the way. Like the TSan
# stage, the suite list is read back from ctest.
echo "== tier 1: every test_* suite under AddressSanitizer + UBSan =="
cmake -B build-asan -S . -DCODA_SANITIZE=address,undefined >/dev/null
ASAN_SUITES=$(ctest --test-dir build-asan -N |
    sed -n 's/^ *Test *#[0-9]*: *\(test_[A-Za-z0-9_]*\)$/\1/p')
cmake --build build-asan -j"$(nproc)" --target ${ASAN_SUITES}
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir build-asan -R '^test_' --output-on-failure

echo "== tier 1: bench regression gate (scripts/bench_gate.py) =="
python3 scripts/bench_gate.py --self-test
# Re-measure the gated artifacts (artifact tables only; the google-benchmark
# micro benches are skipped via an unmatchable filter).
build/bench/bench_fig2_darr_cooperation \
    --bench-json=build/BENCH_fig2.json --benchmark_filter='^$' >/dev/null
# The fig-11 and fleet runs also drop their folded profiles next to the
# fresh baselines (flamegraph.pl / speedscope input; always-on profiler,
# DESIGN.md §15).
build/bench/bench_fig11_ts_pipeline_graph \
    --bench-json=build/BENCH_fig11.json \
    --profile-folded=build/PROF_fig11.folded --benchmark_filter='^$' \
    >/dev/null
build/bench/bench_fleet \
    --bench-json=build/BENCH_fleet.json \
    --profile-folded=build/PROF_fleet.folded --benchmark_filter='^$' \
    >/dev/null
# The search-scheduler races (exhaustive vs halving on the golden-seed
# graphs, DESIGN.md §16).
build/bench/bench_search \
    --bench-json=build/BENCH_search.json --benchmark_filter='^$' >/dev/null

# Checked after the fig-11 run above, so it reads the profile just written.
echo "== tier 1: folded-profile export + nn.* regions + reset contract =="
scripts/profile_check.sh build

# 15% band on timings (so a >=20% regression of a committed baseline
# fails); entries flagged "exact" must match bit-for-bit regardless, and
# the fleet bench carries its own per-entry bands for the contention
# timings. The --require names pin the fleet acceptance invariants
# (512-client best-pipeline identity, zero redundant evaluations) and the
# fig-11 fusion-ablation bit-identity check (DESIGN.md §14) so they
# cannot be dropped or renamed out of the gate unnoticed. The search pins
# hold the halving acceptance bar (DESIGN.md §16): identical best pipeline
# on every golden-seed graph (identity bools, exact) at the pinned rung
# fold budgets (fold counts, exact — <= 60% of exhaustive by construction).
python3 scripts/bench_gate.py --tolerance 0.15 --print-diff \
    ${UPDATE_BASELINES} \
    --pair build/BENCH_fig2.json BENCH_fig2.json \
    --pair build/BENCH_fig11.json BENCH_fig11.json \
    --pair build/BENCH_fleet.json BENCH_fleet.json \
    --pair build/BENCH_search.json BENCH_search.json \
    --require fleet512_best_pipeline_matches \
    --require fleet512_redundant_evals \
    --require fig11_fusion_identical \
    --require fig11_fusion_fused \
    --require fig11_halving_identical \
    --require fig11_halving_fold_evals \
    --require search_fig3_tabular_identical \
    --require search_fig3_tabular_halving_folds \
    --require search_failure_prediction_identical \
    --require search_failure_prediction_halving_folds \
    --require search_root_cause_identical \
    --require search_root_cause_halving_folds \
    --require search_anomaly_identical \
    --require search_anomaly_halving_folds \
    --require search_cohort_identical \
    --require search_cohort_halving_folds

echo "tier 1 OK"
