#!/usr/bin/env bash
# Profiler smoke gate (DESIGN.md §15): runs the Fig-2 cooperative-search
# artifact with --profile-folded, then validates the export — it must be
# non-empty, every line must be well-formed folded-stack text
# ("frame;frame;... <self_ns>"), and the known root regions of a
# cooperative search (eval.run, eval.candidate, darr.client ops) must
# appear. Then checks the Fig-11 profile ($BUILD_DIR/PROF_fig11.folded,
# written by scripts/tier1.sh; regenerated here when missing or older than
# the bench binary): neural fits must show nn.* frames below
# eval.fold.fit, the conv stacks must show nn.conv1d.fwd frames, and no
# nn.relu.*, nn.tanh.* or nn.sigmoid.* frame may appear (activations fuse
# into the Dense/Conv1D GEMM epilogue; a forecaster that stacks a
# standalone activation layer fails here), and the fused conv activations
# must show as kernel.activate frames under nn.conv1d.fwd, outside
# kernel.gemm. Finally re-runs the pinned reset test to assert that
# obs::prof::reset() leaves the profiler empty.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
BENCH="$BUILD_DIR/bench/bench_fig2_darr_cooperation"
FIG11="$BUILD_DIR/bench/bench_fig11_ts_pipeline_graph"
FIG11_FOLDED="$BUILD_DIR/PROF_fig11.folded"
TESTBIN="$BUILD_DIR/tests/test_profiler"
for bin in "$BENCH" "$FIG11"; do
  if [[ ! -x "$bin" ]]; then
    echo "profile_check: missing $bin (build first)" >&2
    exit 1
  fi
done

OUT="$(mktemp /tmp/coda_profile_XXXXXX.folded)"
trap 'rm -f "$OUT"' EXIT

echo "== profile check: $BENCH --profile-folded=$OUT =="
"$BENCH" --profile-folded="$OUT" --benchmark_filter=__none__ >/dev/null

if [[ ! -s "$OUT" ]]; then
  echo "profile check: folded export is empty" >&2
  exit 1
fi

python3 - "$OUT" <<'PYEOF'
import re
import sys

with open(sys.argv[1]) as f:
    lines = [line.rstrip("\n") for line in f if line.strip()]

assert lines, "no folded stacks in export"

well_formed = re.compile(r"^[^ ;]+(;[^ ;]+)* \d+$")
for line in lines:
    assert well_formed.match(line), f"malformed folded line: {line!r}"

roots = {line.split(" ")[0].split(";")[0] for line in lines}
stacks = {line.rsplit(" ", 1)[0] for line in lines}

# A cooperative search must profile the evaluation root and the DARR
# client ops somewhere in the stack set (nodes prefix client stacks).
joined = "\n".join(stacks)
for needle in ("eval.run", "eval.candidate", "darr.client."):
    assert needle in joined, f"expected region '{needle}' in folded stacks"

print(f"profile check: {len(lines)} folded stacks, {len(roots)} root "
      f"frame(s), known regions present")
PYEOF

if [[ ! -s "$FIG11_FOLDED" || "$FIG11" -nt "$FIG11_FOLDED" ]]; then
  echo "== profile check: $FIG11 --profile-folded=$FIG11_FOLDED =="
  "$FIG11" --profile-folded="$FIG11_FOLDED" --benchmark_filter=__none__ \
      >/dev/null
fi

python3 - "$FIG11_FOLDED" <<'PYEOF'
import sys

with open(sys.argv[1]) as f:
    stacks = [line.rsplit(" ", 1)[0].split(";") for line in f if line.strip()]

# Per-layer attribution inside fit: some nn.* region (layer passes,
# optimizer, loss, batch gather) must sit below an eval.fold.fit frame.
below_fit = {
    frame
    for frames in stacks if "eval.fold.fit" in frames
    for frame in frames[frames.index("eval.fold.fit") + 1:]
    if frame.startswith("nn.")
}
assert below_fit, f"no nn.* frames below eval.fold.fit in {sys.argv[1]}"
print(f"profile check: {len(below_fit)} nn.* regions below eval.fold.fit "
      f"in the Fig-11 profile")

# One activation rule: the CNN/WaveNet/SeriesNet convs fuse their
# activation, so the profile holds conv frames and no standalone
# activation layer frames.
frames = {frame for frames in stacks for frame in frames}
assert "nn.conv1d.fwd" in frames, "no nn.conv1d.fwd frame in the Fig-11 profile"
standalone = sorted(
    f for f in frames
    if f.startswith(("nn.relu.", "nn.tanh.", "nn.sigmoid.")))
assert not standalone, f"standalone activation layer frames: {standalone}"
print("profile check: conv frames present, no standalone activation frames")

# The GEMM epilogue's activation runs in its own kernel.activate region, a
# sibling of kernel.gemm: the fused conv activations must show there, not
# inside GEMM time.
conv_activate = [
    frames for frames in stacks
    if "nn.conv1d.fwd" in frames and frames[-1] == "kernel.activate"
    and "kernel.gemm" not in frames
]
assert conv_activate, "no kernel.activate frame under nn.conv1d.fwd"
print("profile check: kernel.activate frames under nn.conv1d.fwd")
PYEOF

# Reset contract: obs::prof::reset() must leave the profiler empty (no
# paths, empty folded export) and keep regions usable afterwards.
if [[ -x "$TESTBIN" ]]; then
  "$TESTBIN" --gtest_filter='Profiler.ResetLeavesProfilerEmpty' \
      --gtest_brief=1 >/dev/null
  echo "profile check: reset leaves profiler empty"
else
  echo "profile check: missing $TESTBIN (build first)" >&2
  exit 1
fi

echo "profile check OK"
