#!/usr/bin/env bash
# Refreshes the checked-in machine-readable benchmark snapshot
# BENCH_o1.json: the O1 scalability experiment (pipeline depth against the
# bare std::function relay loop, emit_batch amortization, multi-graph
# engine scaling).
#
# Usage: scripts/bench_snapshot.sh            # refresh BENCH_o1.json
#        scripts/bench_snapshot.sh out.json   # custom path
#
# Expects a configured optimized build in ./build (cmake -B build -S .
# -DCMAKE_BUILD_TYPE=Release && cmake --build build -j). Benchmark
# selection and repetitions are kept modest so the snapshot is
# reproducible on a laptop; the environment block in the JSON (PerPos
# build type, compiler and flags, git sha, core count, host, date) says
# what produced the numbers — read it before comparing snapshots from
# different machines.
set -eu
bench="build/bench/bench_o1_scalability"
if [ ! -x "$bench" ]; then
  echo "error: $bench not built (run: cmake --build build -j)" >&2
  exit 1
fi

# Prints the environment block of a snapshot and warns — loudly — about
# the two conditions that make absolute numbers meaningless: PerPos built
# without optimization, and a single-core machine (the engine-scaling
# series needs real cores to mean anything). libbenchmark's own
# library_build_type describes the system package, not PerPos.
report_context() {
  python3 - "$1" <<'EOF'
import json, sys
path = sys.argv[1]
ctx = json.load(open(path))["context"]
build = ctx.get("perpos_build_type", "unknown")
cpus = int(ctx.get("perpos_cores", "0") or 0)
print(f"== {path} environment ==")
print(f"   perpos_build_type  : {build}")
print(f"   perpos_compiler    : {ctx.get('perpos_compiler', '?')}")
print(f"   perpos_cxx_flags   : {ctx.get('perpos_cxx_flags', '?')}")
print(f"   perpos_git_sha     : {ctx.get('perpos_git_sha', '?')}")
print(f"   perpos_cores       : {cpus}")
print(f"   host               : {ctx.get('host_name', '?')}")
print(f"   date               : {ctx.get('date', '?')}")
if build not in ("Release", "RelWithDebInfo"):
    print("*" * 68)
    print(f"** WARNING: PerPos built as '{build}', not an optimized build.")
    print("** Absolute timings are NOT representative — reconfigure with")
    print("**   cmake -B build -S . -DCMAKE_BUILD_TYPE=Release")
    print("*" * 68)
if cpus < 2:
    print("*" * 68)
    print(f"** WARNING: only {cpus} CPU visible. Engine worker-scaling")
    print("** numbers (BM_EngineMultiGraph*) degenerate on one core; only")
    print("** single-thread series (BM_PipelineDepth*) are meaningful.")
    print("*" * 68)
EOF
}

snap() {
  local out="$1" filter="$2"
  "$bench" \
    --benchmark_filter="$filter" \
    --benchmark_format=json \
    --benchmark_out="$out" \
    --benchmark_out_format=json > /dev/null
  echo "wrote $out"
  report_context "$out"
}

snap "${1:-BENCH_o1.json}" \
  'BM_PipelineDepth/|BM_RelayBaseline/|BM_EmitBatch|BM_EngineMultiGraph/'
