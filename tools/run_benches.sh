#!/usr/bin/env bash
# Runs every bench binary with machine-readable output enabled and
# validates the emitted JSON.
#
#   tools/run_benches.sh              # configure + build + run
#   tools/run_benches.sh --no-build B # run binaries already in build dir B
#                                     # (used by the bench_smoke ctest)
#
# JSON lands in $CRYPTOPIM_BENCH_OUT (default: <repo>/bench/out, which is
# gitignored); the schema is documented in bench/README.md. bench_cpu_ntt
# (google-benchmark) runs with a reduced min-time so the sweep finishes in
# seconds; unset CRYPTOPIM_BENCH_FAST for full-length measurements.
# Strict mode: unset vars are errors, failures propagate through pipes,
# and anything not explicitly tolerated (the per-bench runs below) aborts.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_root/build"
do_build=1

while [ $# -gt 0 ]; do
  case "$1" in
    --no-build) do_build=0 ;;
    *) build_dir="$1" ;;
  esac
  shift
done

out_dir="${CRYPTOPIM_BENCH_OUT:-$repo_root/bench/out}"
mkdir -p "$out_dir"
export CRYPTOPIM_BENCH_OUT="$out_dir"

if [ "$do_build" = 1 ]; then
  cmake -B "$build_dir" -S "$repo_root" || exit 1
  cmake --build "$build_dir" -j || exit 1
fi

benches="
bench_table1_modulo
bench_fig4_pipeline
bench_fig5_scaling
bench_fig6_pim_baselines
bench_table2_comparison
bench_pim_functional
bench_ablation_switch
bench_device_robustness
bench_controller_microcode
bench_cpu_ntt
bench_ablation_bitwidth
bench_rns_he
bench_ablation_merged
bench_fault_campaign
bench_runtime_service
bench_chaos_serving
bench_backend_throughput
bench_fleet_serving
bench_protocol_serving
bench_recovery
"

failures=0
for b in $benches; do
  bin="$build_dir/bench/$b"
  if [ ! -x "$bin" ]; then
    echo "run_benches: missing binary $bin" >&2
    failures=$((failures + 1))
    continue
  fi
  echo "== $b =="
  # A failing bench is recorded, not fatal (set -e): keep running the
  # rest of the sweep so one regression doesn't hide another.
  rc=0
  if [ "$b" = bench_cpu_ntt ] && [ "${CRYPTOPIM_BENCH_FAST:-1}" = 1 ]; then
    "$bin" --json --benchmark_min_time=0.01 > /dev/null || rc=$?
  else
    "$bin" --json > /dev/null || rc=$?
  fi
  if [ $rc -ne 0 ]; then
    echo "run_benches: $b exited with $rc" >&2
    failures=$((failures + 1))
  fi
done

# Every bench must have produced a parseable bench_<name>.json.
json_files=""
for b in $benches; do
  json_files="$json_files $out_dir/bench_${b#bench_}.json"
done
# shellcheck disable=SC2086
if ! "$build_dir/tools/json_check" $json_files; then
  echo "run_benches: JSON validation failed" >&2
  failures=$((failures + 1))
fi

if [ $failures -ne 0 ]; then
  echo "run_benches: $failures failure(s)" >&2
  exit 1
fi

# Run manifest: provenance for the bench JSONs sitting next to it, so a
# directory of results is self-describing (what commit, when, where).
git_desc="$(git -C "$repo_root" describe --always --dirty --tags 2>/dev/null || echo unknown)"
cat > "$out_dir/manifest.json" <<EOF
{"schema":"bench-manifest/1","git":"$git_desc","date":"$(date -u +%Y-%m-%dT%H:%M:%SZ)","host":"$(uname -sm)"}
EOF

echo "run_benches: all benches OK, JSON in $out_dir"
