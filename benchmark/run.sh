#!/usr/bin/env bash
# The repository benchmark's one command. Run it from the repository root.
#
#   bash benchmark/run.sh [--out DIR] [--seeds "1 2 3 4 5"]
#       Build, then run every workload once per seed untraced and once
#       traced (first seed), each in its own process. Every run prints its
#       metrics as `name value unit`; its full output is kept as
#       DIR/<workload>-s<seed>-t<trace>.out (default DIR: .bench_work/results).
#
#   bash benchmark/run.sh --workload NAME --seed N [--seconds S] --trace 0|1
#       Build, then make that one run. --seconds defaults to BENCHMARK.json's
#       run_seconds.
#
#   bash benchmark/run.sh compare BASE_DIR NEW_DIR
#       Judge recorded runs of a change against its parent's (see README.md).
#
# The build goes to $CARGO_TARGET_DIR (default .bench_build): `cargo build
# --release` of this package and of the `mnemo` binary the serve workloads
# spawn. Nothing runs before the build succeeds.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml \
    -p mnemo-benchmark -p mnemo-cli >&2
bench="$CARGO_TARGET_DIR/release/benchmark"

for arg in "$@"; do
    case "$arg" in
        --workload | compare) exec "$bench" "$@" ;;
    esac
done

out=.bench_work/results
seeds="1 2 3 4 5"
while [ $# -gt 0 ]; do
    case "$1" in
        --out) out="$2"; shift 2 ;;
        --seeds) seeds="$2"; shift 2 ;;
        *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done
mkdir -p "$out"
status=0
for workload in $("$bench" list); do
    first=1
    for seed in $seeds; do
        for trace in 0 1; do
            [ "$trace" = 1 ] && [ "$first" = 0 ] && continue
            file="$out/$workload-s$seed-t$trace.out"
            echo "== $workload seed $seed trace $trace" >&2
            if ! "$bench" --workload "$workload" --seed "$seed" --trace "$trace" > "$file"; then
                status=1
            fi
            grep -v '^{' "$file"
        done
        first=0
    done
done
echo "runs written to $out" >&2
exit $status
