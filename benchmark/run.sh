#!/usr/bin/env bash
# Builds lotusx-serve (root workspace) and lotusx-loadgen (this
# directory), then runs the benchmark. See README.md.
#
#   benchmark/run.sh                      whole suite, end-to-end metrics
#   benchmark/run.sh --quick              1 lifetime x 1 s per workload (smoke test, 17 s once built)
#   benchmark/run.sh --trace              suite, then the per-layer pass of each workload
#   benchmark/run.sh --seed 7             another corpus and request sequence
#   benchmark/run.sh --workload query-hot --seed 1 --seconds 20 --trace 0
#                                         one workload, one result line (the driver's form)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for both workspaces: the crates the server and
# the generator share compile once. Made absolute because the second
# build runs from another manifest.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p lotusx-serve --bin lotusx-serve >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

loadgen=("$target/release/lotusx-loadgen"
         --serve-bin "$target/release/lotusx-serve" --out benchmark/out)

single=0 trace_pass=0 pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) single=1; pass+=("$1" "$2"); shift 2 ;;
        --quick) pass+=(--lifetimes 1 --seconds 1); shift ;;
        --trace)
            # `--trace 0|1` is the driver's form; bare `--trace` asks the
            # suite for the per-layer pass as well.
            case "${2:-}" in
                0|1) pass+=("$1" "$2"); shift 2 ;;
                *) trace_pass=1; shift ;;
            esac ;;
        *) pass+=("$1"); shift ;;
    esac
done

if [ "$single" = 1 ]; then
    exec "${loadgen[@]}" "${pass[@]}"
fi

for workload in query-hot query-cold complete-keystroke session-mix; do
    echo "== $workload"
    "${loadgen[@]}" --workload "$workload" "${pass[@]}"
    if [ "$trace_pass" = 1 ]; then
        echo "== $workload (per-layer pass)"
        "${loadgen[@]}" --workload "$workload" "${pass[@]}" --trace 1
    fi
done
