#!/usr/bin/env bash
# Offline CI: staged, self-timing. No network access required.
#
#   ./ci.sh                run every stage and print a per-stage timing table
#   ./ci.sh --fast         skip the release build and the smoke stages
#   ./ci.sh --stage NAME   run a single stage (repeatable, runs in order given)
#   ./ci.sh --list         list stage names and exit
#
# Every run (also failed ones) writes target/ci_timing.json, a
# machine-readable per-stage timing artifact, so the perf trajectory of
# CI itself is trackable across PRs.
#
# Fails fast: the first failing stage aborts the run, names itself, and
# still prints the timing table for the stages that ran.
set -u

# Stage registry, in default run order. --fast keeps only fmt, clippy,
# doc and test. A stage named X is implemented by the function stage_X
# (dashes become underscores).
ALL_STAGES=(fmt clippy doc build bench-build test smoke robust-smoke
            telemetry-smoke serve-smoke metrics-smoke soak-smoke tenant-soak
            join-bench-smoke snapshot-smoke)
FAST_SKIP=(build bench-build smoke robust-smoke telemetry-smoke serve-smoke
           metrics-smoke soak-smoke tenant-soak join-bench-smoke snapshot-smoke)

FAST=0
ONLY_STAGES=()
while [ $# -gt 0 ]; do
    case "$1" in
        --fast) FAST=1 ;;
        --list)
            printf '%s\n' "${ALL_STAGES[@]}"
            exit 0
            ;;
        --stage)
            if [ $# -lt 2 ]; then
                echo "--stage requires a name (see --list)" >&2
                exit 2
            fi
            shift
            ONLY_STAGES+=("$1")
            ;;
        *) echo "unknown option: $1 (supported: --fast, --stage NAME, --list)" >&2; exit 2 ;;
    esac
    shift
done

known_stage() {
    local name s
    name=$1
    for s in "${ALL_STAGES[@]}"; do
        [ "$s" = "$name" ] && return 0
    done
    return 1
}

for s in ${ONLY_STAGES[@]+"${ONLY_STAGES[@]}"}; do
    if ! known_stage "$s"; then
        echo "unknown stage: $s (see --list)" >&2
        exit 2
    fi
done

STAGE_NAMES=()
STAGE_TIMES=()
FAILED_STAGE=""

now_ns() { date +%s%N; }

fmt_duration() {
    # ns → "12.345s"
    local ns=$1
    printf '%d.%03ds' $((ns / 1000000000)) $(((ns / 1000000) % 1000))
}

write_timing_json() {
    # Machine-readable mirror of the summary table.
    local out=target/ci_timing.json
    mkdir -p target
    {
        echo '{'
        echo '  "stages": ['
        local i total=0 sep=""
        for i in "${!STAGE_NAMES[@]}"; do
            local ns=${STAGE_TIMES[$i]}
            total=$((total + ns))
            printf '%s    {"name": "%s", "ns": %d, "seconds": %d.%03d}' \
                "$sep" "${STAGE_NAMES[$i]}" "$ns" $((ns / 1000000000)) $(((ns / 1000000) % 1000))
            sep=$',\n'
        done
        [ ${#STAGE_NAMES[@]} -gt 0 ] && echo
        echo '  ],'
        printf '  "total_ns": %d,\n' "$total"
        # The ROADMAP's LoC trend, next to the stage times.
        printf '  "rust_loc": %d,\n' \
            "$(find crates tests examples src -name '*.rs' -print0 | xargs -0 cat | wc -l)"
        if [ -n "$FAILED_STAGE" ]; then
            printf '  "failed_stage": "%s"\n' "$FAILED_STAGE"
        else
            printf '  "failed_stage": null\n'
        fi
        echo '}'
    } > "$out"
}

print_summary() {
    echo
    echo "=== ci summary ==="
    local i total=0
    for i in "${!STAGE_NAMES[@]}"; do
        printf '  %-16s %10s\n' "${STAGE_NAMES[$i]}" "$(fmt_duration "${STAGE_TIMES[$i]}")"
        total=$((total + STAGE_TIMES[i]))
    done
    printf '  %-16s %10s\n' "total" "$(fmt_duration "$total")"
    write_timing_json
    echo "timing artifact: target/ci_timing.json"
    if [ -n "$FAILED_STAGE" ]; then
        echo "FAILED at stage: $FAILED_STAGE"
    else
        echo "all stages passed"
    fi
}

run_stage() {
    local name=$1
    shift
    echo
    echo "=== stage: $name ==="
    local t0 t1
    t0=$(now_ns)
    "$@"
    local status=$?
    t1=$(now_ns)
    STAGE_NAMES+=("$name")
    STAGE_TIMES+=($((t1 - t0)))
    if [ $status -ne 0 ]; then
        FAILED_STAGE=$name
        print_summary
        exit $status
    fi
}

stage_fmt() {
    cargo fmt --all -- --check
}

stage_clippy() {
    cargo clippy --workspace --all-targets -- -D warnings &&
    # The observability crate must stay warning-free on its own too (it
    # is the bottom of the crate graph: every other crate builds on it).
    cargo clippy -p lotusx-obs --all-targets -- -D warnings
}

# Broken intra-doc links (a comment still naming a deleted item) and
# every other rustdoc lint are errors; so is a backticked `path::Item` in
# README.md or DESIGN.md that names no item defined under crates/.
stage_doc() {
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline &&
    doc_paths_resolve README.md DESIGN.md
}

# Every segment of every backticked `a::b::{c, d}` path in the given
# files must be a crate or an item defined under crates/: a fn, type,
# trait, const, static, module, macro or public field name, or an enum
# variant (a capitalized name opening a line). Paths rooted at std/core or at a
# primitive or std type are exempt. Matching is by name only, so a
# deleted type's methods are caught through the type.
doc_paths_resolve() {
    local -A known=()
    local name dir
    while read -r name; do known[$name]=1; done < <(
        grep -rhoE '\b(fn|struct|enum|trait|const|static|type|mod)\s+[A-Za-z_][A-Za-z0-9_]*' \
            crates --include='*.rs' | awk '{print $2}'
        grep -rhoE 'macro_rules!\s*[A-Za-z_][A-Za-z0-9_]*' crates --include='*.rs' |
            sed 's/macro_rules!\s*//'
        grep -rhoE '^\s*[A-Z][A-Za-z0-9_]*\s*[,({]' crates --include='*.rs' | tr -d ' ,({'
        grep -rhoE '^\s*pub(\([a-z]+\))?\s+[a-z_][a-z0-9_]*\s*:' crates --include='*.rs' |
            sed -E 's/^\s*pub(\([a-z]+\))?\s+//; s/\s*:$//'
    )
    for dir in crates/*/; do
        dir=$(basename "$dir")
        known[$dir]=1 known[lotusx_$dir]=1
    done
    known[lotusx]=1
    local exempt=" std core alloc Option Result Vec String str char bool u8 u16 u32 \
        u64 u128 usize i8 i16 i32 i64 i128 isize f32 f64 Box Arc Rc Cow HashMap \
        BTreeMap HashSet BTreeSet Instant Duration Ordering Mutex OnceLock Path "
    local path segment missing=0
    while read -r path; do
        [[ $exempt == *" ${path%%::*} "* ]] && continue
        for segment in $(tr ':{},!*' '      ' <<< "$path"); do
            if [ -z "${known[$segment]:-}" ]; then
                echo "doc: \`$path\` names no item defined under crates/ ($segment)" >&2
                missing=1
            fi
        done
    done < <(grep -ohE '`[^`]*`' "$@" |
             grep -oE '[A-Za-z_][A-Za-z0-9_]*(::([A-Za-z_][A-Za-z0-9_]*!?|\{[^}]*\}))+' |
             sort -u)
    return $missing
}

stage_build() {
    cargo build --release
}

# The load generator under benchmark/ is a detached workspace the root
# build never sees, so an API deletion that breaks it would otherwise
# surface only in the benchmark pipeline. Type-check it (all targets)
# and run its unit tests, into the shared target dir. cargo may
# re-resolve benchmark/Cargo.lock when a crate's dependency edges
# changed; the tracked lock file is restored, never committed.
stage_bench_build() {
    local status=0
    CARGO_TARGET_DIR="$PWD/target" cargo check --offline --all-targets \
        --manifest-path benchmark/Cargo.toml &&
    CARGO_TARGET_DIR="$PWD/target" cargo test --offline -q \
        --manifest-path benchmark/Cargo.toml || status=$?
    git checkout -q -- benchmark/Cargo.lock
    if [ -n "$(git status --porcelain -- benchmark)" ]; then
        echo "bench-build: tracked files under benchmark/ changed:" >&2
        git status --porcelain -- benchmark >&2
        return 1
    fi
    return $status
}

stage_test() {
    # One workspace invocation covers the root package too.
    cargo test --workspace -q
}

# Smoke-test the CLI observability surface headlessly: a scripted REPL
# session exercising profile/explain/stats must run to completion, and
# the explain output must contain the stage timings and the rank walk's
# plan (the `bound=` the ranker walked under). A broken query
# (`writer` for `author`) must come back through the rewriter. The
# session ends on the canvas (root, focus, type, accept, run, run): both
# runs must print a matches line like the four queries before them, and
# the second must be the cache hit that only a `run` going through
# `query()` produces (hits: the repeated query, the same query pinned to
# structural-join — what `auto` resolves to, so one cache entry — and the
# repeated run). Then a `//` child of the root and its candidates: the
# `//` completion context goes through the guide embedding, and `author`
# must be offered with the count it had before that embedding (3 under
# //book in the sample bibliography).
stage_smoke() {
    local out
    out=$(printf 'profile on\nexplain //book[author]/title\nquery //book/title\nquery //book/title\nalgo structural-join\nquery //book/title\nquery //article/writer\nroot\nfocus 0\ntype b\naccept\nrun\nrun\nnode 0 //\nfocus 1\nstats\nstats json\nquit\n' \
        | cargo run --release -p lotusx-serve --bin lotusx-cli) || return 1
    echo "$out" | grep -q 'parse' &&
    echo "$out" | grep -q 'total:' &&
    echo "$out" | grep -q 'bound=' &&
    echo "$out" | grep -q 'cache_hit' &&
    echo "$out" | grep -q 'rewritten to.*author' &&
    echo "$out" | grep -q 'accepted book' &&
    echo "$out" | grep -q '  author (3)$' &&
    [ "$(echo "$out" | grep -c ' matches$')" -eq 6 ] &&
    echo "$out" | grep -q 'query cache: 3 hits, 4 misses'
}

# Robustness smoke: a deliberately explosive all-wildcard query with a
# 1 ms timeout against a deep synthetic corpus must come back promptly,
# alive, and explicitly marked truncated — never hang, never panic.
# Then a seeded stress run fires 200 randomized (often starved) queries
# and fails if any panic escapes the engine.
stage_robust_smoke() {
    local out
    out=$(printf 'timeout 1\nquery //*//*//*//*//*\nstats\nquit\n' \
        | cargo run --release -p lotusx-serve --bin lotusx-cli -- @treebank:4) || return 1
    echo "$out" | grep -q 'truncated: deadline_exceeded' || {
        echo "robust-smoke: expected a truncation marker in:" >&2
        echo "$out" >&2
        return 1
    }
    cargo run --release -p lotusx --bin lotusx-stress -- 200 42
}

# Telemetry smoke: the telemetry bench (--quick) fails the stage if
# recording metrics adds more than 250 ns to a query over the disabled
# path (MAX_METRICS_OVERHEAD_NS, an absolute budget).
stage_telemetry_smoke() {
    cargo run --release -p lotusx-bench --bin lotusx-telemetry-bench -- --quick
}

# Serving smoke: boot the lotusx-serve binary on an ephemeral loopback
# port, wait for its "listening on" line (CI_WAIT_SECS overrides the
# default 10s bind wait on slow machines), hit /healthz and run one
# query through the raw-socket test client (--probe; it ends by scraping
# /stats and fails unless inline_answers > 0, panics == 0,
# timer_entries <= connections_open + 1 and the tenants section is
# exactly {"default": …}, then requires POST /admin/routes with one
# catch-all rule to default to answer {"rules":1}), then stop it gracefully over
# HTTP (--stop) and check it exits cleanly within 5 s. Then once more
# with stdin an open pipe nobody writes to (the regression: the stdin
# reader blocks in read_line there, and a server that joins it never
# exits after /shutdown). Offline, loopback-only, no curl.
stage_serve_smoke() {
    # The root `cargo build --release` does not build dependency crates'
    # binaries; make sure the server binary exists (no-op when cached).
    cargo build --release -p lotusx-serve --bin lotusx-serve || return 1
    serve_smoke_cycle /dev/null probe || return 1
    local fifo=/tmp/lotusx_ci_stdin.fifo status=0
    rm -f "$fifo"
    mkfifo "$fifo" || return 1
    sleep 600 >"$fifo" &
    local writer=$!
    serve_smoke_cycle "$fifo" || status=1
    kill "$writer" 2>/dev/null
    rm -f "$fifo"
    return $status
}

# One boot -> [probe] -> --stop -> exit cycle of the server binary with
# stdin taken from "$1"; "$2" = probe runs the probe client in between.
serve_smoke_cycle() {
    local stdin="$1" probe="${2:-}"
    local bin=./target/release/lotusx-serve
    local log=/tmp/lotusx_ci_serve.log
    rm -f "$log"
    "$bin" --addr 127.0.0.1:0 --corpus @dblp:1 <"$stdin" >"$log" 2>&1 &
    local pid=$!
    local wait_secs="${CI_WAIT_SECS:-10}"
    local tries=$((wait_secs * 10))
    [ "$tries" -lt 1 ] && tries=1
    local addr="" i
    for i in $(seq 1 "$tries"); do
        addr=$(sed -n 's/^listening on //p' "$log")
        [ -n "$addr" ] && break
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "serve-smoke: server exited before binding; log tail:" >&2
            tail -n 40 "$log" >&2
            return 1
        fi
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "serve-smoke: server never printed its address within ${wait_secs}s; log tail:" >&2
        tail -n 40 "$log" >&2
        kill "$pid" 2>/dev/null
        return 1
    fi
    if [ "$probe" = probe ] && ! "$bin" --probe "$addr"; then
        echo "serve-smoke: probe failed; log tail:" >&2
        tail -n 40 "$log" >&2
        kill "$pid" 2>/dev/null
        return 1
    fi
    "$bin" --stop "$addr" || { kill "$pid" 2>/dev/null; return 1; }
    for i in $(seq 1 50); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$pid" 2>/dev/null; then
        echo "serve-smoke: server still running 5 s after --stop (stdin: $stdin)" >&2
        kill -9 "$pid" 2>/dev/null
        wait "$pid" 2>/dev/null
        return 1
    fi
    local status=0
    wait "$pid" || status=$?
    if [ $status -ne 0 ]; then
        echo "serve-smoke: server exited with status $status; log tail:" >&2
        tail -n 40 "$log" >&2
        return 1
    fi
    grep -q '^stopped:' "$log"
}

# Metrics smoke: boot the server with a structured access log, drive
# three pipelined queries (one budget-starved) and scrape /metrics twice
# through the raw-socket probe client (exposition-format conformance +
# counter monotonicity + the same /stats work-counter check serve-smoke
# ends with, no curl), stop it gracefully, then check the access log
# carries exactly one JSONL line per request the stage made, and that
# the starved query's line names its budget trip.
stage_metrics_smoke() {
    cargo build --release -p lotusx-serve --bin lotusx-serve || return 1
    local log=/tmp/lotusx_ci_metrics.log
    local access=/tmp/lotusx_ci_access.jsonl
    rm -f "$log" "$access"
    ./target/release/lotusx-serve --addr 127.0.0.1:0 \
        --corpus @dblp:1 --access-log "$access" </dev/null >"$log" 2>&1 &
    local pid=$!
    local wait_secs="${CI_WAIT_SECS:-10}"
    local tries=$((wait_secs * 10))
    [ "$tries" -lt 1 ] && tries=1
    local addr="" i
    for i in $(seq 1 "$tries"); do
        addr=$(sed -n 's/^listening on //p' "$log")
        [ -n "$addr" ] && break
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "metrics-smoke: server exited before binding; log tail:" >&2
            tail -n 40 "$log" >&2
            return 1
        fi
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "metrics-smoke: server never printed its address within ${wait_secs}s" >&2
        tail -n 40 "$log" >&2
        kill "$pid" 2>/dev/null
        return 1
    fi
    if ! ./target/release/lotusx-serve --metrics-probe "$addr"; then
        echo "metrics-smoke: probe failed; log tail:" >&2
        tail -n 40 "$log" >&2
        kill "$pid" 2>/dev/null
        return 1
    fi
    ./target/release/lotusx-serve --stop "$addr" || { kill "$pid" 2>/dev/null; return 1; }
    local status=0
    wait "$pid" || status=$?
    if [ $status -ne 0 ]; then
        echo "metrics-smoke: server exited with status $status; log tail:" >&2
        tail -n 40 "$log" >&2
        return 1
    fi
    # The stage's request ledger: 3 pipelined queries + 2 scrapes + the
    # closing /stats work-counter check from the probe, plus the
    # POST /shutdown from --stop.
    local lines
    lines=$(wc -l < "$access")
    if [ "$lines" -ne 7 ]; then
        echo "metrics-smoke: access log has $lines lines, want 7:" >&2
        cat "$access" >&2
        return 1
    fi
    grep -q '"path":"/metrics"' "$access" &&
    grep -q '"close":"drain"' "$access" &&
    grep -q '"truncated":' "$access"
}

# Connection soak: the quick-mode lotusx-soak run holds 1000 concurrent
# connections (mixed keep-alive / one-shot / slow-reader / slow-loris
# clients) against the event-loop server on loopback and exits nonzero
# unless accounting is exact: zero panics, accepted == client connects,
# rejected == the loris count, one access-log line per answered request
# with zero drops, bounded memory. The full soak is `lotusx-soak --soak`
# for local runs.
stage_soak_smoke() {
    cargo build --release -p lotusx-serve --bin lotusx-soak || return 1
    # ~2k fds live in this process during the soak; raise the soft
    # limit if the environment allows it (best-effort).
    ( ulimit -n 8192 2>/dev/null; exec ./target/release/lotusx-soak )
}

# Mixed-tenant chaos: a two-tenant registry where tenant A is hammered
# far past its max_inflight=2 quota by 16 concurrent clients while
# tenant B trickles sequential queries. The run exits nonzero unless
# isolation is exact: B sees zero 429s and a bounded p99, A's quota
# rejects reconcile to the byte against /stats and the per-tenant
# counters, inflight drains to zero, and no panic escapes.
stage_tenant_soak() {
    cargo build --release -p lotusx-serve --bin lotusx-soak || return 1
    ./target/release/lotusx-soak --tenants
}

# Join-engine smoke: the head-to-head benchmark in --quick mode (scale 1,
# few reps, artifact under target/). Exits nonzero if the join disagrees
# with the naive oracle (exit 2) or naive beats the join by more than the
# 1.25x + 0.05 ms gate on any query (exit 1) — a regression gate for the
# one plan every query runs. Fully offline.
stage_join_bench_smoke() {
    cargo run --release -p lotusx-bench --bin join-bench -- --quick
}

# Snapshot smoke: build @dblp:2 from XML, save a .ltsx snapshot,
# reload it cold, and byte-compare query responses across every join
# algorithm plus auto and completion sweeps (exit 2 on any mismatch),
# bound the resident document (exit 3), value index (exit 4) and
# positions — tag-stream columns, parent slots, position map — at 30 B
# per element (exit 5), fail a saved file holding any section besides
# DOCUMENT, VALUES and TAG_TERMS, so that nothing the document
# determines is stored again (exit 6), then gate the cold-boot speedup
# (exit 1).
# Artifact under target/BENCH_snapshot_quick.json. Fully offline.
stage_snapshot_smoke() {
    cargo run --release -p lotusx-bench --bin snapshot-bench -- --quick
}

fast_skips() {
    local name s
    name=$1
    for s in "${FAST_SKIP[@]}"; do
        [ "$s" = "$name" ] && return 0
    done
    return 1
}

if [ ${#ONLY_STAGES[@]} -gt 0 ]; then
    for s in "${ONLY_STAGES[@]}"; do
        run_stage "$s" "stage_${s//-/_}"
    done
else
    for s in "${ALL_STAGES[@]}"; do
        if [ "$FAST" -eq 1 ] && fast_skips "$s"; then
            continue
        fi
        run_stage "$s" "stage_${s//-/_}"
    done
fi

print_summary
