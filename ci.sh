#!/usr/bin/env bash
# Tier-1 gate plus a benchmark smoke run.
#
#   ./ci.sh
#
# Fails on any build error, test failure, lint warning, formatting
# drift, or a panic inside the admission benchmark (including its
# built-in heap-vs-scan and decision-differential assertions).
set -euo pipefail
cd "$(dirname "$0")"

echo "== tier-1: build (release) =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== flake gate: obs::phase x20 =="
# The profiler's worker-flush contract is timing-sensitive (a scoped
# worker's thread-local destructor is not ordered before the join), so
# one green run proves little: repeat the suite.
for i in $(seq 1 20); do
    cargo test -q -p obs --lib phase >/dev/null || { echo "obs::phase failed on repetition $i"; exit 1; }
done

echo "== differential: golden fixture + churn invariants (release) =="
# The bitwise gates (golden-fixture replay, empty-fault-plan inertness,
# churn interleaving invariance) re-run in release mode: optimisation
# must not perturb a single bit either.
cargo test --release -q -p librisk --test differential_rms

echo "== differential: shard router (release) =="
# The shard-router oracles (1-shard bitwise identity incl. the
# fulfilled=1563 bench-golden pin, N-shard union-of-independent-runs
# under churn, aggregate merge laws) also re-run in release mode: the
# fan-out/merge path is threaded, and optimisation must not perturb the
# merged stream either.
cargo test --release -q -p librisk --test sharded_rms

echo "== differential: decisions vs reference + risk screen (release) =="
# The cached decide against decide_reference (randomized, under churn,
# and the 5k-arrival overload replay) and both pre-kernel screens
# against the projection kernel re-run in release mode: the screens are
# proofs about float arithmetic, so they must hold in the optimised
# build, not only in debug.
cargo test --release -q -p librisk --test proptest_decisions
cargo test --release -q -p cluster --lib projection
cargo test --release -q -p cluster --test proptest_engine

echo "== differential: checkpoint/restore + corruption (release) =="
# The crash-safety gates (checkpoint-at-random-instant bitwise resume
# for every policy, truncation/bit-flip corruption detection, N->M
# reshard union oracles, golden snapshot compatibility) re-run in
# release mode: the format is byte-exact and optimisation must not
# perturb a single bit of a snapshot or a resumed run.
cargo test --release -q -p librisk --test checkpoint

echo "== ledger oracles: benchmark workloads at full size (release) =="
# Each BENCHMARK.json workload replays once, traced, through the
# ledger's full oracle set: the seed-1 pins, the drive_trace bitwise
# check, and the partner and engine-decomposition cross-checks, at the
# full 100k/50k-job size. An engine change that moves one bit fails
# here; the ledger exits non-zero on any disagreement. The retired
# decide counters (`memo_hits`, `pairing_hits`) must read 0 on every
# workload: a nonzero value means a deleted layer came back.
for w in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    echo "-- $w"
    ledger_out="$(cargo run --release --offline --quiet --manifest-path crates/bench/src/bin/ledger/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 0 --trace 1)"
    for key in decide.memo_hits decide.pairing_hits; do
        printf '%s\n' "$ledger_out" | awk -v k="$key" '
            $2 == k { seen = 1; if ($3 != 0) bad = 1 }
            END { exit (seen && !bad) ? 0 : 1 }' \
            || { echo "$w: retired counter $key is missing or nonzero"; exit 1; }
    done
done

echo "== lint: rustfmt =="
cargo fmt --check

echo "== lint: clippy =="
cargo clippy --all-targets -- -D warnings

echo "== lint: clippy (obs, all targets) =="
# The observability crate is new and zero-dep: hold it to -D warnings
# on every target (lib, tests) explicitly.
cargo clippy -p obs --all-targets -- -D warnings

echo "== lint: clippy (core incl. router, all targets) =="
# The shard router (core::router) is threaded code: hold the core crate
# and its test targets to -D warnings explicitly as well.
cargo clippy -p librisk --all-targets -- -D warnings

echo "== lint: rustdoc =="
# Every intra-doc link must resolve, private items included, so a
# deleted or renamed item cannot leave a dangling link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --document-private-items

echo "== obs smoke: trace exports =="
# A small ring-recorder churn run; the subcommand itself re-parses the
# JSONL and Chrome trace_event exports and exits non-zero on malformed
# output, so this both exercises the hooks and validates the exporters.
obs_out="$(mktemp -d /tmp/obs_smoke.XXXXXX)"
trap 'rm -rf "$obs_out"' EXIT
cargo run --release -q -p experiments -- trace --quick --out "$obs_out" >/dev/null
for f in events.jsonl trace.json metrics.prom; do
    test -s "$obs_out/$f" || { echo "missing obs artefact $f"; exit 1; }
done

echo "== checkpoint smoke: save/restore round trip + crash injection =="
# The subcommand checkpoints LibraRisk mid-run on the quick churn
# scenario, restores into a blank RMS, and panics (non-zero exit) if the
# resumed run diverges from the unbroken one or a flipped bit in the
# snapshot goes undetected — a release-mode end-to-end crash drill on
# top of the unit gates above.
cargo run --release -q -p experiments -- checkpoint --quick --out "$obs_out" >/dev/null
test -s "$obs_out/checkpoint.csv" || { echo "missing checkpoint.csv"; exit 1; }

echo "== telemetry smoke: serve endpoints =="
# Drives a small sharded run against the zero-dep HTTP telemetry server
# on an ephemeral port, scrapes /metrics and /healthz with curl, then
# ends the linger via GET /shutdown and requires a clean exit. The
# binary is backgrounded from this shell (not a subshell) so `wait`
# can reap it and propagate its exit status.
serve_log="$(mktemp /tmp/serve_smoke.XXXXXX.log)"
trap 'rm -f "$serve_log"; rm -rf "$obs_out"' EXIT
cargo run --release -q -p experiments -- serve \
    --jobs 500 --shards 2 --for-secs 60 >"$serve_log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^TELEMETRY_ADDR=//p' "$serve_log" | head -n1)"
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve never printed TELEMETRY_ADDR"; kill "$serve_pid" 2>/dev/null || true; exit 1; }
# The drive publishes as it goes; poll until the profiler keys land.
metrics_ok=""
for _ in $(seq 1 100); do
    if curl -fsS "http://$addr/metrics" 2>/dev/null | grep -q '^phase_progress_pass_ns_total '; then
        metrics_ok=1
        break
    fi
    sleep 0.1
done
[ -n "$metrics_ok" ] || { echo "/metrics never served phase keys"; kill "$serve_pid" 2>/dev/null || true; exit 1; }
health="$(curl -fsS "http://$addr/healthz")"
[ -n "$health" ] || { echo "/healthz served an empty body"; kill "$serve_pid" 2>/dev/null || true; exit 1; }
curl -fsS "http://$addr/shutdown" >/dev/null
wait "$serve_pid" || { echo "serve exited non-zero after /shutdown"; exit 1; }

echo "== bench smoke: admission =="
# Small counts; writes to a scratch path so the committed
# BENCH_admission.json baseline (full-size run) is not clobbered.
smoke_out="$(mktemp /tmp/bench_smoke.XXXXXX.json)"
trap 'rm -f "$smoke_out" "$serve_log" ; rm -rf "$obs_out"' EXIT
# The trailing 20000 keeps the sharded-driver sweep a smoke run too
# (the committed baseline is the full 10M-job sweep).
cargo run --release -p bench --bin bench_admission -- 200 2 400 "$smoke_out" 20000 >/dev/null

echo "== perf floor: unified-driver + sharded-driver throughput =="
# Compares the smoke run's LibraRisk jobs/sec — both the plain unified
# driver and the 1-shard sharded path — against the committed full-size
# baseline. A shortfall below half the recorded figure emits a
# machine-readable PERF_REGRESSION line per metric; by default that is a
# soft gate (CI machines vary wildly), but CI_PERF_STRICT=1 turns any
# PERF_REGRESSION line — unified or sharded — into a hard failure for
# runners with a known-stable perf envelope. The sharded floor is
# deliberately gated on the 1-shard cell: it shares the baseline's perf
# envelope (no fan-out threads), so a regression there is router
# overhead, not machine noise. (The smoke sweep replays far fewer jobs
# than the committed 10M baseline, so per-shard-count throughput is not
# comparable beyond the 1-shard cell.)
perf_out="$(python3 - "$smoke_out" BENCH_admission.json <<'PYEOF'
import json, sys
try:
    smoke = json.load(open(sys.argv[1]))
    base = json.load(open(sys.argv[2]))
except (OSError, ValueError) as e:
    print(f"perf floor: skipped ({e})")
    sys.exit(0)

def cell1(doc):
    return next(c["jobs_per_sec"] for c in doc["sharded_driver"]["cells"]
                if c["shards"] == 1)

checks = [
    ("unified_driver.LibraRisk.jobs_per_sec",
     lambda d: d["unified_driver"]["policies"]["LibraRisk"]["jobs_per_sec"]),
    ("sharded_driver.shards1.jobs_per_sec", cell1),
]
for metric, read in checks:
    try:
        got, want = read(smoke), read(base)
    except (KeyError, StopIteration) as e:
        print(f"perf floor: {metric} skipped ({e!r})")
        continue
    if got < want / 2:
        print(f"PERF_REGRESSION metric={metric} "
              f"got={got:.0f} baseline={want:.0f} floor={want / 2:.0f}")
    else:
        print(f"perf floor: {metric} ok ({got:.0f} jobs/s vs baseline {want:.0f})")
PYEOF
)" || true
echo "$perf_out"
if printf '%s\n' "$perf_out" | grep -q '^PERF_REGRESSION '; then
    if [ "${CI_PERF_STRICT:-0}" = "1" ]; then
        echo "perf floor: failing (CI_PERF_STRICT=1)"
        exit 1
    fi
    echo "perf floor: WARNING only (set CI_PERF_STRICT=1 to fail on this)"
fi

echo "ci.sh: OK"
