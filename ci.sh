#!/usr/bin/env bash
# Tier-1 gate plus release-mode oracles, timing gates and a perf floor.
#
#   ./ci.sh
#
# Fails on any build error, test failure, lint warning, formatting
# drift, ledger oracle disagreement, or an overhead gate (empty fault
# plan, recorders, phase profiler) over its bound. The ledger-based perf
# floor only warns unless CI_PERF_STRICT=1.
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
# fulfilled=1563 golden pin, N-shard union-of-independent-runs
# under churn, aggregate merge laws) also re-run in release mode: the
# fan-out/merge path is threaded, and optimisation must not perturb the
# merged stream either.
cargo test --release -q -p librisk --test sharded_rms

echo "== differential: decisions vs reference + risk screen (release) =="
# The cached decide against decide_reference (randomized, under churn,
# and the 5k-arrival overload replay) and both pre-kernel screens
# against the projection kernel re-run in release mode: the screens are
# proofs about float arithmetic, so they must hold in the optimised
# build, not only in debug. The cluster crate's unit tests run whole:
# the engine's advance and recompute differentials against their
# reference paths are float proofs too.
cargo test --release -q -p librisk --test proptest_decisions
cargo test --release -q -p cluster --lib
cargo test --release -q -p cluster --test proptest_engine

echo "== differential: Libra at full size (release) =="
# Libra and Libra-SS over the paper-100k and churn-requeue inputs at
# seed 1, with exact fulfilled/rejected pins: decide_reference checks
# Libra's scan on small randomized engines, this checks it on the
# benchmark's own traces. Too slow for a debug build, hence ignored
# there.
cargo test --release -q -p experiments --test end_to_end -- --ignored

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
# here; the ledger exits non-zero on any disagreement.
#
# The traced counters below are deterministic at seed 1 (counts, not
# times), so they are pinned exactly: a missing or different value
# fails. A refactor must leave every one of them unchanged; a change
# that moves one on purpose updates this table and says why. The
# retired decide counters (`memo_hits`, `pairing_hits`) are pinned at 0:
# a nonzero value means a deleted layer came back.
traced_counts='key                      paper-100k  overload-4x  churn-requeue
rms.advance_calls            100000        50000          50000
rms.advance_fault_calls           0            0          17017
engine.advance_calls         318865       134060         158825
engine.next_event_calls      318866       134061         158826
engine.admit_calls            85577        29196          43029
decide.calls                 100000        50000          50000
decide.nodes_considered     4954648      3863542        2461415
decide.projections_run       420592      1139799         209245
decide.screen_hits           209617       144801         104417
decide.class_hits           3950108      1382891        1963692
decide.kernel_bails          420450      1139642         209171
decide.memo_hits                  0            0              0
decide.pairing_hits               0            0              0
router.fanouts               100001        50001          50001
router.events_merged         100000        50000          50000
report.records               100000        50000          50000
fault.node_failures               0            0          14857
fault.node_restores               0            0          14855
fault.requeues                    0            0          19286
fault.requeue_rejects             0            0            378
fault.kills                       0            0              0
'
for w in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    echo "-- $w"
    ledger_out="$(cargo run --release --offline --quiet --manifest-path crates/bench/src/bin/ledger/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 0 --trace 1)"
    printf '%s\n' "$ledger_out" | awk -v w="$w" '
        NR == FNR {
            if (FNR == 1) {
                for (i = 2; i <= NF; i++) if ($i == w) col = i
            } else if (NF && col) {
                want[$1] = $col
            }
            next
        }
        $1 == w && ($2 in want) { got[$2] = $3 }
        END {
            if (!col) { printf "%s: no column in the traced-count table\n", w; exit 1 }
            for (k in want) {
                if (!(k in got)) { printf "%s: traced %s is missing\n", w, k; bad = 1 }
                else if (got[k] != want[k]) {
                    printf "%s: traced %s is %s, pinned %s\n", w, k, got[k], want[k]; bad = 1
                }
            }
            exit bad
        }' <(printf '%s' "$traced_counts") - \
        || { echo "$w: traced counts differ from the pinned table"; exit 1; }
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
# The drive publishes as it goes; poll until the profiler keys land:
# a phase counter and the +Inf bucket of that phase's histogram, both
# read from the profiler's snapshot registry.
metrics_ok=""
for _ in $(seq 1 100); do
    metrics="$(curl -fsS "http://$addr/metrics" 2>/dev/null || true)"
    if grep -q '^phase_progress_pass_ns_total ' <<<"$metrics" \
        && grep -qF 'phase_progress_pass_ns_bucket{le="+Inf"} ' <<<"$metrics"; then
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

echo "== timing gates: overhead of inert features (release) =="
# An empty fault plan, the noop and ring recorders, and the phase
# profiler must each cost the unified driver only a bounded share of its
# throughput on the 2,000-job golden trace (interleaved rounds; bounds in
# the test file). Wall-clock tests: release only, one at a time.
cargo test --release -q -p librisk --test overhead_gates -- --ignored --test-threads=1

echo "== perf floor: ledger throughput vs baseline.json =="
# One untraced ledger replay each of `paper-100k` (the unified driver)
# and `sharded-batch` (the shard router), against half the jobs_per_s
# median of the committed ledger record. A shortfall emits a
# machine-readable PERF_REGRESSION line per metric; by default that is a
# soft gate (a shared host's speed varies), but CI_PERF_STRICT=1 turns
# any PERF_REGRESSION line into a hard failure for runners with a
# known-stable perf envelope. A failed ledger oracle fails here too.
perf_got=""
for w in paper-100k sharded-batch; do
    got="$(cargo run --release --offline --quiet --manifest-path crates/bench/src/bin/ledger/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 0 --trace 0 | awk '$2 == "jobs_per_s" { print $3 }')"
    perf_got+="$w $got"$'\n'
done
perf_out="$(printf '%s' "$perf_got" | python3 -c '
import json, sys
base = json.load(open("crates/bench/src/bin/ledger/baseline.json"))
medians = {w["name"]: w["end_to_end"]["jobs_per_s"]["median"] for w in base["workloads"]}
for line in sys.stdin:
    w, got = line.split()
    metric, got, want = f"{w}.jobs_per_s", float(got), medians[w]
    if got < want / 2:
        print(f"PERF_REGRESSION metric={metric} "
              f"got={got:.0f} baseline={want:.0f} floor={want / 2:.0f}")
    else:
        print(f"perf floor: {metric} ok ({got:.0f} jobs/s vs baseline {want:.0f})")
')"
echo "$perf_out"
if printf '%s\n' "$perf_out" | grep -q '^PERF_REGRESSION '; then
    if [ "${CI_PERF_STRICT:-0}" = "1" ]; then
        echo "perf floor: failing (CI_PERF_STRICT=1)"
        exit 1
    fi
    echo "perf floor: WARNING only (set CI_PERF_STRICT=1 to fail on this)"
fi

echo "ci.sh: OK"
