#!/usr/bin/env bash
# Local CI gate: format, lint, test. Mirrors what reviewers run before
# merging. Works fully offline — every dependency is vendored in-tree, so
# no step touches a registry (--offline keeps cargo from trying).
set -euo pipefail

cd "$(dirname "$0")/.."

# Some cargo versions reject --offline for fmt; it takes no deps anyway.
echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo test"
# Includes the curl-free HTTP e2e suites (tests/http_e2e.rs,
# tests/monitoring_contract.rs): a real server on a real socket driven by
# the in-process blocking client — no external tools needed.
cargo test --offline --workspace -q

echo "==> cargo bench --no-run (benches compile)"
cargo bench --offline --workspace --no-run

echo "==> engine throughput smoke (sanity floor + tracing on/off overhead)"
cargo run --offline --release -q -p rtm-bench --bin bench_engine -- --smoke

echo "==> parallel engine bit-identity (--threads 2 diffed against --threads 1)"
# Full event-log identity is asserted at test level (the engine
# differential suite in crates/akita/tests/par_differential.rs and the
# MCM-GPU platform test), and the bench smoke above re-asserts the Fig 4
# chain's event totals at 1 vs 2 threads. This step closes the loop
# end-to-end through the CLI: the same MCM-GPU FIR run must report the
# same completion summary (events + virtual time) at both thread counts.
par_a="$(mktemp)"
par_b="$(mktemp)"
cargo run --offline --release -q -p akita-rtm-cli --bin rtm-sim -- \
    run --workload fir --chiplets 4 --threads 1 --no-monitor |
    sed -n 's/\( of virtual time\).*/\1/; s/^done: //p' >"$par_a"
cargo run --offline --release -q -p akita-rtm-cli --bin rtm-sim -- \
    run --workload fir --chiplets 4 --threads 2 --no-monitor |
    sed -n 's/\( of virtual time\).*/\1/; s/^done: //p' >"$par_b"
if [ ! -s "$par_a" ]; then
    echo "FAIL: --threads 1 run produced no completion summary" >&2
    exit 1
fi
if ! diff "$par_a" "$par_b"; then
    echo "FAIL: --threads 2 diverged from --threads 1" >&2
    exit 1
fi
echo "parallel bit-identity gate OK ($(cat "$par_a"))"
rm -f "$par_a" "$par_b"

echo "==> fault-injection smoke (determinism, clean drop drain, hang diagnosis)"
cargo run --offline --release -q -p rtm-bench --bin fault_smoke

echo "==> watchdog catches the canned stuck-full hang plan (rtm-sim exit 5)"
# The canned plan wedges GPU[0].L2[0]'s front door; the armed watchdog must
# end the run with the documented stall exit code and name the injected
# site in its diagnosis.
hang_out="$(mktemp)"
set +e
cargo run --offline --release -q -p akita-rtm-cli --bin rtm-sim -- \
    run --workload fir --faults plans/hang_l2.json --watchdog >"$hang_out" 2>&1
hang_rc=$?
set -e
if [ "$hang_rc" -ne 5 ]; then
    echo "FAIL: expected watchdog stall exit code 5, got $hang_rc" >&2
    cat "$hang_out" >&2
    exit 1
fi
if ! grep -q "injected stuck-full fault" "$hang_out"; then
    echo "FAIL: stall diagnosis never named the injected site" >&2
    cat "$hang_out" >&2
    exit 1
fi
echo "watchdog hang gate OK (exit 5, injected site named)"
rm -f "$hang_out"

echo "==> watchdog ends a clean run at once (rtm-sim exit 0)"
# A workload that drains clean is declared drained-idle on the engine's
# transition to idle and the run ends; it must exit 0, not as a stall.
clean_out="$(mktemp)"
set +e
cargo run --offline --release -q -p akita-rtm-cli --bin rtm-sim -- \
    run --workload fir --watchdog >"$clean_out" 2>&1
clean_rc=$?
set -e
if [ "$clean_rc" -ne 0 ]; then
    echo "FAIL: expected exit code 0 for a clean watchdog run, got $clean_rc" >&2
    cat "$clean_out" >&2
    exit 1
fi
if ! grep -q "workload completed\." "$clean_out"; then
    echo "FAIL: clean watchdog run did not report completion" >&2
    cat "$clean_out" >&2
    exit 1
fi
echo "watchdog clean-run gate OK (exit 0, workload completed)"
rm -f "$clean_out"

echo "==> perfbench package tests (tiny live run: monitor, watchdog, dashboard stream)"
# The benchmark's own tests run both workloads at a tiny size against the
# stored reference, including the live one with the full monitoring stack.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> chrome trace export shape (rtm-sim trace)"
trace_out="$(mktemp -d)/trace.json"
cargo run --offline --release -q -p akita-rtm-cli --bin rtm-sim -- \
    trace --workload fir --out "$trace_out"
python3 - "$trace_out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
spans = [e for e in events if e.get("ph") == "X"]
assert spans, "no complete spans in the export"
for e in spans:
    for key in ("name", "ts", "dur", "pid", "tid"):
        assert key in e, f"span missing {key}: {e}"
print(f"trace export OK: {len(spans)} spans")
EOF
rm -rf "$(dirname "$trace_out")"

echo "==> OK"
