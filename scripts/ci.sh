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

echo "==> monitor invariance (--watchdog run diffed against --no-monitor)"
# Monitoring observes; it must never change the simulated machine. The same
# 4-chiplet MCM-GPU FIR run, bare and with the monitor and stall watchdog
# attached, must report the same completion summary (events + virtual time).
inv_a="$(mktemp)"
inv_b="$(mktemp)"
cargo run --offline --release -q -p akita-rtm-cli --bin rtm-sim -- \
    run --workload fir --chiplets 4 --no-monitor |
    sed -n 's/\( of virtual time\).*/\1/; s/^done: //p' >"$inv_a"
cargo run --offline --release -q -p akita-rtm-cli --bin rtm-sim -- \
    run --workload fir --chiplets 4 --watchdog |
    sed -n 's/\( of virtual time\).*/\1/; s/^done: //p' >"$inv_b"
if [ ! -s "$inv_a" ]; then
    echo "FAIL: --no-monitor run produced no completion summary" >&2
    exit 1
fi
if ! diff "$inv_a" "$inv_b"; then
    echo "FAIL: the monitored run diverged from the unmonitored one" >&2
    exit 1
fi
echo "monitor invariance gate OK ($(cat "$inv_a"))"
rm -f "$inv_a" "$inv_b"

echo "==> scheduler invariance (every workload matches its recorded serial reference)"
# The event queue and tick dedup decide how fast the next event is found,
# never which event it is. Every workload on the 4-chiplet MCM-GPU must
# dispatch exactly the event count and end at exactly the virtual time
# recorded under `serial_reference` in results/par_removal.json.
cargo build --offline --release -q -p akita-rtm-cli --bin rtm-sim
python3 - <<'EOF'
import json, re, subprocess, sys
ref = json.load(open("results/par_removal.json"))["serial_reference"]["workloads"]
bad = []
for name, want in ref.items():
    out = subprocess.run(
        ["cargo", "run", "--offline", "--release", "-q", "-p", "akita-rtm-cli",
         "--bin", "rtm-sim", "--", "run", "--workload", name, "--chiplets", "4",
         "--no-monitor"],
        capture_output=True, text=True, check=True).stdout
    m = re.search(r"^done: (\d+) events, (\d+)ns of virtual time", out, re.M)
    got = (int(m.group(1)), int(m.group(2))) if m else None
    exp = (want["events"], want["virtual_end_ns"])
    print(f"{name}: {got} (reference {exp})")
    if got != exp:
        bad.append(name)
if bad:
    sys.exit(f"FAIL: {', '.join(bad)} diverged from the serial reference")
print(f"scheduler invariance gate OK ({len(ref)} workloads)")
EOF

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
