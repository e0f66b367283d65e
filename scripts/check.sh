#!/usr/bin/env bash
# Full local gate: formatting, lints, and the tier-1 build+test cycle.
# Everything runs offline against the vendored shims — no network needed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tier-1: cargo build --release =="
cargo build --release --offline

echo "== examples build =="
cargo build --release --offline --examples

echo "== benchmark build (catches removed public names the benchmark uses) =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== benchmark smoke run (every workload's flow checks pass) =="
for workload in notebook_storm login_ssh revocation_churn; do
    last=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
    case "$last" in
        *'"correct": true,'*'"failed": 0,'*) echo "$workload: correct, 0 failed" ;;
        *)
            echo "$workload: benchmark checks failed: $last" >&2
            exit 1
            ;;
    esac
done

echo "== tier-1: cargo test -q =="
cargo test -q --offline

echo "== trace subsystem tests =="
cargo test -q --offline -p dri-trace
cargo test -q --offline -p isambard-dri --test trace_provenance

echo "== resilience: fault plane + breaker/budget determinism =="
cargo test -q --offline -p dri-fault
cargo test -q --offline -p isambard-dri --test failure_injection
cargo test -q --offline -p isambard-dri --test chaos_determinism

echo "== degraded modes: no dropped sessions, no stale allows =="
cargo test -q --offline -p isambard-dri --test degraded_modes

echo "== chaos day (drills incl. data plane, budget ledger, siem feedback, trace shape, overhead guard) =="
cargo run --release --offline --example chaos_day

echo "== verification cache: stale-allow regressions + cached/uncached equivalence =="
cargo test -q --offline -p dri-broker token_cache
cargo test -q --offline -p dri-policy trust
cargo test -q --offline -p isambard-dri --test token_cache

echo "== login-storm gate (warm >= 2x cold; auto-skipped below 4 cores) =="
BENCH_LOGIN_STORM_JSON=0 cargo bench --offline -p dri-bench --bench login_storm -- skip_criterion_timing_loop

echo "All checks passed."
