#!/usr/bin/env bash
# The full offline CI gate: formatting, lints, release build, tests.
# Requires nothing beyond the baked-in Rust toolchain — the workspace is
# hermetic (no registry crates), so this runs with the network off.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy (default features)"
    cargo clippy --workspace --all-targets -- -D warnings
    echo "==> cargo clippy (heavy-tests)"
    cargo clippy --workspace --all-targets --features heavy-tests -- -D warnings
else
    echo "==> clippy unavailable in this toolchain; skipping lint step"
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (default features)"
cargo test -q

echo "==> cargo test (forced sequential validate, ACR_THREADS=1)"
ACR_THREADS=1 cargo test -q

echo "==> cargo test (delta construction off, ACR_DELTA=0)"
ACR_DELTA=0 cargo test -q --test determinism_differential --test repair_incidents

echo "==> cargo test (dense reference engine, ACR_SPARSE=0; multi-patch determinism)"
ACR_SPARSE=0 cargo test -q --test determinism_differential

echo "==> exp_delta --smoke (delta/full equivalence regression guard)"
cargo run --release -q -p acr-bench --bin exp_delta -- --smoke

echo "==> exp_converge --smoke (sparse engine + smoke-sized scale-frontier loads)"
conv_sparse=$(cargo run --release -q -p acr-bench --bin exp_converge -- --smoke | tee /dev/stderr | grep '^report_digest=')

echo "==> exp_converge --smoke (dense engine, ACR_SPARSE=0; digests must agree)"
conv_dense=$(ACR_SPARSE=0 cargo run --release -q -p acr-bench --bin exp_converge -- --smoke | tee /dev/stderr | grep '^report_digest=')
if [ "$conv_sparse" != "$conv_dense" ]; then
    echo "FAIL: sparse and dense engines computed different repairs ($conv_sparse vs $conv_dense)" >&2
    exit 1
fi

echo "==> exp_flow --smoke (static relevance gate: skips > 0, identical reports)"
flow_on=$(cargo run --release -q -p acr-bench --bin exp_flow -- --smoke | tee /dev/stderr | grep '^report_digest=')

echo "==> exp_flow --smoke (gate off, ACR_FLOW=0; digests must agree)"
flow_off=$(ACR_FLOW=0 cargo run --release -q -p acr-bench --bin exp_flow -- --smoke | tee /dev/stderr | grep '^report_digest=')
if [ "$flow_on" != "$flow_off" ]; then
    echo "FAIL: gated and ungated passes computed different repairs ($flow_on vs $flow_off)" >&2
    exit 1
fi

echo "==> exp_obs --smoke (journal/trace schema + determinism guard)"
obs_on=$(cargo run --release -q -p acr-bench --bin exp_obs -- --smoke | tee /dev/stderr | grep '^report_digest=')

echo "==> exp_obs --smoke --disabled (obs fully off; digests must agree)"
obs_off=$(ACR_OBS=0 cargo run --release -q -p acr-bench --bin exp_obs -- --smoke --disabled | tee /dev/stderr | grep '^report_digest=')
if [ "$obs_on" != "$obs_off" ]; then
    echo "FAIL: instrumented and disabled passes computed different repairs ($obs_on vs $obs_off)" >&2
    exit 1
fi

echo "==> exp_scenarios --smoke (scenario corpus + strategy A/B + golden digest)"
scen_on=$(cargo run --release -q -p acr-bench --bin exp_scenarios -- --smoke | tee /dev/stderr | grep -E '^(report|corpus)_digest=')

echo "==> exp_scenarios --smoke (gate off, ACR_FLOW=0; digests must agree)"
scen_off=$(ACR_FLOW=0 cargo run --release -q -p acr-bench --bin exp_scenarios -- --smoke | tee /dev/stderr | grep -E '^(report|corpus)_digest=')
if [ "$scen_on" != "$scen_off" ]; then
    echo "FAIL: scenario corpus or repairs diverged under ACR_FLOW=0 ($scen_on vs $scen_off)" >&2
    exit 1
fi
# The corpus content itself is regression-pinned (golden_corpus.rs); the
# bench must be running on exactly that corpus.
if ! grep -q 'b1380ed19022fbaf' <<<"$scen_on"; then
    echo "FAIL: exp_scenarios ran on a corpus that does not match the golden pin" >&2
    exit 1
fi

echo "==> trace_repair example (ACR_TRACE/ACR_JOURNAL env path)"
obs_tmp=$(mktemp -d)
ACR_TRACE="$obs_tmp/trace.json" ACR_JOURNAL="$obs_tmp/journal.jsonl" \
    cargo run --release -q --example trace_repair >/dev/null
grep -q '"traceEvents"' "$obs_tmp/trace.json"
grep -q '"schema":"acr-journal/v5"' "$obs_tmp/journal.jsonl"
rm -rf "$obs_tmp"

echo "==> exp_serve --smoke (daemon cold/resident A/B: identical decisions, fewer sims)"
cargo run --release -q -p acr-bench --bin exp_serve -- --smoke

echo "==> acrd smoke (daemon-served repair == one-shot batch, JSONL over stdin)"
acrd_daemon=$(./target/release/acrd --emit-corpus | ./target/release/acrd | tee /dev/stderr | grep -E '^(report_digest=|jobs=)')
acrd_batch=$(./target/release/acrd --batch | tee /dev/stderr | grep '^report_digest=')
if ! grep -qF "$acrd_batch" <<<"$acrd_daemon"; then
    echo "FAIL: daemon-served reports diverged from one-shot batch ($acrd_daemon vs $acrd_batch)" >&2
    exit 1
fi
# Graceful shutdown: the queue must be fully drained at EOF.
if ! grep -q 'queue_depth=0' <<<"$acrd_daemon"; then
    echo "FAIL: acrd exited with work still queued ($acrd_daemon)" >&2
    exit 1
fi

echo "==> cargo test (heavy-tests)"
cargo test -q --workspace --features heavy-tests

echo "CI OK"
