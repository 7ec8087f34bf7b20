#!/usr/bin/env bash
# Everything that must hold before a change to the benchmark is pushed:
# format, lints, unit tests, a valid BENCHMARK.json, and a quick run of every
# workload in both modes (which exits non-zero on any failed operation).
# Run from anywhere; CI wiring is a later, non-benchmark change.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml

cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --manifest-path "$manifest" --offline --all-targets -- -D warnings
# --release: the tests drive the real IOR shape, and share the build below.
cargo test --manifest-path "$manifest" --offline --release
cargo run --manifest-path "$manifest" --offline --release --quiet -- --validate BENCHMARK.json
cargo run --manifest-path "$manifest" --offline --release --quiet -- --quick
echo "benchmark/check.sh: all checks passed"
