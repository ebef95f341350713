#!/usr/bin/env bash
# Format, lint, unit-test and smoke-run the benchmark package. Run from
# anywhere; everything stays offline and inside benchmark/.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=(--manifest-path benchmark/Cargo.toml)
cargo fmt "${manifest[@]}" --check
cargo clippy "${manifest[@]}" --offline --all-targets -- -D warnings
cargo test "${manifest[@]}" --offline --release
cargo run "${manifest[@]}" --offline --release --quiet -- --smoke
