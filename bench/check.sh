#!/usr/bin/env bash
# What CI would run for the benchmark package (this PR may not edit
# .github/): format, lints, unit tests, then three ops of every workload,
# untraced and traced, so that every output check runs. The smoke's
# numbers are not for quoting. Run from the repository root.
set -euo pipefail
manifest=bench/Cargo.toml
cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest"
cargo run --release --offline --manifest-path "$manifest" -- run --ops 3
cargo run --release --offline --manifest-path "$manifest" -- run --ops 3 --trace 1
