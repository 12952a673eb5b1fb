#!/usr/bin/env bash
# Build and run the benchmark. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload <load|sweep|stream|sim> --seed <n> \
#       --seconds <s> --trace <0|1>
#
# Every function starts on a 64-byte boundary. Without this, the order in
# which functions are laid out follows symbol hashes derived from the
# checkout's path, so two builds of the same source in two directories
# placed hot loops differently and ran them at different speeds (see
# README.md, "Noise"). Aligned, a function's code sits the same way
# relative to cache lines in every build. Paths are remapped so that the
# paths compiled into the program do not depend on where the checkout
# lies.
set -euo pipefail
export RUSTFLAGS="${RUSTFLAGS:-} -C llvm-args=-align-all-functions=6 --remap-path-prefix=$PWD=/checkout"
exec cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- "$@"
