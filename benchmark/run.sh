#!/usr/bin/env bash
# Builds the benchmark in release mode (offline) and runs it.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1 | --traced]
#                    [--runs N] [--out FILE] [--bless]
#   benchmark/run.sh compare A.json B.json
#
# With --workload the run happens in this process and the last stdout line is
# the result object the driver reads; without it every workload runs, one
# process each.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory, which is
# also where cargo runs, so the binary is looked up through the same path.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/noc-benchmark" --dir "$here" "$@"
