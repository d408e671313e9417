#!/bin/sh
# The line ledger ROADMAP's gates are stated in: per file, the lines before
# the first `#[cfg(test)]` (a file without one counts whole), summed over
# the protocol crates and over the workspace. Informational: CI prints it
# and a simplicity PR quotes it in CHANGES.md.
#
#   tools/loc.sh             the protocol crates per file, and both totals
#   tools/loc.sh FILE...     the given files and their total
set -eu
cd "$(dirname "$0")/.."

# count LABEL FILE...
count() {
    label=$1
    shift
    awk -v label="$label" '
        FNR == 1 { if (file) printf "%6d  %s\n", n, file
                   file = FILENAME; n = 0; counting = 1 }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++; total++ }
        END { printf "%6d  %s\n%6d  %s\n", n, file, total, label }' "$@"
}

if [ $# -gt 0 ]; then
    count total "$@"
    exit
fi
count 'crates/{net,core,topology}/src' \
    crates/net/src/*.rs crates/core/src/*.rs crates/topology/src/*.rs
count 'crates/*/src + bench bins' crates/*/src/*.rs crates/bench/src/bin/*.rs | tail -1
