#!/bin/sh
# The line ledger ROADMAP's gates are stated in: per file, the lines before
# the test module — the first `#[cfg(test)]` or `#[cfg(all(test, …))]` that
# a `mod` follows (not `any(test, …)`, which builds outside tests too); one
# that gates an import or a helper counts like any line, and a file without
# a test module counts whole — summed over the protocol crates and over the
# workspace. Informational: CI prints it and a simplicity PR quotes it in
# CHANGES.md.
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
                   file = FILENAME; n = 0; counting = 1; held = 0 }
        counting && held {
            held = 0
            if ($0 ~ /^[ \t]*(pub(\([a-z]+\))? +)?mod[ \t]/) counting = 0
            else { n++; total++ }
        }
        counting && /#\[cfg\((test|all\(test,[^]]*)\)\]/ { held = 1; next }
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
