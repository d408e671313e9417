#!/bin/sh
# Interleaved pairs of fatihbench runs: a change's binary against its
# parent's, on one workload.
#
#   tools/pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD N [FIRST_SEED]
#
# Pair i (0-based) runs seed FIRST_SEED + i (default FIRST_SEED: 1) on both
# binaries, one process at a time: even pairs run the parent first, odd pairs
# the change. Every run is `--workload WORKLOAD --seed S --seconds 12
# --trace 0`, from the repository root. Build each binary from its own
# checkout first, e.g.
#
#   CARGO_TARGET_DIR=/tmp/parent cargo build --release --offline \
#       --manifest-path benchmark/Cargo.toml
#
# For each end-to-end metric of BENCHMARK.json it prints the median and
# quartiles of each side, change/parent of the medians, the pairs the
# change won (strictly better) and a verdict, then every run's value in
# seed order; the p90 latency, failed ops, suspicions and the correctness
# verdict follow. Medians are nearest-rank and quartiles Python's exclusive
# method, as fatihbench's own suite computes them. The verdict, against the
# metric's `bound` in BENCHMARK.json, is the first of these that holds:
#
#   gain        the change won at least 9 in 10 of the pairs, and its median
#               is better than the parent's by more than the parent's
#               inter-quartile distance;
#   unresolved  either side's inter-quartile distance is wider than the
#               bound, as a share of its median, and not every change run
#               beats every parent run;
#   worse       the change's median is worse than the parent's by more than
#               the bound;
#   held        the change is inside the bound.
set -eu
if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD N [FIRST_SEED]" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 n=$4 first=${5:-1}
cd "$(dirname "$0")/.."

# "name:better:bound" for each end-to-end metric, in BENCHMARK.json order.
metrics=$(awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
    on && /"bound"/ { gsub(/[",]/, "", $2); printf "%s:%s:%s ", name, better, $2 }' BENCHMARK.json)

runs=$(mktemp)
out=$(mktemp)
trap 'rm -f "$runs" "$out"' EXIT

# run SIDE BIN SEED: one run, its figures appended to $runs as
# "side seed name value".
run() {
    status=0
    "$2" --workload "$workload" --seed "$3" --seconds 12 --trace 0 >"$out" 2>&1 || status=$?
    if [ "$status" -gt 1 ]; then
        echo "$1 seed $3 failed to run (exit $status):" >&2
        tail -3 "$out" >&2
        exit 1
    fi
    awk -v side="$1" -v seed="$3" '
        $1 == "diag" { print side, seed, $2, $3; next }
        $1 == "ops_attempted" {
            print side, seed, "ops_failed", $4
            print side, seed, "correct", ($6 == "true") ? 1 : 0
            next
        }
        NF == 3 && $2 ~ /^-?[0-9.]+(e[-+]?[0-9]+)?$/ { print side, seed, $1, $2 }' "$out" >>"$runs"
}

i=0
while [ "$i" -lt "$n" ]; do
    seed=$((first + i))
    if [ $((i % 2)) -eq 0 ]; then
        run parent "$parent" "$seed"
        run change "$change" "$seed"
    else
        run change "$change" "$seed"
        run parent "$parent" "$seed"
    fi
    i=$((i + 1))
done

awk -v list="$metrics" -v first="$first" -v n="$n" -v workload="$workload" '
    { v[$1, $2, $3] = $4 }
    # The values of `name` on one side, sorted into s[1..n].
    function values(side, name,    i, j, x) {
        for (i = 1; i <= n; i++) {
            x = v[side, first + i - 1, name]
            for (j = i - 1; j >= 1 && s[j] > x; j--) s[j + 1] = s[j]
            s[j + 1] = x
        }
    }
    function nearest(q,    r) {
        r = q * n; r = (r == int(r)) ? r : int(r) + 1
        return s[r < 1 ? 1 : r]
    }
    function quartile(i,    j, d) {
        j = int(i * (n + 1) / 4); j = (j < 1) ? 1 : (j > n - 1 ? n - 1 : j)
        d = i * (n + 1) - 4 * j
        return (s[j] * (4 - d) + s[j + 1] * d) / 4
    }
    function summary(side, name) {
        values(side, name)
        med[side] = nearest(0.5)
        iqr[side] = (n < 2) ? 0 : quartile(3) - quartile(1)
        lo[side] = s[1]; hi[side] = s[n]
        if (n < 2) return sprintf("%s %.5g", side, med[side])
        return sprintf("%s %.5g [%.5g, %.5g]", side, med[side], quartile(1), quartile(3))
    }
    # How far the change is better than the parent, in the direction of the
    # metric (negative: worse).
    function gained(better, p, c) { return (better == "lower") ? p - c : c - p }
    # An inter-quartile distance as a share of its median.
    function spread(side) {
        if (med[side] != 0) return iqr[side] / (med[side] < 0 ? -med[side] : med[side])
        return (iqr[side] == 0) ? 0 : 1e9
    }
    function verdict(better, bound, won,    apart, worse) {
        if (10 * won >= 9 * n && gained(better, med["parent"], med["change"]) > iqr["parent"])
            return "gain"
        apart = (better == "lower") ? hi["change"] < lo["parent"] : lo["change"] > hi["parent"]
        if ((spread("parent") > bound || spread("change") > bound) && !apart)
            return "unresolved"
        worse = -gained(better, med["parent"], med["change"])
        if (worse > bound * (med["parent"] < 0 ? -med["parent"] : med["parent"]))
            return "worse"
        return "held"
    }
    function row(side, name,    i, line) {
        line = sprintf("    %-6s", side)
        for (i = 0; i < n; i++) line = line sprintf(" %.5g", v[side, first + i, name])
        print line
    }
    function total(side, name,    i, t) {
        for (i = 0; i < n; i++) t += v[side, first + i, name]
        return t
    }
    END {
        printf "%s: %d pairs, seeds %d-%d\n", workload, n, first, first + n - 1
        k = split(list, specs, " ")
        for (m = 1; m <= k; m++) {
            split(specs[m], f, ":"); name = f[1]; better = f[2]; bound = f[3]
            won = 0
            for (i = 0; i < n; i++) {
                p = v["parent", first + i, name]; c = v["change", first + i, name]
                if ((better == "lower" && c < p) || (better == "higher" && c > p)) won++
            }
            a = summary("parent", name); b = summary("change", name)
            ratio = (med["parent"] != 0) ? sprintf("%.3f", med["change"] / med["parent"]) : "-"
            printf "%-20s %-6s  %s  %s  change/parent %s  won %d/%d  %s\n", name, better, a, b, ratio, won, n, verdict(better, bound, won)
            row("parent", name); row("change", name)
        }
        name = "fwd_latency_us_p90"
        printf "%-20s %-6s  %s  %s\n", name, "diag", summary("parent", name), summary("change", name)
        row("parent", name); row("change", name)
        name = "suspicions_raised"
        printf "%s\n", name
        row("parent", name); row("change", name)
        printf "ops_failed parent %d change %d; correct in parent %d/%d, change %d/%d runs\n",
            total("parent", "ops_failed"), total("change", "ops_failed"),
            total("parent", "correct"), n, total("change", "correct"), n
    }' "$runs"
