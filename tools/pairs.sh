#!/bin/sh
# Interleaved pairs of fatihbench runs: a change's binary against its
# parent's, on one workload, and optionally a null binary beside them.
#
#   [NULL_BIN=NULL_BIN] tools/pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD N [FIRST_SEED]
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
# Null pairs. NULL_BIN, when set, is the parent built again with an inert
# code edit in each crate the change touches (an unused `#[inline(never)]
# pub fn`, say; a comment moves no code generation). Each pair then also
# runs it on the same seed, last in even pairs and first in odd ones, and
# every metric's line ends with the null's verdict against the parent by
# the same rule: what the instrument reads when only the code layout moved.
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
#
# Two clusters. A side whose sorted runs split at a gap wider than the
# range of the runs below it and the range of the runs above it, with at
# least 3 runs on each side of the gap, is bimodal: one median describes
# neither state. Below its runs a line names both clusters, each with its
# share of the runs and its median (the widest such gap, if several). The
# first bimodal side's gap, at its midpoint, then splits every side's runs
# into a low state (at or below it) and a high state: one line a state gives each side's share of
# the runs in it and their median, and each other side's median against the
# parent's in that state. A must-not-move reading compares like with like:
# the medians of one state, and whether the shares moved.
set -eu
if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: [NULL_BIN=BIN] $0 PARENT_BIN CHANGE_BIN WORKLOAD N [FIRST_SEED]" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 n=$4 first=${5:-1} null=${NULL_BIN:-}
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
        if [ -n "$null" ]; then run null "$null" "$seed"; fi
    else
        if [ -n "$null" ]; then run null "$null" "$seed"; fi
        run change "$change" "$seed"
        run parent "$parent" "$seed"
    fi
    i=$((i + 1))
done

awk -v list="$metrics" -v first="$first" -v n="$n" -v workload="$workload" -v null="$null" '
    { v[$1, $2, $3] = $4 }
    # The values of `name` on one side, sorted into s[1..n].
    function values(side, name,    i, j, x) {
        for (i = 1; i <= n; i++) {
            x = v[side, first + i - 1, name]
            for (j = i - 1; j >= 1 && s[j] > x; j--) s[j + 1] = s[j]
            s[j + 1] = x
        }
    }
    # The nearest-rank q-quantile of s[lo..hi].
    function nearest_in(q, lo, hi,    r) {
        r = q * (hi - lo + 1); r = (r == int(r)) ? r : int(r) + 1
        return s[lo - 1 + (r < 1 ? 1 : r)]
    }
    function nearest(q) { return nearest_in(q, 1, n) }
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
    # Two clusters of one side, or "": the widest gap between neighbouring
    # sorted runs that is wider than the range below it and the range above
    # it, with at least 3 runs on each side. A gap as wide as a range, to
    # rounding, is not wider: printed values step by their last digit.
    # Sets split_at to the middle of the gap.
    function clusters(side, name,    k, gap, best, at, eps) {
        values(side, name)
        best = 0
        eps = 1e-9 * ((s[1] < 0 ? -s[1] : s[1]) + (s[n] < 0 ? -s[n] : s[n]))
        for (k = 3; k <= n - 3; k++) {
            gap = s[k + 1] - s[k]
            if (gap > s[k] - s[1] + eps && gap > s[n] - s[k + 1] + eps && gap > best) { best = gap; at = k }
        }
        if (best == 0) return ""
        split_at = (s[at] + s[at + 1]) / 2
        return sprintf("    %-6s two clusters: %d/%d at median %.5g, %d/%d at median %.5g",
            side, at, n, nearest_in(0.5, 1, at), n - at, n, nearest_in(0.5, at + 1, n))
    }
    # How far `b` is better than `a`, in the direction of the metric
    # (negative: worse).
    function gained(better, a, b) { return (better == "lower") ? a - b : b - a }
    # An inter-quartile distance as a share of its median.
    function spread(side) {
        if (med[side] != 0) return iqr[side] / (med[side] < 0 ? -med[side] : med[side])
        return (iqr[side] == 0) ? 0 : 1e9
    }
    # The pairs in which side `b` beat the parent.
    function won_by(b, name, better,    i, p, c, won) {
        for (i = 0; i < n; i++) {
            p = v["parent", first + i, name]; c = v[b, first + i, name]
            if ((better == "lower" && c < p) || (better == "higher" && c > p)) won++
        }
        return won + 0
    }
    # The verdict of side `b` against the parent; summary() has run for both.
    function verdict(b, better, bound, won,    apart, worse) {
        if (10 * won >= 9 * n && gained(better, med["parent"], med[b]) > iqr["parent"])
            return "gain"
        apart = (better == "lower") ? hi[b] < lo["parent"] : lo[b] > hi["parent"]
        if ((spread("parent") > bound || spread(b) > bound) && !apart)
            return "unresolved"
        worse = -gained(better, med["parent"], med[b])
        if (worse > bound * (med["parent"] < 0 ? -med["parent"] : med["parent"]))
            return "worse"
        return "held"
    }
    function ratio(b) {
        return (med["parent"] != 0) ? sprintf("%.3f", med[b] / med["parent"]) : "-"
    }
    function row(side, name,    i, line) {
        line = sprintf("    %-6s", side)
        for (i = 0; i < n; i++) line = line sprintf(" %.5g", v[side, first + i, name])
        print line
    }
    # The runs of `side` at or below `at` (`low`) or above it, sorted
    # into s[1..m]; returns m.
    function state(side, name, at, low,    i, j, x, m) {
        for (i = 1; i <= n; i++) {
            x = v[side, first + i - 1, name]
            if (low ? x > at : x <= at) continue
            for (j = m; j >= 1 && s[j] > x; j--) s[j + 1] = s[j]
            s[j + 1] = x
            m++
        }
        return m + 0
    }
    # One line per state of `name`, split at `at` (by the gap of side
    # `by`): for each side, the share of the runs in the state and their
    # median, against the median of the parent in it.
    function states(name, at, by,    k, low, m, med_s, parent_med, line) {
        for (low = 1; low >= 0; low--) {
            line = sprintf("    %s state (%s %.5g, split by %s):", low ? "low " : "high", low ? "<=" : "> ", at, by)
            parent_med = ""
            for (k = 1; k <= nsides; k++) {
                m = state(sides[k], name, at, low)
                line = line sprintf("  %s %d/%d", sides[k], m, n)
                if (m == 0) continue
                med_s = nearest_in(0.5, 1, m)
                line = line sprintf(" at %.5g", med_s)
                if (k == 1) parent_med = med_s
                else if (parent_med != "" && parent_med != 0) line = line sprintf(" (%s/parent %.3f)", sides[k], med_s / parent_med)
            }
            print line
        }
    }
    # The side rows of `name`, each followed by its clusters if it has two,
    # then the states of the first side that has.
    function rows(name,    k, c, by, at) {
        by = ""
        for (k = 1; k <= nsides; k++) {
            row(sides[k], name)
            c = clusters(sides[k], name)
            if (c == "") continue
            print c
            if (by == "") { by = sides[k]; at = split_at }
        }
        if (by != "") states(name, at, by)
    }
    function total(side, name,    i, t) {
        for (i = 0; i < n; i++) t += v[side, first + i, name]
        return t
    }
    END {
        nsides = split(null == "" ? "parent change" : "parent change null", sides, " ")
        printf "%s: %d pairs, seeds %d-%d%s\n", workload, n, first, first + n - 1,
            (null == "") ? "" : ", with null runs"
        k = split(list, specs, " ")
        for (m = 1; m <= k; m++) {
            split(specs[m], f, ":"); name = f[1]; better = f[2]; bound = f[3]
            won = won_by("change", name, better)
            a = summary("parent", name); b = summary("change", name)
            line = sprintf("%-20s %-6s  %s  %s  change/parent %s  won %d/%d  %s", name, better, a, b, ratio("change"), won, n, verdict("change", better, bound, won))
            if (null != "") {
                won = won_by("null", name, better)
                summary("null", name)
                line = line sprintf("  | null/parent %s  won %d/%d  %s", ratio("null"), won, n, verdict("null", better, bound, won))
            }
            print line
            rows(name)
        }
        name = "fwd_latency_us_p90"
        printf "%-20s %-6s  %s  %s\n", name, "diag", summary("parent", name), summary("change", name)
        rows(name)
        name = "suspicions_raised"
        printf "%s\n", name
        rows(name)
        line = sprintf("ops_failed parent %d change %d", total("parent", "ops_failed"), total("change", "ops_failed"))
        if (null != "") line = line sprintf(" null %d", total("null", "ops_failed"))
        line = line sprintf("; correct in parent %d/%d, change %d/%d", total("parent", "correct"), n, total("change", "correct"), n)
        if (null != "") line = line sprintf(", null %d/%d", total("null", "correct"), n)
        printf "%s runs\n", line
    }' "$runs"
