#!/bin/sh
# Drives tools/pairs.sh with stub "binaries" that print canned fatihbench
# result lines, and checks what it reports: each of the four verdicts is
# reached, the null runs get a verdict of their own, and a side whose runs
# fall in two states is reported as two clusters.
#
#   tools/pairs_test.sh
#
# Per seed S (1-10), the stubs print, on the parent side (a change value
# where it differs):
#
#   delivered_pps       1000 + S, on every side              held
#   cpu_us_per_pkt      10 + S/100; change 20 + S/100        worse
#   fwd_latency_us_p50  10 + 4·S; change one more: a spread wider than
#                       the bound                            unresolved
#   ctl_bytes_per_pkt   2.2 2.2 2.3 2.4 2.4 2.4 2.4 2.6 2.7 2.7, on every
#                       side: its widest gap is only as wide as the range
#                       below it, so one cluster             held
#   peak_rss_mb         10 + S/100 for S <= 4, else 20 + S/100, on every
#                       side: two clusters, 4/10 and 6/10
#   setup_s             0.002 + S/1e5; change 0.001 + S/1e5  gain
#
# The null stub prints the parent's values, so its verdict is never gain or
# worse. A second run, with STUB_STATES set, moves the change's peak_rss_mb
# to 10 + S/100 for S <= 7, else 20.5 + S/100: its states keep their names
# (low, high) but not their shares or the high state's median.
set -eu
cd "$(dirname "$0")/.."
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# stub SIDE: a script that answers `--workload W --seed S ...` as SIDE.
stub() {
    cat >"$dir/$1" <<EOF
#!/bin/sh
seed=\$4
awk -v side=$1 -v s="\$seed" -v states="\${STUB_STATES:-}" 'BEGIN {
    ch = (side == "change")
    printf "diag fwd_latency_us_p90 %g us\n", 30 + s
    printf "diag suspicions_raised 0 count\n"
    printf "delivered_pps %g 1/s\n", 1000 + s
    printf "cpu_us_per_pkt %g us\n", (ch ? 20 : 10) + s / 100
    printf "fwd_latency_us_p50 %g us\n", 10 + 4 * s + ch
    split("2.2 2.2 2.3 2.4 2.4 2.4 2.4 2.6 2.7 2.7", ctl, " ")
    printf "ctl_bytes_per_pkt %s B\n", ctl[s]
    if (states != "" && ch) rss = (s <= 7 ? 10 : 20.5)
    else rss = (s <= 4 ? 10 : 20)
    printf "peak_rss_mb %g MiB\n", rss + s / 100
    printf "setup_s %g s\n", (ch ? 0.001 : 0.002) + s / 1e5
    printf "ops_attempted 100 ops_failed 0 correct true\n"
}'
EOF
    chmod +x "$dir/$1"
}
stub parent
stub change
stub null

NULL_BIN="$dir/null" tools/pairs.sh "$dir/parent" "$dir/change" stub 10 >"$dir/out"
cat "$dir/out"

fail=0
# expect METRIC VERDICT: the change's verdict on METRIC's line.
expect() {
    got=$(awk -v m="$1" '$1 == m { for (i = 1; i <= NF; i++) if ($i == "|") break; print $(i - 1) }' "$dir/out")
    if [ "$got" != "$2" ]; then
        echo "FAIL: $1 read '$got', expected $2" >&2
        fail=1
    fi
}
expect delivered_pps held
expect cpu_us_per_pkt worse
expect fwd_latency_us_p50 unresolved
expect ctl_bytes_per_pkt held
expect setup_s gain
# Every metric's line ends with the null's verdict, never gain or worse here.
nulls=$(awk '/ null\/parent / { print $NF }' "$dir/out" | sort -u | tr '\n' ' ')
case "$nulls" in
*gain* | *worse* | "") echo "FAIL: null verdicts '$nulls'" >&2; fail=1 ;;
esac
if [ "$(grep -c ' null/parent ' "$dir/out")" -ne 6 ]; then
    echo "FAIL: not every metric has a null verdict" >&2
    fail=1
fi
# peak_rss_mb is bimodal on every side: 4 runs near 10 MiB, 6 near 20.
clusters=$(grep -c 'two clusters: 4/10 at median 10.02, 6/10 at median 20.07' "$dir/out" || true)
if [ "$clusters" -ne 3 ]; then
    echo "FAIL: $clusters sides reported as two clusters, expected 3" >&2
    fail=1
fi
# No unimodal side is split: only peak_rss_mb's three sides are.
if [ "$(grep -c 'two clusters' "$dir/out")" -ne 3 ]; then
    echo "FAIL: a unimodal side was reported as two clusters" >&2
    fail=1
fi
# The parent's gap splits every side into the same two states.
low="low  state (<= 15.045, split by parent):  parent 4/10 at 10.02"
if [ "$(grep -c "$low  change 4/10 at 10.02 (change/parent 1.000)  null 4/10 at 10.02 (null/parent 1.000)" "$dir/out")" -ne 1 ]; then
    echo "FAIL: the low state is not read alike on every side" >&2
    fail=1
fi

# The change's shares and high median move; the parent's states still name
# them.
STUB_STATES=1 tools/pairs.sh "$dir/parent" "$dir/change" stub 10 >"$dir/out"
grep 'state (' "$dir/out"
if [ "$(grep -c "$low  change 7/10 at 10.04 (change/parent 1.002)" "$dir/out")" -ne 1 ]; then
    echo "FAIL: the change's low state misread" >&2
    fail=1
fi
high="high state (>  15.045, split by parent):  parent 6/10 at 20.07  change 3/10 at 20.59 (change/parent 1.026)"
if [ "$(grep -c "$high" "$dir/out")" -ne 1 ]; then
    echo "FAIL: the change's high state misread" >&2
    fail=1
fi
if [ "$fail" -ne 0 ]; then exit 1; fi
echo "pairs_test: ok"
