#!/usr/bin/env sh
# Same-host perf gate: simbench built from the first parent HEAD^1 and
# from the working tree, run in PAIRS pairs per workload on this host,
# alternating which side runs first. Exits 1 if a run fails simbench's
# correctness checks or the change's median accesses_per_s is below
# TOLERANCE x the parent's on any workload; exits 2 without HEAD^1 (a
# shallow clone). Raw simbench output: target/ci-perf/perf.log.
#
#     sh ci/perf.sh
set -eu

cd "$(dirname "$0")/.."
root=$PWD
PAIRS=5
RUN_SECONDS=2
TOLERANCE=0.8
WORKLOADS="bc-kron-pact threads-256 fleet-admission"
OUT=target/ci-perf

base_rev=$(git rev-parse -q --verify 'HEAD^1^{commit}') || {
    echo "error: ci/perf.sh needs the first parent HEAD^1; fetch at least two commits" >&2
    exit 2
}
# The build directories stay for incremental rebuilds.
rm -rf "$OUT/base-src" "$OUT/perf.log" "$OUT/values"
mkdir -p "$OUT/base-src"
git archive "$base_rev" | tar -x -C "$OUT/base-src"
cargo build --release --offline --quiet --manifest-path "$OUT/base-src/simbench/Cargo.toml" \
    --target-dir "$OUT/base"
cargo build --release --offline --quiet --manifest-path simbench/Cargo.toml --target-dir "$OUT/head"
# simbench ignores PACT_* variables but warns about each one it sees.
unset $(env | sed -n 's/^\(PACT_[A-Z_]*\)=.*/\1/p')

# run SIDE WORKLOAD: one logged simbench run from its side's tree (so
# the fingerprint's git_rev is HEAD for head, none for base); appends
# "SIDE WORKLOAD accesses_per_s" to $OUT/values.
run() {
    dir=.
    [ "$1" = head ] || dir="$OUT/base-src"
    out=$(cd "$dir" && "$root/$OUT/$1/release/pact-simbench" --workload "$2" \
        --seconds "$RUN_SECONDS" --trace 0) || { echo "    FAIL: $1 $2 exited nonzero" && exit 1; }
    printf '%s\n' "$out" | sed "s/^/$1 $2: /" >> "$OUT/perf.log"
    last=$(printf '%s\n' "$out" | tail -n 1)
    case "$last" in
    *'"correct": true,'*'"failed": 0,'*) ;;
    *) echo "    FAIL: $1 $2: $last" && exit 1 ;;
    esac
    echo "$1 $2 $(echo "$last" | sed 's/.*"accesses_per_s": {"value": \([0-9.]*\).*/\1/')" >> "$OUT/values"
}

for wl in $WORKLOADS; do
    for i in $(seq "$PAIRS"); do
        if [ $((i % 2)) -eq 1 ]; then run base "$wl" && run head "$wl"; else run head "$wl" && run base "$wl"; fi
    done
done

echo "    base = HEAD^1 ($base_rev), head = the working tree"
grep -m 1 "^base [^ ]*: fingerprint " "$OUT/perf.log" | sed 's/^/    /'
grep -m 1 "^head [^ ]*: fingerprint " "$OUT/perf.log" | sed 's/^/    /'
sort -k1,1 -k2,2 -k3,3n "$OUT/values" | awk -v tol="$TOLERANCE" '
function q(s, w, p,   pos, lo) {
    pos = p * (n[s, w] - 1); lo = int(pos)
    return v[s, w, lo] + (v[s, w, lo + (pos > lo)] - v[s, w, lo]) * (pos - lo)
}
{ v[$1, $2, n[$1, $2]++] = $3; if (!seen[$2]++) wls[++nw] = $2 }
END {
    for (i = 1; i <= nw; i++) {
        w = wls[i]; b = q("base", w, 0.5); h = q("head", w, 0.5)
        printf "    %-16s accesses_per_s median base %.0f (IQR %.0f) head %.0f (IQR %.0f) ratio %.3f\n",
            w, b, q("base", w, 0.75) - q("base", w, 0.25), h, q("head", w, 0.75) - q("head", w, 0.25), h / b
        if (h < tol * b) { printf "    FAIL: %s is below %s x the parent\n", w, tol; bad = 1 }
    }
    exit bad
}'
