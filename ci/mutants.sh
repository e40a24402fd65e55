#!/usr/bin/env sh
# Mutation step for the invariants the build enforces by construction
# (DESIGN.md §16). Each mutant seeds one regression into a scratch copy
# of the workspace and must be rejected by the compiler or by clippy
# with the expected diagnostic; the unmutated copy must pass.
#
#   codec:  a snapshot encode fn forgets a field. Codecs destructure
#           their struct, so the field becomes an unused variable,
#           which the workspace lint table denies.
#   lanes:  a PMU counter is bumped outside the tenant lanes. Sim has
#           no global counter field, so the bump does not compile.
#   events: EventKind match arms become `_`. The trace exporters deny
#           clippy::wildcard_enum_match_arm (and, for a `_` standing
#           for one variant, clippy::match_wildcard_for_single_variants).
#
# Usage: ci/mutants.sh   (run from anywhere; needs no network)
#
# The copy lives in a temporary directory; its build output goes to
# target/ci-mutants so repeated runs build incrementally.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
export CARGO_TARGET_DIR="$root/target/ci-mutants"
export CARGO_NET_OFFLINE="${CARGO_NET_OFFLINE:-true}"

for item in Cargo.toml Cargo.lock src crates vendor; do
    cp -R "$root/$item" "$work/"
done
cd "$work"
log="$work/mutant.log"

# The same check for the clean copy and every mutant: the compiler
# plus clippy with warnings denied, on the two crates mutated below.
check() {
    cargo clippy -q -p pact-tiersim -p pact-obs -- -D warnings > "$log" 2>&1
}

fail() {
    echo "    FAIL: $*"
    cat "$log"
    exit 1
}

check || fail "the unmutated workspace copy does not pass"
echo "    unmutated copy passes cargo clippy -D warnings"

# mutant NAME FILE EXPECTED PERL-EXPR: applies PERL-EXPR to FILE,
# demands the check fail with EXPECTED in its output, then restores
# FILE.
mutant() {
    name=$1 file=$2 expected=$3 expr=$4
    cp "$file" "$work/orig.rs"
    perl -0pi -e "$expr" "$file"
    cmp -s "$file" "$work/orig.rs" && fail "mutant '$name' did not apply to $file"
    if check; then
        fail "mutant '$name' was accepted"
    fi
    grep -q "$expected" "$log" || fail "mutant '$name' was rejected without '$expected'"
    cp "$work/orig.rs" "$file"
    echo "    mutant '$name' rejected: $expected"
}

mutant codec crates/tiersim/src/tier.rs 'unused variable: `booked`' \
    's/\n\s*w\.put_u64\(\*booked\);//'
mutant lanes crates/tiersim/src/machine.rs 'no field `counters`' \
    's/(self\.procs\[proc\]\.accesses \+= 1;)/$1\n        self.counters.llc_hits += 1;/'
mutant events crates/obs/src/export.rs 'wildcard_enum_match_arm' \
    's/EventKind::OrderRetried \{ page, to, attempt \} => \{[^}]*\}\s*EventKind::AdmissionRejected \{ tenant, page, to \} => \{[^}]*\}/_ => {}/'
mutant event crates/obs/src/export.rs 'match_wildcard_for_single_variants' \
    's/EventKind::AdmissionRejected \{ tenant, page, to \} => \{[^}]*\}/_ => {}/'

echo "    all mutants rejected"
