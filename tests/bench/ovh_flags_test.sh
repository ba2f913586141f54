#!/bin/sh
# The google-benchmark binaries (ovh_*) let benchmark::Initialize strip
# the --benchmark_* flags it parsed and then reject everything left
# through cliCheckFlags: a typo, a misspelled --benchmark_* flag, or a
# value the library could not parse exits 1 with the usage listing
# instead of being ignored, while well-formed --benchmark_* flags keep
# working.
#
#   sh tests/bench/ovh_flags_test.sh BUILD_DIR/bench
set -u
bench_dir="$1"
out="$(mktemp)"
trap 'rm -f "${out}"' EXIT
fail=0

# Runs "$@" and expects exit 1, the usage listing of binary $1 and
# "unknown flag '$2'" (the first argument the binary saw undeclared).
expect_rejected() {
    b="$1"
    named="$2"
    shift 2
    "${bench_dir}/${b}" "$@" >"${out}" 2>&1
    status=$?
    if [ "${status}" -ne 1 ]; then
        echo "FAIL: ${b} $* exited ${status}, want 1"
        fail=1
    fi
    if ! grep -q "^usage: ${b} " "${out}" ||
        ! grep -q "unknown flag '${named}'" "${out}"; then
        echo "FAIL: ${b} $* output lacks the usage listing or does" \
             "not name ${named}:"
        cat "${out}"
        fail=1
    fi
}

for b in ovh_memsample ovh_hotpath ovh_overhead; do
    # A parsed --benchmark_* flag beside the typo: only the typo is
    # named, so the library consumed the flag before the check.
    expect_rejected "${b}" --bogus --benchmark_min_time=0.1 --bogus
    # google-benchmark 1.7.1 reads --benchmark_min_time only as a plain
    # number: "0.1s" stays in argv and is fatal, not a warning.
    expect_rejected "${b}" --benchmark_min_time=0.1s \
        --benchmark_min_time=0.1s
    expect_rejected "${b}" --benchmark_colour=no --benchmark_colour=no
done

# A full run with --benchmark_* flags still works. ovh_memsample
# needs no trained models; the filter skips the timed loops and the
# MEMSAMPLE_* summary always prints.
if ! "${bench_dir}/ovh_memsample" --benchmark_filter=none \
        --benchmark_min_time=0.1 >"${out}" 2>&1 ||
    ! grep -q "^MEMSAMPLE_FLEET_WALK_NS_PER_SAMPLE " "${out}"; then
    echo "FAIL: ovh_memsample --benchmark_filter=none" \
         "--benchmark_min_time=0.1 did not run:"
    cat "${out}"
    fail=1
fi
exit "${fail}"
