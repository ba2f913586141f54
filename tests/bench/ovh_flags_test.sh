#!/bin/sh
# The google-benchmark binaries (ovh_*) let benchmark::Initialize strip
# its --benchmark_* flags and then reject every other undeclared flag
# through cliCheckFlags: a typo exits 1 with the usage listing instead
# of being ignored, while --benchmark_* flags keep working.
#
#   sh tests/bench/ovh_flags_test.sh BUILD_DIR/bench
set -u
bench_dir="$1"
out="$(mktemp)"
trap 'rm -f "${out}"' EXIT
fail=0

for b in ovh_memsample ovh_hotpath ovh_overhead; do
    # A --benchmark_* flag beside the typo: only the typo is named.
    "${bench_dir}/${b}" --benchmark_min_time=0.1s --bogus >"${out}" 2>&1
    status=$?
    if [ "${status}" -ne 1 ]; then
        echo "FAIL: ${b} --bogus exited ${status}, want 1"
        fail=1
    fi
    # The first undeclared argument is the one named, so naming
    # --bogus shows the --benchmark_* flag before it passed.
    if ! grep -q "^usage: ${b} " "${out}" ||
        ! grep -q "unknown flag '--bogus'" "${out}"; then
        echo "FAIL: ${b} --bogus output lacks the usage listing or" \
             "does not name --bogus:"
        cat "${out}"
        fail=1
    fi
done

# A full run with --benchmark_* flags still works. ovh_memsample
# needs no trained models; the filter skips the timed loops and the
# MEMSAMPLE_* summary always prints.
if ! "${bench_dir}/ovh_memsample" --benchmark_filter=none \
        --benchmark_min_time=0.1s >"${out}" 2>&1 ||
    ! grep -q "^MEMSAMPLE_FLEET_WALK_NS_PER_SAMPLE " "${out}"; then
    echo "FAIL: ovh_memsample --benchmark_filter=none" \
         "--benchmark_min_time=0.1s did not run:"
    cat "${out}"
    fail=1
fi
exit "${fail}"
