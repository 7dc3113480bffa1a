#!/usr/bin/env sh
# check-all: the one-command CI matrix. Configures, builds, and ctests
# every supported build flavor via the CMake presets:
#
#   default       full RelWithDebInfo suite (run twice: once as-is,
#                 once with LSCHED_TOPOLOGY=flat forcing legacy flat
#                 placement)
#   tsan          fault, obs, pool, stream, profile, chaos, adapt,
#                 topology and reuse suites under ThreadSanitizer
#   asan          stream + chaos + reuse suites under ASan/UBSan (the
#                 lock-free admission path's reclamation story and
#                 batch group recycling)
#   notrace       full suite with tracing compiled out
#   nofailpoints  full suite with fail points compiled out
#
# Runs from anywhere inside the repo; stops at the first failure.
# Pass -j N to override the build parallelism (default: nproc).

set -eu

cd "$(dirname "$0")/.."

jobs="$( (nproc || sysctl -n hw.ncpu) 2>/dev/null || echo 4)"
while getopts "j:" opt; do
    case "$opt" in
    j) jobs="$OPTARG" ;;
    *) echo "usage: $0 [-j jobs]" >&2; exit 2 ;;
    esac
done

run() {
    echo "== $* =="
    "$@"
}

check() {
    configure="$1"
    testpreset="$2"
    run cmake --preset "$configure"
    run cmake --build --preset "$configure" -j "$jobs"
    run ctest --preset "$testpreset"
}

# The notrace preset must compile the profiling hooks out entirely:
# the scheduler's hot translation units may not reference a single
# profiler symbol (obs/profile.hh's inline hooks are empty there).
# config_keys.cc / c_api.cc / adapt.cc legitimately keep references —
# they are the cold configuration/retune surface, not the hot path
# (adapt.cc polls the profiler only at tour and epoch boundaries).
check_notrace_profiler_free() {
    dir="build-notrace/src/threads/CMakeFiles/lsched_threads.dir"
    for obj in worker_pool.cc.o execution.cc.o stream.cc.o \
               scheduler.cc.o parallel_scheduler.cc.o \
               recovery.cc.o; do
        path="$dir/$obj"
        [ -f "$path" ] || { echo "missing $path" >&2; exit 1; }
        if nm -u "$path" | grep -qi profil; then
            echo "FAIL: notrace $obj references profiler symbols:" >&2
            nm -u "$path" | grep -i profil >&2
            exit 1
        fi
    done
    echo "== notrace hot path carries no profiler symbols =="
}

check default default

# The full default suite again with topology discovery forced off:
# LSCHED_TOPOLOGY=flat must reproduce the legacy flat placement
# byte for byte on any host, whatever its sysfs exposes.
run env LSCHED_TOPOLOGY=flat ctest --preset default

check tsan tsan-fault

# The streaming suites again under ASan/UBSan: TSan proves the
# admission path race-free, this leg proves the epoch reclamation
# (retired tables, recycled groups, spare bins) never frees early
# and the lock-free pointer arithmetic stays defined.
check asan asan-stream

check notrace notrace
check_notrace_profiler_free
check nofailpoints nofailpoints

# Seeded chaos sweep under TSan (the tsan preset was built above):
# randomized fault/stall/deadline schedules through batch and
# streaming tours, wall-clock bounded per seed.
run scripts/chaos.sh -p tsan -n 20

echo "== check-all: all presets green =="
