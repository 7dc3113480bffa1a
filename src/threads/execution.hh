/**
 * @file
 * Execution backend selection: *how* an ordered bin tour is run.
 *
 * Complementing the placement layer (placement.hh — where a fork
 * goes), SchedulerConfig::backend picks who walks a tour the scheduler
 * has already ordered. Every bin runs exactly once, through the one
 * executeBin() routine (bin_exec.hh), whichever backend is selected:
 *
 *  - Serial — the caller walks the tour in order (executeTour(), the
 *    body of run()'s ordered branch); runParallel() falls back to it.
 *  - Pooled — the persistent work-stealing pool (worker_pool.hh):
 *    workers parked between tours, occupancy-weighted contiguous
 *    partition, tail stealing. runParallel() hands it a PoolJob.
 *
 * This header also carries the --placement/--backend/--sched CLI
 * overrides that every scheduler replays at configuration time.
 */

#ifndef LSCHED_THREADS_EXECUTION_HH
#define LSCHED_THREADS_EXECUTION_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lsched::threads
{

/** Selectable execution backends (SchedulerConfig::backend). */
enum class BackendKind : std::uint8_t
{
    /** The caller walks the tour alone (no helper threads). */
    Serial,
    /** Persistent work-stealing worker pool (the default). */
    Pooled,
};

/** Printable name of a backend ("serial", "pooled"). */
const char *backendName(BackendKind kind);

/** Parse a backend name; false (and *out untouched) when unknown. */
bool tryBackendFromName(const std::string &name, BackendKind *out);

/** Parse a backend name; fatal on an unknown one (CLI path). */
BackendKind backendFromName(const std::string &name);

namespace detail
{

/**
 * CLI overrides installed by --placement/--backend/--sched
 * (support/cli.hh's sched hook, registered from execution.cc's static
 * initializer). An ordered list of config (key, value) pairs — the
 * dedicated flags become their "placement"/"backend" keys, --sched
 * pairs follow in the order given, later entries winning — already
 * validated against applyConfigKey() at parse time. SchedulerConfig
 * validation replays the list onto every scheduler configured
 * afterwards; empty when no flag was given.
 */
const std::vector<std::pair<std::string, std::string>> &schedOverrides();

} // namespace detail

} // namespace lsched::threads

#endif // LSCHED_THREADS_EXECUTION_HH
