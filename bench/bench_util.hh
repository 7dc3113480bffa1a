/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries: machine
 * selection (paper scale vs proportionally scaled), and the standard
 * preamble every bench prints so outputs are self-describing.
 */

#ifndef LSCHED_BENCH_BENCH_UTIL_HH
#define LSCHED_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "machine/machine_config.hh"
#include "obs/trace.hh"
#include "perfcount/perf_counters.hh"
#include "support/cli.hh"
#include "support/failpoint.hh"
#include "support/panic.hh"
#include "support/table.hh"

namespace lsched::bench
{

/** Default cache-shrink factor for laptop-speed runs. */
constexpr unsigned kDefaultScale = 16;

/** Resolve the simulated machine from --machine / --scale / --full. */
inline machine::MachineConfig
machineFromCli(const Cli &cli)
{
    const std::string name = cli.getString("machine");
    machine::MachineConfig m;
    if (name == "r8000") {
        m = machine::powerIndigo2R8000();
    } else if (name == "r10000") {
        m = machine::indigo2ImpactR10000();
    } else {
        LSCHED_FATAL("unknown --machine '", name,
                     "' (want r8000|r10000)");
    }
    const unsigned scale =
        cli.getFlag("full") ? 1u
                            : static_cast<unsigned>(cli.getInt("scale"));
    return machine::scaled(m, scale);
}

/** Median of @p samples (0 when empty). */
inline double
medianOf(std::vector<double> samples)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const std::size_t mid = samples.size() / 2;
    return samples.size() % 2 ? samples[mid]
                              : (samples[mid - 1] + samples[mid]) / 2;
}

/** Register the options machineFromCli() consumes. */
inline void
addMachineOptions(Cli &cli, unsigned default_scale = kDefaultScale)
{
    cli.addString("machine", "r8000", "simulated machine model");
    cli.addInt("scale", default_scale,
               "cache shrink factor (power of two)");
    cli.addFlag("full", "paper-scale run (scale 1, paper problem size)");
}

/** Print the standard bench banner. */
inline void
banner(const char *table, const char *description,
       const machine::MachineConfig &m)
{
    std::printf("== %s: %s ==\n", table, description);
    std::printf("machine: %s (L2 %llu KB)\n\n", m.name.c_str(),
                static_cast<unsigned long long>(m.l2Size() / 1024));
}

/** Register the machine-readable output options emitTable() honours. */
inline void
addOutputOptions(Cli &cli)
{
    cli.addString("csv", "",
                  "also append the result table as CSV to this file");
    cli.addString("json", "",
                  "also append the result table as JSON to this file");
}

/**
 * Host metadata stamped into every BENCH_*.json so a perf trajectory
 * is interpretable across machines and build configurations: CPU
 * count, the LSCHED build flags that change what a bench measures,
 * and whether hardware profiling counters are actually usable here.
 */
inline std::string
hostMetadataJson()
{
    std::ostringstream os;
    os << "{\"cpus\":" << std::thread::hardware_concurrency()
       << ",\"trace_compiled\":" << (obs::kTraceCompiled ? 1 : 0)
       << ",\"failpoints_compiled\":"
       << (failpoint::kCompiled ? 1 : 0) << ",\"assertions\":"
#ifdef NDEBUG
       << 0
#else
       << 1
#endif
       << ",\"pmu_available\":"
       << (perfcount::countersAvailable() ? 1 : 0) << "}";
    return os.str();
}

/**
 * Print @p table and, when --csv / --json were given, append the
 * matching rendering to those files (creating them if needed). JSON
 * output is one table object per line (JSON lines), each stamped with
 * a "host" object (hostMetadataJson) ahead of the table fields.
 */
inline void
emitTable(const Cli &cli, const TextTable &table)
{
    std::fputs(table.toText().c_str(), stdout);
    auto append = [&](const char *opt, const std::string &body) {
        const std::string &path = cli.getString(opt);
        if (path.empty())
            return;
        std::FILE *f = std::fopen(path.c_str(), "a");
        if (!f)
            LSCHED_FATAL("cannot open --", opt, " output file '", path,
                         "'");
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
        std::printf("(%s appended to %s)\n", opt, path.c_str());
    };
    append("csv", table.toCsv());
    std::string json = table.toJson();
    if (!json.empty() && json.front() == '{')
        json.insert(1, "\"host\":" + hostMetadataJson() + ",");
    append("json", json + "\n");
}

} // namespace lsched::bench

#endif // LSCHED_BENCH_BENCH_UTIL_HH
