/**
 * @file
 * The benchmark's four workloads. Each one builds its inputs from the
 * seed, then runs cycles in a closed loop for the requested seconds:
 * every cycle sets up a fresh scheduler and issues solves on it, so
 * set-ups are sampled across the whole run like the solves. Every
 * set-up's and solve's output is checked. The traced run also derives
 * the per-layer metrics.
 */

#ifndef LSCHED_PERFBENCH_WORKLOADS_HH
#define LSCHED_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    /** Where the traced run writes its spans (JSON lines). */
    std::string traceFile;
};

struct RunResult
{
    /** Wall seconds of each set-up: construction plus the cold solve. */
    std::vector<double> setupS;
    /** Wall seconds of each checked timed solve. */
    std::vector<double> solveS;
    /** Wall seconds of each checked serial solve; empty when the
     *  workload's solve is itself serial. */
    std::vector<double> serialS;
    /** Threads one solve executes. */
    std::uint64_t threadsPerSolve = 0;
    /** Computations whose output was checked, and those that failed. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Per-layer metrics measured by the traced run, by name. */
    std::map<std::string, double> layer;
    /** Workload parameters as a JSON object. */
    std::string params;
};

using WorkloadFn = void (*)(const Options &, Tracer &, RunResult &);

struct WorkloadEntry
{
    const char *name;
    WorkloadFn run;
};

/** Every workload, in BENCHMARK.json order. */
const std::vector<WorkloadEntry> &workloads();

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

} // namespace perfbench

#endif // LSCHED_PERFBENCH_WORKLOADS_HH
