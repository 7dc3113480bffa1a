/**
 * @file
 * lsched benchmark: runs one seeded workload for a fixed time and
 * prints its metrics as one JSON object on the last line of stdout.
 * Untraced runs (--trace 0) report the end-to-end metrics; traced runs
 * (--trace 1) report the per-layer metrics and write their spans.
 * See README.md in this directory.
 */

#include <sys/personality.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "bench/bench_util.hh"
#include "machine/topology.hh"
#include "spans.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

constexpr int kTopologyRepeats = 5;

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Per-layer metrics; a traced run prints all of them, 0 where the
 *  layer does not run in its workload. */
const MetricDef kLayerMetrics[] = {
    {"threads.fork_ns", "ns"},
    {"threads.run_ns", "ns"},
    {"threads.run_parallel_s", "s"},
    {"threads.pool_efficiency", "ratio"},
    {"threads.pool.steals", "count"},
    {"threads.pool.parks", "count"},
    {"threads.pool.spawned", "count"},
    {"threads.bins", "count"},
    {"threads.max_hash_chain", "count"},
    {"threads.threads_per_bin", "count"},
    {"threads.stream.fork_ns_p50", "ns"},
    {"threads.stream.fork_ns_p99", "ns"},
    {"threads.stream.end_s", "s"},
    {"threads.stream.seals", "count"},
    {"threads.stream.backpressure_waits", "count"},
    {"threads.stream.inline_drains", "count"},
    {"threads.stream.peak_backlog", "count"},
    {"threads.stream.producer_efficiency", "ratio"},
    {"threads.construct_s", "s"},
    {"threads.first_tour_s", "s"},
    {"machine.topology_s", "s"},
    {"workloads.transpose_s", "s"},
    {"workloads.untiled_s", "s"},
    {"workloads.tiled_s", "s"},
    {"workloads.locality_speedup", "ratio"},
    {"cachesim.refs", "count"},
    {"cachesim.refs_per_s", "1/s"},
    {"cachesim.l1_misses", "count"},
    {"cachesim.l2_misses", "count"},
    {"cachesim.l2_compulsory", "count"},
    {"cachesim.l2_capacity", "count"},
    {"cachesim.l2_conflict", "count"},
    {"cachesim.l2_misses_unthreaded", "count"},
    {"bench.self_s", "s"},
    {"threads.self_s", "s"},
    {"workloads.self_s", "s"},
    {"harness.self_s", "s"},
    {"bench.span_accounting", "ratio"},
    {"bench.trace_overhead", "ratio"},
};

/**
 * The cache simulator sees real virtual addresses, so sim-nbody's miss
 * counts repeat from run to run only when the address-space layout
 * does. Re-execute once with address-space randomization off; when
 * that is refused, carry on with the randomized layout (the metadata
 * records which one ran).
 */
void
fixAddressLayout(char **argv)
{
    const int current = personality(0xffffffff);
    if (current == -1 || (current & ADDR_NO_RANDOMIZE))
        return;
    if (personality(static_cast<unsigned long>(current) |
                    ADDR_NO_RANDOMIZE) == -1)
        return;
    execv("/proc/self/exe", argv);
    personality(static_cast<unsigned long>(current));
}

bool
layoutFixed()
{
    const int current = personality(0xffffffff);
    return current != -1 && (current & ADDR_NO_RANDOMIZE);
}

void
usage(std::FILE *to)
{
    std::fprintf(to,
                 "usage: lsched_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-file PATH]\n"
                 "workloads:");
    for (const WorkloadEntry &w : workloads())
        std::fprintf(to, " %s", w.name);
    std::fprintf(to, "\n");
}

[[noreturn]] void
badUsage(const std::string &why)
{
    std::fprintf(stderr, "lsched_perfbench: %s\n", why.c_str());
    usage(stderr);
    std::exit(2);
}

bool
parseUnsigned(const char *text, std::uint64_t *out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || end == text || *end != '\0' || text[0] == '-')
        return false;
    *out = v;
    return true;
}

Options
parse(int argc, char **argv)
{
    Options opt;
    std::set<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            usage(stdout);
            std::exit(0);
        }
        if (i + 1 >= argc)
            badUsage("missing value for " + flag);
        const char *value = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, &opt.seed))
                badUsage("--seed wants a non-negative integer");
        } else if (flag == "--seconds") {
            if (!parseUnsigned(value, &n) || n < 1 || n > 600)
                badUsage("--seconds wants an integer in 1..600");
            opt.seconds = static_cast<double>(n);
        } else if (flag == "--trace") {
            if (!parseUnsigned(value, &n) || n > 1)
                badUsage("--trace wants 0 or 1");
            opt.trace = n == 1;
        } else if (flag == "--trace-file") {
            opt.traceFile = value;
        } else {
            badUsage("unknown flag " + flag);
        }
        if (!seen.insert(flag).second)
            badUsage("repeated flag " + flag);
    }
    for (const char *required : {"--workload", "--seed", "--seconds",
                                 "--trace"})
        if (!seen.count(required))
            badUsage(std::string("missing ") + required);
    return opt;
}

/**
 * Peak resident set of this process image, in MiB. VmHWM rather than
 * getrusage: ru_maxrss also counts what the parent held when it forked
 * this process, which would dominate the smaller workloads.
 */
double
peakRssMiB()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    std::fclose(f);
    return kib / 1024.0;
}

/**
 * Self time per layer over the traced solves, and span accounting: the
 * share of the solves' wall time (their root spans) that layer spans
 * on the caller's lane cover.
 */
void
spanMetrics(const Tracer &tracer, RunResult &r)
{
    const std::vector<Span> &spans = tracer.spans();
    const std::vector<std::int64_t> self = tracer.selfTimes();
    std::int64_t wall = 0;
    std::int64_t covered = 0;
    std::size_t solves = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].solve != 0 && spans[i].parent == kNoSpan) {
            ++solves;
            wall += spans[i].busy;
            covered += spans[i].busy - self[i];
        }
    }
    for (const auto &[layer, ns] : selfTimeByLayer(tracer))
        r.layer[layer + ".self_s"] =
            solves > 0 ? static_cast<double>(ns) * 1e-9 /
                             static_cast<double>(solves)
                       : 0;
    r.layer["bench.span_accounting"] =
        wall > 0 ? static_cast<double>(covered) / static_cast<double>(wall)
                 : 0;
}

void
printMetric(std::string &out, const char *name, double value,
            const char *unit)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.empty() ? "" : ", ", name, value, unit);
    out += buf;
    std::fprintf(stderr, "  %-40s %.6g %s\n", name, value, unit);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    fixAddressLayout(argv);
    laneId(); // the driving thread is lane 0
    WorkloadFn run = nullptr;
    for (const WorkloadEntry &w : workloads())
        if (opt.workload == w.name)
            run = w.run;
    if (!run)
        badUsage("unknown workload '" + opt.workload + "'");

    Tracer tracer(opt.trace);
    RunResult r;

    // Host cache sizes for the metadata; timed as machine.topology_s.
    lsched::machine::CacheTopology topo;
    bool topoOk = false;
    std::vector<double> topoS;
    for (int i = 0; i < kTopologyRepeats; ++i) {
        const std::int64_t t0 = nowNs();
        Scope s(tracer, "machine.fromSysfs");
        topoOk = lsched::machine::CacheTopology::fromSysfs(
            "/sys/devices/system/cpu", &topo);
        topoS.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }

    run(opt, tracer, r);

    std::printf("{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"build_type\": \"%s\", "
                "\"aslr_off\": %s, \"host\": %s, \"sysfs_topology\": %s, "
                "\"cpus\": %u, \"l2_bytes\": %llu, \"l3_bytes\": %llu, "
                "\"params\": %s, \"setups\": %zu, \"solves\": %zu, "
                "\"serial_solves\": %zu}}\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
                layoutFixed() ? "true" : "false",
                lsched::bench::hostMetadataJson().c_str(),
                topoOk ? "true" : "false", topoOk ? topo.cpus() : 0u,
                static_cast<unsigned long long>(topoOk ? topo.l2Bytes() : 0),
                static_cast<unsigned long long>(topoOk ? topo.l3Bytes() : 0),
                r.params.c_str(), r.setupS.size(), r.solveS.size(),
                r.serialS.size());

    std::fprintf(stderr, "perfbench: %s seed %llu%s\n",
                 opt.workload.c_str(),
                 static_cast<unsigned long long>(opt.seed),
                 opt.trace ? " (traced)" : "");
    std::string metrics;
    if (opt.trace) {
        r.layer["machine.topology_s"] = median(topoS);
        spanMetrics(tracer, r);
        for (const MetricDef &m : kLayerMetrics) {
            const auto it = r.layer.find(m.name);
            printMetric(metrics, m.name, it == r.layer.end() ? 0 : it->second,
                        m.unit);
        }
        if (!opt.traceFile.empty() &&
            !tracer.writeJsonLines(opt.traceFile)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opt.traceFile.c_str());
            return 1;
        }
    } else {
        const double solve = median(r.solveS);
        printMetric(metrics, "setup_s", median(r.setupS), "s");
        printMetric(metrics, "solve_s", solve, "s");
        printMetric(metrics, "serial_solve_s",
                    median(r.serialS.empty() ? r.solveS : r.serialS), "s");
        printMetric(metrics, "threads_per_s",
                    solve > 0 ? static_cast<double>(r.threadsPerSolve) / solve
                              : 0,
                    "1/s");
        printMetric(metrics, "peak_rss_mib", peakRssMiB(), "MiB");
    }
    const bool correct = r.failed == 0 && r.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), metrics.c_str());
    return 0;
}
