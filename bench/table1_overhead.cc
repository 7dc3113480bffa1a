/**
 * @file
 * Table 1 reproduction: thread overhead in microseconds.
 *
 * The paper forks 1,048,576 null threads evenly distributed across the
 * scheduling plane, then runs them, and reports the per-thread fork
 * cost, run cost, and total, next to the cost of an L2 cache miss.
 * We measure the same loop on the host and report the modeled L2-miss
 * costs of both paper machines for the comparison row.
 *
 * The host cost is reported twice, because a scheduler's first tour
 * and its later ones do not cost the same:
 *
 *   cold — a fresh scheduler's first fork+run: every thread group is
 *          carved from a slab that was zero-filled just before use;
 *   warm — the median over tours reused on one scheduler: groups come
 *          off the free list, last touched a whole tour earlier.
 *
 * Warm is what a program that forks and runs in a loop pays. Threads
 * are hinted over the 16x16 block grid in a seeded shuffled order, so
 * consecutive forks land in unrelated bins as the paper's even spread
 * implies.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"
#include "harness/report.hh"
#include "machine/machine_config.hh"
#include "support/cli.hh"
#include "support/prng.hh"
#include "support/table.hh"
#include "support/timer.hh"
#include "threads/scheduler.hh"

namespace
{

void
nullThread(void *, void *)
{
}

/** Fork and run seconds of one tour. */
struct TourCost
{
    double forkS = 0;
    double runS = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace lsched;

    Cli cli("table1_overhead", "Table 1: thread overhead");
    cli.addInt("threads", 1 << 20, "null threads per tour", 1);
    cli.addInt("repeats", 3,
               "fresh schedulers; each gives one cold tour and "
               "5 warm ones",
               1);
    cli.addString("json", "", "also write the table as JSON here");
    cli.parse(argc, argv);

    const auto n = static_cast<std::uint64_t>(cli.getInt("threads"));
    const int repeats = static_cast<int>(cli.getInt("repeats"));
    constexpr int kWarmTours = 5;

    threads::SchedulerConfig cfg;
    cfg.dims = 2;
    cfg.cacheBytes = 2 * 1024 * 1024;
    cfg.blockBytes = cfg.cacheBytes / 2;

    // Even distribution across a 16x16 block grid, as in the paper's
    // micro-benchmark setup: each cell gets n/256 threads (±1), in a
    // shuffled order.
    constexpr unsigned kGrid = 16;
    std::vector<std::uint8_t> cells(n);
    for (std::uint64_t i = 0; i < n; ++i)
        cells[i] = static_cast<std::uint8_t>(i % (kGrid * kGrid));
    Prng rng(1);
    for (std::uint64_t i = n; i > 1; --i)
        std::swap(cells[i - 1], cells[rng.nextBelow(i)]);

    const auto tour = [&](threads::LocalityScheduler &sched) {
        CpuTimer fork_timer;
        for (const std::uint8_t cell : cells) {
            sched.fork(&nullThread, nullptr, nullptr,
                       (cell % kGrid) * cfg.blockBytes,
                       (cell / kGrid) * cfg.blockBytes);
        }
        TourCost cost;
        cost.forkS = fork_timer.seconds();
        CpuTimer run_timer;
        const std::uint64_t ran = sched.run(false);
        cost.runS = run_timer.seconds();
        if (ran != n)
            LSCHED_FATAL("tour ran ", ran, " of ", n, " threads");
        return cost;
    };

    std::printf("== Table 1: thread overhead (microseconds) ==\n");
    std::printf("forking %llu null threads evenly over the plane, "
                "shuffled; cold = median of %d fresh schedulers' first "
                "tour, warm = median of %d reused tours\n\n",
                static_cast<unsigned long long>(n), repeats,
                repeats * kWarmTours);

    std::vector<double> coldFork, coldRun, warmFork, warmRun;
    for (int rep = 0; rep < repeats; ++rep) {
        threads::LocalityScheduler sched(cfg);
        const TourCost cold = tour(sched);
        coldFork.push_back(cold.forkS);
        coldRun.push_back(cold.runS);
        for (int t = 0; t < kWarmTours; ++t) {
            const TourCost warm = tour(sched);
            warmFork.push_back(warm.forkS);
            warmRun.push_back(warm.runS);
        }
    }

    const double perThreadUs = 1e6 / static_cast<double>(n);
    const auto r8k = machine::powerIndigo2R8000();
    const auto r10k = machine::indigo2ImpactR10000();

    TextTable table("", {"", "fork", "run", "total", "L2 miss",
                         "Forks/sec (M)"});
    const auto hostRow = [&](const char *name,
                             const std::vector<double> &fork,
                             const std::vector<double> &run) {
        const double fork_s = bench::medianOf(fork);
        const double run_s = bench::medianOf(run);
        table.addRow(
            {name, TextTable::num(fork_s * perThreadUs, 3),
             TextTable::num(run_s * perThreadUs, 3),
             TextTable::num((fork_s + run_s) * perThreadUs, 3), "-",
             TextTable::num(static_cast<double>(n) / fork_s / 1e6, 2)});
        return (fork_s + run_s) / fork_s;
    };
    const double coldRatio = hostRow("host cold", coldFork, coldRun);
    const double warmRatio = hostRow("host warm", warmFork, warmRun);
    table.addRule();
    table.addRow({"R8000 (paper)", "1.38", "0.22", "1.60",
                  TextTable::num(r8k.l2MissSeconds * 1e6, 2), "-"});
    table.addRow({"R10000 (paper)", "0.95", "0.14", "1.09",
                  TextTable::num(r10k.l2MissSeconds * 1e6, 2), "-"});
    std::fputs(table.toText().c_str(), stdout);

    std::printf("\nshape check: total thread overhead should be the "
                "same order as one L2 miss\n");
    std::printf("host total/fork ratio vs paper: host cold %.2f, warm "
                "%.2f, paper R8000 %.2f\n",
                coldRatio, warmRatio, 1.60 / 1.38);

    const std::string jsonPath = cli.getString("json");
    if (!jsonPath.empty()) {
        harness::JsonReport report;
        report.addTable(table);
        if (!report.writeTo(jsonPath)) {
            std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
            return 1;
        }
        std::printf("JSON written to %s\n", jsonPath.c_str());
    }
    return 0;
}
