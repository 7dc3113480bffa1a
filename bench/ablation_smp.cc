/**
 * @file
 * Ablation C: the SMP extension (paper Section 7 future work),
 * benchmarking the persistent work-stealing pool itself.
 *
 * Workload: a deliberately skewed synthetic tour — bin b carries
 * 1 + skew*(b % 4) threads, each doing a fixed FMA loop over
 * bin-local data — so the occupancy-weighted partition and tail
 * stealing both matter. For every worker count the bench reports,
 * side by side:
 *
 *   warm setup   — the first tour on a persistent pool (includes
 *                  spawning the workers once);
 *   warm s/tour  — subsequent tours on the parked pool;
 *   serial s/tour — run() (no pool at all) on the same fork set;
 *   pool vs serial — serial / warm per-tour time: above 1x the pool
 *                  pays off at that width, below 1x it costs;
 *   steals       — bins claimed across segments (warm run).
 *
 * Pool setup is deliberately separated from tour time: setup is paid
 * once per scheduler, tours are paid per run() — conflating them is
 * exactly the mistake the persistent pool fixes.
 */

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "harness/report.hh"
#include "support/cli.hh"
#include "support/table.hh"
#include "support/timer.hh"
#include "threads/scheduler.hh"

namespace
{

/** Bin-local FMA workload: thread i of a bin chews on its bin's lane. */
struct Workload
{
    std::vector<double> lanes; // one cache-line-ish lane per bin
    std::uint64_t iters = 0;

    static void
    chew(void *self, void *tag)
    {
        auto *w = static_cast<Workload *>(self);
        const auto bin = reinterpret_cast<std::uintptr_t>(tag);
        double x = w->lanes[bin * 8];
        for (std::uint64_t i = 0; i < w->iters; ++i)
            x = x * 1.0000001 + 0.03125;
        w->lanes[bin * 8] = x;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace lsched;

    Cli cli("ablation_smp",
            "Ablation: persistent worker pool vs the serial tour");
    cli.addInt("bins", 32, "bins in the tour");
    cli.addInt("skew", 7, "bin b gets 1 + skew*(b%4) threads");
    cli.addInt("work", 50, "FMA iterations per thread");
    cli.addInt("tours", 50, "measured tours per configuration");
    cli.addInt("max-workers", 0,
               "max workers (0 = max(4, hardware))");
    cli.addString("json", "", "also write the table as JSON here");
    cli.parse(argc, argv);

    const auto bins = static_cast<std::size_t>(cli.getInt("bins"));
    const auto skew = static_cast<std::uint64_t>(cli.getInt("skew"));
    const auto work = static_cast<std::uint64_t>(cli.getInt("work"));
    const int tours = static_cast<int>(cli.getInt("tours"));
    unsigned max_workers =
        static_cast<unsigned>(cli.getInt("max-workers"));
    if (max_workers == 0)
        max_workers =
            std::max(4u, std::thread::hardware_concurrency());

    std::printf("== Ablation C: SMP worker pool ==\n");
    std::printf("skewed tour: %zu bins, 1+%llu*(b%%4) threads each, "
                "%llu FMAs per thread, %d tours\n\n",
                bins, static_cast<unsigned long long>(skew),
                static_cast<unsigned long long>(work), tours);

    threads::SchedulerConfig cfg;
    cfg.dims = 2;
    cfg.cacheBytes = 2 * 1024 * 1024;
    cfg.blockBytes = 1 << 16;

    Workload wl;
    wl.lanes.assign(bins * 8, 1.0);
    wl.iters = work;

    const auto forkAll = [&](threads::LocalityScheduler &s) {
        for (std::size_t b = 0; b < bins; ++b) {
            const std::uint64_t count = 1 + skew * (b % 4);
            for (std::uint64_t i = 0; i < count; ++i)
                s.fork(&Workload::chew, &wl,
                       reinterpret_cast<void *>(b),
                       static_cast<threads::Hint>(b) *
                           cfg.blockBytes * 2,
                       0);
        }
    };

    TextTable table("", {"workers", "warm setup s", "warm s/tour",
                         "serial s/tour", "pool vs serial", "steals"});

    for (unsigned w = 1; w <= max_workers; w *= 2) {
        // Warm: one persistent pool; its first tour pays the spawn.
        threads::LocalityScheduler warm(cfg);
        forkAll(warm);
        WallTimer setupTimer;
        warm.runParallel(w, /*keep=*/true);
        const double setup = setupTimer.seconds();
        WallTimer warmTimer;
        for (int t = 0; t < tours; ++t)
            warm.runParallel(w, /*keep=*/true);
        const double warmPerTour = warmTimer.seconds() / tours;

        // Serial: the same scheduler and fork set, toured by run() on
        // the caller alone.
        WallTimer serialTimer;
        for (int t = 0; t < tours; ++t)
            warm.run(/*keep=*/true);
        const double serialPerTour = serialTimer.seconds() / tours;

        table.addRow(
            {TextTable::count(w), TextTable::num(setup, 6),
             TextTable::num(warmPerTour, 6),
             TextTable::num(serialPerTour, 6),
             TextTable::num(serialPerTour / warmPerTour, 2) + "x",
             TextTable::count(warm.workerPoolStats().steals)});
        std::printf("  %u workers done\n", w);
    }

    std::printf("\n%s\n", table.toText().c_str());
    std::printf("warm setup includes spawning the workers once; repeat "
                "tours on the parked pool pay no thread creation\n");
    std::printf("pool vs serial > 1x means the pool beats run() on the "
                "same fork set at that width\n");

    const std::string jsonPath = cli.getString("json");
    if (!jsonPath.empty()) {
        harness::JsonReport report;
        report.addTable(table);
        report.includeMetrics();
        if (!report.writeTo(jsonPath)) {
            std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
            return 1;
        }
        std::printf("JSON written to %s\n", jsonPath.c_str());
    }
    return 0;
}
