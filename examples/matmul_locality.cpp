/**
 * @file
 * Domain example 1: watching locality scheduling work.
 *
 * Runs the untiled and threaded matrix multiplies through the cache
 * simulator of the paper's R8000 machine (proportionally scaled) and
 * prints the second-level cache miss breakdown side by side, then
 * sweeps the block size to show the Figure-4 cliff. This is the
 * programmatic (C++) API: LocalityScheduler, SimModel, Hierarchy.
 *
 * Run:  ./examples/matmul_locality [--n=128] [--scale=64]
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "machine/machine_config.hh"
#include "support/align.hh"
#include "support/cli.hh"
#include "workloads/matmul.hh"

int
main(int argc, char **argv)
{
    using namespace lsched;
    using namespace lsched::workloads;

    Cli cli("matmul_locality",
            "untiled vs threaded matmul L2 misses on the simulated "
            "R8000, plus the block-size sweep");
    cli.addInt("n", 128, "matrix dimension", 1);
    cli.addInt("scale", 64, "cache shrink factor (power of two)", 1);
    cli.parse(argc, argv);

    const auto n = static_cast<std::size_t>(cli.getInt("n"));
    const std::int64_t scaleArg = cli.getInt("scale");
    if (!isPowerOfTwo(static_cast<std::uint64_t>(scaleArg)) ||
        scaleArg > (std::int64_t{1} << 31))
        cli.usageError("--scale must be a power of two up to 2^31");
    const auto scale = static_cast<unsigned>(scaleArg);

    const auto machine =
        machine::scaled(machine::powerIndigo2R8000(), scale);
    std::printf("matmul_locality: n = %zu on %s\n\n", n,
                machine.name.c_str());

    Matrix a(n, n), b(n, n);
    randomize(a, 1);
    randomize(b, 2);

    const auto untiled = harness::simulateOn(machine, [&](SimModel &m) {
        Matrix c(n, n);
        matmulInterchanged(a, b, c, m);
    });

    std::uint64_t bins = 0;
    const auto threaded = harness::simulateOn(machine, [&](SimModel &m) {
        Matrix c(n, n);
        threads::SchedulerConfig cfg;
        cfg.dims = 2;
        cfg.cacheBytes = machine.l2Size();
        cfg.blockBytes = machine.l2Size() / 2;
        threads::LocalityScheduler sched(cfg);
        matmulThreaded(a, b, c, sched, m);
        bins = sched.stats().executedThreads > 0 ? sched.binCount() : 0;
    });

    std::fputs(harness::cacheTable("L2 behaviour, untiled vs threaded "
                                   "(thousands)",
                                   {{"Untiled", untiled},
                                    {"Threaded", threaded}})
                   .toText()
                   .c_str(),
               stdout);
    std::printf("\n%llu x %llu threads were scheduled into %llu "
                "bins\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(bins));
    std::printf("estimated time: untiled %.4f s, threaded %.4f s "
                "(%.1fx)\n\n",
                untiled.estimatedSeconds(machine),
                threaded.estimatedSeconds(machine),
                untiled.estimatedSeconds(machine) /
                    threaded.estimatedSeconds(machine));

    // The Figure-4 story in miniature: block too big -> cliff.
    std::printf("block-size sweep (est. seconds):\n");
    for (std::uint64_t block = machine.l2Size() / 8;
         block <= machine.l2Size() * 4; block *= 2) {
        const auto outcome =
            harness::simulateOn(machine, [&](SimModel &m) {
                Matrix c(n, n);
                threads::SchedulerConfig cfg;
                cfg.dims = 2;
                cfg.cacheBytes = machine.l2Size();
                cfg.blockBytes = block;
                threads::LocalityScheduler sched(cfg);
                matmulThreaded(a, b, c, sched, m);
            });
        std::printf("  block %6llu KB : %.4f s%s\n",
                    static_cast<unsigned long long>(block / 1024),
                    outcome.estimatedSeconds(machine),
                    2 * block > machine.l2Size() ? "   <- sum of dims "
                                                   "exceeds L2"
                                                 : "");
    }
    return 0;
}
