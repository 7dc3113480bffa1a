/**
 * @file
 * Domain example 3: driving the cache-simulation substrate directly.
 *
 * Streams three canonical access patterns — sequential, strided, and
 * random — through the two-level hierarchy of a chosen machine and
 * prints the miss breakdown, demonstrating the single-run
 * compulsory / capacity / conflict classifier that backs the paper's
 * cache tables.
 *
 * Run:  ./examples/cache_explorer [--machine=r8000|r10000]
 *                                 [--footprint-kb=8192]
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "machine/machine_config.hh"
#include "support/cli.hh"
#include "support/prng.hh"

int
main(int argc, char **argv)
{
    using namespace lsched;

    Cli cli("cache_explorer",
            "sequential, strided, random and same-set patterns through "
            "a simulated two-level hierarchy");
    cli.addString("machine", "r8000", "simulated machine (r8000|r10000)");
    cli.addInt("footprint-kb", 8 * 1024, "bytes touched per pass, in KB",
               1);
    cli.parse(argc, argv);

    const std::string &which = cli.getString("machine");
    const auto footprint_kb =
        static_cast<std::uint64_t>(cli.getInt("footprint-kb"));

    machine::MachineConfig mc;
    if (which == "r10000")
        mc = machine::indigo2ImpactR10000();
    else if (which == "r8000")
        mc = machine::powerIndigo2R8000();
    else
        cli.usageError("--machine must be r8000 or r10000, not '" +
                       which + "'");

    const std::uint64_t footprint = footprint_kb * 1024;
    const std::uint64_t base = 0x10000000;
    const int passes = 4;

    std::printf("cache_explorer: %s, footprint %llu KB (L2 = %llu "
                "KB), %d passes per pattern\n\n",
                mc.name.c_str(),
                static_cast<unsigned long long>(footprint_kb),
                static_cast<unsigned long long>(mc.l2Size() / 1024),
                passes);

    auto run_pattern = [&](const char *name, auto &&gen) {
        cachesim::Hierarchy h(mc.caches);
        gen(h);
        const auto o = harness::snapshot(h);
        std::printf("%-12s L2: %10llu misses  (compulsory %llu / "
                    "capacity %llu / conflict %llu)  rate %.2f%%\n",
                    name,
                    static_cast<unsigned long long>(o.l2.misses),
                    static_cast<unsigned long long>(
                        o.l2.compulsoryMisses),
                    static_cast<unsigned long long>(
                        o.l2.capacityMisses),
                    static_cast<unsigned long long>(
                        o.l2.conflictMisses),
                    o.l2RatePercent);
    };

    run_pattern("sequential", [&](cachesim::Hierarchy &h) {
        for (int p = 0; p < passes; ++p)
            for (std::uint64_t a = 0; a < footprint; a += 8)
                h.load(base + a, 8);
    });

    // Stride of one L2 line: same traffic per line, no spatial reuse.
    run_pattern("strided", [&](cachesim::Hierarchy &h) {
        const std::uint64_t stride = mc.caches.l2.lineBytes;
        for (int p = 0; p < passes; ++p)
            for (std::uint64_t a = 0; a < footprint; a += stride)
                h.load(base + a, 8);
    });

    run_pattern("random", [&](cachesim::Hierarchy &h) {
        Prng prng(1);
        const std::uint64_t accesses =
            passes * footprint / mc.caches.l2.lineBytes;
        for (std::uint64_t i = 0; i < accesses; ++i)
            h.load(base + (prng.nextBelow(footprint) & ~7ull), 8);
    });

    // A pathological conflict pattern: many lines, one set.
    run_pattern("same-set", [&](cachesim::Hierarchy &h) {
        const auto &l2 = mc.caches.l2;
        const std::uint64_t set_stride =
            l2.numSets() * l2.lineBytes; // same L2 set every time
        for (int p = 0; p < passes; ++p)
            for (std::uint64_t i = 0; i < 4 * l2.ways(); ++i)
                h.load(base + i * set_stride, 8);
    });

    std::printf("\nreading the rows: footprint > cache turns repeat "
                "passes into capacity misses; the same-set pattern "
                "shows pure conflict misses despite a tiny "
                "footprint.\n");
    return 0;
}
