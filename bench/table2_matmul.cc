/**
 * @file
 * Table 2 reproduction: matrix-multiply performance (n = 1024 in the
 * paper; proportionally scaled by default — see DESIGN.md).
 *
 * For each of the five variants we report (a) estimated seconds on the
 * R8000- and R10000-class machines from the crude timing model over a
 * full cache simulation, and (b) measured host CPU seconds of the
 * uninstrumented kernel, the median of kHostRepeats runs. The paper's
 * shape: tiled < threaded < transposed < interchanged, threaded >= 2x
 * faster than untiled; the threaded/untiled speedup is reported both
 * from the R8000-class estimate and from the host times.
 */

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "support/cli.hh"
#include "support/timer.hh"
#include "workloads/matmul.hh"

namespace
{

using namespace lsched;
using namespace lsched::workloads;

/** Host runs per variant; the median is reported. */
constexpr int kHostRepeats = 3;

threads::LocalityScheduler
makeScheduler(std::uint64_t l2_bytes)
{
    threads::SchedulerConfig cfg;
    cfg.dims = 2;
    cfg.cacheBytes = l2_bytes;
    cfg.blockBytes = l2_bytes / 2; // paper Section 4.2
    return threads::LocalityScheduler(cfg);
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("table2_matmul", "Table 2: matrix multiply performance");
    cli.addInt("n", 256, "matrix dimension");
    cli.addInt("workers", 1,
               "OS threads for the host Threaded pass (runParallel)");
    lsched::bench::addOutputOptions(cli);
    lsched::bench::addMachineOptions(cli);
    cli.parse(argc, argv);

    const std::size_t n = cli.getFlag("full")
                              ? 1024
                              : static_cast<std::size_t>(cli.getInt("n"));
    const auto r8k = lsched::bench::machineFromCli(cli);
    auto r10k = machine::indigo2ImpactR10000();
    r10k = machine::scaled(
        r10k, cli.getFlag("full")
                  ? 1u
                  : static_cast<unsigned>(cli.getInt("scale")));

    lsched::bench::banner("Table 2", "matrix multiply performance", r8k);
    std::printf("n = %zu (paper: 1024)\n\n", n);

    Matrix a(n, n), b(n, n);
    randomize(a, 1);
    randomize(b, 2);

    struct Variant
    {
        const char *name;
        std::function<void(const machine::MachineConfig &,
                           SimModel *, NativeModel *)>
            run;
    };

    const unsigned workers =
        static_cast<unsigned>(cli.getInt("workers"));

    auto run_variant = [&](const char *which,
                           const machine::MachineConfig &mc,
                           SimModel *sim, NativeModel *native) {
        Matrix c(n, n);
        const std::size_t l1 = mc.caches.l1d.sizeBytes;
        const std::size_t l2 = mc.l2Size();
        // SimModel mutates shared simulator state, so the simulated
        // pass always runs single-worker; --workers applies to the
        // host-timing pass only.
        const unsigned w = sim ? 1 : workers;
        const std::string v(which);
        auto dispatch = [&](auto &model) {
            if (v == "Interchanged") {
                matmulInterchanged(a, b, c, model);
            } else if (v == "Transposed") {
                matmulTransposed(a, b, c, model);
            } else if (v == "Tiled interchanged") {
                matmulTiledInterchanged(a, b, c, model, l1, l2);
            } else if (v == "Tiled transposed") {
                matmulTiledTransposed(a, b, c, model, l1, l2);
            } else {
                auto sched = makeScheduler(l2);
                matmulThreaded(a, b, c, sched, model, w);
            }
        };
        if (sim)
            dispatch(*sim);
        else
            dispatch(*native);
    };

    const std::vector<const char *> variants{
        "Interchanged", "Transposed", "Tiled interchanged",
        "Tiled transposed", "Threaded"};

    std::vector<harness::PerfRow> rows;
    for (const char *v : variants) {
        harness::PerfRow row;
        row.name = v;
        for (const auto &mc : {r8k, r10k}) {
            const auto outcome =
                harness::simulateOn(mc, [&](SimModel &m) {
                    run_variant(v, mc, &m, nullptr);
                });
            row.estimatedSeconds.push_back(
                outcome.estimatedSeconds(mc));
        }
        std::vector<double> host;
        for (int r = 0; r < kHostRepeats; ++r) {
            CpuTimer timer;
            NativeModel native;
            run_variant(v, r8k, nullptr, &native);
            host.push_back(timer.seconds());
        }
        row.hostSeconds = lsched::bench::medianOf(host);
        rows.push_back(std::move(row));
        std::printf("  %-18s done\n", v);
    }

    {
        const auto table = harness::perfTable("Table 2 (estimated seconds, "
                                   "crude timing model)",
                                   {"R8000-class", "R10000-class"}, rows);
        std::printf("\n");
        lsched::bench::emitTable(cli, table);
        std::printf("\n");
    }

    std::printf("paper (R8000/R10000 measured): interchanged "
                "102.98/36.63, transposed 95.06/32.96, tiled-i "
                "16.61/12.24, tiled-t 19.73/18.71, threaded "
                "20.32/16.85\n");
    std::printf("shape: tiled < threaded < transposed < interchanged; "
                "threaded >= 2x faster than untiled\n\n");

    TextTable speedup("Threaded/untiled speedup", {"", "speedup"});
    speedup.addRow({"R8000-class est.",
                    TextTable::num(rows[0].estimatedSeconds[0] /
                                       rows[4].estimatedSeconds[0],
                                   2)});
    speedup.addRow(
        {"host CPU (median of " + std::to_string(kHostRepeats) + ")",
         TextTable::num(rows[0].hostSeconds / rows[4].hostSeconds, 2)});
    lsched::bench::emitTable(cli, speedup);
    return 0;
}
