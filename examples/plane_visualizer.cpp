/**
 * @file
 * Domain example 6: visualizing the scheduling plane.
 *
 * Renders the paper's Figures 1 and 2 for a real workload: an ASCII
 * heat map of the two-dimensional scheduling plane showing how many
 * threads each block received, plus the creation-order tour through
 * the occupied bins. Run it for the matmul example (uniform grid, the
 * paper's Figure 2) and for N-body (clustered occupancy mirroring the
 * spatial body distribution, Section 4.4).
 *
 * Run:  ./examples/plane_visualizer [--mode=matmul|nbody] [--n=256]
 *                                   [--bodies=16384]
 */

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "support/cli.hh"
#include "threads/scheduler.hh"
#include "workloads/matmul.hh"
#include "workloads/nbody.hh"

namespace
{

using namespace lsched;
using namespace lsched::workloads;

/** Collect per-block thread counts by replaying binOccupancy. */
struct PlaneCounts
{
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>
        blocks;
    std::uint64_t maxCount = 0;
};

char
shade(std::uint64_t count, std::uint64_t max)
{
    static const char levels[] = " .:-=+*#%@";
    if (count == 0 || max == 0)
        return ' ';
    const std::size_t idx =
        1 + count * 8 / max; // 1..9
    return levels[std::min<std::size_t>(idx, 9)];
}

void
render(const PlaneCounts &plane, const char *xlabel, const char *ylabel)
{
    std::uint64_t max_x = 0, max_y = 0, min_x = ~0ull, min_y = ~0ull;
    for (const auto &[coords, count] : plane.blocks) {
        min_x = std::min(min_x, coords.first);
        max_x = std::max(max_x, coords.first);
        min_y = std::min(min_y, coords.second);
        max_y = std::max(max_y, coords.second);
    }
    std::printf("occupancy heat map (rows = %s block, cols = %s "
                "block, dark = more threads):\n\n",
                ylabel, xlabel);
    for (std::uint64_t y = min_y; y <= max_y; ++y) {
        std::printf("  %3llu |",
                    static_cast<unsigned long long>(y - min_y));
        for (std::uint64_t x = min_x; x <= max_x; ++x) {
            const auto it = plane.blocks.find({x, y});
            const std::uint64_t c =
                it == plane.blocks.end() ? 0 : it->second;
            std::printf("%c", shade(c, plane.maxCount));
        }
        std::printf("|\n");
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("plane_visualizer",
            "ASCII heat map of the scheduling plane (paper Figures 1 "
            "and 2)");
    cli.addString("mode", "matmul", "workload to plot (matmul|nbody)");
    cli.addInt("n", 256, "matrix dimension (matmul mode)", 1);
    cli.addInt("bodies", 16384, "Plummer bodies (nbody mode)", 1);
    cli.parse(argc, argv);

    const std::string &mode = cli.getString("mode");
    if (mode != "matmul" && mode != "nbody")
        cli.usageError("--mode must be matmul or nbody, not '" + mode +
                       "'");

    threads::SchedulerConfig cfg;
    PlaneCounts plane;

    if (mode == "nbody") {
        const auto bodies =
            static_cast<std::size_t>(cli.getInt("bodies"));
        NBodyConfig ncfg;
        ncfg.bodies = bodies;
        BarnesHut sim(ncfg);
        NativeModel model;
        sim.buildTree(model);

        cfg.dims = 2; // project x/y for a 2-D picture
        cfg.cacheBytes = 1 << 16;
        cfg.blockBytes = (1 << 16) / 8; // 8 blocks per axis
        threads::LocalityScheduler sched(cfg);
        const auto &root = sim.nodes()[0];
        const double scale =
            static_cast<double>(8 * cfg.blockBytes) /
            (2.0 * root.half);
        auto noop = [](void *, void *) {};
        for (const Body &b : sim.bodies()) {
            const auto hx = static_cast<threads::Hint>(
                (b.x - (root.cx - root.half)) * scale);
            const auto hy = static_cast<threads::Hint>(
                (b.y - (root.cy - root.half)) * scale);
            sched.fork(noop, nullptr, nullptr, hx, hy);
            const auto c = sched.coordsFor(
                std::span<const threads::Hint>(
                    std::array<threads::Hint, 2>{hx, hy}.data(), 2));
            const auto key = std::make_pair(c[0], c[1]);
            plane.maxCount =
                std::max(plane.maxCount, ++plane.blocks[key]);
        }
        std::printf("plane_visualizer: %zu Plummer bodies, 8x8 "
                    "blocks — occupancy mirrors the cluster "
                    "(paper Section 4.4: \"much less uniform\")\n\n",
                    bodies);
        render(plane, "x-position", "y-position");
        std::printf("bins used: %llu, threads/bin cv: %.2f\n",
                    static_cast<unsigned long long>(
                        sched.stats().occupiedBins),
                    sched.stats().threadsPerBin
                        .coefficientOfVariation());
        sched.clear();
        return 0;
    }

    const auto n = static_cast<std::size_t>(cli.getInt("n"));
    Matrix a(n, n), b(n, n);
    randomize(a, 1);
    randomize(b, 2);
    Matrix at(n, n);
    NativeModel model;
    transpose(a, at, model);

    // Plane sized so the two matrices span ~12 blocks per axis.
    const std::uint64_t matrix_bytes = n * n * sizeof(double);
    cfg.dims = 2;
    cfg.blockBytes = std::max<std::uint64_t>(matrix_bytes / 12, 4096);
    cfg.cacheBytes = cfg.blockBytes * 2;
    threads::LocalityScheduler sched(cfg);

    auto noop = [](void *, void *) {};
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const threads::Hint h1 = threads::hintOf(at.col(i));
            const threads::Hint h2 = threads::hintOf(b.col(j));
            sched.fork(noop, nullptr, nullptr, h1, h2);
            const auto c = sched.coordsFor(
                std::span<const threads::Hint>(
                    std::array<threads::Hint, 2>{h1, h2}.data(), 2));
            const auto key = std::make_pair(c[0], c[1]);
            plane.maxCount =
                std::max(plane.maxCount, ++plane.blocks[key]);
        }
    }
    std::printf("plane_visualizer: %zu x %zu dot-product threads, "
                "hints = (column of At, column of B) — the paper's "
                "Figure 2 grid, uniformly filled\n\n",
                n, n);
    render(plane, "B-column", "At-column");
    std::printf("bins used: %llu, threads/bin cv: %.2f (uniform, as "
                "Section 4.2 reports)\n",
                static_cast<unsigned long long>(
                    sched.stats().occupiedBins),
                sched.stats().threadsPerBin.coefficientOfVariation());
    sched.clear();
    return 0;
}
