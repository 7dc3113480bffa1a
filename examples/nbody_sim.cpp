/**
 * @file
 * Domain example 2: the paper's irregular application. Runs the
 * Barnes-Hut N-body simulation with locality-scheduled force threads
 * (one per body, hinted by position) and reports per-step physics and
 * scheduling statistics. No compile-time reference information exists
 * here — the case where the paper argues runtime scheduling shines.
 *
 * Run:  ./examples/nbody_sim [--bodies=16384] [--steps=4]
 */

#include <cstdio>

#include "support/cli.hh"
#include "support/timer.hh"
#include "threads/scheduler.hh"
#include "workloads/nbody.hh"

int
main(int argc, char **argv)
{
    using namespace lsched;
    using namespace lsched::workloads;

    Cli cli("nbody_sim",
            "Barnes-Hut N-body with locality-scheduled force threads");
    cli.addInt("bodies", 16384, "bodies in the Plummer sphere", 1);
    cli.addInt("steps", 4, "time steps", 1);
    cli.parse(argc, argv);

    NBodyConfig cfg;
    cfg.bodies = static_cast<std::size_t>(cli.getInt("bodies"));
    const auto steps = static_cast<unsigned>(cli.getInt("steps"));

    std::printf("nbody_sim: %zu bodies (Plummer sphere), theta = %.2f, "
                "%u steps\n\n",
                cfg.bodies, cfg.theta, steps);

    BarnesHut sim(cfg);

    threads::SchedulerConfig scfg;
    scfg.dims = 3;
    scfg.cacheBytes = 2 * 1024 * 1024;
    threads::LocalityScheduler sched(scfg);

    NativeModel model;
    for (unsigned s = 0; s < steps; ++s) {
        WallTimer timer;
        sim.stepThreaded(sched, model, 4 * scfg.cacheBytes / 3);
        const auto stats = sched.stats();
        std::printf("step %u: %.3f s, tree nodes %zu, bins %llu, "
                    "threads/bin mean %.0f (cv %.2f), momentum %.4f\n",
                    s + 1, timer.seconds(), sim.nodes().size(),
                    static_cast<unsigned long long>(stats.bins),
                    stats.threadsPerBin.mean(),
                    stats.threadsPerBin.coefficientOfVariation(),
                    sim.momentum());
    }

    // Where did the bodies end up?
    double cx = 0, cy = 0, cz = 0;
    for (const Body &b : sim.bodies()) {
        cx += b.x;
        cy += b.y;
        cz += b.z;
    }
    const double inv = 1.0 / static_cast<double>(cfg.bodies);
    std::printf("\ncentre of cluster: (%.4f, %.4f, %.4f)\n", cx * inv,
                cy * inv, cz * inv);
    std::printf("note: thread distribution over bins is non-uniform "
                "because it mirrors the spatial body distribution "
                "(paper Section 4.4)\n");
    return 0;
}
