/**
 * @file
 * Domain example 5: dependencies with the general-purpose package.
 *
 * The run-to-completion package "would not be convenient to program
 * algorithms that have complex dependencies" (paper Section 6), and
 * Section 7 asks whether the locality algorithm fits a general-
 * purpose thread package. This example shows both answers: a small
 * blocked LU-style pipeline where column tasks must wait for the
 * pivot task of their block (expressed with fibers::Event), while
 * the tasks are still binned by address hints so cache locality is
 * preserved around the suspensions.
 *
 * Run:  ./examples/fiber_pipeline [--blocks=64] [--block-elems=16384]
 */

#include <cstdio>
#include <vector>

#include "fibers/general_scheduler.hh"
#include "support/cli.hh"
#include "support/prng.hh"
#include "support/timer.hh"
#include "threads/hints.hh"

namespace
{

using namespace lsched;
using namespace lsched::fibers;

struct Pipeline
{
    std::size_t nBlocks;
    std::size_t blockElems;
    std::vector<double> data;       // nBlocks * blockElems
    std::vector<Event> pivotReady;  // one per block
    std::vector<double> pivots;
    std::uint64_t suspensions = 0;
};

struct PivotJob
{
    Pipeline *p;
    std::size_t block;
};

struct UpdateJob
{
    Pipeline *p;
    std::size_t block;
    std::size_t chunk;
    std::size_t chunks;
};

/** Pivot task: reduce its block to one scaling factor, then signal. */
void
pivotTask(void *arg)
{
    auto *job = static_cast<PivotJob *>(arg);
    Pipeline &p = *job->p;
    double *base = &p.data[job->block * p.blockElems];
    double sum = 0;
    for (std::size_t i = 0; i < p.blockElems; ++i)
        sum += base[i] * base[i];
    p.pivots[job->block] = 1.0 / (1.0 + sum / p.blockElems);
    p.pivotReady[job->block].signal();
}

/** Update task: waits for its block's pivot, then scales a chunk. */
void
updateTask(void *arg)
{
    auto *job = static_cast<UpdateJob *>(arg);
    Pipeline &p = *job->p;
    if (!p.pivotReady[job->block].signalled())
        ++p.suspensions;
    p.pivotReady[job->block].wait();
    const double pivot = p.pivots[job->block];
    double *base = &p.data[job->block * p.blockElems];
    const std::size_t per = p.blockElems / job->chunks;
    double *chunk = base + job->chunk * per;
    for (std::size_t i = 0; i < per; ++i)
        chunk[i] *= pivot;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("fiber_pipeline",
            "pivot/update dependencies on fibers, binned by address "
            "hints");
    const std::size_t chunks = 8;
    cli.addInt("blocks", 64, "blocks in the pipeline", 1);
    cli.addInt("block-elems", 16384,
               "doubles per block (a multiple of 8, one share per "
               "update chunk)",
               chunks);
    cli.parse(argc, argv);

    const auto n_blocks = static_cast<std::size_t>(cli.getInt("blocks"));
    const auto block_elems =
        static_cast<std::size_t>(cli.getInt("block-elems"));
    if (block_elems % chunks != 0)
        cli.usageError("--block-elems must be a multiple of 8");

    Pipeline p;
    p.nBlocks = n_blocks;
    p.blockElems = block_elems;
    p.data.resize(n_blocks * block_elems);
    p.pivotReady = std::vector<Event>(n_blocks);
    p.pivots.assign(n_blocks, 0.0);
    Prng prng(7);
    for (double &v : p.data)
        v = prng.nextDouble(-1.0, 1.0);

    GeneralSchedulerConfig cfg;
    cfg.dims = 1;
    cfg.blockBytes = block_elems * sizeof(double);
    GeneralScheduler sched(cfg);

    // Fork update tasks FIRST (so some genuinely block), then pivots:
    // the dependency structure, not fork order, drives correctness.
    std::vector<UpdateJob> updates;
    updates.reserve(n_blocks * chunks);
    for (std::size_t b = 0; b < n_blocks; ++b)
        for (std::size_t c = 0; c < chunks; ++c)
            updates.push_back({&p, b, c, chunks});
    for (auto &job : updates) {
        sched.fork(&updateTask, &job,
                   threads::hintOf(&p.data[job.block * block_elems]));
    }
    std::vector<PivotJob> pivots;
    pivots.reserve(n_blocks);
    for (std::size_t b = 0; b < n_blocks; ++b)
        pivots.push_back({&p, b});
    for (auto &job : pivots) {
        sched.fork(&pivotTask, &job,
                   threads::hintOf(&p.data[job.block * block_elems]));
    }

    WallTimer timer;
    const std::uint64_t finished = sched.run();
    const double seconds = timer.seconds();

    std::printf("fiber_pipeline: %zu blocks x %zu update chunks + %zu "
                "pivots = %llu fibers in %.3f s\n",
                n_blocks, chunks, n_blocks,
                static_cast<unsigned long long>(finished), seconds);
    std::printf("  bins used           : %zu\n", sched.binCount());
    std::printf("  fibers that blocked : %llu (resumed after their "
                "pivot signalled)\n",
                static_cast<unsigned long long>(p.suspensions));
    std::printf("  stacks allocated    : %zu (recycled across %llu "
                "fibers)\n",
                sched.stacksAllocated(),
                static_cast<unsigned long long>(finished));

    // Verify: every element scaled by its block's pivot exactly once.
    Prng verify(7);
    double worst = 0;
    for (std::size_t b = 0; b < n_blocks; ++b) {
        for (std::size_t i = 0; i < block_elems; ++i) {
            const double original = verify.nextDouble(-1.0, 1.0);
            const double expect = original * p.pivots[b];
            const double got = p.data[b * block_elems + i];
            worst = std::max(worst, std::abs(expect - got));
        }
    }
    std::printf("  max |error|         : %.3g  (%s)\n", worst,
                worst < 1e-12 ? "OK" : "FAILED");
    return worst < 1e-12 ? 0 : 1;
}
