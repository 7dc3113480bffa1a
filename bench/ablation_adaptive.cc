/**
 * @file
 * Adaptive-placement ablation: start the scheduler deliberately
 * mis-tuned (blocks 8x the slab size, so every bin's working set
 * overflows the simulated L2) and show the online tuner walking the
 * block dimension back to the hand-tuned geometry from per-tour miss
 * feedback alone.
 *
 * The workload interleaves T threads over S disjoint slabs of L2/2
 * each, forked thread-major (t0 over every slab, then t1, ...). With
 * block = slab, a bin holds one slab's T threads and the tour streams
 * each slab once: misses sit at the compulsory floor. With block =
 * 8 slabs, consecutive threads in a bin stream *different* slabs, so
 * every thread reloads its slab: ~T x the miss rate. After each tour
 * the per-thread simulated L2 deltas are fed through the profiler's
 * recordSample() pipeline (attributed to the executing bin via the
 * trace, exactly like bench/ablation_profile) and the scheduler is
 * polled at the tour boundary; the tuner classifies the epochs
 * capacity-dominated and halves the block until the miss rate drops
 * to the floor. The bench passes when the adaptive run starts >= 5x
 * the hand-tuned miss rate and converges to within --converge
 * (default 1.5x, the configured adapt.converge factor) in at most
 * --max-tours tours.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "cachesim/hierarchy.hh"
#include "obs/profile.hh"
#include "obs/trace.hh"
#include "support/cli.hh"
#include "threads/adapt.hh"
#include "threads/scheduler.hh"
#include "workloads/memmodel.hh"

namespace
{

/** One thread's simulated-L2 delta, pushed in execution order. */
struct ThreadDelta
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
};

/** One thread's slice of work: stream a whole slab, record deltas. */
struct SlabJob
{
    lsched::workloads::SimModel *model;
    const lsched::cachesim::Hierarchy *hierarchy;
    const double *slab;
    std::size_t doubles;
    std::vector<ThreadDelta> *order;
};

void
streamSlab(void *arg1, void *)
{
    const SlabJob &job = *static_cast<SlabJob *>(arg1);
    const lsched::cachesim::CacheStats before =
        job.hierarchy->l2Stats();
    for (std::size_t i = 0; i < job.doubles; ++i)
        job.model->load(&job.slab[i], sizeof(double));
    job.model->instructions(job.doubles +
                            lsched::workloads::kThreadOverheadInstr);
    const lsched::cachesim::CacheStats after = job.hierarchy->l2Stats();
    job.order->push_back({after.accesses - before.accesses,
                          after.misses - before.misses});
}

struct TourResult
{
    double missPercent = 0.0;
    std::uint64_t blockBytes = 0;
    bool traced = true;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace lsched;

    Cli cli("ablation_adaptive",
            "mis-tuned start converging to the hand-tuned block size "
            "via online miss feedback");
    cli.addInt("slabs", 16, "disjoint data slabs (one block each)");
    cli.addInt("threads-per-slab", 8, "threads streaming each slab");
    cli.addInt("mistune", 8,
               "initial block size as a multiple of the slab size");
    cli.addInt("max-tours", 8,
               "tour budget for reaching the convergence factor");
    cli.addDouble("converge", 1.5,
                  "converged when within this factor of hand-tuned");
    lsched::bench::addOutputOptions(cli);
    lsched::bench::addMachineOptions(cli, 64);
    cli.parse(argc, argv);

    if (!obs::kTraceCompiled) {
        std::printf("ablation_adaptive: instrumentation compiled out "
                    "(LSCHED_TRACE_ENABLED=OFF); nothing to measure\n");
        return 0;
    }

    const auto machine = lsched::bench::machineFromCli(cli);
    const std::size_t slabs =
        static_cast<std::size_t>(cli.getInt("slabs"));
    const std::size_t perSlab =
        static_cast<std::size_t>(cli.getInt("threads-per-slab"));
    const std::size_t mistune =
        static_cast<std::size_t>(cli.getInt("mistune"));
    const int maxTours = cli.getInt("max-tours");
    const double converge = cli.getDouble("converge");
    const std::size_t slabBytes = machine.l2Size() / 2;
    const std::size_t slabDoubles = slabBytes / sizeof(double);

    lsched::bench::banner("Ablation", "adaptive placement convergence",
                          machine);
    std::printf("slabs = %zu x %zu KB (L2/2), threads per slab = %zu, "
                "mis-tuned block = %zu x slab\n\n",
                slabs, slabBytes / 1024, perSlab, mistune);

    std::vector<double> data(slabs * slabDoubles, 1.0);

    obs::Profiler &profiler = obs::Profiler::global();
    obs::ProfileConfig pconfig = profiler.config();
    pconfig.pmu = false; // host counters measure the host, not the sim
    std::string perror;
    if (!profiler.configure(pconfig, &perror)) {
        std::printf("profiler configure failed: %s\n", perror.c_str());
        return 1;
    }

    // Thread-major fork order: consecutive forks hit different slabs,
    // so an oversized block turns one bin into a slab-thrashing mix
    // while block = slab keeps each bin on one slab.
    const auto forkAll = [&](threads::LocalityScheduler &sched,
                             std::vector<SlabJob> &jobs) {
        for (std::size_t t = 0; t < perSlab; ++t) {
            for (std::size_t s = 0; s < slabs; ++s) {
                SlabJob &job = jobs[t * slabs + s];
                sched.fork(streamSlab, &job, nullptr,
                           threads::hintOf(job.slab));
            }
        }
    };

    // One tour under a fresh simulated hierarchy; when @p feed is set,
    // the per-thread deltas are attributed to their bins and the
    // scheduler is polled at the tour boundary (the adaptive loop).
    const auto runTour = [&](threads::LocalityScheduler &sched,
                             bool feed) {
        TourResult out;
        cachesim::Hierarchy hierarchy(machine.caches);
        workloads::SimModel model(hierarchy);
        std::vector<ThreadDelta> order;
        order.reserve(slabs * perSlab);
        std::vector<SlabJob> jobs(slabs * perSlab);
        for (std::size_t t = 0; t < perSlab; ++t) {
            for (std::size_t s = 0; s < slabs; ++s) {
                jobs[t * slabs + s] = {&model, &hierarchy,
                                       &data[s * slabDoubles],
                                       slabDoubles, &order};
            }
        }
        model.enterKernel(0);
        obs::setTraceEnabled(true);
        obs::TraceSession::global().clear();
        forkAll(sched, jobs);
        sched.run();
        obs::setTraceEnabled(false);

        const cachesim::CacheStats l2 = hierarchy.l2Stats();
        out.missPercent = l2.missRatePercent();
        out.blockBytes = sched.stats().adapt.active
                             ? sched.stats().adapt.blockBytes
                             : sched.config().blockBytes;
        if (!feed)
            return out;

        // Pair the trace's in-order ThreadStart events with the
        // execution-order deltas, then feed them as PMU-valid samples
        // (the simulator is this bench's "hardware counter").
        std::vector<obs::Event> starts;
        for (const obs::LaneSnapshot &lane :
             obs::TraceSession::global().snapshot()) {
            for (const obs::Event &e : lane.events)
                if (e.type == obs::EventType::ThreadStart)
                    starts.push_back(e);
        }
        std::sort(starts.begin(), starts.end(),
                  [](const obs::Event &a, const obs::Event &b) {
                      return a.ns < b.ns;
                  });
        if (starts.size() != order.size()) {
            std::printf("trace/run mismatch: %zu ThreadStart events vs "
                        "%zu executed threads\n",
                        starts.size(), order.size());
            out.traced = false;
            return out;
        }
        profiler.setEnabled(true);
        for (std::size_t i = 0; i < order.size(); ++i) {
            profiler.recordSample(starts[i].a, obs::kProfileNoSuperBin,
                                  /*worker=*/0, /*threads=*/1,
                                  /*dwellNs=*/0, /*instructions=*/0,
                                  /*cycles=*/0, order[i].accesses,
                                  order[i].misses, /*pmuValid=*/true);
        }
        profiler.setEnabled(false);
        sched.pollAdaptivePlacement();
        return out;
    };

    // References: hand-tuned (block = slab) and mis-tuned (frozen at
    // the adaptive run's starting geometry), both plain blockhash.
    const auto referenceMiss = [&](std::size_t blockBytes) {
        threads::SchedulerConfig cfg;
        cfg.dims = 1;
        cfg.cacheBytes = machine.l2Size();
        cfg.blockBytes = blockBytes;
        threads::LocalityScheduler sched(cfg);
        return runTour(sched, /*feed=*/false).missPercent;
    };
    const double handTuned = referenceMiss(slabBytes);
    const double misTuned = referenceMiss(mistune * slabBytes);
    std::printf("  hand-tuned block (%zu KB): %.2f%% L2 miss\n",
                slabBytes / 1024, handTuned);
    std::printf("  mis-tuned block  (%zu KB): %.2f%% L2 miss\n\n",
                mistune * slabBytes / 1024, misTuned);

    // The adaptive run: same mis-tuned start, tuner in the loop.
    threads::SchedulerConfig cfg;
    cfg.dims = 1;
    cfg.cacheBytes = machine.l2Size();
    cfg.blockBytes = mistune * slabBytes;
    cfg.placement = threads::PlacementKind::Adaptive;
    cfg.adaptBase = threads::PlacementKind::BlockHash;
    cfg.adaptEpochs = 1;
    cfg.adaptHold = 0;
    cfg.adaptMinBlock = 4096;
    cfg.adaptMaxBlock = mistune * slabBytes;
    cfg.adaptConverge = converge;
    threads::LocalityScheduler sched(cfg);

    profiler.reset();
    const double target = handTuned * converge;
    double first = 0.0;
    double final = 0.0;
    int converged = -1;
    bool traced = true;
    for (int tour = 0; tour < maxTours; ++tour) {
        const TourResult r = runTour(sched, /*feed=*/true);
        traced = traced && r.traced;
        if (tour == 0)
            first = r.missPercent;
        final = r.missPercent;
        const threads::AdaptSnapshot snap = sched.stats().adapt;
        std::printf("  tour %d: block %llu KB, %.2f%% miss, regime "
                    "%s, retunes %llu\n",
                    tour,
                    static_cast<unsigned long long>(r.blockBytes) /
                        1024,
                    r.missPercent,
                    threads::adaptRegimeName(snap.regime),
                    static_cast<unsigned long long>(snap.retunes));
        if (converged < 0 && r.missPercent <= target)
            converged = tour;
    }
    const threads::AdaptSnapshot snap = sched.stats().adapt;

    // Quiescent overhead: with the tuner settled (no fresh profiler
    // epochs), time a fork-heavy no-op tour against plain blockhash at
    // the same geometry. One tour is ~0.2 ms, well inside timer and
    // scheduling noise, so each sample times a batch of tours lasting
    // a few milliseconds of this thread's CPU time (time spent
    // preempted by other processes does not count), and the two sides
    // alternate (ABBA) so frequency drift and neighbour load hit them
    // equally. The overhead is the median of the per-pair ratios.
    const auto oneTour = [&](threads::LocalityScheduler &s) {
        static std::atomic<std::uint64_t> sink{0};
        for (std::size_t i = 0; i < 4000; ++i) {
            s.fork(
                [](void *, void *) {
                    sink.fetch_add(1, std::memory_order_relaxed);
                },
                nullptr, nullptr,
                static_cast<threads::Hint>(i) * 4096);
        }
        s.run();
    };
    const auto threadCpuMs = [] {
        timespec ts{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) * 1e3 +
               static_cast<double>(ts.tv_nsec) * 1e-6;
    };
    const auto timeTours = [&](threads::LocalityScheduler &s,
                               int tours) {
        const double begin = threadCpuMs();
        for (int t = 0; t < tours; ++t)
            oneTour(s);
        return threadCpuMs() - begin;
    };
    // Both sides fresh at the converged geometry; the adaptive side
    // exercises the full quiescent path including run()-end
    // maybeRetune() (the profiler is disabled, so the tuner never
    // moves).
    threads::SchedulerConfig quiet;
    quiet.dims = 1;
    quiet.cacheBytes = machine.l2Size();
    quiet.blockBytes = snap.blockBytes ? snap.blockBytes : slabBytes;
    threads::LocalityScheduler baseline(quiet);
    threads::SchedulerConfig quietAdapt = quiet;
    quietAdapt.placement = threads::PlacementKind::Adaptive;
    quietAdapt.adaptBase = threads::PlacementKind::BlockHash;
    threads::LocalityScheduler adaptiveQuiet(quietAdapt);
    // Warm-up (first touch of bins and free lists), then size the
    // samples to last about kSampleMs.
    constexpr double kSampleMs = 2.0;
    constexpr int kPairs = 101;
    oneTour(baseline);
    oneTour(adaptiveQuiet);
    const double warmMs = timeTours(baseline, 8);
    const int toursPerSample = std::clamp(
        static_cast<int>(kSampleMs * 8 / std::max(warmMs, 1e-3)), 8,
        4096);
    std::vector<double> ratios;
    for (int pair = 0; pair < kPairs; ++pair) {
        double baseMs = 0;
        double adaptMs = 0;
        if (pair % 2 == 0) {
            baseMs = timeTours(baseline, toursPerSample);
            adaptMs = timeTours(adaptiveQuiet, toursPerSample);
        } else {
            adaptMs = timeTours(adaptiveQuiet, toursPerSample);
            baseMs = timeTours(baseline, toursPerSample);
        }
        if (baseMs > 0.0)
            ratios.push_back(adaptMs / baseMs);
    }
    std::sort(ratios.begin(), ratios.end());
    const double overheadPercent =
        ratios.empty() ? 0.0
                       : 100.0 * (ratios[ratios.size() / 2] - 1.0);

    TextTable table("Ablation: adaptive placement convergence",
                    {"metric", "value"});
    const auto row = [&](const std::string &label, double v,
                         int precision) {
        table.addRow({label, TextTable::num(v, precision)});
    };
    row("hand-tuned miss %", handTuned, 2);
    row("mis-tuned miss %", misTuned, 2);
    row("adaptive first-tour miss %", first, 2);
    row("adaptive final miss %", final, 2);
    row("start/hand-tuned ratio",
        handTuned > 0 ? first / handTuned : 0, 2);
    row("final/hand-tuned ratio",
        handTuned > 0 ? final / handTuned : 0, 2);
    row("tours to converge", converged, 0);
    row("final block KB",
        static_cast<double>(snap.blockBytes) / 1024.0, 0);
    row("retunes", static_cast<double>(snap.retunes), 0);
    row("quiescent overhead %", overheadPercent, 1);
    lsched::bench::emitTable(cli, table);

    std::printf("\nshape checks:\n");
    std::printf("  trace paired every thread: %s\n",
                traced ? "yes" : "NO");
    const bool startBad = handTuned > 0 && first >= 5.0 * handTuned;
    std::printf("  mis-tuned start >= 5x hand-tuned: %s "
                "(%.2f%% vs %.2f%%)\n",
                startBad ? "yes" : "NO", first, handTuned);
    const bool convergedOk = converged >= 0 && final <= target;
    std::printf("  converged to <= %.2fx hand-tuned in %d tours: %s "
                "(tour %d, %.2f%% vs target %.2f%%)\n",
                converge, maxTours, convergedOk ? "yes" : "NO",
                converged, final, target);
    const bool retuned = snap.retunes > 0 &&
                         snap.blockBytes < mistune * slabBytes;
    std::printf("  tuner shrank the block online: %s (%llu retunes)\n",
                retuned ? "yes" : "NO",
                static_cast<unsigned long long>(snap.retunes));
    // The design target is <2% quiescent overhead (the batch fork
    // path dispatches straight to the inner generation, so the true
    // cost is ~0); the gate leaves headroom for wall-clock noise on
    // shared CI runners. The measured number lands in the JSON for
    // trend tracking.
    const bool overheadOk = overheadPercent < 5.0;
    std::printf("  quiescent overhead sane: %s (%.1f%%)\n",
                overheadOk ? "yes" : "NO", overheadPercent);

    return traced && startBad && convergedOk && retuned && overheadOk
               ? 0
               : 1;
}
