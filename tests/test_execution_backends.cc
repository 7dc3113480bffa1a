/**
 * @file
 * Tests for the execution backends (threads/execution.hh): serial
 * and pooled run the same fork set exactly once with identical
 * per-bin membership, the pool spawns its helpers once across tours,
 * and fault containment behaves identically on both (each routes
 * through the one executeBin()).
 *
 * Lives in the pool test binary: everything here must stay clean under
 * LSCHED_SANITIZE=thread, so no death tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include "support/error.hh"
#include "support/failpoint.hh"
#include "threads/scheduler.hh"

namespace
{

namespace fp = lsched::failpoint;
using namespace lsched::threads;

SchedulerConfig
backendCfg(BackendKind backend)
{
    SchedulerConfig c;
    c.dims = 2;
    c.blockBytes = 1 << 12;
    c.backend = backend;
    c.groupCapacity = 8;
    return c;
}

/** Per-fork execution log: count and the bin that ran each tag. */
struct ForkLog
{
    std::vector<std::atomic<std::uint32_t>> count;
    std::vector<std::atomic<std::uint32_t>> bin;

    explicit ForkLog(std::size_t forks) : count(forks), bin(forks)
    {
        for (std::size_t i = 0; i < forks; ++i) {
            count[i].store(0);
            bin[i].store(~0u);
        }
    }
};

struct TaggedArg
{
    ForkLog *log;
    std::uint32_t tag;
    std::uint32_t binTag;
};

void
recordRun(void *arg, void *)
{
    const TaggedArg &t = *static_cast<const TaggedArg *>(arg);
    t.log->count[t.tag].fetch_add(1, std::memory_order_relaxed);
    t.log->bin[t.tag].store(t.binTag, std::memory_order_relaxed);
}

/** Fork kForks threads over kBlocks address blocks, round-robin. */
constexpr std::size_t kForks = 96;
constexpr std::size_t kBlocks = 12;

void
forkWorkload(LocalityScheduler &s, ForkLog &log,
             std::vector<TaggedArg> &args)
{
    args.resize(kForks);
    for (std::uint32_t i = 0; i < kForks; ++i) {
        const std::uint32_t block = i % kBlocks;
        args[i] = {&log, i, block};
        s.fork(recordRun, &args[i], nullptr,
               static_cast<Hint>(block) << 13, 0);
    }
}

TEST(ExecutionBackends, SameForkSetSameBinsOnEveryBackend)
{
    // The acceptance property of the layer split: with BlockHash
    // placement, backend choice changes *how* bins run, never *what*
    // runs or which threads share a bin.
    std::map<std::uint32_t, std::uint32_t> reference; // tag -> binTag
    for (const BackendKind backend :
         {BackendKind::Serial, BackendKind::Pooled}) {
        LocalityScheduler s(backendCfg(backend));
        ForkLog log(kForks);
        std::vector<TaggedArg> args;
        forkWorkload(s, log, args);

        EXPECT_EQ(s.runParallel(4), kForks)
            << backendName(backend);
        for (std::uint32_t i = 0; i < kForks; ++i) {
            EXPECT_EQ(log.count[i].load(), 1u)
                << backendName(backend) << " fork " << i;
            if (backend == BackendKind::Serial)
                reference[i] = log.bin[i].load();
            else
                EXPECT_EQ(log.bin[i].load(), reference[i])
                    << backendName(backend) << " fork " << i
                    << ": per-bin membership must match serial";
        }
        EXPECT_EQ(s.pendingThreads(), 0u);
    }
}

TEST(ExecutionBackends, PooledSpawnsHelpersOnceAcrossTours)
{
    // Three 4-worker tours on one scheduler: the first spawns the
    // three helpers, the later two reuse them parked.
    LocalityScheduler s(backendCfg(BackendKind::Pooled));
    for (int tour = 0; tour < 3; ++tour) {
        ForkLog log(kForks);
        std::vector<TaggedArg> args;
        forkWorkload(s, log, args);
        s.runParallel(4);
    }
    EXPECT_EQ(s.workerPoolStats().tours, 3u);
    EXPECT_EQ(s.workerPoolStats().threadsSpawned, 3u);
}

TEST(ExecutionBackends, SerialBackendIgnoresWorkerCount)
{
    // backend=serial must run the tour on the caller even when the
    // caller asks for parallel workers — no pool is ever built.
    LocalityScheduler s(backendCfg(BackendKind::Serial));
    ForkLog log(kForks);
    std::vector<TaggedArg> args;
    forkWorkload(s, log, args);
    EXPECT_EQ(s.runParallel(8), kForks);
    EXPECT_EQ(s.workerPoolStats().threadsSpawned, 0u);
    EXPECT_EQ(s.workerPoolStats().tours, 0u);
}

TEST(ExecutionBackends, StopTourContainsTheFaultOnEveryBackend)
{
    if (!fp::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    for (const BackendKind backend :
         {BackendKind::Serial, BackendKind::Pooled}) {
        SchedulerConfig c = backendCfg(backend);
        c.onError = ErrorPolicy::StopTour;
        LocalityScheduler s(c);
        fp::disarmAll();
        ASSERT_TRUE(fp::arm("sched.bin.execute", "hit=2"));

        ForkLog log(kForks);
        std::vector<TaggedArg> args;
        forkWorkload(s, log, args);
        EXPECT_THROW(s.runParallel(4), fp::Injected)
            << backendName(backend);
        EXPECT_EQ(s.lastFaultCount(), 1u) << backendName(backend);
        EXPECT_EQ(s.pendingThreads(), 0u) << backendName(backend);
        fp::disarmAll();

        // The scheduler (pool included) is immediately reusable.
        ForkLog fresh(kForks);
        forkWorkload(s, fresh, args);
        EXPECT_EQ(s.runParallel(4), kForks) << backendName(backend);
    }
}

TEST(ExecutionBackends, ContinueAndCollectRunsTheRestOnEveryBackend)
{
    if (!fp::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    for (const BackendKind backend :
         {BackendKind::Serial, BackendKind::Pooled}) {
        SchedulerConfig c = backendCfg(backend);
        c.onError = ErrorPolicy::ContinueAndCollect;
        LocalityScheduler s(c);
        fp::disarmAll();
        // One bin's top-of-execution fault is recorded; every forked
        // thread still runs (the fault fires before the first item).
        ASSERT_TRUE(fp::arm("sched.bin.execute", "hit=3"));

        ForkLog log(kForks);
        std::vector<TaggedArg> args;
        forkWorkload(s, log, args);
        EXPECT_EQ(s.runParallel(4), kForks) << backendName(backend);
        EXPECT_EQ(s.lastFaultCount(), 1u) << backendName(backend);
        for (std::uint32_t i = 0; i < kForks; ++i)
            EXPECT_EQ(log.count[i].load(), 1u)
                << backendName(backend) << " fork " << i;
        fp::disarmAll();
    }
}

TEST(ExecutionBackends, DeadlineCancelsAWedgedTourOnEveryBackend)
{
    if (!fp::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    // Abort and StopTour surface an expired deadline as DeadlineError;
    // the scheduler is clean and reusable afterwards — on both
    // backends, since each routes through the same executeBin()
    // cancellation boundary.
    for (const ErrorPolicy policy :
         {ErrorPolicy::Abort, ErrorPolicy::StopTour}) {
        for (const BackendKind backend :
             {BackendKind::Serial, BackendKind::Pooled}) {
            SchedulerConfig c = backendCfg(backend);
            c.onError = policy;
            c.deadlineMillis = 50;
            LocalityScheduler s(c);
            fp::disarmAll();
            // Every bin execution stalls well past the deadline: a
            // wedged worker, not a thrown fault.
            ASSERT_TRUE(fp::arm("sched.bin.execute", "stall=150"));

            ForkLog log(kForks);
            std::vector<TaggedArg> args;
            forkWorkload(s, log, args);
            const RecoverySnapshot before = s.recoverySnapshot();
            EXPECT_THROW(s.runParallel(4), lsched::DeadlineError)
                << backendName(backend);
            fp::disarmAll();

            const RecoverySnapshot after = s.recoverySnapshot();
            EXPECT_EQ(after.deadlines, before.deadlines + 1)
                << backendName(backend);
            EXPECT_GT(after.cancelledThreads, before.cancelledThreads)
                << backendName(backend);
            EXPECT_EQ(s.pendingThreads(), 0u) << backendName(backend);

            // Immediately reusable: the cancelled tour left no debris.
            ForkLog fresh(kForks);
            forkWorkload(s, fresh, args);
            EXPECT_EQ(s.runParallel(4), kForks)
                << backendName(backend);
        }
    }
}

TEST(ExecutionBackends, DeadlineUnderContinueAndCollectIsRecorded)
{
    if (!fp::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    // ContinueAndCollect returns normally from a cancelled tour: the
    // dropped threads are accounted as per-bin cancellation faults and
    // executed + faults covers every fork exactly once.
    for (const BackendKind backend :
         {BackendKind::Serial, BackendKind::Pooled}) {
        SchedulerConfig c = backendCfg(backend);
        c.onError = ErrorPolicy::ContinueAndCollect;
        c.deadlineMillis = 50;
        LocalityScheduler s(c);
        fp::disarmAll();
        ASSERT_TRUE(fp::arm("sched.bin.execute", "stall=150"));

        ForkLog log(kForks);
        std::vector<TaggedArg> args;
        forkWorkload(s, log, args);
        std::uint64_t executed = 0;
        EXPECT_NO_THROW(executed = s.runParallel(4))
            << backendName(backend);
        fp::disarmAll();

        EXPECT_LT(executed, kForks) << backendName(backend);
        EXPECT_EQ(executed + s.lastFaultCount(), kForks)
            << backendName(backend);
        EXPECT_GT(s.recoverySnapshot().cancelledBins, 0u)
            << backendName(backend);
        EXPECT_EQ(s.pendingThreads(), 0u) << backendName(backend);
        for (std::uint32_t i = 0; i < kForks; ++i)
            EXPECT_LE(log.count[i].load(), 1u)
                << backendName(backend) << " fork " << i
                << ": ran twice";
    }
}

TEST(ExecutionBackends, WatchdogActionCancelEscalatesToDeadlineError)
{
    if (!fp::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    SchedulerConfig c = backendCfg(BackendKind::Pooled);
    c.watchdogMillis = 40;
    c.watchdogAction = WatchdogAction::Cancel;
    LocalityScheduler s(c);
    fp::disarmAll();
    ASSERT_TRUE(fp::arm("sched.bin.execute", "stall=150"));

    ForkLog log(kForks);
    std::vector<TaggedArg> args;
    forkWorkload(s, log, args);
    EXPECT_THROW(s.runParallel(4), lsched::DeadlineError);
    fp::disarmAll();
    EXPECT_EQ(s.recoverySnapshot().watchdogCancels, 1u);
    EXPECT_EQ(s.pendingThreads(), 0u);

    // The default watchdog action still only reports: same stall, a
    // longer leash, and the tour completes with zero cancellations.
    SchedulerConfig observe = backendCfg(BackendKind::Pooled);
    observe.watchdogMillis = 40;
    LocalityScheduler s2(observe);
    ASSERT_TRUE(fp::arm("sched.bin.execute", "stall=30"));
    ForkLog fresh(kForks);
    forkWorkload(s2, fresh, args);
    EXPECT_EQ(s2.runParallel(4), kForks);
    fp::disarmAll();
    EXPECT_EQ(s2.recoverySnapshot().watchdogCancels, 0u);
}

TEST(ExecutionBackends, GovernorDegradesToSerialAndRecovers)
{
    if (!fp::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    // Two consecutive deadline-cancelled tours degrade the governor;
    // degraded tours step down to the serial path (no new pool tours)
    // until two healthy tours in a row recover it.
    SchedulerConfig c = backendCfg(BackendKind::Pooled);
    c.onError = ErrorPolicy::ContinueAndCollect;
    c.deadlineMillis = 40;
    c.overloadEpochs = 2;
    c.recoverEpochs = 2;
    LocalityScheduler s(c);
    fp::disarmAll();

    for (int round = 0; round < 2; ++round) {
        ASSERT_TRUE(fp::arm("sched.bin.execute", "stall=120"));
        ForkLog log(kForks);
        std::vector<TaggedArg> args;
        forkWorkload(s, log, args);
        s.runParallel(4);
        fp::disarmAll();
    }
    EXPECT_EQ(s.recoveryState(), RecoveryState::Degraded);
    const std::uint64_t poolTours = s.workerPoolStats().tours;

    // Degraded: the next two tours run serially (and healthily).
    for (int round = 0; round < 2; ++round) {
        EXPECT_EQ(s.recoveryState(), RecoveryState::Degraded)
            << "round " << round;
        ForkLog log(kForks);
        std::vector<TaggedArg> args;
        forkWorkload(s, log, args);
        EXPECT_EQ(s.runParallel(4), kForks) << "round " << round;
    }
    EXPECT_EQ(s.workerPoolStats().tours, poolTours)
        << "degraded tours must not fan out over the pool";
    EXPECT_EQ(s.recoverySnapshot().degradedTours, 2u);
    EXPECT_EQ(s.recoveryState(), RecoveryState::Recovered);
    EXPECT_EQ(s.recoverySnapshot().recoveries, 1u);

    // Recovered behaves as healthy: the pool fans out again.
    ForkLog log(kForks);
    std::vector<TaggedArg> args;
    forkWorkload(s, log, args);
    EXPECT_EQ(s.runParallel(4), kForks);
    EXPECT_EQ(s.workerPoolStats().tours, poolTours + 1);
    EXPECT_EQ(s.recoveryState(), RecoveryState::Healthy);
}

TEST(ExecutionBackends, ReconfigureKeepsSpawnCountersMonotone)
{
    // Regression: workerPoolStats() must accumulate across
    // configure() — the retired pool's spawns/steals/parks fold into
    // the running totals instead of resetting, whatever pool config
    // replaces it.
    LocalityScheduler s(backendCfg(BackendKind::Pooled));
    std::uint64_t lastSpawned = 0;
    for (int round = 0; round < 3; ++round) {
        ForkLog log(kForks);
        std::vector<TaggedArg> args;
        forkWorkload(s, log, args);
        s.runParallel(3);
        const WorkerPoolStats stats = s.workerPoolStats();
        EXPECT_GE(stats.threadsSpawned, lastSpawned)
            << "round " << round << ": threadsSpawned went backwards";
        EXPECT_EQ(stats.threadsSpawned, 2u * (round + 1))
            << "round " << round;
        lastSpawned = stats.threadsSpawned;

        SchedulerConfig next = backendCfg(BackendKind::Pooled);
        next.pinWorkers = round % 2 == 0;
        s.configure(next); // retires the pool, stats must survive
        EXPECT_EQ(s.workerPoolStats().threadsSpawned, lastSpawned)
            << "round " << round << ": configure() dropped stats";
    }
    EXPECT_EQ(s.workerPoolStats().tours, 3u);
}

} // namespace
