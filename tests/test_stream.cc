/**
 * @file
 * Streaming admission (stream.hh / LocalityScheduler::streamBegin):
 * concurrent-fork stress with exactly-once execution and batch-equal
 * bin membership, backpressure bounds, seal epochs, fault policies
 * under drain, and session-lifecycle misuse. The whole binary must
 * stay clean under LSCHED_SANITIZE=thread (ctest -L stream).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/error.hh"
#include "support/failpoint.hh"
#include "threads/scheduler.hh"

namespace
{

using namespace lsched::threads;

SchedulerConfig
cfg()
{
    SchedulerConfig c;
    c.dims = 2;
    c.blockBytes = 1 << 16;
    c.groupCapacity = 8;
    return c;
}

/** One execution flag per forked thread; counts double-runs too. */
struct Flags
{
    std::vector<std::atomic<std::uint32_t>> ran;

    explicit Flags(std::size_t n) : ran(n) {}

    static void
    mark(void *self, void *index)
    {
        auto *flags = static_cast<Flags *>(self);
        flags->ran[reinterpret_cast<std::uintptr_t>(index)].fetch_add(
            1, std::memory_order_relaxed);
    }
};

/** Hint for thread @p i of producer @p p: a few hundred distinct bins. */
Hint
hintFor(unsigned p, unsigned i)
{
    return static_cast<Hint>(((p * 7919u + i) % 400u) << 16);
}

TEST(Stream, ConcurrentForkStressMatchesBatch)
{
    constexpr unsigned kProducers = 4;
    constexpr unsigned kPerProducer = 5000;
    constexpr unsigned kTotal = kProducers * kPerProducer;

    SchedulerConfig c = cfg();
    c.streamSealThreshold = 64;
    LocalityScheduler s(c);
    Flags flags(kTotal);

    s.streamBegin(2);
    {
        std::vector<std::thread> producers;
        for (unsigned p = 0; p < kProducers; ++p) {
            producers.emplace_back([&, p] {
                for (unsigned i = 0; i < kPerProducer; ++i) {
                    const std::uintptr_t index = p * kPerProducer + i;
                    s.fork(&Flags::mark, &flags,
                           reinterpret_cast<void *>(index),
                           hintFor(p, i), 0);
                }
            });
        }
        for (std::thread &t : producers)
            t.join();
    }
    EXPECT_EQ(s.streamEnd(), kTotal);

    // Exactly once: every thread ran, none ran twice.
    for (unsigned i = 0; i < kTotal; ++i)
        ASSERT_EQ(flags.ran[i].load(), 1u) << "thread " << i;

    // Bin membership is identical to what the batch path would have
    // produced: coordsFor() is the same placement both paths use.
    std::map<std::vector<std::uint64_t>, std::uint64_t> expected;
    for (unsigned p = 0; p < kProducers; ++p) {
        for (unsigned i = 0; i < kPerProducer; ++i) {
            const Hint hints[] = {hintFor(p, i), 0};
            const BlockCoords coords = s.coordsFor(hints);
            ++expected[{coords.begin(), coords.end()}];
        }
    }
    std::map<std::vector<std::uint64_t>, std::uint64_t> actual;
    for (const StreamBinReport &bin : s.lastStreamBins())
        actual[{bin.coords.begin(), bin.coords.end()}] += bin.threads;
    EXPECT_EQ(actual, expected);

    const StreamStats st = s.streamStats();
    EXPECT_EQ(st.forked, kTotal);
    EXPECT_EQ(st.executed, kTotal);
    EXPECT_EQ(st.backlog, 0u);
    EXPECT_GE(st.seals, 1u);
}

TEST(Stream, EightProducerAdmissionStress)
{
    // Tentpole stress for the lock-free admission path: eight
    // producers hammer one intake table that starts at the minimum
    // slot count (so concurrent freeze-growth cycles are forced), a
    // tight maxPending saturates the ticket gate, and a small seal
    // threshold keeps groups recycling through the shared pool.
    constexpr unsigned kProducers = 8;
    constexpr unsigned kPerProducer = 3000;
    constexpr unsigned kTotal = kProducers * kPerProducer;
    constexpr std::uint64_t kBound = 48;

    SchedulerConfig c = cfg();
    c.hashBuckets = 16;
    c.streamMaxPending = kBound;
    c.streamSealThreshold = 4;
    c.groupCapacity = 4;
    LocalityScheduler s(c);
    Flags flags(kTotal);

    s.streamBegin(2);
    {
        std::vector<std::thread> producers;
        for (unsigned p = 0; p < kProducers; ++p) {
            producers.emplace_back([&, p] {
                for (unsigned i = 0; i < kPerProducer; ++i) {
                    const std::uintptr_t index = p * kPerProducer + i;
                    // Thousands of distinct bins, interleaved across
                    // producers so insert races hit the same slots.
                    const Hint h = static_cast<Hint>(
                        ((p * kPerProducer + i) % 2048u) << 16);
                    s.fork(&Flags::mark, &flags,
                           reinterpret_cast<void *>(index), h, 0);
                }
            });
        }
        for (std::thread &t : producers)
            t.join();
    }
    EXPECT_EQ(s.streamEnd(), kTotal);

    // Exactly once, across every growth cycle and ticket stall.
    for (unsigned i = 0; i < kTotal; ++i)
        ASSERT_EQ(flags.ran[i].load(), 1u) << "thread " << i;

    // Conservation: admissions, executions, and the per-bin report
    // all account for the same threads; the ticket gate held exactly.
    const StreamStats st = s.streamStats();
    EXPECT_EQ(st.forked, kTotal);
    EXPECT_EQ(st.executed, kTotal);
    EXPECT_EQ(st.backlog, 0u);
    EXPECT_LE(st.peakBacklog, kBound);
    std::uint64_t reported = 0;
    for (const StreamBinReport &bin : s.lastStreamBins())
        reported += bin.threads;
    EXPECT_EQ(reported, kTotal);
}

TEST(Stream, BackpressureBoundHolds)
{
    constexpr std::uint64_t kBound = 64;
    constexpr unsigned kProducers = 2;
    constexpr unsigned kPerProducer = 4000;

    SchedulerConfig c = cfg();
    c.streamMaxPending = kBound;
    c.streamSealThreshold = 16;
    LocalityScheduler s(c);
    std::atomic<std::uint64_t> ran{0};

    const std::uint64_t executed = s.runStream(
        1, kProducers, [&](unsigned p) {
            for (unsigned i = 0; i < kPerProducer; ++i) {
                s.fork(
                    [](void *counter, void *) {
                        static_cast<std::atomic<std::uint64_t> *>(
                            counter)
                            ->fetch_add(1, std::memory_order_relaxed);
                    },
                    &ran, nullptr, hintFor(p, i), 0);
            }
        });

    EXPECT_EQ(executed, kProducers * kPerProducer);
    EXPECT_EQ(ran.load(), kProducers * kPerProducer);
    // No fork nests here, so the bound is exact, not just a target.
    const StreamStats st = s.streamStats();
    EXPECT_LE(st.peakBacklog, kBound);
    EXPECT_GT(st.peakBacklog, 0u);

    // The fork path writes no counter but its ticket: forked, backlog,
    // peak and seals are derived from the ticket, retirement and ring
    // words, and each bin's total is bumped once per seal. They must
    // still balance against what ran.
    EXPECT_EQ(st.forked, kProducers * kPerProducer);
    EXPECT_EQ(st.executed, kProducers * kPerProducer);
    EXPECT_EQ(st.backlog, 0u);
    std::uint64_t threads = 0;
    std::uint64_t epochs = 0;
    for (const StreamBinReport &bin : s.lastStreamBins()) {
        threads += bin.threads;
        epochs += bin.epochs;
    }
    EXPECT_EQ(threads, kProducers * kPerProducer);
    // Every seal closes one bin epoch and pushes one chain.
    EXPECT_EQ(st.seals, epochs);
}

TEST(Stream, SealThresholdProducesEpochs)
{
    SchedulerConfig c = cfg();
    c.streamSealThreshold = 10;
    LocalityScheduler s(c);
    std::atomic<std::uint64_t> ran{0};

    s.streamBegin(1);
    for (unsigned i = 0; i < 100; ++i) {
        s.fork(
            [](void *counter, void *) {
                static_cast<std::atomic<std::uint64_t> *>(counter)
                    ->fetch_add(1, std::memory_order_relaxed);
            },
            &ran, nullptr, static_cast<Hint>(1) << 16, 0);
    }
    EXPECT_EQ(s.streamEnd(), 100u);
    EXPECT_EQ(ran.load(), 100u);

    // All 100 threads share one bin; the threshold sealed it in
    // epochs of 10 and every epoch landed back in the same report.
    ASSERT_EQ(s.lastStreamBins().size(), 1u);
    EXPECT_EQ(s.lastStreamBins()[0].threads, 100u);
    EXPECT_GE(s.lastStreamBins()[0].epochs, 10u);
    EXPECT_GE(s.streamStats().seals, 10u);
}

TEST(Stream, SerialBackendDrainsInline)
{
    SchedulerConfig c = cfg();
    c.backend = BackendKind::Serial;
    c.streamSealThreshold = 8;
    LocalityScheduler s(c);
    std::atomic<std::uint64_t> ran{0};

    s.streamBegin();
    for (unsigned i = 0; i < 500; ++i) {
        s.fork(
            [](void *counter, void *) {
                static_cast<std::atomic<std::uint64_t> *>(counter)
                    ->fetch_add(1, std::memory_order_relaxed);
            },
            &ran, nullptr, hintFor(0, i), 0);
    }
    EXPECT_EQ(s.streamEnd(), 500u);
    EXPECT_EQ(ran.load(), 500u);
    // No helpers existed; everything drained on this thread.
    EXPECT_EQ(s.stats().pool.threadsSpawned, 0u);
}

TEST(Stream, StreamThenBatchReusesTheScheduler)
{
    SchedulerConfig c = cfg();
    c.streamSealThreshold = 16;
    LocalityScheduler s(c);
    std::atomic<std::uint64_t> ran{0};
    const auto bump = [](void *counter, void *) {
        static_cast<std::atomic<std::uint64_t> *>(counter)->fetch_add(
            1, std::memory_order_relaxed);
    };

    EXPECT_EQ(s.runStream(2, 2, [&](unsigned p) {
        for (unsigned i = 0; i < 300; ++i)
            s.fork(bump, &ran, nullptr, hintFor(p, i), 0);
    }), 600u);

    // The batch path still works on the same scheduler afterwards,
    // and vice versa: ids, pools, and stats all survive the switch.
    for (unsigned i = 0; i < 200; ++i)
        s.fork(bump, &ran, nullptr, hintFor(0, i), 0);
    EXPECT_EQ(s.runParallel(2), 200u);
    EXPECT_EQ(ran.load(), 800u);
    EXPECT_EQ(s.stats().executedThreads, 800u);

    EXPECT_EQ(s.runStream(2, 1, [&](unsigned) {
        for (unsigned i = 0; i < 100; ++i)
            s.fork(bump, &ran, nullptr, hintFor(1, i), 0);
    }), 100u);
    EXPECT_EQ(ran.load(), 900u);
}

TEST(Stream, ContinueAndCollectRecordsStreamFaults)
{
    SchedulerConfig c = cfg();
    c.onError = ErrorPolicy::ContinueAndCollect;
    c.streamSealThreshold = 8;
    LocalityScheduler s(c);
    std::atomic<std::uint64_t> ran{0};

    const std::uint64_t executed = s.runStream(1, 1, [&](unsigned) {
        for (unsigned i = 0; i < 200; ++i) {
            if (i % 50 == 3) {
                s.fork([](void *, void *) {
                    throw std::runtime_error("stream fault");
                }, nullptr, nullptr, hintFor(0, i), 0);
            } else {
                s.fork(
                    [](void *counter, void *) {
                        static_cast<std::atomic<std::uint64_t> *>(
                            counter)
                            ->fetch_add(1, std::memory_order_relaxed);
                    },
                    &ran, nullptr, hintFor(0, i), 0);
            }
        }
    });

    // Faulted threads are contained and reported, and — exactly as in
    // a batch run — not counted as executed.
    EXPECT_EQ(executed, 196u);
    EXPECT_EQ(ran.load(), 196u);
    EXPECT_EQ(s.streamStats().forked, 200u);
    EXPECT_EQ(s.lastFaultCount(), 4u);
    ASSERT_FALSE(s.lastFaults().empty());
    EXPECT_EQ(s.lastFaults()[0].message, "stream fault");
    EXPECT_EQ(s.stats().faultedThreads, 4u);
}

TEST(Stream, StopTourRethrowsTheFirstStreamFault)
{
    SchedulerConfig c = cfg();
    c.onError = ErrorPolicy::StopTour;
    c.streamSealThreshold = 4;
    LocalityScheduler s(c);

    s.streamBegin(1);
    for (unsigned i = 0; i < 50; ++i) {
        s.fork([](void *, void *) {
            throw std::runtime_error("first loss");
        }, nullptr, nullptr, hintFor(0, i), 0);
    }
    EXPECT_THROW(s.streamEnd(), std::runtime_error);

    // The session is closed and the scheduler reusable.
    EXPECT_FALSE(s.streaming());
    std::atomic<std::uint64_t> ran{0};
    s.fork(
        [](void *counter, void *) {
            static_cast<std::atomic<std::uint64_t> *>(counter)
                ->fetch_add(1, std::memory_order_relaxed);
        },
        &ran, nullptr, 0, 0);
    EXPECT_EQ(s.run(), 1u);
    EXPECT_EQ(ran.load(), 1u);
}

TEST(Stream, TableGrowthAllocationFailureUnwindsInsteadOfWedging)
{
    if (!lsched::failpoint::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    namespace fp = lsched::failpoint;
    // Regression for the grow() unwind: an OOM while allocating the
    // doubled slot array must surface as a recoverable bad_alloc and
    // leave the table live (slots thawed, grower flag released) — not
    // leave every later probe spinning on frozen sentinels.
    //
    // Deterministic site arithmetic (one producer, one table of 16
    // slots): bin creations 1..12 each evaluate the probe-path
    // "bintable.grow" site once, and the 12th publish crosses 3/4
    // load, so the growth-path evaluation is hit 13.
    constexpr unsigned kTrigger = 12;
    constexpr unsigned kTotal = 40;
    SchedulerConfig c = cfg();
    c.hashBuckets = 16;
    c.streamMaxPending = 0;
    LocalityScheduler s(c);
    Flags flags(kTotal);
    fp::disarmAll();
    ASSERT_TRUE(fp::arm("bintable.grow", "hit=13"));

    const auto forkIndex = [&](unsigned i) {
        s.fork(&Flags::mark, &flags,
               reinterpret_cast<void *>(static_cast<std::uintptr_t>(i)),
               static_cast<Hint>(i) << 16, 0);
    };
    s.streamBegin(1);
    for (unsigned i = 0; i + 1 < kTrigger; ++i)
        forkIndex(i);
    EXPECT_THROW(forkIndex(kTrigger - 1), std::bad_alloc);
    fp::disarmAll();
    // The failed fork handed its ticket back: it is neither forked nor
    // pending.
    EXPECT_EQ(s.streamStats().forked, kTrigger - 1);

    // The table survived the failed growth: the interrupted fork
    // retries fine, later creations grow the table for real, and the
    // session closes with exactly-once execution.
    for (unsigned i = kTrigger - 1; i < kTotal; ++i)
        forkIndex(i);
    EXPECT_EQ(s.streamEnd(), kTotal);
    for (unsigned i = 0; i < kTotal; ++i)
        ASSERT_EQ(flags.ran[i].load(), 1u) << "thread " << i;
    const StreamStats st = s.streamStats();
    EXPECT_EQ(st.forked, kTotal);
    EXPECT_EQ(st.backlog, 0u);
    std::uint64_t reported = 0;
    for (const StreamBinReport &bin : s.lastStreamBins())
        reported += bin.threads;
    EXPECT_EQ(reported, kTotal);
}

TEST(Stream, AdmissionTimesOutInsteadOfHangingOnAWedgedPool)
{
    if (!lsched::failpoint::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    namespace fp = lsched::failpoint;
    // Satellite regression for the historic unbounded backpressure
    // wait: with the one drain helper wedged mid-bin and the whole
    // backlog in flight, a producer at the bound must surface
    // AdmissionTimeout after its bounded backoff — never hang.
    SchedulerConfig c = cfg();
    c.streamSealThreshold = 2;
    c.streamMaxPending = 2;
    c.streamAdmitRetries = 4;
    LocalityScheduler s(c);
    fp::disarmAll();
    ASSERT_TRUE(fp::arm("sched.bin.execute", "stall=800"));

    std::atomic<std::uint64_t> ran{0};
    const auto bump = [](void *counter, void *) {
        static_cast<std::atomic<std::uint64_t> *>(counter)->fetch_add(
            1, std::memory_order_relaxed);
    };
    s.streamBegin(1);
    // Two forks fill one bin to the seal threshold; the helper claims
    // the sealed epoch and stalls inside it, holding pending at the
    // bound with nothing left to seal or drain inline. The fail-point
    // hit count is the observable proof the helper entered the stall.
    s.fork(bump, &ran, nullptr, static_cast<Hint>(1) << 16, 0);
    s.fork(bump, &ran, nullptr, static_cast<Hint>(1) << 16, 0);
    const auto claimStart = std::chrono::steady_clock::now();
    while (fp::hitCount("sched.bin.execute") == 0 &&
           std::chrono::steady_clock::now() - claimStart <
               std::chrono::seconds(5)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_GE(fp::hitCount("sched.bin.execute"), 1u);

    EXPECT_THROW(
        s.fork(bump, &ran, nullptr, static_cast<Hint>(1) << 16, 0),
        lsched::AdmissionTimeout);

    const RecoverySnapshot r = s.recoverySnapshot();
    EXPECT_GE(r.admissionRetries, 4u);
    EXPECT_EQ(r.admissionTimeouts, 1u);
    // The timed-out fork refunded its ticket: only the two forks that
    // returned count as forked.
    EXPECT_EQ(s.streamStats().forked, 2u);

    // The stream is still healthy: once the stall clears, the wedged
    // epoch drains and the session closes normally.
    EXPECT_EQ(s.streamEnd(), 2u);
    EXPECT_EQ(ran.load(), 2u);
    const StreamStats st = s.streamStats();
    EXPECT_EQ(st.forked, 2u);
    EXPECT_EQ(st.executed, 2u);
    EXPECT_EQ(st.backlog, 0u);
    fp::disarmAll();
}

TEST(Stream, EpochDeadlineCancelsAWedgedStream)
{
    if (!lsched::failpoint::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    namespace fp = lsched::failpoint;
    // Tentpole: a standing backlog that retires nothing for a whole
    // deadline period is cancelled cooperatively and streamEnd()
    // surfaces DeadlineError (under Abort/StopTour).
    SchedulerConfig c = cfg();
    c.streamSealThreshold = 2;
    c.deadlineMillis = 80;
    LocalityScheduler s(c);
    fp::disarmAll();
    ASSERT_TRUE(fp::arm("sched.bin.execute", "stall=900"));

    std::atomic<std::uint64_t> ran{0};
    const auto bump = [](void *counter, void *) {
        static_cast<std::atomic<std::uint64_t> *>(counter)->fetch_add(
            1, std::memory_order_relaxed);
    };
    s.streamBegin(1);
    for (int i = 0; i < 4; ++i)
        s.fork(bump, &ran, nullptr, static_cast<Hint>(1) << 16, 0);
    // Keep the session open past two deadline periods so the monitor
    // can observe the wedged epoch (streamEnd stops the monitor).
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_THROW(s.streamEnd(), lsched::DeadlineError);
    fp::disarmAll();

    // Nothing ran (the helper was wedged until after the cancel), and
    // every dropped thread is accounted.
    EXPECT_EQ(ran.load(), 0u);
    const RecoverySnapshot r = s.recoverySnapshot();
    EXPECT_GE(r.deadlines, 1u);
    EXPECT_EQ(r.cancelledThreads, 4u);

    // The scheduler survives: a fresh batch run works immediately.
    EXPECT_FALSE(s.streaming());
    s.fork(bump, &ran, nullptr, 0, 0);
    EXPECT_EQ(s.run(), 1u);
    EXPECT_EQ(ran.load(), 1u);
}

TEST(Stream, EpochDeadlineUnderContinueAndCollectReturnsNormally)
{
    if (!lsched::failpoint::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    namespace fp = lsched::failpoint;
    SchedulerConfig c = cfg();
    c.onError = ErrorPolicy::ContinueAndCollect;
    c.streamSealThreshold = 2;
    c.deadlineMillis = 80;
    LocalityScheduler s(c);
    fp::disarmAll();
    ASSERT_TRUE(fp::arm("sched.bin.execute", "stall=900"));

    std::atomic<std::uint64_t> ran{0};
    const auto bump = [](void *counter, void *) {
        static_cast<std::atomic<std::uint64_t> *>(counter)->fetch_add(
            1, std::memory_order_relaxed);
    };
    s.streamBegin(1);
    for (int i = 0; i < 4; ++i)
        s.fork(bump, &ran, nullptr, static_cast<Hint>(1) << 16, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    // ContinueAndCollect: the cancelled stream closes normally with
    // the dropped threads recorded as contained faults.
    std::uint64_t executed = 0;
    EXPECT_NO_THROW(executed = s.streamEnd());
    fp::disarmAll();
    EXPECT_EQ(executed, ran.load());
    EXPECT_EQ(executed + s.lastFaultCount(), 4u);
    EXPECT_GE(s.recoverySnapshot().deadlines, 1u);
}

TEST(Stream, DegradedStreamShedsLoadAndStopsBlockingProducers)
{
    if (!lsched::failpoint::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    namespace fp = lsched::failpoint;
    // Governor in the stream: with the whole backlog wedged in flight
    // on the one drain helper, the monitor degrades the session and
    // admission overshoots the bound (soft) instead of blocking — even
    // with a retry budget that would otherwise time out. Every thread
    // still runs exactly once.
    SchedulerConfig c = cfg();
    c.streamSealThreshold = 2;
    c.streamMaxPending = 2;
    c.streamAdmitRetries = 2;
    c.overloadEpochs = 2;
    c.recoverEpochs = 1;
    LocalityScheduler s(c);
    fp::disarmAll();
    ASSERT_TRUE(fp::arm("sched.bin.execute", "stall=1200"));

    std::atomic<std::uint64_t> ran{0};
    const auto bump = [](void *counter, void *) {
        static_cast<std::atomic<std::uint64_t> *>(counter)->fetch_add(
            1, std::memory_order_relaxed);
    };
    s.streamBegin(1);
    s.fork(bump, &ran, nullptr, static_cast<Hint>(1) << 16, 0);
    s.fork(bump, &ran, nullptr, static_cast<Hint>(1) << 16, 0);
    const auto start = std::chrono::steady_clock::now();
    while (fp::hitCount("sched.bin.execute") == 0 &&
           std::chrono::steady_clock::now() - start <
               std::chrono::seconds(5)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_GE(fp::hitCount("sched.bin.execute"), 1u)
        << "helper never claimed the sealed epoch";
    while (s.recoveryState() != RecoveryState::Degraded &&
           std::chrono::steady_clock::now() - start <
               std::chrono::seconds(5)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(s.recoveryState(), RecoveryState::Degraded);
    // Only the already-sleeping helper keeps stalling from here.
    fp::disarmAll();

    // A degraded session admits past the bound without blocking or
    // timing out, while the helper is still wedged.
    for (int i = 0; i < 6; ++i)
        s.fork(bump, &ran, nullptr, static_cast<Hint>(2) << 16, 0);
    EXPECT_GT(s.streamStats().peakBacklog, 2u)
        << "degraded admission must overshoot the bound, not block";
    EXPECT_EQ(s.streamEnd(), 8u);
    EXPECT_EQ(ran.load(), 8u);

    const RecoverySnapshot r = s.recoverySnapshot();
    EXPECT_GE(r.loadSheds, 1u);
    EXPECT_EQ(r.admissionTimeouts, 0u);
}

TEST(Stream, LifecycleMisuseIsReported)
{
    LocalityScheduler s(cfg());
    EXPECT_THROW(s.streamEnd(), lsched::UsageError);

    s.fork([](void *, void *) {}, nullptr, nullptr, 0, 0);
    EXPECT_THROW(s.streamBegin(1), lsched::UsageError);
    s.clear();

    s.streamBegin(1);
    EXPECT_TRUE(s.streaming());
    EXPECT_THROW(s.streamBegin(1), lsched::UsageError);
    EXPECT_THROW(s.run(), lsched::UsageError);
    EXPECT_EQ(s.streamEnd(), 0u);
    EXPECT_FALSE(s.streaming());
}

} // namespace
