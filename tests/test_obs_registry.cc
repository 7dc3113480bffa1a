/**
 * @file
 * Unit tests for the metrics registry: instrument semantics, export
 * renderings, and correctness under concurrent runParallel updates.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/registry.hh"
#include "obs/trace.hh"
#include "threads/scheduler.hh"

namespace
{

using lsched::obs::Counter;
using lsched::obs::Histogram;
using lsched::obs::Registry;

TEST(ObsRegistry, CounterAddsAndResets)
{
    Registry r;
    Counter &c = r.counter("test.counter");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    // Find-or-create returns the same instrument.
    EXPECT_EQ(&r.counter("test.counter"), &c);
    r.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ObsRegistry, GaugeHoldsLastValue)
{
    Registry r;
    auto &g = r.gauge("test.gauge");
    g.set(7);
    g.set(3);
    EXPECT_EQ(g.value(), 3u);
}

TEST(ObsRegistry, HistogramSummaryIsExact)
{
    Registry r;
    Histogram &h = r.histogram("test.hist");
    for (std::uint64_t v : {5u, 1u, 9u, 0u, 5u})
        h.record(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 20u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 9u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

TEST(ObsRegistry, HistogramBucketsByBitWidth)
{
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(1024), 11u);
    EXPECT_EQ(Histogram::bucketOf(~0ull), 64u);

    Histogram h;
    h.record(0);
    h.record(2);
    h.record(3);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_EQ(h.bucket(1), 0u);
}

TEST(ObsRegistry, RendersAllFormats)
{
    Registry r;
    r.counter("alpha").add(3);
    r.gauge("beta").set(5);
    r.histogram("gamma").record(8);

    const auto rows = r.rows();
    ASSERT_EQ(rows.size(), 3u);

    const std::string text = r.toText();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("counter"), std::string::npos);

    const std::string csv = r.toCsv();
    EXPECT_NE(csv.find("alpha,"), std::string::npos);

    const std::string json = r.toJson();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"alpha\":3"), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

void
bumpCounter(void *counter_p, void *)
{
    static_cast<Counter *>(counter_p)->add();
}

TEST(ObsRegistry, CountsAreExactUnderRunParallel)
{
    namespace obs = lsched::obs;
    namespace threads = lsched::threads;

    obs::setMetricsEnabled(true);
    Counter &hits = Registry::global().counter("test.parallel.hits");
    hits.reset();
    Counter &executed =
        Registry::global().counter("sched.threads.executed");
    const std::uint64_t executed_before = executed.value();

    threads::SchedulerConfig cfg;
    cfg.dims = 1;
    cfg.blockBytes = 4096;
    threads::LocalityScheduler sched(cfg);
    constexpr std::uint64_t kThreads = 1000;
    for (std::uint64_t i = 0; i < kThreads; ++i) {
        sched.fork(&bumpCounter, &hits, nullptr,
                   static_cast<threads::Hint>(i * 512));
    }
    EXPECT_EQ(sched.runParallel(4, false), kThreads);

    EXPECT_EQ(hits.value(), kThreads);
    if (obs::kTraceCompiled) {
        EXPECT_EQ(executed.value() - executed_before, kThreads);
    }
    obs::setMetricsEnabled(false);
}

TEST(ObsRegistry, SchedulerPublishesOccupancyGauges)
{
    namespace obs = lsched::obs;
    namespace threads = lsched::threads;

    obs::setMetricsEnabled(true);
    threads::SchedulerConfig cfg;
    cfg.dims = 1;
    cfg.blockBytes = 4096;
    threads::LocalityScheduler sched(cfg);
    for (std::uint64_t i = 0; i < 8; ++i) {
        sched.fork(&bumpCounter,
                   &Registry::global().counter("test.occupancy.hits"),
                   nullptr, static_cast<threads::Hint>((i % 2) * 65536));
    }
    const auto stats = sched.stats();
    EXPECT_EQ(stats.occupiedBins, 2u);
    if (obs::kTraceCompiled) {
        EXPECT_EQ(
            Registry::global().gauge("sched.bins.occupied").value(),
            2u);
        EXPECT_EQ(
            Registry::global().gauge("sched.pending_threads").value(),
            8u);
    }
    sched.run(false);
    obs::setMetricsEnabled(false);
}

} // namespace
