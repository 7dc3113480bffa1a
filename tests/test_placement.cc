/**
 * @file
 * Tests for the placement layer (threads/placement.hh): name
 * round-trips, each policy's binning behavior, super-bin grouping of a
 * tour, and the fixed-arity fork()'s explicit hint-span widening /
 * truncation (the dims != 3 contract).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <set>
#include <vector>

#include "support/error.hh"
#include "threads/execution.hh"
#include "threads/placement.hh"
#include "threads/scheduler.hh"
#include "threads/tour.hh"

namespace
{

using namespace lsched::threads;

TEST(PlacementNames, RoundTripAndRejectUnknown)
{
    for (const PlacementKind kind :
         {PlacementKind::BlockHash, PlacementKind::RoundRobin,
          PlacementKind::Hierarchical}) {
        PlacementKind parsed = PlacementKind::BlockHash;
        EXPECT_TRUE(tryPlacementFromName(placementName(kind), &parsed));
        EXPECT_EQ(parsed, kind);
    }
    PlacementKind out = PlacementKind::Hierarchical;
    EXPECT_FALSE(tryPlacementFromName("fifo", &out));
    EXPECT_EQ(out, PlacementKind::Hierarchical) << "out must be untouched";
}

TEST(BackendNames, RoundTripAndRejectUnknown)
{
    for (const BackendKind kind :
         {BackendKind::Serial, BackendKind::Pooled}) {
        BackendKind parsed = kind == BackendKind::Serial
                                 ? BackendKind::Pooled
                                 : BackendKind::Serial;
        EXPECT_TRUE(tryBackendFromName(backendName(kind), &parsed));
        EXPECT_EQ(parsed, kind);
    }
    // The removed spawn-per-tour backend is an unknown name now.
    for (const char *name : {"openmp", "coldspawn"}) {
        BackendKind out = BackendKind::Pooled;
        EXPECT_FALSE(tryBackendFromName(name, &out)) << name;
        EXPECT_EQ(out, BackendKind::Pooled) << name;
    }
}

TEST(BlockHashPlacement, SameBlockSameBinAndSymmetricFold)
{
    BlockHashPlacement plain(2, 1 << 12, /*symmetric=*/false);
    const Hint a = 0x1000, b = 0x2800, far = 0x9000;
    const Hint ab[] = {a, b};
    const Hint ba[] = {b, a};
    const Hint af[] = {a, far};
    EXPECT_EQ(plain.place(ab).coords, plain.place(ab).coords);
    EXPECT_NE(plain.place(ab).coords, plain.place(af).coords);
    EXPECT_EQ(plain.place(ab).superBin, kNoSuperBin);

    BlockHashPlacement folded(2, 1 << 12, /*symmetric=*/true);
    EXPECT_EQ(folded.place(ab).coords, folded.place(ba).coords);
    EXPECT_NE(plain.place(ab).coords, plain.place(ba).coords)
        << "unfolded placement must keep the orders distinct";
}

TEST(RoundRobinPlacement, IgnoresHintsAndCyclesOverBins)
{
    RoundRobinPlacement rr(4);
    const Hint same[] = {0x1000, 0x1000};
    std::vector<std::uint64_t> firstCycle;
    for (int i = 0; i < 8; ++i) {
        const PlacementDecision d = rr.place(same);
        EXPECT_EQ(d.superBin, kNoSuperBin);
        if (i < 4)
            firstCycle.push_back(d.coords[0]);
        else
            EXPECT_EQ(d.coords[0], firstCycle[i - 4]) << "period 4";
    }
    // Identical hints still spread over all four bins.
    EXPECT_EQ(std::set<std::uint64_t>(firstCycle.begin(),
                                      firstCycle.end())
                  .size(),
              4u);
}

TEST(RoundRobinPlacement, PeekDoesNotAdvanceTheCursor)
{
    RoundRobinPlacement rr(4);
    const Hint same[] = {0x1000, 0x1000};
    // Any number of peeks answer with the NEXT bin without consuming
    // it: the following place() must land exactly there.
    for (int round = 0; round < 3; ++round) {
        const std::uint64_t upcoming = rr.peek(same).coords[0];
        EXPECT_EQ(rr.peek(same).coords[0], upcoming);
        EXPECT_EQ(rr.place(same).coords[0], upcoming) << round;
    }
    EXPECT_FALSE(rr.stateless());
}

TEST(SchedulerPlacement, CoordsForDoesNotAdvanceRoundRobin)
{
    // The regression this API exists for: coordsFor() used to call
    // place(), so every inspection silently burned a round-robin slot
    // and the next fork landed one bin further than reported.
    SchedulerConfig c;
    c.placement = PlacementKind::RoundRobin;
    c.roundRobinBins = 4;
    LocalityScheduler s(c);
    const Hint hints[] = {0x1000};

    const BlockCoords predicted = s.coordsFor(hints);
    EXPECT_EQ(s.coordsFor(hints), predicted) << "peek is idempotent";
    s.fork([](void *, void *) {}, nullptr, nullptr, hints[0], 0);
    // The forked thread landed in the bin coordsFor() predicted.
    ASSERT_EQ(s.binCount(), 1u);
    EXPECT_EQ(s.run(), 1u);
}

TEST(SchedulerPlacement, CoordsForCreatesNoHierarchicalState)
{
    SchedulerConfig c;
    c.placement = PlacementKind::Hierarchical;
    c.blockBytes = 1 << 12;
    c.superBinFan = 2;
    LocalityScheduler s(c);
    const Hint hints[] = {0x1000};

    // Peeking must not allocate super-bins as a side effect.
    const auto &h = static_cast<const TopologyPlacement &>(
        s.placementPolicy());
    (void)s.coordsFor(hints);
    EXPECT_EQ(h.superBinCount(), 0u);
    s.fork([](void *, void *) {}, nullptr, nullptr, hints[0], 0);
    EXPECT_EQ(h.superBinCount(), 1u);
    EXPECT_EQ(s.run(), 1u);
}

TEST(TopologyPlacement, GroupsAdjacentBlocksIntoSuperBins)
{
    // 1-dim, 4 KB blocks, fan 2: blocks {0,1} share super-bin 0,
    // blocks {2,3} super-bin 1, ids in creation order.
    TopologyPlacement h(1, 1 << 12, false, /*fan=*/2);
    const auto superOf = [&](Hint hint) {
        const Hint hints[] = {hint};
        return h.place(hints).superBin;
    };
    const std::uint32_t s0 = superOf(0x0000);
    EXPECT_EQ(superOf(0x1000), s0);
    const std::uint32_t s1 = superOf(0x2000);
    EXPECT_NE(s1, s0);
    EXPECT_EQ(superOf(0x3000), s1);
    EXPECT_EQ(h.superBinCount(), 2u);
    EXPECT_TRUE(h.hierarchical());
}

TEST(TopologyPlacement, GroupBySuperBinsKeepsGroupsContiguous)
{
    // An interleaved tour regroups by super-bin, stably within one.
    std::deque<Bin> storage(6);
    std::vector<Bin *> tour;
    const std::uint32_t supers[] = {1, 0, 1, kNoSuperBin, 0, 1};
    for (int i = 0; i < 6; ++i) {
        storage[i].id = static_cast<std::uint32_t>(i);
        storage[i].superBin = supers[i];
        tour.push_back(&storage[i]);
    }
    const std::vector<Bin *> grouped = groupBySuperBins(std::move(tour));
    std::vector<std::uint32_t> ids;
    for (const Bin *b : grouped)
        ids.push_back(b->id);
    // super 0: bins 1,4; super 1: bins 0,2,5; unplaced last: bin 3.
    EXPECT_EQ(ids, (std::vector<std::uint32_t>{1, 4, 0, 2, 5, 3}));
}

TEST(SchedulerPlacement, RoundRobinScramblesWhatBlockHashKeeps)
{
    // 16 forks into 2 address blocks: blockhash makes 2 bins,
    // roundrobin (bins=8) makes 8 regardless of the same hints.
    const auto binsUsed = [](PlacementKind kind) {
        SchedulerConfig c;
        c.dims = 1;
        c.blockBytes = 1 << 12;
        c.placement = kind;
        c.roundRobinBins = 8;
        LocalityScheduler s(c);
        for (int i = 0; i < 16; ++i)
            s.fork([](void *, void *) {}, nullptr, nullptr,
                   static_cast<Hint>(i % 2) << 12);
        const std::uint64_t occupied = s.stats().occupiedBins;
        s.run();
        return occupied;
    };
    EXPECT_EQ(binsUsed(PlacementKind::BlockHash), 2u);
    EXPECT_EQ(binsUsed(PlacementKind::RoundRobin), 8u);
}

TEST(SchedulerPlacement, HierarchicalRunsEveryThreadOnceInParallel)
{
    SchedulerConfig c;
    c.dims = 1;
    c.blockBytes = 1 << 12;
    c.placement = PlacementKind::Hierarchical;
    c.superBinFan = 2;
    LocalityScheduler s(c);
    std::vector<std::atomic<int>> hits(32);
    for (auto &h : hits)
        h.store(0);
    for (std::uintptr_t i = 0; i < 32; ++i)
        s.fork(
            [](void *arg, void *) {
                static_cast<std::atomic<int> *>(arg)->fetch_add(1);
            },
            &hits[i], nullptr, static_cast<Hint>(i % 8) << 12);
    EXPECT_EQ(s.runParallel(4), 32u);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "thread " << i;
    const auto &policy = dynamic_cast<const TopologyPlacement &>(
        s.placementPolicy());
    EXPECT_EQ(policy.superBinCount(), 4u); // 8 blocks / fan 2
}

TEST(FixedArityFork, TruncatesToConfiguredDimsAndRejectsLostHints)
{
    // dims=2: hint3 is outside the scheduling space. Zero passes
    // (nothing is lost); a non-zero hint3 is a caller error, not a
    // silent drop.
    SchedulerConfig c;
    c.dims = 2;
    c.blockBytes = 1 << 12;
    LocalityScheduler s(c);
    EXPECT_NO_THROW(
        s.fork([](void *, void *) {}, nullptr, nullptr, 0x1000, 0x2000, 0));
    EXPECT_THROW(s.fork([](void *, void *) {}, nullptr, nullptr, 0x1000,
                        0x2000, 0x3000),
                 lsched::UsageError);
    EXPECT_EQ(s.run(), 1u);
}

TEST(FixedArityFork, ZeroExtendsWhenDimsExceedsThree)
{
    // dims=4: the three fixed hints must land in the same bin as the
    // explicit 4-vector with zeros appended — not in a garbage bin
    // keyed on uninitialized coordinates.
    SchedulerConfig c;
    c.dims = 4;
    c.blockBytes = 1 << 12;
    LocalityScheduler s(c);
    s.fork([](void *, void *) {}, nullptr, nullptr, 0x1000, 0x2000,
           0x3000);
    const Hint full[] = {0x1000, 0x2000, 0x3000, 0};
    s.fork([](void *, void *) {}, nullptr, nullptr, full);
    EXPECT_EQ(s.stats().occupiedBins, 1u)
        << "fixed-arity and explicit-span forks must share the bin";
    EXPECT_EQ(s.run(), 2u);
}

} // namespace
