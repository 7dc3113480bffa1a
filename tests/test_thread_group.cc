/** @file Unit tests for thread groups and the group pool. */

#include <gtest/gtest.h>

#include "threads/bin_exec.hh"
#include "threads/thread_group.hh"

namespace
{

using namespace lsched::threads;

void
noop(void *, void *)
{
}

TEST(GroupPool, AllocatesEmptyGroups)
{
    GroupPool pool(8);
    ThreadGroup *g = pool.allocate();
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->count, 0u);
    EXPECT_EQ(g->capacity, 8u);
    EXPECT_EQ(g->next, nullptr);
    EXPECT_FALSE(g->full());
}

TEST(GroupPool, PushFillsGroup)
{
    GroupPool pool(2);
    ThreadGroup *g = pool.allocate();
    g->push(&noop, reinterpret_cast<void *>(1),
            reinterpret_cast<void *>(2));
    EXPECT_EQ(g->count, 1u);
    EXPECT_FALSE(g->full());
    g->push(&noop, nullptr, nullptr);
    EXPECT_TRUE(g->full());
    EXPECT_EQ(g->specs[0].arg1, reinterpret_cast<void *>(1));
    EXPECT_EQ(g->specs[0].arg2, reinterpret_cast<void *>(2));
}

TEST(GroupPool, RecycleChainReusesMemory)
{
    GroupPool pool(4);
    ThreadGroup *a = pool.allocate();
    ThreadGroup *b = pool.allocate();
    a->next = b;
    a->push(&noop, nullptr, nullptr);
    b->push(&noop, nullptr, nullptr);
    pool.recycleChain(a);
    EXPECT_EQ(pool.allocatedGroups(), 2u);

    // Recycled groups come back reset, no new allocation.
    ThreadGroup *c = pool.allocate();
    ThreadGroup *d = pool.allocate();
    EXPECT_EQ(c->count, 0u);
    EXPECT_EQ(d->count, 0u);
    EXPECT_EQ(pool.allocatedGroups(), 2u);
    // Set semantics: the two recycled groups are a and b in some order.
    EXPECT_TRUE((c == a && d == b) || (c == b && d == a));
}

TEST(GroupPool, RecycleNullChainIsSafe)
{
    GroupPool pool(4);
    pool.recycleChain(nullptr);
    EXPECT_EQ(pool.allocatedGroups(), 0u);
}

TEST(GroupPool, SteadyStateForkingAllocatesNothingNew)
{
    GroupPool pool(16);
    // Simulate three run cycles of 10 groups each.
    for (int cycle = 0; cycle < 3; ++cycle) {
        ThreadGroup *head = nullptr;
        for (int i = 0; i < 10; ++i) {
            ThreadGroup *g = pool.allocate();
            g->next = head;
            head = g;
        }
        pool.recycleChain(head);
    }
    EXPECT_EQ(pool.allocatedGroups(), 10u);
}

/** Counts its calls in the int arg1 points to. */
void
countCall(void *counter, void *)
{
    ++*static_cast<int *>(counter);
}

/** Planted in every slot of a group's first life; must never run. */
void
poison(void *, void *)
{
    ADD_FAILURE() << "cursor ran a spec past its group's count";
}

TEST(GroupReuse, PartialLastGroupOfLongChainRunsExactlyItsThreads)
{
    constexpr std::uint32_t kCapacity = 4;
    constexpr int kThreads = 10; // 4 + 4 + 2: three groups, last partial
    GroupPool pool(kCapacity);

    // First life: fill five groups with poison, so every slot past a
    // recycled group's new count holds a stale spec.
    ThreadGroup *stale = nullptr;
    for (int i = 0; i < 5; ++i) {
        ThreadGroup *g = pool.allocate();
        while (!g->full())
            g->push(&poison, nullptr, nullptr);
        g->next = stale;
        stale = g;
    }
    pool.recycleChain(stale);

    // Second life: one bin, forked the way LocalityScheduler::fork()
    // appends, entirely out of recycled groups.
    Bin bin;
    int calls[kThreads] = {};
    for (int t = 0; t < kThreads; ++t) {
        ThreadGroup *g = bin.groupsTail;
        if (!g || g->full()) {
            g = pool.allocate();
            if (bin.groupsTail)
                bin.groupsTail->next = g;
            else
                bin.groupsHead = g;
            bin.groupsTail = g;
        }
        g->push(&countCall, &calls[t], nullptr);
        ++bin.threadCount;
    }
    EXPECT_EQ(pool.allocatedGroups(), 5u);
    ASSERT_NE(bin.groupsHead, nullptr);
    ASSERT_NE(bin.groupsHead->next, nullptr);
    ASSERT_EQ(bin.groupsHead->next->next, bin.groupsTail);
    EXPECT_EQ(bin.groupsTail->next, nullptr);
    EXPECT_EQ(bin.groupsTail->count, 2u);

    detail::GroupCursor cursor(&bin);
    std::uint64_t ran = 0;
    while (cursor.next())
        ran += cursor.run();
    EXPECT_EQ(ran, static_cast<std::uint64_t>(kThreads));
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(calls[t], 1) << "thread " << t;
    pool.recycleChain(bin.groupsHead);
}

TEST(GroupPoolDeathTest, ZeroCapacityPanics)
{
    EXPECT_DEATH(GroupPool(0), "capacity");
}

} // namespace
