/**
 * @file
 * Thread groups: chunked storage for thread specifications.
 *
 * Grouping threads in fixed-capacity arrays amortizes management cost
 * (paper Section 3.2): forking is usually a pointer bump into the
 * current group. Group objects come from slab-backed storage — one
 * allocation covers kSlabGroups descriptors and their spec arrays —
 * and recycle through an intrusive free list between runs, so steady
 * state forking performs no allocation and a cold burst performs two
 * per slab rather than two per group.
 *
 * Recycled groups are cold. A freshly carved slab was zero-filled just
 * before use, so its spec lines are still cached; a group popped off
 * the free list was last written a whole tour earlier — 24 MiB of
 * specs ago on Table 1's 2^20-thread tour, twelve times the 2 MiB L2
 * — so each 64-byte spec line a fork writes into it used to be a
 * write miss. That is why a scheduler's first tour forked faster than
 * every later one. allocate() now prefetches the whole spec array of
 * a recycled group for writing (24 lines at capacity 64, once per 64
 * forks); the forks that fill it then store into cache. The open
 * tail groups of Table 1's 256 bins are 384 KiB, well inside L2.
 * GroupCursor (bin_exec.hh) likewise prefetches the next group's
 * specs when a walk steps onto a group. On the null-fork benchmark
 * workload (4-vCPU Xeon, 2 MiB L2; paired traced runs) fork fell from
 * 114 to 70 ns per thread and run stayed at 21 ns; see EXPERIMENTS.md.
 */

#ifndef LSCHED_THREADS_THREAD_GROUP_HH
#define LSCHED_THREADS_THREAD_GROUP_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "support/align.hh"
#include "support/failpoint.hh"
#include "support/panic.hh"
#include "threads/thread.hh"

namespace lsched::threads
{

/** A chunk of thread specifications chained within one bin. */
struct ThreadGroup
{
    /**
     * Streaming claim word, low half: bit set once a sealer has closed
     * the group. Producers that meet it in the claim word divert to a
     * fresh group (concurrent_bin_table.hh).
     */
    static constexpr std::uint64_t kClosed = 0x80000000u;

    /** Chunk storage; points into the owning pool's slab. */
    ThreadSpec *specs = nullptr;
    /** Capacity of specs. */
    std::uint32_t capacity = 0;
    /** Number of live specs. */
    std::uint32_t count = 0;
    /** Next group in the same bin (fork order). */
    ThreadGroup *next = nullptr;

    /**
     * Streaming (lock-free intake) protocol, unused by the batch path.
     * The claim word packs [life generation:32][kClosed | slots:31]:
     * ConcurrentGroupPool::allocate() starts each life by bumping the
     * generation half and zeroing the rest, and producers reserve a
     * slot with a CAS whose expected value carries the generation
     * their bin's tail word named — a producer that slept across this
     * group's seal/drain/recycle always fails the CAS (new life, new
     * generation) instead of writing into somebody else's group. The
     * winner writes its spec and publishes it by bumping ready; the
     * sealer ORs kClosed into claim, then waits until ready covers
     * every reserved slot before the chain is handed to a drain
     * worker. prev links a bin's current-epoch chain newest-first
     * (the only direction a lock-free append can build); sealing
     * reverses it into the fork-order next chain the GroupCursor
     * walks.
     */
    std::atomic<std::uint64_t> claim{0};
    std::atomic<std::uint32_t> ready{0};
    ThreadGroup *prev = nullptr;
    /** Index in the owning ConcurrentGroupPool's slab directory (the
     *  ABA-safe free list links groups by index, not pointer). */
    std::uint32_t poolIndex = 0;
    /** Free-list successor index (+1; 0 = end). Atomic only because a
     *  racing pop may read it while a re-push writes it; the stack
     *  head's tag makes such stale reads harmless. */
    std::atomic<std::uint32_t> freeNext{0};

    /** True when no further spec fits. */
    bool full() const { return count == capacity; }

    /** Append a spec; the group must not be full. */
    void
    push(ThreadFn fn, void *arg1, void *arg2)
    {
        specs[count++] = {fn, arg1, arg2};
    }
};

/**
 * Allocator/recycler for ThreadGroups. Fresh groups are carved from
 * slabs (stable addresses, two allocations per kSlabGroups groups);
 * recycled groups come off an intrusive free list in constant time.
 */
class GroupPool
{
  public:
    /** Groups carved per slab allocation. */
    static constexpr std::uint32_t kSlabGroups = 16;

    /** @param capacity threads per group (> 0). */
    explicit GroupPool(std::uint32_t capacity)
        : capacity_(capacity)
    {
        LSCHED_ASSERT(capacity_ > 0, "group capacity must be positive");
    }

    /** Obtain an empty group (recycled when possible). */
    ThreadGroup *
    allocate()
    {
        ThreadGroup *g;
        if (free_) {
            g = free_;
            free_ = g->next;
            // A recycled group was last written a whole tour ago and
            // is long evicted: warm its spec lines now so the forks
            // that fill it store into cache instead of each taking a
            // write miss (see the file comment).
            prefetchLines(g->specs, sizeof(ThreadSpec) * g->capacity,
                          /*forWrite=*/true);
        } else {
            g = carve();
        }
        g->count = 0;
        g->next = nullptr;
        return g;
    }

    /** Return a whole bin chain of groups to the free list. */
    void
    recycleChain(ThreadGroup *head)
    {
        while (head) {
            ThreadGroup *next = head->next;
            head->count = 0;
            head->next = free_;
            free_ = head;
            head = next;
        }
    }

    /** Threads per group. */
    std::uint32_t capacity() const { return capacity_; }

    /** Groups ever handed out (capacity planning statistic). */
    std::size_t allocatedGroups() const { return handedOut_; }

    /** Slab allocations performed (each covers kSlabGroups groups). */
    std::size_t slabCount() const { return slabs_.size(); }

  private:
    /** One slab: group descriptors plus their shared spec storage. */
    struct Slab
    {
        std::unique_ptr<ThreadGroup[]> groups;
        std::unique_ptr<ThreadSpec[]> specs;
    };

    /** Hand out the next never-used group, growing by a slab. */
    ThreadGroup *
    carve()
    {
        if (slabUsed_ == kSlabGroups) {
            // Fail point standing in for a real out-of-memory from the
            // slab allocations below.
            if (LSCHED_FAILPOINT_HIT("grouppool.allocate"))
                throw std::bad_alloc();
            Slab slab;
            slab.groups = std::make_unique<ThreadGroup[]>(kSlabGroups);
            slab.specs = std::make_unique<ThreadSpec[]>(
                static_cast<std::size_t>(kSlabGroups) * capacity_);
            slabs_.push_back(std::move(slab));
            slabUsed_ = 0;
        }
        Slab &slab = slabs_.back();
        ThreadGroup *g = &slab.groups[slabUsed_];
        g->specs = slab.specs.get() +
                   static_cast<std::size_t>(slabUsed_) * capacity_;
        g->capacity = capacity_;
        ++slabUsed_;
        ++handedOut_;
        return g;
    }

    std::uint32_t capacity_;
    /** Groups carved from the current (last) slab; == kSlabGroups
     *  forces a new slab on the next carve. */
    std::uint32_t slabUsed_ = kSlabGroups;
    std::vector<Slab> slabs_;
    ThreadGroup *free_ = nullptr;
    std::size_t handedOut_ = 0;
};

} // namespace lsched::threads

#endif // LSCHED_THREADS_THREAD_GROUP_HH
