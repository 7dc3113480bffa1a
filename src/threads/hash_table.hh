/**
 * @file
 * The bin hash table (paper Section 3.2): organizes bins by hashing
 * their block coordinates. The paper's implementation chained
 * collisions off fixed buckets; here the table is open-addressing
 * with linear probing over a power-of-two slot array — one cache line
 * usually covers the whole probe sequence, where a chain walk paid a
 * dependent load per collision on the hot th_fork path. The table
 * grows (and rehashes) past 3/4 load, so the configured size
 * (th_init / SchedulerConfig) is a starting point, not a ceiling.
 */

#ifndef LSCHED_THREADS_HASH_TABLE_HH
#define LSCHED_THREADS_HASH_TABLE_HH

#include <cstdint>
#include <deque>
#include <new>
#include <vector>

#include "support/align.hh"
#include "support/failpoint.hh"
#include "support/panic.hh"
#include "threads/bin.hh"
#include "threads/hints.hh"

namespace lsched::threads
{

/**
 * Mix @p coords into a 64-bit hash (splitmix64-style per coordinate).
 * Shared by the batch BinTable and the streaming intake's
 * ConcurrentBinTable, whose callers hash once per fork.
 */
inline std::uint64_t
hashCoords(const BlockCoords &coords, unsigned dims)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (unsigned d = 0; d < dims; ++d) {
        std::uint64_t z = coords[d] + 0x9e3779b97f4a7c15ull * (d + 1);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        h ^= z ^ (z >> 31);
        h *= 0xff51afd7ed558ccdull;
    }
    return h ^ (h >> 33);
}

/** Owns all bins and finds them by block coordinates. */
class BinTable
{
  public:
    /** Slots below this are rounded up (headroom for early growth). */
    static constexpr std::size_t kMinSlots = 16;

    /**
     * @param dims scheduling-space dimensionality.
     * @param buckets initial slot count (rounded up to a power of
     *        two, minimum kMinSlots).
     */
    BinTable(unsigned dims, std::size_t buckets)
        : dims_(dims),
          mask_(roundUpPowerOfTwo(
                    buckets < kMinSlots ? kMinSlots : buckets) -
                1),
          slots_(mask_ + 1, nullptr)
    {
        LSCHED_ASSERT(dims_ >= 1 && dims_ <= kMaxDims,
                      "bad dimensionality ", dims_);
    }

    /**
     * Find the bin with coordinates @p coords, creating it on first
     * use (the scheduler "does not allocate a bin ... until it
     * schedules the first thread in it", Section 3.2). Returns the bin
     * and whether it was newly created. When @p probes is non-null it
     * receives the number of slots inspected — the collision statistic
     * the metrics registry histograms.
     */
    std::pair<Bin *, bool>
    findOrCreate(const BlockCoords &coords,
                 std::uint32_t *probes = nullptr)
    {
        const std::uint64_t h = hash(coords);
        std::size_t i = h & mask_;
        std::uint32_t walked = 1;
        for (; slots_[i]; i = (i + 1) & mask_, ++walked) {
            Bin *b = slots_[i];
            if (b->hashVal == h && sameCoords(b->coords, coords)) {
                if (probes)
                    *probes = walked;
                return {b, false};
            }
        }
        // Fail point standing in for a real out-of-memory from the bin
        // growth below.
        if (LSCHED_FAILPOINT_HIT("bintable.grow"))
            throw std::bad_alloc();
        bins_.emplace_back();
        Bin *b = &bins_.back();
        b->coords = coords;
        b->hashVal = h;
        b->id = static_cast<std::uint32_t>(bins_.size() - 1);
        slots_[i] = b;
        if (probes)
            *probes = walked;
        // Keep load under 3/4 so probe sequences stay short and an
        // empty slot always terminates the loop above.
        if ((bins_.size() + 1) * 4 > (mask_ + 1) * 3)
            grow();
        return {b, true};
    }

    /** Find without creating; nullptr when absent. */
    Bin *
    find(const BlockCoords &coords)
    {
        const std::uint64_t h = hash(coords);
        for (std::size_t i = h & mask_; slots_[i];
             i = (i + 1) & mask_) {
            Bin *b = slots_[i];
            if (b->hashVal == h && sameCoords(b->coords, coords))
                return b;
        }
        return nullptr;
    }

    /** Number of bins ever allocated. */
    std::size_t binCount() const { return bins_.size(); }

    /** Number of slots in the probe table. */
    std::size_t bucketCount() const { return mask_ + 1; }

    /**
     * Longest probe sequence needed to reach a bin — the collision
     * statistic the hash-size ablation reports (the open-addressing
     * successor of the chained table's longest bucket chain).
     */
    std::size_t
    maxChainLength() const
    {
        std::size_t longest = 0;
        for (std::size_t i = 0; i <= mask_; ++i) {
            const Bin *b = slots_[i];
            if (!b)
                continue;
            const std::size_t home = b->hashVal & mask_;
            const std::size_t dist = (i - home) & mask_;
            longest = std::max(longest, dist + 1);
        }
        return longest;
    }

    /** Drop every bin (slot capacity is retained). */
    void
    clear()
    {
        bins_.clear();
        std::fill(slots_.begin(), slots_.end(), nullptr);
    }

  private:
    bool
    sameCoords(const BlockCoords &a, const BlockCoords &b) const
    {
        for (unsigned d = 0; d < dims_; ++d)
            if (a[d] != b[d])
                return false;
        return true;
    }

    std::uint64_t
    hash(const BlockCoords &coords) const
    {
        return hashCoords(coords, dims_);
    }

    /** Double the slot array and reinsert by cached hash. */
    void
    grow()
    {
        mask_ = (mask_ + 1) * 2 - 1;
        slots_.assign(mask_ + 1, nullptr);
        for (Bin &b : bins_) {
            std::size_t i = b.hashVal & mask_;
            while (slots_[i])
                i = (i + 1) & mask_;
            slots_[i] = &b;
        }
    }

    unsigned dims_;
    std::size_t mask_;
    std::vector<Bin *> slots_;
    std::deque<Bin> bins_;
};

} // namespace lsched::threads

#endif // LSCHED_THREADS_HASH_TABLE_HH
