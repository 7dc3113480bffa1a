/**
 * @file
 * Power-of-two and alignment arithmetic used by the cache simulator and
 * the scheduler's block map, plus the cache-line prefetch helper the
 * thread-group storage uses.
 */

#ifndef LSCHED_SUPPORT_ALIGN_HH
#define LSCHED_SUPPORT_ALIGN_HH

#include <bit>
#include <cstddef>
#include <cstdint>

namespace lsched
{

/** True iff @p v is a power of two (0 is not). */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Floor of log2(@p v); @p v must be non-zero. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    return 63u - static_cast<unsigned>(std::countl_zero(v));
}

/** Ceiling of log2(@p v); @p v must be non-zero. */
constexpr unsigned
ceilLog2(std::uint64_t v)
{
    return floorLog2(v) + (isPowerOfTwo(v) ? 0u : 1u);
}

/** Smallest power of two >= @p v (v == 0 maps to 1). */
constexpr std::uint64_t
roundUpPowerOfTwo(std::uint64_t v)
{
    return v <= 1 ? 1 : std::uint64_t{1} << ceilLog2(v);
}

/** Largest power of two <= @p v; @p v must be non-zero. */
constexpr std::uint64_t
roundDownPowerOfTwo(std::uint64_t v)
{
    return std::uint64_t{1} << floorLog2(v);
}

/** Round @p v up to a multiple of power-of-two @p align. */
constexpr std::uint64_t
alignUp(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) & ~(align - 1);
}

/** Round @p v down to a multiple of power-of-two @p align. */
constexpr std::uint64_t
alignDown(std::uint64_t v, std::uint64_t align)
{
    return v & ~(align - 1);
}

/** Host cache-line size assumed by the prefetch helper below. */
inline constexpr std::size_t kCacheLineBytes = 64;

/**
 * Prefetch every cache line overlapping [@p p, @p p + @p bytes): for
 * writing when @p forWrite (the line arrives ready to be stored to),
 * for reading otherwise. A pure hint with no architectural effect —
 * it touches no memory, so it cannot fault and the cache simulator
 * never sees it.
 */
inline void
prefetchLines(const void *p, std::size_t bytes, bool forWrite)
{
    const auto first = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t end = first + bytes;
    for (std::uintptr_t line = alignDown(first, kCacheLineBytes);
         line < end; line += kCacheLineBytes) {
        const auto *addr = reinterpret_cast<const void *>(line);
        if (forWrite)
            __builtin_prefetch(addr, 1, 3);
        else
            __builtin_prefetch(addr, 0, 3);
    }
}

} // namespace lsched

#endif // LSCHED_SUPPORT_ALIGN_HH
