/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one call into a layer's public function, bracketed from
 * the benchmark's own code: name ("layer.function"), start, end, the
 * span that caused it, the solve it belongs to, and the OS thread
 * ("lane") it ran on. Spans are kept in memory and written out as
 * JSON lines when the benchmark ends. A disabled recorder never reads
 * the clock, so the untraced run times exactly the same code.
 */

#ifndef LSCHED_PERFBENCH_SPANS_HH
#define LSCHED_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Small dense id of the calling OS thread; the first caller is 0. */
std::uint32_t laneId();

/** Sentinel parent of a root span. */
constexpr std::int32_t kNoSpan = -1;

struct Span
{
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int32_t parent = kNoSpan;
    std::uint32_t solve = 0;
    std::uint32_t lane = 0;
    /** Raw calls folded into this record (1 unless aggregated). */
    std::uint64_t calls = 1;
    /** Summed duration of the folded calls; end - start when calls=1. */
    std::int64_t busy = 0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    /** Turn recording on or off between solves (caller lane only). */
    void setEnabled(bool on) { enabled_ = on; }

    /** Solve id stamped on spans opened from now on (0 = set-up). */
    void setSolve(std::uint32_t solve) { solve_ = solve; }
    std::uint32_t solve() const { return solve_; }

    /** Open a span on the caller's lane (the thread that drives the
     *  solves), nested in the innermost open one; returns its id, or
     *  kNoSpan when disabled. */
    std::int32_t open(const char *name);
    void close(std::int32_t id);

    /** Innermost open span of the caller's lane. */
    std::int32_t current() const;

    /**
     * Add a finished span recorded on another lane (a producer thread,
     * or a folded set of kernel-body calls). Thread-safe.
     */
    void add(Span span);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time of every span: its duration minus the busy time of its
     * children on the same lane (same-lane children run one after
     * another, so their busy times never overlap). Children on other
     * lanes ran concurrently and keep their own self time.
     */
    std::vector<std::int64_t> selfTimes() const;

    /** Write every span as one JSON object per line; false on error. */
    bool writeJsonLines(const std::string &path) const;

  private:
    bool enabled_;
    std::uint32_t solve_ = 0;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
};

/** RAII span on the caller's lane. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name)
        : tracer_(tracer), id_(tracer.open(name))
    {
    }
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::int32_t id() const { return id_; }

  private:
    Tracer &tracer_;
    std::int32_t id_;
};

/** Self time per layer (the span name before its first '.') summed
 *  over the spans of solves >= 1, in ns. */
std::map<std::string, std::int64_t> selfTimeByLayer(const Tracer &tracer);

} // namespace perfbench

#endif // LSCHED_PERFBENCH_SPANS_HH
