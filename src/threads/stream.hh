/**
 * @file
 * Streaming admission: fork-while-run (the tentpole past the paper's
 * batch model).
 *
 * The paper's package is strictly fork-everything-then-th_run; its §7
 * leaves concurrency as future work. A StreamSession removes the
 * barrier: any OS thread may fork while the pool drains, so admission
 * overlaps execution and the machine never idles waiting for bins to
 * be built.
 *
 * Structure (lock-free admission path — see DESIGN.md §16):
 *
 *  - Intake is *one* ConcurrentBinTable holding the whole
 *    hashBuckets budget: a fork hashes its block coordinates once
 *    (hashCoords) and lookup/insert is a CAS into the open-addressing
 *    table, with no lock. Stream bin ids start at kStreamIdBase,
 *    disjoint from the batch table's 0-based ids. Group storage comes
 *    from ONE shared ConcurrentGroupPool whose fast path is a
 *    per-producer thread-local cache over a lock-free global refill.
 *
 *  - Bins gain *seal/epoch* semantics: a bin anchors its current
 *    epoch's thread groups in a single atomic tail pointer; producers
 *    append with a claim/ready reservation protocol and sealing is
 *    one exchange that hands the chain to exactly one caller
 *    (concurrent_bin_table.hh). A bin seals when it reaches
 *    streamSealThreshold threads, when a producer under backpressure
 *    force-seals it, or at finish(). Drain workers execute *sealed*
 *    chains only — the seal is the hand-off point, after which the
 *    chain is exclusively the drainer's.
 *
 *  - Backpressure bounds memory through a *ticket gate*: every
 *    admission takes a ticket (one fetch_add); with streamMaxPending
 *    set, a producer passes only once the drain has retired enough
 *    threads that its ticket fits under the bound, which keeps the
 *    backlog exactly bounded and FIFO-fair without any mutex. A
 *    producer held at the gate first tries to drain one sealed bin
 *    inline (becoming worker 0 for that bin), then to force-seal an
 *    open bin for the pool, and only then backs off with a timed,
 *    jittered exponential sleep — the slow path that preserves the
 *    stream_admit_retries / AdmissionTimeout semantics; its jitter
 *    generator is seeded only when a producer is about to sleep.
 *    Nested forks from a thread *being drained inline* bypass the
 *    bound — blocking there would deadlock the very producer doing
 *    the draining — so for workloads that fork from user threads the
 *    bound is a soft target, exact otherwise.
 *
 *  - The ticket is the only session word a fork writes. The session
 *    counters are split by writer onto separate cache lines: the
 *    ticket (producers), the retired-thread count (the drain; the gate
 *    reads it), and slow-path counters. Forked is tickets less
 *    refunds, the backlog is tickets less retired threads, seals are
 *    the ring's pushes, and the peak backlog is taken from the retired
 *    count the gate already loaded, so it is written only when it
 *    rises. In a bin, the key fields a probe reads sit apart from the
 *    epoch words appends and seals write, and the bin's running total
 *    is bumped once per seal.
 *
 *  - The drain helpers spin on the sealed ring for a bounded spell
 *    before parking, so seals that arrive microseconds apart find a
 *    helper awake and pay no futex wake-up.
 *
 * Draining is the third execution mode next to Serial and Pooled
 * tours: there is no tour to partition — work arrives
 * incrementally — so the pool's helpers loop on the sealed queue
 * (WorkerPool::beginStream) and every chain still runs through THE
 * one executeBin() routine (bin_exec.hh), keeping ErrorPolicy
 * containment, tracing, and dwell metrics identical to batch runs.
 */

#ifndef LSCHED_THREADS_STREAM_HH
#define LSCHED_THREADS_STREAM_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "threads/concurrent_bin_table.hh"
#include "threads/concurrent_group_pool.hh"
#include "threads/fault.hh"
#include "threads/hints.hh"
#include "threads/placement.hh"
#include "threads/recovery.hh"
#include "threads/thread_group.hh"
#include "threads/worker_pool.hh"

namespace lsched::threads
{

struct SchedulerConfig;

/** Counters of one streaming session (also lifetime-accumulated). */
struct StreamStats
{
    /** Threads admitted through the stream. */
    std::uint64_t forked = 0;
    /** Threads executed by the drain (inline or pool). */
    std::uint64_t executed = 0;
    /** Sealed-chain work items produced. */
    std::uint64_t seals = 0;
    /** Times a producer backed off at the maxPending bound. */
    std::uint64_t backpressureWaits = 0;
    /** Sealed bins a producer drained inline under backpressure. */
    std::uint64_t inlineDrains = 0;
    /** Threads admitted but not yet executed (live snapshot; like
     *  forked, it counts a fork still inside fork()). */
    std::uint64_t backlog = 0;
    /** Highest backlog observed. */
    std::uint64_t peakBacklog = 0;

    StreamStats &
    operator+=(const StreamStats &o)
    {
        forked += o.forked;
        executed += o.executed;
        seals += o.seals;
        backpressureWaits += o.backpressureWaits;
        inlineDrains += o.inlineDrains;
        backlog = o.backlog;
        peakBacklog = std::max(peakBacklog, o.peakBacklog);
        return *this;
    }
};

/** Per-bin outcome of a finished stream (tests, reports). */
struct StreamBinReport
{
    /** The bin's block coordinates. */
    BlockCoords coords{};
    /** Seal epochs the bin went through. */
    std::uint32_t epochs = 0;
    /** Threads admitted to the bin across all epochs. */
    std::uint64_t threads = 0;
};

namespace detail
{

/** Spin-wait hint: tells the core this thread is polling. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/** One sealed chain: a bin epoch's threads, ready to drain. */
struct SealedBin
{
    std::uint32_t binId = 0;
    std::uint32_t epoch = 0;
    /** The bin's super-bin group (profiling attribution). */
    std::uint32_t superBin = 0xffffffffu;
    std::uint64_t threads = 0;
    ThreadGroup *groups = nullptr;
};

/**
 * MPMC FIFO of sealed chains between producers and drain workers.
 * Draining in seal order is the streaming analogue of the ready
 * list's creation-order tour.
 *
 * The ring is Vyukov's bounded MPMC queue: per-cell sequence numbers
 * carry the acquire/release hand-off, so push and pop are lock-free.
 * The mutex exists only to park idle drain helpers: a push touches it
 * solely when the sleepers count says somebody is (about to be)
 * parked, so the admission path stays mutex-free while the queue has
 * active consumers. An idle helper polls for a bounded spell before it
 * parks, so a steady stream of seals, each a few microseconds apart,
 * finds it awake and pays no wake-up. The missed-wakeup race (sleeper
 * registering while a pusher checks) is closed Dekker-style with
 * seq_cst fences on both sides of the counter.
 */
class SealedQueue
{
  public:
    /** Ring capacity (power of two). On full, callers drain inline. */
    static constexpr std::size_t kCells = 4096;
    /** Failed pops (each followed by a pause) before a helper parks. */
    static constexpr unsigned kSpinPops = 1024;

    SealedQueue()
    {
        for (std::size_t i = 0; i < kCells; ++i)
            cells_[i].seq.store(i, std::memory_order_relaxed);
    }

    /** Lock-free push; false when the ring is full. */
    bool
    tryPush(const SealedBin &item)
    {
        std::size_t pos = tail_.load(std::memory_order_relaxed);
        for (;;) {
            Cell &cell = cells_[pos & (kCells - 1)];
            const std::size_t seq =
                cell.seq.load(std::memory_order_acquire);
            const std::intptr_t dif =
                static_cast<std::intptr_t>(seq) -
                static_cast<std::intptr_t>(pos);
            if (dif == 0) {
                if (tail_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed))
                    break;
            } else if (dif < 0) {
                return false; // full
            } else {
                pos = tail_.load(std::memory_order_relaxed);
            }
        }
        Cell &cell = cells_[pos & (kCells - 1)];
        cell.item = item;
        cell.seq.store(pos + 1, std::memory_order_release);
        wakeOne();
        return true;
    }

    /** Lock-free non-blocking pop (inline drains, finish tail). */
    bool
    tryPop(SealedBin &out)
    {
        std::size_t pos = head_.load(std::memory_order_relaxed);
        for (;;) {
            Cell &cell = cells_[pos & (kCells - 1)];
            const std::size_t seq =
                cell.seq.load(std::memory_order_acquire);
            const std::intptr_t dif =
                static_cast<std::intptr_t>(seq) -
                static_cast<std::intptr_t>(pos + 1);
            if (dif == 0) {
                if (head_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed))
                    break;
            } else if (dif < 0) {
                return false; // empty (or the pusher mid-publish)
            } else {
                pos = head_.load(std::memory_order_relaxed);
            }
        }
        Cell &cell = cells_[pos & (kCells - 1)];
        out = cell.item;
        cell.seq.store(pos + kCells, std::memory_order_release);
        return true;
    }

    /** Park until an item arrives or finish(); false = stream over. */
    bool
    waitPop(SealedBin &out)
    {
        for (;;) {
            for (unsigned spin = 0; spin < kSpinPops; ++spin) {
                if (tryPop(out))
                    return true;
                cpuRelax();
            }
            std::unique_lock<std::mutex> lock(mutex_);
            sleepers_.fetch_add(1, std::memory_order_relaxed);
            std::atomic_thread_fence(std::memory_order_seq_cst);
            // Re-check after registering: a pusher that missed our
            // registration must have published before our fence, so
            // this pop sees its item.
            if (tryPop(out)) {
                sleepers_.fetch_sub(1, std::memory_order_relaxed);
                return true;
            }
            if (finished_.load(std::memory_order_acquire)) {
                sleepers_.fetch_sub(1, std::memory_order_relaxed);
                // Every push happened before finish(); one last pop
                // sweeps anything a racing helper has not claimed.
                return tryPop(out);
            }
            cv_.wait(lock);
            sleepers_.fetch_sub(1, std::memory_order_relaxed);
        }
    }

    /** Items ever pushed (each push claims the next tail position). */
    std::size_t
    pushed() const
    {
        return tail_.load(std::memory_order_relaxed);
    }

    /** No more pushes will come; unblocks every waitPop. */
    void
    finish()
    {
        finished_.store(true, std::memory_order_release);
        {
            std::lock_guard<std::mutex> lock(mutex_);
        }
        cv_.notify_all();
    }

  private:
    struct alignas(64) Cell
    {
        std::atomic<std::size_t> seq{0};
        SealedBin item;
    };

    void
    wakeOne()
    {
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (sleepers_.load(std::memory_order_relaxed) > 0) {
            // Pass through the lock so a sleeper between its re-check
            // and its wait cannot miss this notify.
            {
                std::lock_guard<std::mutex> lock(mutex_);
            }
            cv_.notify_one();
        }
    }

    std::unique_ptr<Cell[]> cells_ =
        std::make_unique<Cell[]>(kCells);
    alignas(64) std::atomic<std::size_t> tail_{0};
    alignas(64) std::atomic<std::size_t> head_{0};
    alignas(64) std::atomic<unsigned> sleepers_{0};
    std::atomic<bool> finished_{false};
    std::mutex mutex_;
    std::condition_variable cv_;
};

} // namespace detail

/**
 * One fork-while-run session (th_stream_begin .. th_stream_end).
 * Created by LocalityScheduler::streamBegin(), which also flips the
 * scheduler into streaming mode so fork() routes here. fork() is safe
 * from any number of OS threads concurrently; every other method is
 * the owning scheduler's to call.
 */
class StreamSession
{
  public:
    /** First stream bin id: keeps trace and fault ids of stream bins
     *  apart from the batch table's 0-based ones. */
    static constexpr std::uint32_t kStreamIdBase = 1u << 24;

    /**
     * @param config the owning scheduler's validated configuration.
     * @param placement the scheduler's placement policy. Stateless
     *        policies (BlockHash) are called lock-free from producers;
     *        stateful ones are serialized on an internal mutex.
     * @param pool the scheduler's worker pool, or nullptr for the
     *        inline-only mode (Serial backend): no drain helpers, all
     *        execution happens on producers and at finish().
     * @param drainWorkers helper threads draining sealed bins
     *        (ignored when @p pool is null).
     * @param recovery the owning scheduler's recovery counters; may be
     *        null (standalone tests).
     * @param governor the owning scheduler's overload governor; may be
     *        null. When enabled, the session's monitor feeds it one
     *        observation per tick and sheds load while it is degraded.
     */
    StreamSession(const SchedulerConfig &config,
                  PlacementPolicy &placement, WorkerPool *pool,
                  unsigned drainWorkers,
                  detail::RecoveryStats *recovery = nullptr,
                  OverloadGovernor *governor = nullptr);

    /** Finishes the stream if the owner never did (teardown path). */
    ~StreamSession();

    StreamSession(const StreamSession &) = delete;
    StreamSession &operator=(const StreamSession &) = delete;

    /** Admit one thread (thread-safe; may block under backpressure). */
    void fork(ThreadFn fn, void *arg1, void *arg2,
              std::span<const Hint> hints);

    /**
     * Seal every open bin, drain the backlog to empty, and stop the
     * helpers. Idempotent. Does not rethrow — the owner decides what
     * to do with firstFault() after restoring its own state.
     */
    void finish();

    /** Live (or final) counters. */
    StreamStats stats() const;

    /** Per-bin totals; valid after finish(). */
    const std::vector<StreamBinReport> &binReports() const
    {
        return bins_;
    }

    /** Contained faults; valid after finish(). */
    const std::vector<ThreadFault> &faults() const { return faults_; }

    /** Total faults including past the recording cap. */
    std::uint64_t faultCount() const { return fault_.totalFaults; }

    /** First StopTour exception, for the owner to rethrow. */
    std::exception_ptr firstFault() const { return fault_.first; }

    /** Why the stream was cancelled (None while healthy). The owner
     *  turns a non-None reason into a DeadlineError at streamEnd(). */
    CancelReason cancelReason() const { return cancel_.why(); }

    /** Is the session currently shedding load (governor degraded)? */
    bool degraded() const
    {
        return degraded_.load(std::memory_order_relaxed);
    }

  private:
    static void drainMain(unsigned worker, void *ctx);

    /** Take a ticket and wait out the maxPending gate. */
    void admitThread();
    /** Slow path of the gate: help, back off, or time out. Returns
     *  the last retired count it loaded. */
    std::uint64_t waitAtGate(std::uint64_t ticket, std::uint64_t retired);
    /** Raise the peak to the backlog @p ticket saw at admission. */
    void notePeak(std::uint64_t ticket, std::uint64_t retired);
    /** Hand back the ticket of an admission that did not happen. */
    void refund();
    /** Tickets taken and not yet retired or refunded. */
    std::uint64_t backlog() const;
    /** Help at the bound: inline-drain a sealed bin or force-seal an
     *  open one. False when the backlog is entirely in flight. */
    bool tryHelp();
    /** Package a detached chain as a queue work item. */
    detail::SealedBin makeItem(const StreamBin &bin,
                               const SealedChain &chain) const;
    /** Trace + count + queue one sealed chain (drains inline when the
     *  ring is full, so a push can never deadlock). */
    void enqueue(const detail::SealedBin &item);
    /** Seal the first non-empty open bin, rotating the start bin. */
    bool forceSealOne();
    /** Execute one sealed chain as @p worker and retire it. */
    void drainOne(const detail::SealedBin &item, unsigned worker);
    /** Retire a chain without running it (StopTour/cancel discard). */
    void discard(const detail::SealedBin &item);
    /** Return the chain to the pool and shrink the backlog. */
    void retire(const detail::SealedBin &item);
    /** Epoch-progress monitor body (deadline + overload governor). */
    void monitorMain();
    /** Stop and join the monitor thread (idempotent). */
    void stopMonitor();
    /** Degraded: force-seal every open bin so the drain has it all. */
    void shedLoad();

    const unsigned dims_;
    const std::uint64_t sealThreshold_;
    const std::uint64_t maxPending_;
    /** Epoch deadline: cancel when a standing backlog retires nothing
     *  for a full period. 0 = no deadline. */
    const std::uint32_t deadlineMillis_;
    /** No-progress backoff rounds before AdmissionTimeout; 0 = ∞. */
    const std::uint32_t admitRetries_;

    PlacementPolicy &placement_;
    /** Serializes place() for stateful policies; unused otherwise. */
    std::mutex placementMutex_;
    const bool placementStateless_;
    /** Adaptive placement: the monitor ticks maybeRetune(). */
    const bool placementAdaptive_;

    /** The intake table; padded off the lines its neighbours write. */
    alignas(64) ConcurrentBinTable table_;
    /** Group storage, shared by every producer and drain worker. */
    alignas(64) ConcurrentGroupPool groupPool_;
    detail::SealedQueue queue_;
    /** Start bin of forceSealOne's next scan. */
    std::atomic<unsigned> sealCursor_{0};

    std::vector<ThreadFault> faults_;
    detail::FaultCtx fault_;

    /**
     * Ticket gate. tickets_ numbers every admission; retiredThreads_
     * counts threads the drain has retired (plus refunds). A gated
     * producer passes once ticket < retiredThreads_ + maxPending_,
     * which bounds the admitted-unretired backlog by maxPending_
     * exactly.
     *
     * The counters sit on lines by writer. tickets_ is the one word
     * every fork writes. The drain writes its line once per retired
     * chain; the gate reads it. The rest are written on slow paths
     * only: forked = tickets_ - refunds_, backlog = tickets_ -
     * retiredThreads_, seals = ring pushes + unpushedSeals_.
     */
    alignas(64) std::atomic<std::uint64_t> tickets_{0};

    alignas(64) std::atomic<std::uint64_t> retiredThreads_{0};
    std::atomic<std::uint64_t> executed_{0};
    /** Chains retired so far — the monitor's progress signal. */
    std::atomic<std::uint64_t> retired_{0};

    /** Highest backlog a ticket saw at admission; written only when
     *  it rises, so forks read it from their own cache. */
    alignas(64) std::atomic<std::uint64_t> peak_{0};

    /** Tickets handed back (fork rollback, AdmissionTimeout). */
    alignas(64) std::atomic<std::uint64_t> refunds_{0};
    /** Sealed chains discarded before they reached the ring. */
    std::atomic<std::uint64_t> unpushedSeals_{0};
    std::atomic<std::uint64_t> bpWaits_{0};
    std::atomic<std::uint64_t> inlineDrains_{0};
    /** Seed mix-in so concurrent producers jitter independently. */
    std::atomic<std::uint64_t> jitterSeed_{0};
    /** True while the governor holds the session degraded: producers
     *  stop blocking (soft bound) and open bins are force-sealed. */
    std::atomic<bool> degraded_{false};

    WorkerPool *pool_;
    detail::StreamJob job_;
    bool helpersRunning_ = false;

    std::vector<StreamBinReport> bins_;
    bool finished_ = false;

    /** Raised by the monitor on epoch-deadline expiry; fault_.cancel
     *  points here when a deadline is armed, so drains and backed-off
     *  producers observe it through stopRequested(). */
    CancelToken cancel_;
    detail::RecoveryStats *recovery_;
    OverloadGovernor *governor_;
    std::mutex monMutex_;
    std::condition_variable monCv_;
    bool monDone_ = false;
    std::thread monitor_;
};

} // namespace lsched::threads

#endif // LSCHED_THREADS_STREAM_HH
