/**
 * @file
 * THE bin-execution routine — the mechanism half of the scheduler.
 *
 * Every path that runs a bin's threads routes through executeBin():
 * the serial run() (streaming and ordered, the latter through
 * executeTour() below), the worker pool's tours, the stream drain,
 * and the fiber scheduler's queue drain. ErrorPolicy
 * containment, BinStart/ThreadStart/ThreadEnd/BinEnd tracing, the
 * per-bin dwell metrics, and the "sched.bin.execute" fail-point site
 * therefore live in exactly one place; PRs that used to patch three
 * copies in lockstep patch one.
 *
 * The routine is a template over a Cursor — the *source* of work
 * items, which is the only thing the call sites differ in:
 *
 *   bool next();          // advance to the next item; false = drained.
 *                         // Re-evaluated each step, so items appended
 *                         // mid-execution (nested fork) are picked up.
 *   std::uint64_t run();  // run the current item; returns completions
 *                         // (1 per finished thread; 0 for a yielded
 *                         // fiber). May throw — containment is the
 *                         // caller branch's job, per ctx.policy.
 *
 * GroupCursor below adapts a Bin's thread-group chain; the fiber
 * scheduler supplies its own queue cursor.
 */

#ifndef LSCHED_THREADS_BIN_EXEC_HH
#define LSCHED_THREADS_BIN_EXEC_HH

#include <vector>

#include "obs/profile.hh"
#include "obs/trace.hh"
#include "support/align.hh"
#include "support/failpoint.hh"
#include "threads/bin.hh"
#include "threads/fault.hh"
#include "threads/sched_obs.hh"
#include "threads/thread_group.hh"

namespace lsched::threads::detail
{

/** Cursor over a bin's thread-group chain, in fork order. */
class GroupCursor
{
  public:
    explicit GroupCursor(Bin *bin) : GroupCursor(bin->groupsHead) {}

    /** Cursor over a detached chain (a sealed streaming epoch). */
    explicit GroupCursor(ThreadGroup *head) : group_(head)
    {
        prefetchSuccessor();
    }

    /** Counts and links are re-read each step so threads forked into
     *  this very bin during execution (nested fork) are picked up. */
    bool
    next()
    {
        while (group_) {
            if (index_ < group_->count) {
                current_ = &group_->specs[index_++];
                return true;
            }
            group_ = group_->next;
            index_ = 0;
            prefetchSuccessor();
        }
        return false;
    }

    std::uint64_t
    run()
    {
        current_->fn(current_->arg1, current_->arg2);
        return 1;
    }

  private:
    /** On stepping onto a group, start loading the one after it, so
     *  the walk does not stall on a cold spec line at each group
     *  boundary. */
    void
    prefetchSuccessor() const
    {
        if (group_ && group_->next) {
            const ThreadGroup *after = group_->next;
            prefetchLines(after->specs,
                          sizeof(ThreadSpec) * after->count,
                          /*forWrite=*/false);
        }
    }

    ThreadGroup *group_;
    std::uint32_t index_ = 0;
    const ThreadSpec *current_ = nullptr;
};

/**
 * Execute one bin's work items off @p cursor on @p worker.
 *
 * @p announced is the item count recorded in the BinStart event (the
 * bin's thread count; nested forks may run more). Behavior splits on
 * ctx.policy:
 *
 *  - Abort: no containment — the historic fast path. An escaped
 *    exception (or the "sched.bin.execute" fail point, which fires
 *    before any per-bin event) propagates to the caller.
 *  - StopTour / ContinueAndCollect: each item runs under a try/catch;
 *    faults are recorded through noteFault(). Under StopTour the rest
 *    of the bin is skipped after the first fault.
 *
 * @p superBin and @p streamEpoch only feed the profiling attribution
 * (obs/profile.hh): callers that know the bin's super-bin or the
 * stream seal epoch pass them so online miss rates aggregate the same
 * way placement did.
 *
 * Returns the number of items that completed.
 */
template <typename Cursor>
std::uint64_t
executeBin(std::uint32_t binId, std::uint64_t announced, FaultCtx &ctx,
           unsigned worker, Cursor &&cursor,
           std::uint32_t superBin = obs::kProfileNoSuperBin,
           std::uint32_t streamEpoch = obs::kProfileCurrentEpoch)
{
    // One pointer test when no deadline/watchdog token is armed; with
    // a token, one relaxed load per user thread — the cooperative
    // cancellation boundary the recovery layer relies on.
    const CancelToken *cancelTok = ctx.cancel;
    const auto cancelled = [cancelTok] {
        return cancelTok && cancelTok->requested();
    };
    const bool contain = ctx.policy != ErrorPolicy::Abort;
    if (!contain) {
        // Under ErrorPolicy::Abort this injected failure propagates
        // like any user-thread exception would (the contained branch
        // below instead records it, after BinStart — matching where a
        // real failure at the top of bin execution would surface).
        LSCHED_FAILPOINT("sched.bin.execute");
    }

    const bool traced = obs::traceOn();
    const bool metered = obs::metricsOn();
    const std::uint64_t t0 = (traced || metered) ? obs::nowNs() : 0;
    const obs::ProfileToken ptok = obs::profileBinBegin();

    std::uint64_t executed = 0;
    if (traced) {
        obs::TraceSession::global().record(obs::EventType::BinStart,
                                           binId, announced);
    }

    std::uint64_t faulted = 0;
    if (!contain) {
        if (traced) {
            obs::TraceSession &session = obs::TraceSession::global();
            while (!cancelled() && cursor.next()) {
                session.record(obs::EventType::ThreadStart, binId);
                executed += cursor.run();
                session.record(obs::EventType::ThreadEnd, binId);
            }
        } else {
            while (!cancelled() && cursor.next())
                executed += cursor.run();
        }
    } else {
        bool stopped = false;
        try {
            LSCHED_FAILPOINT("sched.bin.execute");
        } catch (...) {
            noteFault(ctx, binId, worker);
            ++faulted;
            stopped = ctx.policy == ErrorPolicy::StopTour;
        }
        while (!stopped && !cancelled() && cursor.next()) {
            try {
                if (traced) {
                    obs::TraceSession::global().record(
                        obs::EventType::ThreadStart, binId);
                }
                executed += cursor.run();
                if (traced) {
                    obs::TraceSession::global().record(
                        obs::EventType::ThreadEnd, binId);
                }
            } catch (...) {
                noteFault(ctx, binId, worker);
                ++faulted;
                if (ctx.policy == ErrorPolicy::StopTour)
                    stopped = true;
            }
        }
    }
    if (cancelled() && announced > executed + faulted) {
        // The cancellation cut this bin short mid-flight: account the
        // un-run tail (bins never claimed are swept by executeTour()
        // and the pool).
        noteCancelledBin(ctx, binId, worker,
                         announced - executed - faulted);
    }

    obs::profileBinEnd(ptok, binId, superBin, executed, worker,
                       streamEpoch);
    if (traced) {
        obs::TraceSession::global().record(obs::EventType::BinEnd,
                                           binId, executed);
    }
    if (metered) {
        const SchedInstruments &ins = schedInstruments();
        ins.executed->add(executed);
        ins.threadsPerBin->record(executed);
        ins.binDwellNs->record(obs::nowNs() - t0);
    }
    return executed;
}

/** Execute all threads currently scheduled in @p bin. */
inline std::uint64_t
executeBin(Bin *bin, FaultCtx &ctx, unsigned worker)
{
    GroupCursor cursor(bin);
    return executeBin(bin->id, bin->threadCount, ctx, worker, cursor,
                      bin->superBin);
}

/** Account a bin a cancellation dropped before it ran. */
inline void
noteDroppedBin(FaultCtx &ctx, const Bin *bin)
{
    if (bin->threadCount > 0)
        noteCancelledBin(ctx, bin->id, 0, bin->threadCount);
}

/**
 * Walk an ordered @p tour on the caller (worker 0): run()'s ordered
 * branch and the Serial backend. Stops claiming bins once
 * ctx.stopRequested(); a cancelled walk accounts its un-walked tail,
 * as the pool's post-join deque sweep does. No ParallelWorkerScope:
 * nested fork() on the caller is a recoverable UsageError, not the
 * parallel data race the marker exists to make fatal. Returns the
 * threads completed.
 */
inline std::uint64_t
executeTour(const std::vector<Bin *> &tour, FaultCtx &ctx)
{
    std::uint64_t executed = 0;
    std::size_t next = 0;
    for (; next < tour.size() && !ctx.stopRequested(); ++next)
        executed += executeBin(tour[next], ctx, 0);
    if (ctx.cancelRequested()) {
        for (; next < tour.size(); ++next)
            noteDroppedBin(ctx, tour[next]);
    }
    return executed;
}

} // namespace lsched::threads::detail

#endif // LSCHED_THREADS_BIN_EXEC_HH
