/**
 * @file
 * SMP extension of the locality scheduler (paper Section 7).
 *
 * Bins are the unit of distribution: a worker always runs a whole bin
 * so the per-bin working-set property carries over to each CPU's own
 * cache. runParallel() orders the tour (grouping super-bins together
 * under a hierarchical placement), arms the optional stall watchdog,
 * and hands the tour to the persistent work-stealing pool
 * (worker_pool.hh) as a PoolJob; the Serial backend and one-worker
 * calls fall back to run(). All bin execution, fault containment
 * (ErrorPolicy), tracing, and fail-point sites live in the one
 * executeBin() routine (bin_exec.hh) the pool's callback calls.
 *
 * The tour monitor (threads/recovery.hh) supervises each parallel
 * tour: SchedulerConfig::deadlineMillis arms a hard deadline whose
 * expiry requests cooperative cancellation through the tour's
 * CancelToken, and watchdogMillis a periodic stall report that — with
 * watchdogAction == cancel — escalates to the same token. When the
 * overload governor is degraded, pooled tours step down to the serial
 * path until it recovers.
 */

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "obs/profile.hh"
#include "support/error.hh"
#include "support/panic.hh"
#include "threads/bin_exec.hh"
#include "threads/placement.hh"
#include "threads/recovery.hh"
#include "threads/sched_obs.hh"
#include "threads/scheduler.hh"
#include "threads/worker_pool.hh"

namespace lsched::threads
{

namespace
{

/** Per-backend tour counters (sched.backend.<name>.tours). */
obs::Counter &
backendToursCounter(BackendKind kind)
{
    static obs::Counter *const counters[] = {
        &obs::Registry::global().counter("sched.backend.serial.tours"),
        &obs::Registry::global().counter("sched.backend.pooled.tours"),
    };
    return *counters[static_cast<std::size_t>(kind)];
}

/**
 * PoolJob::execute: run one bin on a pool worker. The thread-local
 * marker covers exactly the span where user threads run, so fork()
 * can reject the unsynchronized-ready-list race from any pool worker.
 * Under ErrorPolicy::Abort executeBin() does not contain: an escaped
 * exception hits the worker-thread boundary (std::terminate on a
 * helper; rethrown on the caller for worker 0).
 */
std::uint64_t
poolExecute(Bin *bin, unsigned worker, void *ctxRaw)
{
    detail::ParallelWorkerScope in_worker;
    return detail::executeBin(
        bin, *static_cast<detail::FaultCtx *>(ctxRaw), worker);
}

/** PoolJob::cancelledBin — account a bin the cancellation dropped. */
void
poolCancelled(Bin *bin, void *ctxRaw)
{
    detail::noteDroppedBin(*static_cast<detail::FaultCtx *>(ctxRaw), bin);
}

} // namespace

std::uint64_t
LocalityScheduler::runParallel(unsigned workers, bool keep)
{
    if (stream_) {
        throw lsched::UsageError("runParallel() during an active "
                                 "stream; close it with streamEnd() "
                                 "first");
    }
    LSCHED_ASSERT(!running_, "recursive run()");
    if (workers == 0)
        workers = std::thread::hardware_concurrency();
    if (workers > 1 && config_.backend != BackendKind::Serial &&
        governor_.degraded()) {
        // Graceful degradation: while the governor is degraded, the
        // tour steps down to the serial path (which still arms the
        // deadline) instead of fanning out over a pool that is not
        // keeping up. run() feeds the governor, so sustained healthy
        // tours step back up.
        recovery_.degradedTours.fetch_add(1, std::memory_order_relaxed);
        if (obs::metricsOn())
            detail::schedInstruments().recoverDegradedTours->add();
        LSCHED_WARN("overload governor degraded: runParallel(", workers,
                    ") stepping down to the serial path");
        LSCHED_TRACE_EVENT(
            obs::EventType::LoadShed, 0, pendingThreads_, workers);
        workers = 1;
    }
    if (workers <= 1 || config_.backend == BackendKind::Serial) {
        // One worker — or the serial backend, whose tour is exactly
        // run()'s ordered walk (no helpers, so no watchdog either).
        if (obs::metricsOn() && config_.backend == BackendKind::Serial)
            backendToursCounter(BackendKind::Serial).add();
        return run(keep);
    }

    running_ = true;
    nestedForkOk_ = false;
    lastFaults_.clear();
    lastFaultsTotal_ = 0;

    detail::RunGuard guard{*this, nullptr};
    detail::FaultCtx ctx(config_.onError, &lastFaults_);
    ctx.recovery = &recovery_;
    CancelToken cancelToken;
    if (config_.deadlineMillis > 0 ||
        (config_.watchdogMillis > 0 &&
         config_.watchdogAction == WatchdogAction::Cancel)) {
        ctx.cancel = &cancelToken;
    }

    std::vector<Bin *> tour =
        orderBins(config_.tour, readyBins(), config_.dims);
    const bool superBins = placement_->hierarchical();
    if (superBins)
        tour = groupBySuperBins(std::move(tour));

    // Topology-aware domain partition: with a resolved cache tree that
    // exposes more than one L2 group, deal super-bins across cache
    // domains and split the workers into matching teams, so each
    // super-bin's blocks execute on workers pinned inside one domain.
    // Gated on pinWorkers — without pinning the teams would be
    // arbitrary thread subsets with no cache in common.
    std::vector<std::uint32_t> binDomain;
    std::vector<std::uint32_t> workerDomain;
    std::uint32_t domains = 0;
    lastTourDomains_ = 0;
    lastTourDomainWorkers_ = 0;
    if (superBins && topo_ && topo_->l2Groups() > 1 && workers > 1 &&
        config_.pinWorkers) {
        domains = std::min<std::uint32_t>(topo_->l2Groups(), workers);
        // Stable, so super-bin groups stay contiguous inside their
        // domain's run — the pool's partition requires one contiguous
        // range per domain.
        std::stable_sort(
            tour.begin(), tour.end(),
            [domains](const Bin *a, const Bin *b) {
                return TopologyPlacement::domainOf(a->superBin, a->id,
                                                   domains) <
                       TopologyPlacement::domainOf(b->superBin, b->id,
                                                   domains);
            });
        binDomain.reserve(tour.size());
        for (const Bin *bin : tour) {
            binDomain.push_back(TopologyPlacement::domainOf(
                bin->superBin, bin->id, domains));
        }
        workerDomain.resize(workers);
        for (unsigned w = 0; w < workers; ++w)
            workerDomain[w] = w % domains;
        lastTourDomains_ = domains;
        lastTourDomainWorkers_ = (workers + domains - 1) / domains;
    }

    LSCHED_TRACE_EVENT(obs::EventType::RunBegin, pendingThreads_,
                       table_.binCount(), workers);
    obs::profileNoteEpoch();
    if (obs::metricsOn()) {
        detail::schedInstruments().runs->add();
        backendToursCounter(config_.backend).add();
        // Hops of the nominal tour; interleaving across workers is
        // visible in the trace, not the histogram.
        detail::recordTourHops(tour, config_.dims);
    }

    const std::unique_ptr<std::atomic<std::int64_t>[]> currentBin(
        new std::atomic<std::int64_t>[workers]);
    for (unsigned w = 0; w < workers; ++w)
        currentBin[w].store(detail::kWorkerIdle,
                            std::memory_order_relaxed);

    if (!workerPool_) {
        workerPool_ = std::make_unique<WorkerPool>(
            config_.pinWorkers,
            topo_ ? topo_->pinPlan() : std::vector<unsigned>{});
    }
    detail::PoolJob job;
    job.tour = tour.data();
    job.bins = tour.size();
    job.workers = workers;
    job.execute = &poolExecute;
    job.ctx = &ctx;
    job.stop = ctx.policy == ErrorPolicy::StopTour ? &ctx.stop : nullptr;
    job.cancel = ctx.cancel;
    job.cancelledBin = &poolCancelled;
    job.currentBin = currentBin.get();
    job.honorSuperBins = superBins;
    if (domains > 0) {
        job.binDomain = binDomain.data();
        job.workerDomain = workerDomain.data();
        job.domains = domains;
    }

    {
        detail::TourMonitorSpec mspec;
        mspec.deadlineMillis = config_.deadlineMillis;
        mspec.watchdogMillis = config_.watchdogMillis;
        mspec.watchdogAction = config_.watchdogAction;
        mspec.cancel = &cancelToken;
        mspec.recovery = &recovery_;
        mspec.currentBin = currentBin.get();
        mspec.workers = workers;
        detail::TourMonitor monitor(mspec);
        workerPool_->runTour(job);
    }
    const std::uint64_t executed =
        job.executed.load(std::memory_order_relaxed);

    const bool cancelled = ctx.cancelRequested();
    if (governor_.enabled())
        governor_.observe(cancelled);
    const bool faultedStop = ctx.first != nullptr;
    if (!keep && !faultedStop) {
        for (Bin *bin : tour) {
            pool_.recycleChain(bin->groupsHead);
            bin->clearGroups();
            bin->readyNext = nullptr;
            bin->onReadyList = false;
        }
        readyHead_ = nullptr;
        readyTail_ = nullptr;
        pendingThreads_ = 0;
    }

    executedThreads_ += executed;
    lastFaultsTotal_ = ctx.totalFaults;
    faultedThreads_ += lastFaultsTotal_;
    if (faultedStop) {
        // StopTour: all workers have finished the tour; rethrow the
        // first user exception exactly once on the caller. The guard's
        // unwind path recycles every bin and zeroes the pending count.
        std::rethrow_exception(ctx.first);
    }
    if (cancelled && config_.onError != ErrorPolicy::ContinueAndCollect) {
        // Deadline/watchdog cancellation under Abort/StopTour: all
        // workers have joined and the dropped work is accounted;
        // surface a recoverable error on the caller.
        throw DeadlineError(lsched::detail::concatMessage(
            "parallel tour cancelled (",
            cancelReasonName(cancelToken.why()), ") after ",
            cancelToken.why() == CancelReason::Watchdog
                ? config_.watchdogMillis
                : config_.deadlineMillis,
            " ms: ",
            ctx.cancelledBins.load(std::memory_order_relaxed),
            " bin(s), ",
            ctx.cancelledThreads.load(std::memory_order_relaxed),
            " thread(s) dropped"));
    }
    // Tour boundary: let the adaptive placement re-derive its block
    // dims from this tour's profiler feedback before the next run.
    placement_->maybeRetune();
    placeHot_ = placement_->hotPolicy();
    guard.commit();
    LSCHED_TRACE_EVENT(obs::EventType::RunEnd, executed);
    return executed;
}

} // namespace lsched::threads
