/**
 * @file
 * StreamSession implementation: lock-free intake table, seal/epoch
 * hand-off, ticket backpressure, and the drain loops. See stream.hh
 * and DESIGN.md §16 for the design.
 */

#include "threads/stream.hh"

#include <chrono>
#include <optional>
#include <string>

#include "support/error.hh"
#include "support/panic.hh"
#include "support/prng.hh"
#include "threads/bin_exec.hh"
#include "threads/hash_table.hh"
#include "threads/sched_obs.hh"
#include "threads/scheduler.hh"

namespace lsched::threads
{

namespace
{

/** Backpressure backoff: first wait, doubling per no-progress round. */
constexpr std::uint64_t kBackoffBaseUs = 500;
/** Backoff ceiling, so a long stall still polls for liveness. */
constexpr std::uint64_t kBackoffCapUs = 50'000;
/** Governor tick when no deadline sets the epoch length. */
constexpr std::uint32_t kGovernorTickMillis = 20;
/** Warn every this many no-progress rounds when retries are ∞. */
constexpr unsigned kStallWarnPeriod = 32;

/**
 * True while this producer thread is draining a sealed bin inline
 * (backpressure help or queue-full relief). Nested forks from the
 * user threads it runs bypass the maxPending bound — blocking would
 * deadlock the one thread doing the draining.
 */
thread_local bool t_inInlineDrain = false;

struct InlineDrainScope
{
    InlineDrainScope() { t_inInlineDrain = true; }
    ~InlineDrainScope() { t_inInlineDrain = false; }
};

} // namespace

StreamSession::StreamSession(const SchedulerConfig &config,
                             PlacementPolicy &placement,
                             WorkerPool *pool, unsigned drainWorkers,
                             detail::RecoveryStats *recovery,
                             OverloadGovernor *governor)
    : dims_(config.dims),
      sealThreshold_(config.streamSealThreshold),
      maxPending_(config.streamMaxPending),
      deadlineMillis_(config.deadlineMillis),
      admitRetries_(config.streamAdmitRetries),
      placement_(placement),
      placementStateless_(placement.stateless()),
      placementAdaptive_(placement.kind() == PlacementKind::Adaptive),
      table_(config.dims, config.hashBuckets, kStreamIdBase),
      groupPool_(config.groupCapacity),
      fault_(config.onError, &faults_),
      pool_(pool),
      recovery_(recovery),
      governor_(governor)
{
    fault_.recovery = recovery_;
    if (deadlineMillis_ > 0)
        fault_.cancel = &cancel_;
    if (pool_) {
        job_.body = &StreamSession::drainMain;
        job_.ctx = this;
        job_.workers = std::max(1u, drainWorkers);
        pool_->beginStream(job_);
        helpersRunning_ = true;
    }
    if (deadlineMillis_ > 0 || (governor_ && governor_->enabled()) ||
        placementAdaptive_)
        monitor_ = std::thread(&StreamSession::monitorMain, this);
}

StreamSession::~StreamSession()
{
    try {
        finish();
    } catch (...) {
        // Teardown without a streamEnd(): there is nobody left to
        // rethrow a final inline-drain fault to.
    }
}

void
StreamSession::notePeak(std::uint64_t ticket, std::uint64_t retired)
{
    // The backlog this ticket joined: itself and every earlier ticket
    // not yet retired. A gated pass keeps it under maxPending_, so once
    // the peak reaches the bound the load below is all a fork pays.
    if (ticket + 1 <= retired)
        return;
    const std::uint64_t now = ticket + 1 - retired;
    std::uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now,
                                        std::memory_order_relaxed))
        ;
}

void
StreamSession::refund()
{
    refunds_.fetch_add(1, std::memory_order_relaxed);
    retiredThreads_.fetch_add(1, std::memory_order_release);
}

std::uint64_t
StreamSession::backlog() const
{
    // Retired first: every retirement and refund follows its ticket, so
    // the later tickets load covers it.
    const std::uint64_t retired =
        retiredThreads_.load(std::memory_order_acquire);
    const std::uint64_t tickets =
        tickets_.load(std::memory_order_relaxed);
    return tickets > retired ? tickets - retired : 0;
}

void
StreamSession::admitThread()
{
    // Every admission takes a ticket, bypass or not: bypassed
    // admissions then count against the gate arithmetic, so gated
    // producers automatically absorb any overshoot they caused. The
    // ticket is the only session word a fork writes.
    const std::uint64_t ticket =
        tickets_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t retired =
        retiredThreads_.load(std::memory_order_acquire);
    // The gate: this ticket fits under the bound once the drain has
    // retired enough threads. Tickets pass in FIFO order and the
    // admitted-unretired backlog can never exceed the bound.
    if (maxPending_ && !t_inInlineDrain &&
        ticket >= retired + maxPending_) [[unlikely]]
        retired = waitAtGate(ticket, retired);
    notePeak(ticket, retired);
}

std::uint64_t
StreamSession::waitAtGate(std::uint64_t ticket, std::uint64_t retired)
{
    unsigned noProgress = 0;
    std::uint64_t waitUs = kBackoffBaseUs;
    // Seeded before the first sleep only: most held producers pass
    // after helping and never sleep.
    std::optional<Prng> jitter;
    for (;; retired = retiredThreads_.load(std::memory_order_acquire)) {
        if (fault_.stopRequested()) {
            // Stopping: drainers are discarding, so holding producers
            // at the gate could wait on progress that never comes.
            break;
        }
        if (ticket < retired + maxPending_)
            break;
        LSCHED_TRACE_EVENT(obs::EventType::Backpressure, backlog(),
                           maxPending_);
        if (obs::metricsOn())
            detail::schedInstruments().streamBackpressure->add();
        // First choice: help. An inline drain or a force-seal is
        // forward progress this producer made itself.
        if (tryHelp()) {
            noProgress = 0;
            waitUs = kBackoffBaseUs;
            continue;
        }
        if (degraded_.load(std::memory_order_relaxed)) {
            // Load shedding: a degraded session never blocks its
            // producers — admission overshoots the bound (soft) and
            // the governor's force-seals keep the drain fed.
            break;
        }
        // The backlog is entirely in flight on the drain workers: back
        // off with a timed, jittered exponential sleep instead of the
        // historic unbounded condvar wait, so a wedged pool surfaces
        // as a diagnosable timeout rather than a hang — and no lock is
        // shared with the admission fast path.
        bpWaits_.fetch_add(1, std::memory_order_relaxed);
        if (!jitter) {
            jitter.emplace(0x5bd1e995u + jitterSeed_.fetch_add(
                                             1, std::memory_order_relaxed));
        }
        const std::uint64_t retiredBefore =
            retiredThreads_.load(std::memory_order_relaxed);
        const std::uint64_t sleepUs =
            waitUs / 2 + jitter->nextBelow(waitUs / 2 + 1);
        std::this_thread::sleep_for(
            std::chrono::microseconds(sleepUs));
        if (retiredThreads_.load(std::memory_order_relaxed) !=
            retiredBefore) {
            // The drain moved; reset the retry budget and the backoff.
            noProgress = 0;
            waitUs = kBackoffBaseUs;
            continue;
        }
        ++noProgress;
        if (recovery_) {
            recovery_->admissionRetries.fetch_add(
                1, std::memory_order_relaxed);
        }
        if (obs::metricsOn())
            detail::schedInstruments().recoverAdmissionRetries->add();
        if (admitRetries_ && noProgress >= admitRetries_) {
            if (recovery_) {
                recovery_->admissionTimeouts.fetch_add(
                    1, std::memory_order_relaxed);
            }
            if (obs::metricsOn()) {
                detail::schedInstruments()
                    .recoverAdmissionTimeouts->add();
            }
            // The ticket this admission took never retires on its
            // own; refund it so the gate stays consistent.
            refund();
            const std::uint64_t cur = backlog();
            LSCHED_TRACE_EVENT(obs::EventType::AdmissionTimeout, cur,
                               maxPending_, noProgress);
            throw AdmissionTimeout(lsched::detail::concatMessage(
                "stream admission timed out after ", noProgress,
                " no-progress backoff round(s): ", cur,
                " thread(s) pending at bound ", maxPending_));
        }
        if (!admitRetries_ && noProgress % kStallWarnPeriod == 0) {
            LSCHED_WARN("stream admission stalled: ", noProgress,
                        " no-progress wait(s) at bound ", maxPending_,
                        " (streamAdmitRetries == 0 retries forever)");
        }
        waitUs = std::min(waitUs * 2, kBackoffCapUs);
    }
    return retired;
}

bool
StreamSession::tryHelp()
{
    // Become the drain: one sealed bin run inline frees at least one
    // admission slot without waiting on anyone.
    detail::SealedBin item;
    if (queue_.tryPop(item)) {
        inlineDrains_.fetch_add(1, std::memory_order_relaxed);
        if (obs::metricsOn())
            detail::schedInstruments().streamInline->add();
        InlineDrainScope inDrain;
        drainOne(item, 0);
        return true;
    }
    // Nothing sealed yet: the backlog is sitting in open bins. Seal
    // one so the drain (pool or our next pass) has work.
    return forceSealOne();
}

detail::SealedBin
StreamSession::makeItem(const StreamBin &bin,
                        const SealedChain &chain) const
{
    detail::SealedBin s;
    s.binId = bin.id;
    s.epoch = chain.epoch;
    s.superBin = bin.superBin;
    s.threads = chain.threads;
    s.groups = chain.head;
    return s;
}

void
StreamSession::enqueue(const detail::SealedBin &item)
{
    LSCHED_TRACE_EVENT(obs::EventType::StreamSeal, item.binId,
                       item.epoch, item.threads);
    if (obs::metricsOn())
        detail::schedInstruments().streamSeals->add();
    while (!queue_.tryPush(item)) {
        // Ring full: relieve it ourselves instead of spinning — in
        // the inline-only mode (no pool) nobody else ever would.
        detail::SealedBin victim;
        if (!queue_.tryPop(victim))
            continue; // racing consumers made room already
        try {
            if (fault_.stopRequested()) {
                discard(victim);
            } else {
                InlineDrainScope inDrain;
                drainOne(victim, 0);
            }
        } catch (...) {
            // Abort unwinding: retire our own chain too so the
            // backlog accounting stays sane.
            unpushedSeals_.fetch_add(1, std::memory_order_relaxed);
            discard(item);
            throw;
        }
    }
}

bool
StreamSession::forceSealOne()
{
    // Successive calls start one bin further on, so repeated force
    // seals spread over the open bins instead of always taking the
    // first.
    const std::size_t bins = table_.binCount();
    const std::size_t start =
        sealCursor_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = 0; i < bins; ++i) {
        StreamBin *bin = table_.binAt((start + i) % bins);
        if (!bin) // segment install still in flight
            continue;
        if (!bin->epochThreads.load(std::memory_order_relaxed))
            continue;
        const SealedChain chain = sealStreamBin(*bin, groupPool_);
        if (!chain.head)
            continue; // a racing sealer beat us to it
        enqueue(makeItem(*bin, chain));
        return true;
    }
    return false;
}

void
StreamSession::fork(ThreadFn fn, void *arg1, void *arg2,
                    std::span<const Hint> hints)
{
    LSCHED_ASSERT(fn != nullptr, "fork of a null thread function");
    admitThread();

    PlacementDecision where;
    bool doSeal = false;
    bool created = false;
    std::uint32_t binId = 0;
    detail::SealedBin sealed;
    try {
        if (placementStateless_) {
            where = placement_.place(hints);
        } else {
            std::lock_guard<std::mutex> lock(placementMutex_);
            where = placement_.place(hints);
        }

        const auto [bin, fresh] = table_.findOrCreate(
            where.coords, hashCoords(where.coords, dims_),
            where.superBin);
        created = fresh;
        binId = bin->id;
        const std::uint64_t epochCount =
            appendStreamSpec(*bin, groupPool_, fn, arg1, arg2);
        if (sealThreshold_ && epochCount >= sealThreshold_) {
            const SealedChain chain = sealStreamBin(*bin, groupPool_);
            if (chain.head) {
                sealed = makeItem(*bin, chain);
                doSeal = true;
            }
        }
    } catch (...) {
        // The admission slot was reserved up front; hand it back so an
        // allocation failure cannot wedge the gate or the backlog.
        refund();
        throw;
    }

    if (obs::anyOn()) [[unlikely]] {
        if (obs::metricsOn()) {
            const detail::SchedInstruments &ins =
                detail::schedInstruments();
            ins.forked->add();
            ins.streamForked->add();
            if (created)
                ins.binsCreated->add();
        }
        if (created) {
            LSCHED_TRACE_EVENT(obs::EventType::BinCreate, binId,
                               where.coords[0], where.coords[1]);
        }
        LSCHED_TRACE_EVENT(obs::EventType::ThreadFork, binId,
                           where.coords[0], where.coords[1]);
    }
    if (doSeal)
        enqueue(sealed);
}

void
StreamSession::drainOne(const detail::SealedBin &item, unsigned worker)
{
    detail::GroupCursor cursor(item.groups);
    std::uint64_t done = 0;
    try {
        done = detail::executeBin(item.binId, item.threads, fault_,
                                  worker, cursor, item.superBin,
                                  item.epoch);
    } catch (...) {
        // ErrorPolicy::Abort: still retire the chain so the backlog
        // accounting (and any producer backed off on it) stays sane
        // while the exception unwinds.
        retire(item);
        throw;
    }
    executed_.fetch_add(done, std::memory_order_relaxed);
    retire(item);
}

void
StreamSession::discard(const detail::SealedBin &item)
{
    if (fault_.cancelRequested() && item.threads > 0) {
        // Cancellation (not a StopTour fault) dropped this chain:
        // account it like any cancelled bin.
        detail::noteCancelledBin(fault_, item.binId, 0, item.threads);
    }
    retire(item);
}

void
StreamSession::retire(const detail::SealedBin &item)
{
    groupPool_.recycleChain(item.groups);
    retired_.fetch_add(1, std::memory_order_relaxed);
    // The release pairs with the gate's acquire: a producer that
    // passes on these retirements also sees the recycled groups'
    // state reach the free tiers coherently.
    retiredThreads_.fetch_add(item.threads, std::memory_order_release);
}

void
StreamSession::drainMain(unsigned worker, void *ctx)
{
    auto *self = static_cast<StreamSession *>(ctx);
    if (obs::traceOn()) {
        obs::TraceSession::global().setLaneName(
            "stream drain " + std::to_string(worker));
    }
    obs::profileWorkerAttach(worker);
    // Same marker as tour workers: fork() from a user thread running
    // on a drain helper is the unsupported (fatal) case; producers
    // fork from their own threads.
    detail::ParallelWorkerScope inWorker;
    detail::SealedBin item;
    while (self->queue_.waitPop(item)) {
        if (self->fault_.stopRequested())
            self->discard(item);
        else
            self->drainOne(item, worker);
    }
}

void
StreamSession::monitorMain()
{
    if (obs::traceOn())
        obs::TraceSession::global().setLaneName("stream monitor");
    const auto tick = std::chrono::milliseconds(
        deadlineMillis_ > 0 ? deadlineMillis_ : kGovernorTickMillis);
    std::uint64_t lastRetired = retired_.load(std::memory_order_relaxed);
    bool sawBacklog = false;
    std::unique_lock<std::mutex> lock(monMutex_);
    while (!monCv_.wait_for(lock, tick, [&] { return monDone_; })) {
        const std::uint64_t pend = backlog();
        const std::uint64_t ret =
            retired_.load(std::memory_order_relaxed);
        if (deadlineMillis_ > 0 && !cancel_.requested()) {
            if (sawBacklog && pend > 0 && ret == lastRetired) {
                // A standing backlog retired nothing for a whole
                // deadline period: the epoch is wedged. Cancel
                // cooperatively; drains discard, backed-off producers
                // notice through stopRequested() within one backoff.
                LSCHED_WARN("stream deadline: backlog of ", pend,
                            " thread(s) made no progress for ",
                            deadlineMillis_,
                            " ms; cancelling the stream");
                LSCHED_TRACE_EVENT(
                    obs::EventType::DeadlineExpire, deadlineMillis_,
                    static_cast<std::uint64_t>(CancelReason::Deadline),
                    pend);
                if (recovery_) {
                    recovery_->deadlines.fetch_add(
                        1, std::memory_order_relaxed);
                }
                if (obs::metricsOn())
                    detail::schedInstruments().recoverDeadlines->add();
                cancel_.request(CancelReason::Deadline);
            }
            sawBacklog = pend > 0;
        }
        lastRetired = ret;
        if (governor_ && governor_->enabled()) {
            const bool overloaded =
                cancel_.requested() ||
                (maxPending_ > 0 && pend >= maxPending_);
            const RecoveryState state = governor_->observe(overloaded);
            const bool nowDegraded =
                state == RecoveryState::Degraded;
            if (nowDegraded &&
                !degraded_.load(std::memory_order_relaxed)) {
                // Backed-off producers poll degraded_ each round, so
                // the flag alone unblocks them within one backoff.
                degraded_.store(true, std::memory_order_relaxed);
                shedLoad();
            } else if (!nowDegraded &&
                       degraded_.load(std::memory_order_relaxed)) {
                degraded_.store(false, std::memory_order_relaxed);
            }
        }
        if (placementAdaptive_) {
            // Stream epoch tick: a safe retune boundary. The adaptive
            // placement serializes against concurrent producers on its
            // own internal mutex; already-placed bins keep their
            // coordinates, so only subsequent forks land in the new
            // geometry.
            placement_.maybeRetune();
        }
    }
}

void
StreamSession::stopMonitor()
{
    if (!monitor_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(monMutex_);
        monDone_ = true;
    }
    monCv_.notify_one();
    monitor_.join();
}

void
StreamSession::shedLoad()
{
    std::uint64_t shedBins = 0;
    const std::size_t bins = table_.binCount();
    for (std::size_t b = 0; b < bins; ++b) {
        StreamBin *bin = table_.binAt(b);
        if (!bin) // segment install still in flight
            continue;
        if (!bin->epochThreads.load(std::memory_order_relaxed))
            continue;
        const SealedChain chain = sealStreamBin(*bin, groupPool_);
        if (!chain.head)
            continue;
        enqueue(makeItem(*bin, chain));
        ++shedBins;
    }
    if (recovery_)
        recovery_->loadSheds.fetch_add(1, std::memory_order_relaxed);
    if (obs::metricsOn())
        detail::schedInstruments().recoverLoadSheds->add();
    LSCHED_WARN("stream overload: degraded; force-sealed ", shedBins,
                " open bin(s) for the drain");
    LSCHED_TRACE_EVENT(obs::EventType::LoadShed, shedBins, backlog(),
                       maxPending_);
}

void
StreamSession::finish()
{
    if (finished_)
        return;
    finished_ = true;
    // The monitor must stop before the tail drain: finish()'s own
    // sealing and draining would otherwise read as one more wedged
    // (or overloaded) epoch.
    stopMonitor();

    // Producers have stopped (the owner's contract): seal every open
    // chain so the tail of the stream drains like any other epoch.
    const std::size_t bins = table_.binCount();
    for (std::size_t b = 0; b < bins; ++b) {
        StreamBin *bin = table_.binAt(b);
        if (!bin) // a failed carve left a permanent gap
            continue;
        const SealedChain chain = sealStreamBin(*bin, groupPool_);
        if (chain.head)
            enqueue(makeItem(*bin, chain));
    }

    queue_.finish();
    if (helpersRunning_) {
        pool_->endStream();
        helpersRunning_ = false;
    }
    // Inline-only mode (no pool): the caller drains the whole tail as
    // worker 0. With helpers the queue is already empty — they only
    // exit waitPop once it is.
    detail::SealedBin item;
    while (queue_.tryPop(item)) {
        if (fault_.stopRequested())
            discard(item);
        else
            drainOne(item, 0);
    }

    for (std::size_t b = 0; b < bins; ++b) {
        const StreamBin *bin = table_.binAt(b);
        if (!bin)
            continue;
        const std::uint64_t threads =
            bin->totalThreads.load(std::memory_order_relaxed);
        if (!threads)
            continue; // spare or never-forked bin
        StreamBinReport r;
        r.coords = bin->coords;
        r.epochs = bin->epochs.load(std::memory_order_relaxed);
        r.threads = threads;
        bins_.push_back(r);
    }
}

StreamStats
StreamSession::stats() const
{
    StreamStats s;
    // Nothing on the fork path counts forks, backlog or seals; they
    // follow from the ticket, retirement and ring words. A fork still
    // inside fork() already counts as forked and pending.
    s.backlog = backlog();
    const std::uint64_t refunds =
        refunds_.load(std::memory_order_relaxed);
    const std::uint64_t tickets =
        tickets_.load(std::memory_order_relaxed);
    s.forked = tickets > refunds ? tickets - refunds : 0;
    s.executed = executed_.load(std::memory_order_relaxed);
    s.seals = queue_.pushed() +
              unpushedSeals_.load(std::memory_order_relaxed);
    s.backpressureWaits = bpWaits_.load(std::memory_order_relaxed);
    s.inlineDrains = inlineDrains_.load(std::memory_order_relaxed);
    s.peakBacklog = peak_.load(std::memory_order_relaxed);
    return s;
}

} // namespace lsched::threads
