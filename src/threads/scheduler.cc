#include "scheduler.hh"

#include <cstdlib>
#include <mutex>
#include <thread>

#include "support/error.hh"
#include "support/panic.hh"
#include "threads/adapt.hh"
#include "threads/bin_exec.hh"
#include "threads/config_keys.hh"
#include "threads/sched_obs.hh"

namespace lsched::threads
{

namespace detail
{

const SchedInstruments &
schedInstruments()
{
    static const SchedInstruments ins = [] {
        obs::Registry &r = obs::Registry::global();
        return SchedInstruments{
            &r.counter("sched.threads.forked"),
            &r.counter("sched.threads.executed"),
            &r.counter("sched.runs"),
            &r.counter("sched.bins.created"),
            &r.counter("sched.threads.faulted"),
            &r.counter("sched.pool.steals"),
            &r.counter("sched.pool.parks"),
            &r.counter("sched.pool.cross_steals"),
            &r.counter("sched.pool.pin_failed"),
            &r.counter("sched.stream.forked"),
            &r.counter("sched.stream.seals"),
            &r.counter("sched.stream.backpressure"),
            &r.counter("sched.stream.inline_drains"),
            &r.counter("sched.recover.deadlines"),
            &r.counter("sched.recover.watchdog_cancels"),
            &r.counter("sched.recover.cancelled_bins"),
            &r.counter("sched.recover.cancelled_threads"),
            &r.counter("sched.recover.admission_retries"),
            &r.counter("sched.recover.admission_timeouts"),
            &r.counter("sched.recover.load_sheds"),
            &r.counter("sched.recover.degraded_tours"),
            &r.counter("sched.recover.recoveries"),
            &r.histogram("sched.hash.probes"),
            &r.histogram("sched.bin.threads"),
            &r.histogram("sched.bin.dwell_ns"),
            &r.histogram("sched.tour.hop_distance"),
        };
    }();
    return ins;
}

void
noteFault(FaultCtx &ctx, std::uint32_t binId, unsigned worker)
{
    std::string message = "unknown exception";
    try {
        throw;
    } catch (const std::exception &e) {
        message = e.what();
    } catch (...) {
    }

    {
        std::lock_guard<std::mutex> lock(ctx.mutex);
        ++ctx.totalFaults;
        if (ctx.faults &&
            ctx.faults->size() < FaultCtx::kMaxRecordedFaults)
            ctx.faults->push_back({binId, worker, std::move(message)});
        if (ctx.policy == ErrorPolicy::StopTour && !ctx.first)
            ctx.first = std::current_exception();
    }
    if (ctx.policy == ErrorPolicy::StopTour)
        ctx.stop.store(true, std::memory_order_relaxed);

    LSCHED_TRACE_EVENT(obs::EventType::ThreadFault, binId, worker);
    if (obs::metricsOn())
        schedInstruments().faulted->add();
}

void
noteCancelledBin(FaultCtx &ctx, std::uint32_t binId, unsigned worker,
                 std::uint64_t threads)
{
    ctx.cancelledBins.fetch_add(1, std::memory_order_relaxed);
    ctx.cancelledThreads.fetch_add(threads, std::memory_order_relaxed);
    if (ctx.recovery) {
        ctx.recovery->cancelledBins.fetch_add(
            1, std::memory_order_relaxed);
        ctx.recovery->cancelledThreads.fetch_add(
            threads, std::memory_order_relaxed);
    }
    if (ctx.policy == ErrorPolicy::ContinueAndCollect) {
        // This run returns normally, so the dropped work must be
        // visible where contained faults are: one recorded fault per
        // cancelled bin, counting every dropped thread.
        const CancelReason reason =
            ctx.cancel ? ctx.cancel->why() : CancelReason::None;
        std::lock_guard<std::mutex> lock(ctx.mutex);
        ctx.totalFaults += threads;
        if (ctx.faults &&
            ctx.faults->size() < FaultCtx::kMaxRecordedFaults) {
            ctx.faults->push_back(
                {binId, worker,
                 lsched::detail::concatMessage(
                     "bin cancelled (", cancelReasonName(reason), "): ",
                     threads, " thread(s) dropped")});
        }
    }
    LSCHED_TRACE_EVENT(obs::EventType::BinCancelled, binId, worker,
                       threads);
    if (obs::metricsOn()) {
        const SchedInstruments &ins = schedInstruments();
        ins.recoverCancelledBins->add();
        ins.recoverCancelledThreads->add(threads);
    }
}

} // namespace detail

namespace
{

/** Per-placement fork counters (sched.placement.<name>.forked). */
obs::Counter &
placementForkedCounter(PlacementKind kind)
{
    static obs::Counter *const counters[] = {
        &obs::Registry::global().counter(
            "sched.placement.blockhash.forked"),
        &obs::Registry::global().counter(
            "sched.placement.roundrobin.forked"),
        &obs::Registry::global().counter(
            "sched.placement.hierarchical.forked"),
        &obs::Registry::global().counter(
            "sched.placement.adaptive.forked"),
    };
    return *counters[static_cast<std::size_t>(kind)];
}

/** The placement instance a validated configuration selects. */
std::unique_ptr<PlacementPolicy>
placementFor(const SchedulerConfig &config)
{
    if (config.placement == PlacementKind::Adaptive)
        return makeAdaptivePlacement(config);
    return makePlacement(config.placement, config.dims,
                         config.blockBytes, config.symmetricHints,
                         config.roundRobinBins, config.superBinFan);
}

/**
 * Resolve the topology config key into a tree (machine/topology.hh):
 * null for "flat" (and for failed auto-discovery — the legacy
 * single-domain behavior), a discovered tree for "auto", a synthetic
 * one for a spec string. The LSCHED_TOPOLOGY environment variable
 * overrides *only* "auto" — configs that pinned a spec (tests,
 * benches) are immune to the CI matrix forcing a path.
 */
std::shared_ptr<const machine::CacheTopology>
resolveTopology(const SchedulerConfig &config)
{
    std::string spec = config.topology.empty() ? "auto" : config.topology;
    bool fromEnv = false;
    if (spec == "auto") {
        if (const char *env = std::getenv("LSCHED_TOPOLOGY");
            env != nullptr && *env != '\0') {
            spec = env;
            fromEnv = true;
        }
    }
    if (spec == "flat")
        return nullptr;
    if (spec != "auto") {
        auto topo = std::make_shared<machine::CacheTopology>();
        std::string error;
        if (machine::CacheTopology::fromSpec(spec, topo.get(), &error))
            return topo;
        if (!fromEnv) {
            throw ConfigError(
                lsched::detail::concatMessage("topology: ", error));
        }
        // A broken environment override must not take schedulers down;
        // warn and fall through to real discovery.
        LSCHED_WARN("ignoring LSCHED_TOPOLOGY: ", error);
    }
    auto topo = std::make_shared<machine::CacheTopology>();
    if (machine::CacheTopology::fromSysfs("/sys/devices/system/cpu",
                                          topo.get()))
        return topo;
    return nullptr;
}

/**
 * Normalize defaults and reject unusable configurations. The zeros
 * that the paper's th_init documents as "pick the default" stay
 * defaults (blockBytes, hashBuckets); everything that would flow into
 * a div-by-zero or a degenerate block map is a ConfigError. When
 * @p topoOut is non-null it receives the resolved cache topology,
 * which also fills in what the knobs left at 0: cacheBytes from the
 * discovered L2 size, superBinFan (hierarchical placements, multi-L2
 * trees) from the groups-per-cluster ratio.
 */
SchedulerConfig
validated(SchedulerConfig config,
          std::shared_ptr<const machine::CacheTopology> *topoOut = nullptr)
{
    // Process-wide --placement/--backend/--sched overrides beat
    // per-scheduler settings, mirroring how --trace turns tracing on
    // globally. The list was already validated at parse time, so a
    // failure here means the tables drifted.
    for (const auto &[key, value] : detail::schedOverrides()) {
        std::string error;
        if (!applyConfigKey(config, key, value, &error))
            throw ConfigError(error);
    }
    if (config.dims < 1 || config.dims > kMaxDims) {
        throw ConfigError(lsched::detail::concatMessage(
            "dims must be in [1, ", kMaxDims, "], got ", config.dims));
    }
    const std::shared_ptr<const machine::CacheTopology> topo =
        resolveTopology(config);
    if (config.cacheBytes == 0 && topo && topo->l2Bytes() > 0) {
        // The knob said "whatever the hardware has": size blocks to
        // the discovered per-core L2, the cache bins actually live in.
        config.cacheBytes = topo->l2Bytes();
    }
    if (config.cacheBytes == 0)
        throw ConfigError("cacheBytes must be non-zero");
    if (config.groupCapacity == 0)
        throw ConfigError("groupCapacity must be non-zero");
    const bool hierarchicalish =
        config.placement == PlacementKind::Hierarchical ||
        (config.placement == PlacementKind::Adaptive &&
         config.adaptBase == PlacementKind::Hierarchical);
    if (config.superBinFan == 0 && hierarchicalish && topo &&
        topo->l2Groups() > 1) {
        // Super-bins spread over L3 clusters: one super-bin spans as
        // many blocks per dimension as the cluster has L2 domains, so
        // a cluster's worth of bins is one scheduling unit. The
        // adaptive tuner starts from this value (makeAdaptivePlacement
        // reads the materialized config) and stays bounded by
        // cacheBytes, which the same tree sized to one L2 domain.
        config.superBinFan = topo->groupsPerCluster();
    }
    if (topoOut)
        *topoOut = topo;
    if (config.blockBytes == 0)
        config.blockBytes = config.cacheBytes / config.dims;
    if (config.blockBytes == 0) {
        throw ConfigError(lsched::detail::concatMessage(
            "cacheBytes (", config.cacheBytes, ") too small for ",
            config.dims, " dimensions"));
    }
    if (config.blockBytes > config.cacheBytes) {
        // Legal but almost certainly a mistake outside deliberate
        // degradation experiments (Figure 4 sweeps past the cache on
        // purpose), so this warns instead of rejecting.
        LSCHED_WARN("blockBytes (", config.blockBytes,
                    ") exceeds cacheBytes (", config.cacheBytes,
                    "); every bin will overflow the cache");
    }
    if (config.hashBuckets == 0)
        config.hashBuckets = 4096;
    if (config.adaptBase == PlacementKind::Adaptive) {
        throw ConfigError(
            "adapt.base must name a concrete policy "
            "(blockhash|roundrobin|hierarchical), not adaptive");
    }
    if (config.placement == PlacementKind::Adaptive) {
        if (config.adaptHighMiss < config.adaptTargetMiss) {
            throw ConfigError(lsched::detail::concatMessage(
                "adapt.high_miss (", config.adaptHighMiss,
                ") must be >= adapt.target_miss (",
                config.adaptTargetMiss, ")"));
        }
        if (config.adaptEpochs == 0)
            throw ConfigError("adapt.epochs must be non-zero");
        if (config.adaptMinBlock == 0)
            throw ConfigError("adapt.min_block must be non-zero");
    }
    return config;
}

} // namespace

LocalityScheduler::LocalityScheduler(const SchedulerConfig &config)
    : config_(validated(config, &topo_)),
      placement_(placementFor(config_)),
      table_(config_.dims, config_.hashBuckets),
      pool_(config_.groupCapacity)
{
    placeHot_ = placement_->hotPolicy();
    governor_.configure(config_.overloadEpochs, config_.recoverEpochs,
                        &recovery_);
}

LocalityScheduler::~LocalityScheduler() = default;

void
LocalityScheduler::configure(const SchedulerConfig &config)
{
    if (running_) {
        // Placement geometry (blockBytes, superBinFan, placement kind)
        // is load-bearing while a stream is open: bins already placed
        // under the old dims would stop matching new forks. Reject
        // rather than silently remap.
        throw UsageError(stream_
                             ? "cannot reconfigure while a stream is "
                               "open; close it with streamEnd() first"
                             : "cannot reconfigure a running scheduler");
    }
    if (pendingThreads_ != 0) {
        throw UsageError(lsched::detail::concatMessage(
            "cannot reconfigure with ", pendingThreads_,
            " threads pending; run or clear them first"));
    }
    // Validate before touching anything so a bad config leaves the
    // previous one fully intact.
    std::shared_ptr<const machine::CacheTopology> nextTopo;
    const SchedulerConfig next = validated(config, &nextTopo);
    config_ = next;
    topo_ = std::move(nextTopo);
    lastTourDomains_ = 0;
    lastTourDomainWorkers_ = 0;
    placement_ = placementFor(config_);
    placeHot_ = placement_->hotPolicy();
    table_ = BinTable(config_.dims, config_.hashBuckets);
    pool_ = GroupPool(config_.groupCapacity);
    readyHead_ = nullptr;
    readyTail_ = nullptr;
    // Retire the worker pool so pinWorkers and the topology's pin
    // plan take effect on the next parallel tour; its lifetime
    // counters carry over.
    if (workerPool_) {
        retiredPoolStats_ += workerPool_->stats();
        workerPool_.reset();
    }
    // Re-arming the governor resets its state machine to Healthy; the
    // lifetime recovery counters are deliberately preserved.
    governor_.configure(config_.overloadEpochs, config_.recoverEpochs,
                        &recovery_);
}

void
LocalityScheduler::appendReady(Bin *bin)
{
    bin->readyNext = nullptr;
    bin->onReadyList = true;
    if (readyTail_)
        readyTail_->readyNext = bin;
    else
        readyHead_ = bin;
    readyTail_ = bin;
}

void
LocalityScheduler::fork(ThreadFn fn, void *arg1, void *arg2, Hint hint1,
                        Hint hint2, Hint hint3)
{
    const Hint hints[3] = {hint1, hint2, hint3};
    unsigned n = 3;
    if (config_.dims < 3) {
        // Truncate explicitly: a non-zero hint beyond dims would be
        // silently ignored (it never reaches the block map), which is
        // always a caller bug — surface it.
        for (unsigned d = config_.dims; d < 3; ++d) {
            if (hints[d] != 0) {
                throw UsageError(lsched::detail::concatMessage(
                    "fork: hint ", d + 1, " is non-zero but the "
                    "scheduler has only ", config_.dims,
                    " dimension(s); pass 0 or raise dims"));
            }
        }
        n = config_.dims;
    }
    // dims > 3: the block map zero-extends the missing trailing
    // dimensions, per the paper's th_fork.
    fork(fn, arg1, arg2, std::span<const Hint>(hints, n));
}

void
LocalityScheduler::fork(ThreadFn fn, void *arg1, void *arg2,
                        std::span<const Hint> hints)
{
    LSCHED_ASSERT(fn != nullptr, "fork of a null thread function");
    if (detail::inParallelWorker()) {
        // Checked via thread-local state *before* touching the ready
        // list: reading scheduler fields from a worker would itself be
        // the data race this diagnostic exists to prevent. fatal, not
        // throw — unwinding a worker mid-tour is not safe here.
        LSCHED_FATAL(
            "fork() from a thread running under runParallel() or a "
            "streaming drain helper is not supported: the ready list "
            "is not synchronized during a parallel tour. Fork before "
            "runParallel(), use run() with keep == false for nested "
            "forking, or fork from producer threads in a stream.");
    }
    if (stream_) {
        // Streaming mode: admission goes to the stream's intake, which
        // is safe from any OS thread (and may block at the
        // backpressure bound).
        stream_->fork(fn, arg1, arg2, hints);
        return;
    }
    if (running_ && !nestedForkOk_) {
        throw UsageError("fork during run() requires keep == false and "
                         "the creation-order tour");
    }

    const PlacementDecision where = placeHot_->place(hints);
    std::uint32_t probes = 0;
    const auto [bin, created] = table_.findOrCreate(where.coords, &probes);
    if (created)
        bin->superBin = where.superBin;
    if (obs::anyOn()) [[unlikely]] {
        if (obs::metricsOn()) {
            const detail::SchedInstruments &ins =
                detail::schedInstruments();
            ins.forked->add();
            placementForkedCounter(config_.placement).add();
            ins.hashProbes->record(probes);
            if (created)
                ins.binsCreated->add();
        }
        if (created) {
            LSCHED_TRACE_EVENT(obs::EventType::BinCreate, bin->id,
                               where.coords[0], where.coords[1]);
        }
        LSCHED_TRACE_EVENT(obs::EventType::ThreadFork, bin->id,
                           where.coords[0], where.coords[1]);
    }

    ThreadGroup *group = bin->groupsTail;
    if (!group || group->full()) {
        group = pool_.allocate();
        if (bin->groupsTail)
            bin->groupsTail->next = group;
        else
            bin->groupsHead = group;
        bin->groupsTail = group;
    }
    group->push(fn, arg1, arg2);
    ++bin->threadCount;
    ++pendingThreads_;

    if (!bin->onReadyList)
        appendReady(bin);
}

std::uint64_t
LocalityScheduler::run(bool keep)
{
    if (stream_) {
        // Recoverable misuse, unlike a recursive run(): a batch run
        // has no tour to walk while admission streams past it.
        throw UsageError("run() during an active stream; close it "
                         "with streamEnd() first");
    }
    LSCHED_ASSERT(!running_, "recursive run()");
    running_ = true;
    nestedForkOk_ = !keep && config_.tour == TourPolicy::CreationOrder;
    lastFaults_.clear();
    lastFaultsTotal_ = 0;
    std::uint64_t executed = 0;

    Bin *inFlight = nullptr;
    detail::RunGuard guard{*this, &inFlight};
    detail::FaultCtx ctx(config_.onError, &lastFaults_);
    ctx.recovery = &recovery_;
    CancelToken cancelToken;
    if (config_.deadlineMillis > 0)
        ctx.cancel = &cancelToken;

    LSCHED_TRACE_EVENT(obs::EventType::RunBegin, pendingThreads_,
                       table_.binCount(), 1);
    obs::profileNoteEpoch();
    if (obs::metricsOn())
        detail::schedInstruments().runs->add();

    // Deadline monitor for the serial tour (runParallel arms its own,
    // with the watchdog on top). The monitor's dtor joins before the
    // guard runs, so a cancel can never race the unwind path.
    detail::TourMonitorSpec mspec;
    mspec.deadlineMillis = config_.deadlineMillis;
    mspec.cancel = &cancelToken;
    mspec.recovery = &recovery_;
    detail::TourMonitor monitor(mspec);

    if (nestedForkOk_) {
        // Streaming traversal: pop bins off the ready list as they
        // run; nested forks may append bins (including already-run
        // ones) at the tail and are executed before we return.
        const Bin *prev = nullptr;
        while (readyHead_ && !ctx.stopRequested()) {
            Bin *bin = readyHead_;
            readyHead_ = bin->readyNext;
            if (!readyHead_)
                readyTail_ = nullptr;
            bin->readyNext = nullptr;
            bin->onReadyList = false;
            inFlight = bin;
            if (obs::metricsOn()) {
                if (prev) {
                    detail::schedInstruments().tourHop->record(
                        detail::hopDistance(prev, bin, config_.dims));
                }
                prev = bin;
            }
            executed += detail::executeBin(bin, ctx, 0);
            pool_.recycleChain(bin->groupsHead);
            bin->clearGroups();
            inFlight = nullptr;
        }
        if (ctx.stopRequested()) {
            if (ctx.cancelRequested()) {
                // Account the bins the cancellation left on the ready
                // list (executeTour sweeps only bins it was handed).
                for (Bin *bin = readyHead_; bin; bin = bin->readyNext)
                    detail::noteDroppedBin(ctx, bin);
                if (config_.onError == ErrorPolicy::ContinueAndCollect) {
                    // This path returns normally: drop the remainder
                    // now so the scheduler comes back clean.
                    abandonRun(nullptr);
                    running_ = true; // guard.commit() clears it
                }
            }
            // Otherwise un-run bins stay on the ready list; the
            // rethrow below lets the guard recycle them.
        } else {
            LSCHED_ASSERT(pendingThreads_ <=
                              executed + ctx.totalFaults,
                          "pending threads outlived the streaming run");
            pendingThreads_ = 0;
        }
    } else {
        const std::vector<Bin *> tour =
            orderBins(config_.tour, readyBins(), config_.dims);
        if (obs::metricsOn())
            detail::recordTourHops(tour, config_.dims);
        executed += detail::executeTour(tour, ctx);
        // A cancelled ContinueAndCollect run returns normally, so its
        // remainder (already accounted by executeTour's sweep) must be
        // recycled here like any completed tour's.
        const bool cancelledButReturning =
            ctx.cancelRequested() &&
            config_.onError == ErrorPolicy::ContinueAndCollect;
        if (!keep && (!ctx.stopRequested() || cancelledButReturning)) {
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
    }

    executedThreads_ += executed;
    lastFaultsTotal_ = ctx.totalFaults;
    faultedThreads_ += lastFaultsTotal_;
    const bool cancelled = ctx.cancelRequested();
    if (governor_.enabled())
        governor_.observe(cancelled);
    if (ctx.first) {
        // StopTour: rethrow the first user exception exactly once on
        // the caller; the guard's unwind path drops what never ran.
        std::rethrow_exception(ctx.first);
    }
    if (cancelled && config_.onError != ErrorPolicy::ContinueAndCollect) {
        // Abort/StopTour surface the cancellation as a recoverable
        // error; the guard's unwind path drops what never ran.
        throw DeadlineError(lsched::detail::concatMessage(
            "run cancelled (", cancelReasonName(cancelToken.why()),
            ") after ", config_.deadlineMillis, " ms: ",
            ctx.cancelledBins.load(std::memory_order_relaxed),
            " bin(s), ",
            ctx.cancelledThreads.load(std::memory_order_relaxed),
            " thread(s) dropped"));
    }
    // Tour boundary: the one place a serial tour lets the adaptive
    // placement re-derive its block dims from profiler feedback.
    placement_->maybeRetune();
    placeHot_ = placement_->hotPolicy();
    guard.commit();
    LSCHED_TRACE_EVENT(obs::EventType::RunEnd, executed);
    return executed;
}

void
LocalityScheduler::streamBegin(unsigned workers)
{
    if (running_) {
        throw UsageError(stream_
                             ? "streamBegin during an active stream"
                             : "streamBegin during run()");
    }
    if (pendingThreads_ != 0) {
        throw UsageError(lsched::detail::concatMessage(
            "streamBegin with ", pendingThreads_,
            " batch threads pending; run or clear them first"));
    }
    WorkerPool *pool = nullptr;
    unsigned helpers = 0;
    if (config_.backend != BackendKind::Serial) {
        helpers = workers
                      ? workers
                      : std::max(1u,
                                 std::thread::hardware_concurrency());
        if (!workerPool_) {
            workerPool_ = std::make_unique<WorkerPool>(
                config_.pinWorkers,
                topo_ ? topo_->pinPlan() : std::vector<unsigned>{});
        }
        pool = workerPool_.get();
    }
    lastFaults_.clear();
    lastFaultsTotal_ = 0;
    // Safe boundary: no bins exist yet, so a retune here only changes
    // where the upcoming stream's forks land.
    placement_->maybeRetune();
    placeHot_ = placement_->hotPolicy();
    LSCHED_TRACE_EVENT(obs::EventType::RunBegin, 0, 0, helpers);
    obs::profileNoteEpoch();
    if (obs::metricsOn())
        detail::schedInstruments().runs->add();
    stream_ = std::make_unique<StreamSession>(config_, *placement_,
                                              pool, helpers, &recovery_,
                                              &governor_);
    running_ = true;
}

std::uint64_t
LocalityScheduler::streamEnd()
{
    if (!stream_)
        throw UsageError("streamEnd without an active stream");
    std::exception_ptr abortError;
    try {
        stream_->finish();
    } catch (...) {
        // ErrorPolicy::Abort fault from the caller-side tail drain:
        // restore scheduler state below, then let it propagate.
        abortError = std::current_exception();
    }
    const StreamStats s = stream_->stats();
    lifetimeStream_ += s;
    executedThreads_ += s.executed;
    lastFaults_ = stream_->faults();
    lastFaultsTotal_ = stream_->faultCount();
    faultedThreads_ += lastFaultsTotal_;
    lastStreamBins_ = stream_->binReports();
    const std::exception_ptr first = stream_->firstFault();
    const CancelReason streamCancel = stream_->cancelReason();
    stream_.reset();
    running_ = false;
    // The stream just drained: fold its profiler epochs into the
    // adaptive placement before the next run begins.
    placement_->maybeRetune();
    placeHot_ = placement_->hotPolicy();
    LSCHED_TRACE_EVENT(obs::EventType::RunEnd, s.executed);
    if (abortError)
        std::rethrow_exception(abortError);
    if (first) {
        // StopTour: the first contained exception, exactly once.
        std::rethrow_exception(first);
    }
    if (streamCancel != CancelReason::None &&
        config_.onError != ErrorPolicy::ContinueAndCollect) {
        // The epoch deadline cancelled the stream; surface it here,
        // after the session's counters were folded in.
        throw DeadlineError(lsched::detail::concatMessage(
            "stream cancelled (", cancelReasonName(streamCancel),
            "): no epoch progress within ", config_.deadlineMillis,
            " ms"));
    }
    return s.executed;
}

std::uint64_t
LocalityScheduler::runStream(
    unsigned workers, unsigned producers,
    const std::function<void(unsigned)> &producer)
{
    if (producers == 0)
        producers = 1;
    streamBegin(workers);
    std::mutex errMutex;
    std::exception_ptr producerError;
    const auto body = [&](unsigned index) {
        try {
            producer(index);
        } catch (...) {
            std::lock_guard<std::mutex> lock(errMutex);
            if (!producerError)
                producerError = std::current_exception();
        }
    };
    {
        std::vector<std::thread> extras;
        extras.reserve(producers - 1);
        for (unsigned i = 1; i < producers; ++i)
            extras.emplace_back(body, i);
        body(0);
        for (std::thread &t : extras)
            t.join();
    }
    if (producerError) {
        try {
            streamEnd();
        } catch (...) {
            // The producer's own failure is the primary error.
        }
        std::rethrow_exception(producerError);
    }
    return streamEnd();
}

void
LocalityScheduler::abandonRun(Bin *inFlight) noexcept
{
    if (inFlight && !inFlight->onReadyList) {
        pool_.recycleChain(inFlight->groupsHead);
        inFlight->clearGroups();
        inFlight->readyNext = nullptr;
    }
    for (Bin *bin = readyHead_; bin;) {
        Bin *next = bin->readyNext;
        pool_.recycleChain(bin->groupsHead);
        bin->clearGroups();
        bin->readyNext = nullptr;
        bin->onReadyList = false;
        bin = next;
    }
    readyHead_ = nullptr;
    readyTail_ = nullptr;
    pendingThreads_ = 0;
    running_ = false;
    nestedForkOk_ = false;
}

void
LocalityScheduler::clear()
{
    if (running_)
        throw UsageError("clear() during run()");
    for (Bin *bin = readyHead_; bin;) {
        Bin *next = bin->readyNext;
        pool_.recycleChain(bin->groupsHead);
        bin->clearGroups();
        bin->readyNext = nullptr;
        bin->onReadyList = false;
        bin = next;
    }
    readyHead_ = nullptr;
    readyTail_ = nullptr;
    pendingThreads_ = 0;
}

std::vector<Bin *>
LocalityScheduler::readyBins() const
{
    std::vector<Bin *> bins;
    for (Bin *bin = readyHead_; bin; bin = bin->readyNext)
        bins.push_back(bin);
    return bins;
}

std::vector<std::uint64_t>
LocalityScheduler::binOccupancy() const
{
    std::vector<std::uint64_t> counts;
    for (const Bin *bin = readyHead_; bin; bin = bin->readyNext)
        counts.push_back(bin->threadCount);
    return counts;
}

SchedulerStats
LocalityScheduler::stats() const
{
    SchedulerStats s;
    s.pendingThreads = pendingThreads_;
    s.executedThreads = executedThreads_;
    s.faultedThreads = faultedThreads_;
    s.bins = table_.binCount();
    s.maxHashChain = table_.maxChainLength();
    const std::vector<Bin *> bins = readyBins();
    for (const Bin *bin : bins) {
        if (bin->threadCount > 0) {
            ++s.occupiedBins;
            s.threadsPerBin.add(static_cast<double>(bin->threadCount));
        }
    }
    s.tourLength = tourLength(
        orderBins(config_.tour, bins, config_.dims), config_.dims);
    s.pool = workerPoolStats();
    s.stream = streamStats();
    s.recover = recoverySnapshot();
    s.adapt = placement_->adaptSnapshot();
    s.topology.active = topo_ != nullptr;
    if (topo_) {
        s.topology.source = static_cast<std::uint8_t>(topo_->source());
        s.topology.packages = topo_->packages();
        s.topology.l3Clusters = topo_->l3Clusters();
        s.topology.l2Groups = topo_->l2Groups();
        s.topology.cpus = topo_->cpus();
        s.topology.smtPerCore = topo_->smtPerCore();
        s.topology.l2Bytes = topo_->l2Bytes();
        s.topology.l3Bytes = topo_->l3Bytes();
        s.topology.derivedFan =
            topo_->l2Groups() > 1 ? topo_->groupsPerCluster() : 0;
        s.topology.summary = topo_->summary();
    }
    s.topology.domains = lastTourDomains_;
    s.topology.domainWorkers = lastTourDomainWorkers_;

    // The registry is the export path for these numbers: every
    // snapshot refreshes the scheduler gauges so a --metrics dump (or
    // the harness JSON report) carries the same values this struct
    // reports.
    if (obs::metricsOn()) {
        obs::Registry &r = obs::Registry::global();
        r.gauge("sched.pending_threads").set(s.pendingThreads);
        r.gauge("sched.executed_threads").set(s.executedThreads);
        r.gauge("sched.faulted_threads").set(s.faultedThreads);
        r.gauge("sched.bins").set(s.bins);
        r.gauge("sched.bins.occupied").set(s.occupiedBins);
        r.gauge("sched.hash.max_chain").set(s.maxHashChain);
        r.gauge("sched.tour.length").set(s.tourLength);
        r.gauge("sched.pool.threads").set(s.pool.threadsSpawned);
        r.gauge("sched.pool.tours").set(s.pool.tours);
        r.gauge("sched.stream.backlog").set(s.stream.backlog);
        r.gauge("sched.stream.peak_backlog")
            .set(s.stream.peakBacklog);
        r.gauge("sched.recover.state")
            .set(static_cast<std::uint64_t>(s.recover.state));
        r.gauge("sched.recover.deadline_millis")
            .set(config_.deadlineMillis);
        if (s.adapt.active) {
            r.gauge("sched.adapt.block_bytes").set(s.adapt.blockBytes);
            r.gauge("sched.adapt.super_bin_fan")
                .set(s.adapt.superBinFan);
            r.gauge("sched.adapt.regime")
                .set(static_cast<std::uint64_t>(s.adapt.regime));
            r.gauge("sched.adapt.retunes").set(s.adapt.retunes);
        }
        r.gauge("sched.pool.pin_failed").set(s.pool.pinFailed);
        if (s.topology.active) {
            r.gauge("sched.topology.l2_groups").set(s.topology.l2Groups);
            r.gauge("sched.topology.domains").set(s.topology.domains);
            r.gauge("sched.topology.domain_workers")
                .set(s.topology.domainWorkers);
            r.gauge("sched.topology.cross_steals")
                .set(s.pool.crossSteals);
        }
    }
    return s;
}

bool
LocalityScheduler::pollAdaptivePlacement()
{
    if (running_ && !stream_) {
        throw UsageError(
            "pollAdaptivePlacement during run(); retuning happens at "
            "tour boundaries only");
    }
    const bool changed = placement_->maybeRetune();
    placeHot_ = placement_->hotPolicy();
    return changed;
}

} // namespace lsched::threads
