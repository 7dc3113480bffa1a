#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "harness/experiment.hh"
#include "machine/machine_config.hh"
#include "threads/scheduler.hh"
#include "workloads/matmul.hh"
#include "workloads/matrix.hh"
#include "workloads/memmodel.hh"
#include "workloads/nbody.hh"

namespace perfbench
{

namespace
{

using lsched::threads::Hint;
using lsched::threads::LocalityScheduler;
using lsched::threads::SchedulerConfig;
using lsched::workloads::Matrix;
using lsched::workloads::NativeModel;

/** The scheduling plane: the host's 2 MiB per-core L2. */
constexpr std::uint64_t kL2Bytes = 2u << 20;
/** Timed cycles run even when --seconds has already elapsed. */
constexpr std::size_t kMinCycles = 3;

/** splitmix64: the benchmark's own input generator, so inputs do not
 *  change when the library's PRNG does. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * static_cast<double>(next() >> 11) *
                        0x1.0p-53;
    }

    /** Uniform in [0, bound). */
    std::uint64_t below(std::uint64_t bound) { return next() % bound; }

  private:
    std::uint64_t state_;
};

/** Fisher-Yates shuffle driven by @p rng. */
template <class T>
void
shuffle(std::vector<T> &v, SplitMix &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/**
 * The closed loop shared by every workload: set-ups, timed solves,
 * failure counting, and span queries for the per-layer metrics.
 */
class Driver
{
  public:
    Driver(const Options &opt, Tracer &tracer, RunResult &result)
        : opt_(opt), tracer_(tracer), result_(result)
    {
    }

    /** Run @p fn, which returns whether its output checked out. A
     *  false return or an exception counts one failure. */
    template <class F>
    bool
    attempt(const char *what, F &&fn)
    {
        ++result_.attempted;
        try {
            if (fn())
                return true;
            std::fprintf(stderr, "perfbench: %s: output check failed\n",
                         what);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: %s threw: %s\n", what,
                         e.what());
        }
        ++result_.failed;
        return false;
    }

    /** One set-up under span root "bench.setup"; returns wall s. */
    template <class F>
    double
    setUp(F &&body)
    {
        tracer_.setEnabled(opt_.trace);
        tracer_.setSolve(0);
        const std::int64_t t0 = nowNs();
        {
            Scope root(tracer_, "bench.setup");
            body();
        }
        return seconds(nowNs() - t0);
    }

    /** One solve under span root "bench.solve" and a fresh solve id,
     *  with spans recorded when @p traced; returns wall s. */
    template <class F>
    double
    solve(bool traced, std::vector<std::uint32_t> *ids, F &&body)
    {
        tracer_.setEnabled(traced);
        tracer_.setSolve(++solves_);
        const std::int64_t t0 = nowNs();
        {
            Scope root(tracer_, "bench.solve");
            body();
        }
        const double wall = seconds(nowNs() - t0);
        tracer_.setEnabled(opt_.trace);
        if (ids)
            ids->push_back(solves_);
        return wall;
    }

    /** Spans opened from now on belong to no solve (id 0). */
    void
    endSolves()
    {
        tracer_.setEnabled(opt_.trace);
        tracer_.setSolve(0);
    }

    void
    startClock()
    {
        deadline_ = nowNs() + static_cast<std::int64_t>(opt_.seconds * 1e9);
    }

    bool
    keepGoing(std::size_t cycles) const
    {
        return cycles < kMinCycles || nowNs() < deadline_;
    }

    /** Summed duration (s) of the spans called @p name in each solve
     *  of @p ids. */
    std::vector<double>
    spanSeconds(const std::vector<std::uint32_t> &ids,
                const char *name) const
    {
        std::map<std::uint32_t, std::int64_t> sum;
        for (std::uint32_t id : ids)
            sum[id] = 0;
        for (const Span &s : tracer_.spans())
            if (s.name == name && sum.count(s.solve))
                sum[s.solve] += s.end - s.start;
        std::vector<double> out;
        for (const auto &[id, ns] : sum)
            out.push_back(seconds(ns));
        return out;
    }

    /** Durations (s) of every set-up span called @p name. */
    std::vector<double>
    setupSpanSeconds(const char *name) const
    {
        std::vector<double> out;
        for (const Span &s : tracer_.spans())
            if (s.solve == 0 && s.name == name)
                out.push_back(seconds(s.end - s.start));
        return out;
    }

    /** Set-up metrics every workload reports from its set-up spans. */
    void
    setupLayerMetrics()
    {
        const std::vector<double> ctor = setupSpanSeconds("threads.ctor");
        const std::vector<double> setup = setupSpanSeconds("bench.setup");
        std::vector<double> cold;
        for (std::size_t i = 0; i < setup.size() && i < ctor.size(); ++i)
            cold.push_back(setup[i] - ctor[i]);
        result_.layer["threads.construct_s"] = median(ctor);
        result_.layer["threads.first_tour_s"] = median(cold);
    }

    /** bench.trace_overhead from matched traced/untraced solve walls. */
    void
    traceOverhead(const std::vector<double> &traced,
                  const std::vector<double> &untraced)
    {
        const double base = median(untraced);
        result_.layer["bench.trace_overhead"] =
            base > 0 ? median(traced) / base - 1.0 : 0.0;
    }

  private:
    const Options &opt_;
    Tracer &tracer_;
    RunResult &result_;
    std::uint32_t solves_ = 0;
    std::int64_t deadline_ = 0;
};

std::string
jsonParams(std::initializer_list<std::pair<const char *, std::uint64_t>> kv)
{
    std::ostringstream os;
    os << '{';
    bool first = true;
    for (const auto &[k, v] : kv) {
        os << (first ? "" : ",") << '"' << k << "\":" << v;
        first = false;
    }
    os << '}';
    return os.str();
}

void
recordStats(RunResult &r, const lsched::threads::SchedulerStats &st)
{
    r.layer["threads.bins"] = static_cast<double>(st.bins);
    r.layer["threads.max_hash_chain"] =
        static_cast<double>(st.maxHashChain);
    r.layer["threads.threads_per_bin"] = st.threadsPerBin.mean();
}

/** Exactly-once check of per-thread slots. */
bool
eachRanOnce(const std::vector<std::uint8_t> &slots)
{
    return std::all_of(slots.begin(), slots.end(),
                       [](std::uint8_t s) { return s == 1; });
}

/** Clear per-thread slots before a solve. */
void
clearSlots(std::vector<std::uint8_t> &slots)
{
    std::fill(slots.begin(), slots.end(), 0);
}

/** Null thread body: marks its own per-thread slot. */
void
markSlot(void *slots, void *id)
{
    static_cast<std::uint8_t *>(slots)[reinterpret_cast<std::uintptr_t>(
        id)] += 1;
}

// ------------------------------------------------------------------
// matmul-native: the paper's threaded multiply (Section 4.2), native.

constexpr std::size_t kMatN = 1024;
constexpr unsigned kMatWorkers = 4;
/** Allowed |C - reference| per element; both sum k in the same order,
 *  so any real difference is rounding, far below this. */
constexpr double kMatTolerance = 1e-9;
/** Written over C before every solve so an unwritten element fails. */
constexpr double kMatSentinel = 1e300;

struct BodyRecord
{
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint32_t lane = 0;
};

struct TracedDotCtx
{
    lsched::workloads::DotProductCtx<NativeModel> inner;
    BodyRecord *records;
};

/** dotProductThread bracketed by a body span. */
void
tracedDot(void *ctx_p, void *ij_p)
{
    auto *ctx = static_cast<TracedDotCtx *>(ctx_p);
    const auto packed = reinterpret_cast<std::uintptr_t>(ij_p);
    const std::size_t idx = (packed >> 32) * kMatN + (packed & 0xffffffffu);
    const std::int64_t start = nowNs();
    lsched::workloads::dotProductThread<NativeModel>(&ctx->inner, ij_p);
    ctx->records[idx] = {start, nowNs(), laneId()};
}

/** Fold body records into one span per lane, children of @p parent.
 *  A lane runs one body at a time, so summed durations are exact. */
void
foldBodies(Tracer &tracer, const std::vector<BodyRecord> &records,
           std::int32_t parent)
{
    std::map<std::uint32_t, Span> lanes;
    for (const BodyRecord &b : records) {
        auto [it, fresh] = lanes.try_emplace(b.lane);
        Span &s = it->second;
        if (fresh) {
            s.name = "workloads.dotProductThread";
            s.start = b.start;
            s.end = b.end;
            s.parent = parent;
            s.solve = tracer.solve();
            s.lane = b.lane;
            s.calls = 0;
        }
        s.start = std::min(s.start, b.start);
        s.end = std::max(s.end, b.end);
        s.busy += b.end - b.start;
        ++s.calls;
    }
    for (auto &[lane, span] : lanes)
        tracer.add(std::move(span));
}

void
runMatmulNative(const Options &opt, Tracer &tracer, RunResult &r)
{
    Driver d(opt, tracer, r);
    r.threadsPerSolve = kMatN * kMatN;
    r.params = jsonParams({{"n", kMatN},
                           {"workers", kMatWorkers},
                           {"cache_bytes", kL2Bytes},
                           {"block_bytes", kL2Bytes / 2}});

    Matrix a(kMatN, kMatN), b(kMatN, kMatN), c(kMatN, kMatN);
    SplitMix rng(opt.seed);
    for (Matrix *m : {&a, &b})
        for (std::size_t i = 0; i < kMatN * kMatN; ++i)
            m->data()[i] = rng.uniform(-1.0, 1.0);

    NativeModel model;
    // Untiled reference, outside set-up and timing; its wall time is
    // the untiled baseline.
    Matrix ref(kMatN, kMatN);
    const std::int64_t untiledStart = nowNs();
    lsched::workloads::matmulInterchanged(a, b, ref, model);
    const double untiledS = seconds(nowNs() - untiledStart);

    SchedulerConfig cfg;
    cfg.dims = 2;
    cfg.cacheBytes = kL2Bytes;
    cfg.blockBytes = kL2Bytes / 2;
    std::unique_ptr<LocalityScheduler> sched;
    std::uint64_t executed = 0;
    std::vector<BodyRecord> records;
    std::int32_t tourSpan = kNoSpan;

    // The public calls matmulThreaded makes, in its order.
    const auto body = [&](unsigned workers) {
        Matrix at(kMatN, kMatN);
        {
            Scope s(tracer, "workloads.transpose");
            lsched::workloads::transpose(a, at, model);
        }
        model.enterKernel(lsched::workloads::kMatmulThreadedDot);
        lsched::workloads::DotProductCtx<NativeModel> ctx{&at, &b, &c,
                                                         &model};
        TracedDotCtx tctx{ctx, records.data()};
        const bool spans = tracer.enabled();
        const lsched::threads::ThreadFn fn =
            spans ? &tracedDot
                  : &lsched::workloads::dotProductThread<NativeModel>;
        void *arg = spans ? static_cast<void *>(&tctx)
                          : static_cast<void *>(&ctx);
        {
            Scope s(tracer, "threads.fork");
            for (std::size_t i = 0; i < kMatN; ++i)
                for (std::size_t j = 0; j < kMatN; ++j)
                    sched->fork(fn, arg,
                                reinterpret_cast<void *>((i << 32) | j),
                                lsched::threads::hintOf(at.col(i)),
                                lsched::threads::hintOf(b.col(j)));
        }
        if (spans) {
            Scope s(tracer, "threads.stats");
            recordStats(r, sched->stats());
        }
        {
            Scope s(tracer, workers > 1 ? "threads.runParallel"
                                        : "threads.run");
            executed = workers > 1 ? sched->runParallel(workers, false)
                                   : sched->run(false);
            tourSpan = s.id();
        }
        Matrix dummy(kMatN, kMatN);
        {
            Scope s(tracer, "workloads.transpose");
            lsched::workloads::transpose(at, dummy, model);
        }
    };
    // Body spans are folded after the solve, outside its wall time.
    const auto fold = [&] {
        if (tourSpan != kNoSpan)
            foldBodies(tracer, records, tourSpan);
        tourSpan = kNoSpan;
    };
    const auto check = [&] {
        return executed == kMatN * kMatN &&
               c.maxAbsDiff(ref) <= kMatTolerance;
    };
    if (opt.trace)
        records.resize(kMatN * kMatN);

    const auto setUp = [&] {
        d.attempt("matmul-native set-up", [&] {
            sched.reset();
            c.fill(kMatSentinel);
            const double wall = d.setUp([&] {
                {
                    Scope s(tracer, "threads.ctor");
                    sched = std::make_unique<LocalityScheduler>(cfg);
                }
                body(kMatWorkers);
            });
            fold();
            if (!check())
                return false;
            r.setupS.push_back(wall);
            return true;
        });
    };

    std::vector<double> pooledTraced, serialTraced, steals, parks,
        spawned;
    std::vector<std::uint32_t> tracedPooled, tracedSerial;
    const auto timed = [&](unsigned workers, bool traced,
                           std::vector<std::uint32_t> *ids,
                           std::vector<double> &samples) {
        const char *what = workers > 1 ? "matmul-native pooled solve"
                                       : "matmul-native serial solve";
        d.attempt(what, [&] {
            c.fill(kMatSentinel);
            const auto before = sched->workerPoolStats();
            const double wall =
                d.solve(traced, ids, [&] { body(workers); });
            fold();
            if (!check())
                return false;
            samples.push_back(wall);
            if (workers > 1) {
                const auto after = sched->workerPoolStats();
                steals.push_back(
                    static_cast<double>(after.steals - before.steals));
                parks.push_back(
                    static_cast<double>(after.parks - before.parks));
                spawned.push_back(static_cast<double>(
                    after.threadsSpawned - before.threadsSpawned));
            }
            return true;
        });
    };

    d.startClock();
    // Three pooled solves per serial one: the pooled time varies far
    // more from solve to solve, so it gets the larger sample.
    for (std::size_t cycle = 0; d.keepGoing(cycle); ++cycle) {
        setUp();
        if (!sched)
            continue;
        for (int i = 0; i < 3; ++i)
            timed(kMatWorkers, false, nullptr, r.solveS);
        timed(1, false, nullptr, r.serialS);
        if (opt.trace) {
            timed(kMatWorkers, true, &tracedPooled, pooledTraced);
            timed(1, true, &tracedSerial, serialTraced);
        }
    }
    if (!opt.trace)
        return;

    d.endSolves();
    Matrix tiled(kMatN, kMatN);
    double tiledS = 0;
    d.attempt("matmul-native tiled baseline", [&] {
        Scope s(tracer, "workloads.matmulTiledTransposed");
        const std::int64_t t0 = nowNs();
        lsched::workloads::matmulTiledTransposed(a, b, tiled, model,
                                                 32u << 10, kL2Bytes);
        tiledS = seconds(nowNs() - t0);
        return tiled.maxAbsDiff(ref) <= kMatTolerance;
    });

    std::vector<std::uint32_t> tracedAll = tracedPooled;
    tracedAll.insert(tracedAll.end(), tracedSerial.begin(),
                     tracedSerial.end());
    const double forkS = median(d.spanSeconds(tracedAll, "threads.fork"));
    const double runS = median(d.spanSeconds(tracedSerial, "threads.run"));
    const double parS =
        median(d.spanSeconds(tracedPooled, "threads.runParallel"));
    const double threads = static_cast<double>(kMatN * kMatN);
    r.layer["threads.fork_ns"] = forkS / threads * 1e9;
    r.layer["threads.run_ns"] = runS / threads * 1e9;
    r.layer["threads.run_parallel_s"] = parS;
    r.layer["threads.pool_efficiency"] =
        parS > 0 ? runS / (kMatWorkers * parS) : 0;
    r.layer["threads.pool.steals"] = median(steals);
    r.layer["threads.pool.parks"] = median(parks);
    r.layer["threads.pool.spawned"] = median(spawned);
    r.layer["workloads.transpose_s"] =
        median(d.spanSeconds(tracedAll, "workloads.transpose"));
    r.layer["workloads.untiled_s"] = untiledS;
    r.layer["workloads.tiled_s"] = tiledS;
    r.layer["workloads.locality_speedup"] = untiledS / median(r.serialS);
    d.setupLayerMetrics();
    d.traceOverhead(pooledTraced, r.solveS);
}

// ------------------------------------------------------------------
// null-fork: paper Table 1, null threads over a 16x16 block grid.

constexpr std::uint64_t kNullThreads = 1u << 20;
constexpr unsigned kNullGrid = 16;

void
runNullFork(const Options &opt, Tracer &tracer, RunResult &r)
{
    Driver d(opt, tracer, r);
    r.threadsPerSolve = kNullThreads;
    SchedulerConfig cfg;
    cfg.dims = 2;
    cfg.cacheBytes = kL2Bytes;
    cfg.blockBytes = kL2Bytes / 2;
    r.params = jsonParams({{"threads", kNullThreads},
                           {"grid", kNullGrid},
                           {"cache_bytes", kL2Bytes},
                           {"block_bytes", cfg.blockBytes}});

    // Evenly over the grid: every block gets the same number of
    // threads, in a seeded order, each hint at a seeded offset inside
    // its block.
    SplitMix rng(opt.seed);
    std::vector<std::uint32_t> blocks(kNullThreads);
    for (std::uint64_t i = 0; i < kNullThreads; ++i)
        blocks[i] = static_cast<std::uint32_t>(i % (kNullGrid * kNullGrid));
    shuffle(blocks, rng);
    std::vector<Hint> h1(kNullThreads), h2(kNullThreads);
    for (std::uint64_t i = 0; i < kNullThreads; ++i) {
        h1[i] = (blocks[i] % kNullGrid) * cfg.blockBytes +
                rng.below(cfg.blockBytes);
        h2[i] = (blocks[i] / kNullGrid) * cfg.blockBytes +
                rng.below(cfg.blockBytes);
    }
    std::vector<std::uint8_t> slots(kNullThreads, 0);

    std::unique_ptr<LocalityScheduler> sched;
    std::uint64_t executed = 0;
    const auto body = [&] {
        {
            Scope s(tracer, "threads.fork");
            for (std::uint64_t i = 0; i < kNullThreads; ++i)
                sched->fork(&markSlot, slots.data(),
                            reinterpret_cast<void *>(i), h1[i], h2[i]);
        }
        if (tracer.enabled()) {
            Scope s(tracer, "threads.stats");
            recordStats(r, sched->stats());
        }
        Scope s(tracer, "threads.run");
        executed = sched->run(false);
    };
    const auto check = [&] {
        return eachRanOnce(slots) && executed == kNullThreads;
    };

    const auto setUp = [&] {
        d.attempt("null-fork set-up", [&] {
            sched.reset();
            clearSlots(slots);
            const double wall = d.setUp([&] {
                {
                    Scope s(tracer, "threads.ctor");
                    sched = std::make_unique<LocalityScheduler>(cfg);
                }
                body();
            });
            if (!check())
                return false;
            r.setupS.push_back(wall);
            return true;
        });
    };

    std::vector<double> traced;
    std::vector<std::uint32_t> tracedIds;
    const auto timed = [&](bool spans, std::vector<std::uint32_t> *ids,
                           std::vector<double> &samples) {
        d.attempt("null-fork solve", [&] {
            clearSlots(slots);
            const double wall = d.solve(spans, ids, body);
            if (!check())
                return false;
            samples.push_back(wall);
            return true;
        });
    };
    d.startClock();
    for (std::size_t cycle = 0; d.keepGoing(cycle); ++cycle) {
        setUp();
        if (!sched)
            continue;
        timed(false, nullptr, r.solveS);
        if (opt.trace)
            timed(true, &tracedIds, traced);
    }
    if (!opt.trace)
        return;

    const double threads = static_cast<double>(kNullThreads);
    r.layer["threads.fork_ns"] =
        median(d.spanSeconds(tracedIds, "threads.fork")) / threads * 1e9;
    r.layer["threads.run_ns"] =
        median(d.spanSeconds(tracedIds, "threads.run")) / threads * 1e9;
    d.setupLayerMetrics();
    d.traceOverhead(traced, r.solveS);
}

// ------------------------------------------------------------------
// stream-admit: one streaming session, 2 producers + 2 drain workers.

constexpr std::uint64_t kStreamThreads = 1u << 20;
constexpr std::uint64_t kStreamBins = 512;
constexpr unsigned kStreamProducers = 2;
constexpr unsigned kStreamDrainWorkers = 1;
constexpr std::uint64_t kStreamSeal = 16;
constexpr std::uint64_t kStreamMaxPending = 4096;
constexpr std::uint64_t kStreamBlockBytes = 1u << 16;

/** Nearest-rank quantile of @p v (sorted in place). */
double
quantile(std::vector<std::uint32_t> &v, double q)
{
    if (v.empty())
        return 0;
    const auto k = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1));
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
    return v[k];
}

void
runStreamAdmit(const Options &opt, Tracer &tracer, RunResult &r)
{
    Driver d(opt, tracer, r);
    r.threadsPerSolve = kStreamThreads;
    SchedulerConfig cfg;
    cfg.dims = 1;
    cfg.cacheBytes = kL2Bytes;
    cfg.blockBytes = kStreamBlockBytes;
    cfg.streamSealThreshold = kStreamSeal;
    cfg.streamMaxPending = kStreamMaxPending;
    r.params = jsonParams({{"threads", kStreamThreads},
                           {"bins", kStreamBins},
                           {"producers", kStreamProducers},
                           {"drain_workers", kStreamDrainWorkers},
                           {"seal_threshold", kStreamSeal},
                           {"max_pending", kStreamMaxPending},
                           {"block_bytes", kStreamBlockBytes}});

    // Each bin gets the same number of threads, in a seeded order;
    // bins sit two blocks apart, as in ablation_stream_scale.
    SplitMix rng(opt.seed);
    std::vector<Hint> hints(kStreamThreads);
    for (std::uint64_t i = 0; i < kStreamThreads; ++i)
        hints[i] = (i % kStreamBins) * kStreamBlockBytes * 2;
    shuffle(hints, rng);
    std::vector<std::uint8_t> slots(kStreamThreads, 0);
    // Per-call fork latency of the traced sessions, per producer.
    std::vector<std::vector<std::uint32_t>> forkNs(kStreamProducers);
    std::vector<double> p50, p99;

    std::unique_ptr<LocalityScheduler> sched;
    std::uint64_t executed = 0;

    const auto produce = [&](unsigned p, unsigned producers, bool spans) {
        const std::uint64_t chunk =
            (kStreamThreads + producers - 1) / producers;
        const std::uint64_t begin = p * chunk;
        const std::uint64_t end = std::min(begin + chunk, kStreamThreads);
        if (!spans) {
            for (std::uint64_t i = begin; i < end; ++i)
                sched->fork(&markSlot, slots.data(),
                            reinterpret_cast<void *>(i), hints[i]);
            return;
        }
        std::vector<std::uint32_t> &lat = forkNs[p];
        lat.resize(end - begin);
        std::int64_t prev = nowNs();
        for (std::uint64_t i = begin; i < end; ++i) {
            sched->fork(&markSlot, slots.data(),
                        reinterpret_cast<void *>(i), hints[i]);
            const std::int64_t now = nowNs();
            lat[i - begin] = static_cast<std::uint32_t>(now - prev);
            prev = now;
        }
    };

    // The public calls runStream makes, in its order; the caller is
    // producer 0.
    const auto session = [&](unsigned producers) {
        const bool spans = tracer.enabled();
        {
            Scope s(tracer, "threads.streamBegin");
            sched->streamBegin(kStreamDrainWorkers);
        }
        const std::int32_t parent = tracer.current();
        const std::uint32_t solveId = tracer.solve();
        std::exception_ptr error;
        std::mutex errorMutex;
        const auto guarded = [&](unsigned p) {
            try {
                produce(p, producers, spans);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!error)
                    error = std::current_exception();
            }
        };
        {
            std::vector<std::thread> extras;
            for (unsigned p = 1; p < producers; ++p)
                extras.emplace_back([&, p] {
                    if (!spans) {
                        guarded(p);
                        return;
                    }
                    Span s;
                    s.name = "threads.fork";
                    s.parent = parent;
                    s.solve = solveId;
                    s.lane = laneId();
                    s.start = nowNs();
                    guarded(p);
                    s.end = nowNs();
                    s.busy = s.end - s.start;
                    tracer.add(std::move(s));
                });
            {
                Scope s(tracer, "threads.fork");
                guarded(0);
            }
            for (std::thread &t : extras)
                t.join();
        }
        {
            Scope s(tracer, "threads.streamEnd");
            if (error) {
                try {
                    sched->streamEnd();
                } catch (...) {
                    // The producer's failure is the one to report.
                }
                std::rethrow_exception(error);
            }
            executed = sched->streamEnd();
        }
        if (spans) {
            Scope s(tracer, "threads.streamStats");
            sched->streamStats();
        }
    };
    // The same fork set admitted in batch mode and run on the caller,
    // for the batch fork and run costs of the traced run.
    const auto batch = [&] {
        {
            Scope s(tracer, "threads.fork");
            for (std::uint64_t i = 0; i < kStreamThreads; ++i)
                sched->fork(&markSlot, slots.data(),
                            reinterpret_cast<void *>(i), hints[i]);
        }
        if (tracer.enabled()) {
            Scope s(tracer, "threads.stats");
            recordStats(r, sched->stats());
        }
        Scope s(tracer, "threads.run");
        executed = sched->run(false);
    };
    const auto check = [&] {
        return eachRanOnce(slots) && executed == kStreamThreads;
    };

    const auto setUp = [&] {
        d.attempt("stream-admit set-up", [&] {
            sched.reset();
            clearSlots(slots);
            const double wall = d.setUp([&] {
                {
                    Scope s(tracer, "threads.ctor");
                    sched = std::make_unique<LocalityScheduler>(cfg);
                }
                session(kStreamProducers);
            });
            if (!check())
                return false;
            r.setupS.push_back(wall);
            return true;
        });
    };

    std::vector<double> pairTraced, seals, waits, drains, backlog;
    std::vector<std::uint32_t> tracedIds, batchIds;
    const auto timedSession = [&](unsigned producers, bool spans,
                                  std::vector<std::uint32_t> *ids,
                                  std::vector<double> &samples) {
        d.attempt("stream-admit session", [&] {
            clearSlots(slots);
            const auto before = sched->streamStats();
            const double wall =
                d.solve(spans, ids, [&] { session(producers); });
            if (!check())
                return false;
            samples.push_back(wall);
            if (producers != kStreamProducers)
                return true;
            const auto after = sched->streamStats();
            seals.push_back(static_cast<double>(after.seals - before.seals));
            waits.push_back(static_cast<double>(after.backpressureWaits -
                                                before.backpressureWaits));
            drains.push_back(static_cast<double>(after.inlineDrains -
                                                 before.inlineDrains));
            backlog.push_back(static_cast<double>(after.peakBacklog));
            if (spans) {
                std::vector<std::uint32_t> all;
                for (const auto &lat : forkNs)
                    all.insert(all.end(), lat.begin(), lat.end());
                p50.push_back(quantile(all, 0.50));
                p99.push_back(quantile(all, 0.99));
            }
            return true;
        });
    };
    const auto tracedBatch = [&] {
        d.attempt("stream-admit batch solve", [&] {
            clearSlots(slots);
            d.solve(true, &batchIds, batch);
            return check();
        });
    };

    d.startClock();
    // The serial solve is a session with the caller as its only
    // producer. (A batch fork + run() on the caller, as on null-fork,
    // swung by 2x within a run here, so it only feeds the traced run's
    // threads.fork_ns and threads.run_ns.)
    for (std::size_t cycle = 0; d.keepGoing(cycle); ++cycle) {
        setUp();
        if (!sched)
            continue;
        timedSession(kStreamProducers, false, nullptr, r.solveS);
        timedSession(1, false, nullptr, r.serialS);
        if (opt.trace) {
            timedSession(kStreamProducers, true, &tracedIds, pairTraced);
            tracedBatch();
        }
    }
    if (!opt.trace)
        return;

    const double threads = static_cast<double>(kStreamThreads);
    r.layer["threads.fork_ns"] =
        median(d.spanSeconds(batchIds, "threads.fork")) / threads * 1e9;
    r.layer["threads.run_ns"] =
        median(d.spanSeconds(batchIds, "threads.run")) / threads * 1e9;
    r.layer["threads.stream.fork_ns_p50"] = median(p50);
    r.layer["threads.stream.fork_ns_p99"] = median(p99);
    r.layer["threads.stream.end_s"] =
        median(d.spanSeconds(tracedIds, "threads.streamEnd"));
    r.layer["threads.stream.seals"] = median(seals);
    r.layer["threads.stream.backpressure_waits"] = median(waits);
    r.layer["threads.stream.inline_drains"] = median(drains);
    r.layer["threads.stream.peak_backlog"] =
        backlog.empty() ? 0 : *std::max_element(backlog.begin(),
                                                 backlog.end());
    const double pairS = median(r.solveS);
    r.layer["threads.stream.producer_efficiency"] =
        pairS > 0 ? median(r.serialS) / (kStreamProducers * pairS) : 0;
    d.setupLayerMetrics();
    d.traceOverhead(pairTraced, r.solveS);
}

// ------------------------------------------------------------------
// sim-nbody: one threaded Barnes-Hut step (Section 4.4) under the
// cache simulator of the R8000 model scaled 16x.

constexpr std::size_t kBodies = 8000;
constexpr unsigned kSimScale = 16;

/** Plummer-sphere bodies with small random velocities. */
std::vector<lsched::workloads::Body>
plummerBodies(std::uint64_t seed)
{
    SplitMix rng(seed);
    std::vector<lsched::workloads::Body> bodies(kBodies);
    for (auto &b : bodies) {
        const double u = rng.uniform(1e-6, 0.999);
        const double r = std::min(
            8.0, 1.0 / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0));
        const double ct = rng.uniform(-1.0, 1.0);
        const double st = std::sqrt(std::max(0.0, 1.0 - ct * ct));
        const double phi = rng.uniform(0.0, 6.283185307179586);
        b.x = r * st * std::cos(phi);
        b.y = r * st * std::sin(phi);
        b.z = r * ct;
        b.vx = rng.uniform(-0.05, 0.05);
        b.vy = rng.uniform(-0.05, 0.05);
        b.vz = rng.uniform(-0.05, 0.05);
        b.ax = b.ay = b.az = 0;
        b.mass = 1.0 / static_cast<double>(kBodies);
    }
    return bodies;
}

bool
sameBodies(const std::vector<lsched::workloads::Body> &x,
           const std::vector<lsched::workloads::Body> &y)
{
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(),
                       x.size() * sizeof(lsched::workloads::Body)) == 0;
}

void
runSimNBody(const Options &opt, Tracer &tracer, RunResult &r)
{
    using lsched::workloads::BarnesHut;
    using lsched::workloads::SimModel;

    Driver d(opt, tracer, r);
    r.threadsPerSolve = kBodies;
    const auto machine =
        lsched::machine::scaled(lsched::machine::powerIndigo2R8000(),
                                kSimScale);
    SchedulerConfig cfg;
    cfg.dims = 3;
    cfg.cacheBytes = machine.l2Size();
    const std::uint64_t extent = 4 * machine.l2Size() / 3;
    r.params = jsonParams({{"bodies", kBodies},
                           {"machine_scale", kSimScale},
                           {"sim_l2_bytes", machine.l2Size()},
                           {"plane_extent", extent}});

    lsched::workloads::NBodyConfig ncfg;
    ncfg.bodies = kBodies;
    const auto input = plummerBodies(opt.seed);
    // Reference: the unthreaded step, native, outside set-up and timing.
    BarnesHut sim(ncfg);
    sim.mutableBodies() = input;
    NativeModel native;
    sim.stepUnthreaded(native);
    const auto expected = sim.bodies();

    std::unique_ptr<LocalityScheduler> sched;
    lsched::harness::SimOutcome outcome;
    const auto body = [&] {
        Scope s(tracer, "harness.simulateOn");
        outcome = lsched::harness::simulateOn(machine, [&](SimModel &m) {
            Scope step(tracer, "workloads.stepThreaded");
            sim.stepThreaded(*sched, m, extent);
        });
    };
    // Threads executed since @p before, from the scheduler's counters.
    const auto ranAll = [&](std::uint64_t before) {
        return sched->stats().executedThreads - before == kBodies;
    };
    std::vector<double> l2, traced;
    const auto check = [&] {
        if (!sameBodies(sim.bodies(), expected))
            return false;
        // The simulation is deterministic: every solve of a run must
        // see the same miss count.
        l2.push_back(static_cast<double>(outcome.l2.misses));
        return l2.front() == l2.back();
    };

    const auto setUp = [&] {
        d.attempt("sim-nbody set-up", [&] {
            sched.reset();
            sim.mutableBodies() = input;
            const double wall = d.setUp([&] {
                {
                    Scope s(tracer, "threads.ctor");
                    sched = std::make_unique<LocalityScheduler>(cfg);
                }
                body();
            });
            if (!ranAll(0) || !check())
                return false;
            r.setupS.push_back(wall);
            return true;
        });
    };

    std::vector<std::uint32_t> tracedIds;
    lsched::harness::SimOutcome tracedOutcome;
    const auto timed = [&](bool spans, std::vector<std::uint32_t> *ids,
                           std::vector<double> &samples) {
        d.attempt("sim-nbody solve", [&] {
            sim.mutableBodies() = input;
            const std::uint64_t before = sched->stats().executedThreads;
            const double wall = d.solve(spans, ids, body);
            if (!ranAll(before) || !check())
                return false;
            samples.push_back(wall);
            if (spans)
                tracedOutcome = outcome;
            return true;
        });
    };
    d.startClock();
    for (std::size_t cycle = 0; d.keepGoing(cycle); ++cycle) {
        setUp();
        if (!sched)
            continue;
        timed(false, nullptr, r.solveS);
        if (opt.trace)
            timed(true, &tracedIds, traced);
    }
    if (!opt.trace)
        return;

    d.endSolves();
    lsched::harness::SimOutcome unthreaded;
    d.attempt("sim-nbody unthreaded baseline", [&] {
        sim.mutableBodies() = input;
        Scope s(tracer, "harness.simulateOn");
        unthreaded = lsched::harness::simulateOn(machine, [&](SimModel &m) {
            Scope step(tracer, "workloads.stepUnthreaded");
            sim.stepUnthreaded(m);
        });
        return sameBodies(sim.bodies(), expected);
    });

    const auto &o = tracedOutcome;
    const double refs = static_cast<double>(o.ifetches + o.dataRefs);
    const double simS =
        median(d.spanSeconds(tracedIds, "harness.simulateOn"));
    r.layer["cachesim.refs"] = refs;
    r.layer["cachesim.refs_per_s"] = simS > 0 ? refs / simS : 0;
    r.layer["cachesim.l1_misses"] = static_cast<double>(o.l1.misses);
    r.layer["cachesim.l2_misses"] = static_cast<double>(o.l2.misses);
    r.layer["cachesim.l2_compulsory"] =
        static_cast<double>(o.l2.compulsoryMisses);
    r.layer["cachesim.l2_capacity"] =
        static_cast<double>(o.l2.capacityMisses);
    r.layer["cachesim.l2_conflict"] =
        static_cast<double>(o.l2.conflictMisses);
    r.layer["cachesim.l2_misses_unthreaded"] =
        static_cast<double>(unthreaded.l2.misses);
    d.setupLayerMetrics();
    d.traceOverhead(traced, r.solveS);
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

const std::vector<WorkloadEntry> &
workloads()
{
    static const std::vector<WorkloadEntry> all = {
        {"matmul-native", &runMatmulNative},
        {"null-fork", &runNullFork},
        {"stream-admit", &runStreamAdmit},
        {"sim-nbody", &runSimNBody},
    };
    return all;
}

} // namespace perfbench
