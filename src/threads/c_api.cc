#include "c_api.hh"

#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "obs/chrome_trace.hh"
#include "obs/metrics.hh"
#include "obs/profile.hh"
#include "obs/registry.hh"
#include "obs/snapshot.hh"
#include "obs/trace.hh"
#include "support/error.hh"
#include "support/failpoint.hh"
#include "threads/config_keys.hh"

namespace
{

/** Lazily constructed global scheduler. */
lsched::threads::LocalityScheduler &
instance()
{
    static lsched::threads::LocalityScheduler scheduler;
    return scheduler;
}

thread_local std::string t_lastError;
thread_local bool t_hasError = false;

std::mutex g_handlerMutex;
th_error_handler_t g_handler = nullptr;
void *g_handlerUser = nullptr;

void
recordError(std::string message)
{
    t_lastError = std::move(message);
    t_hasError = true;
    th_error_handler_t handler;
    void *user;
    {
        std::lock_guard<std::mutex> lock(g_handlerMutex);
        handler = g_handler;
        user = g_handlerUser;
    }
    if (handler)
        handler(t_lastError.c_str(), user);
}

/**
 * Run @p fn, translating every exception a th_* call can legally
 * produce into a recorded error. Exceptions here are always
 * recoverable by construction — panics abort before unwinding.
 */
template <typename Fn>
bool
guarded(Fn &&fn)
{
    try {
        fn();
        return true;
    } catch (const std::bad_alloc &) {
        recordError("out of memory");
    } catch (const std::exception &e) {
        recordError(e.what());
    } catch (...) {
        recordError("unknown error");
    }
    return false;
}

/**
 * Copy @p value into the caller's buffer with the th_config_get
 * protocol: truncate to len-1, always NUL-terminate when len > 0,
 * return the full (untruncated) length.
 */
int
copyOut(const std::string &value, char *buf, std::size_t len)
{
    if (len > 0) {
        const std::size_t n =
            value.size() < len - 1 ? value.size() : len - 1;
        std::memcpy(buf, value.data(), n);
        buf[n] = '\0';
    }
    return static_cast<int>(value.size());
}

/**
 * The merged name -> value table behind th_metric_*, sorted by name.
 *
 * Two sources, synthesized rows winning on a name collision so the
 * stats snapshot and the metric surface can never disagree:
 *
 *  - every obs Registry instrument: counters and gauges under their
 *    own names, histograms flattened to name.count / name.sum;
 *  - every th_stats_t field, synthesized from the scheduler's live
 *    SchedulerStats under its established registry name. These rows
 *    exist even when metrics are disabled or compiled out, so the
 *    named surface is never weaker than the frozen struct.
 */
std::vector<std::pair<std::string, unsigned long long>>
metricTable()
{
    std::map<std::string, unsigned long long> table;
    for (const lsched::obs::Registry::Row &row :
         lsched::obs::Registry::global().rows()) {
        if (row.kind == "histogram") {
            table[row.name + ".count"] = row.value;
            table[row.name + ".sum"] = row.sum;
        } else {
            table[row.name] = row.value;
        }
    }
    const th_stats_t s = th_stats();
    const auto put = [&table](const char *name,
                              unsigned long long value) {
        table[name] = value;
    };
    put("sched.pending_threads", s.pending_threads);
    put("sched.executed_threads", s.executed_threads);
    put("sched.bins", s.bins);
    put("sched.bins.occupied", s.occupied_bins);
    put("sched.hash.max_chain", s.max_hash_chain);
    put("sched.tour.length", s.tour_length);
    put("sched.pool.threads", s.pool_threads_spawned);
    put("sched.pool.steals", s.pool_steals);
    put("sched.pool.parks", s.pool_parks);
    put("sched.placement",
        static_cast<unsigned long long>(s.placement));
    put("sched.backend", static_cast<unsigned long long>(s.backend));
    put("sched.bin.threads.mean", static_cast<unsigned long long>(
                                      std::llround(s.threads_per_bin_mean)));
    put("sched.bin.threads.min", static_cast<unsigned long long>(
                                     std::llround(s.threads_per_bin_min)));
    put("sched.bin.threads.max", static_cast<unsigned long long>(
                                     std::llround(s.threads_per_bin_max)));
    put("sched.bin.threads.stddev",
        static_cast<unsigned long long>(
            std::llround(s.threads_per_bin_stddev)));
    put("sched.faulted_threads", s.faulted_threads);
    put("sched.last_fault_count", s.last_fault_count);
    put("sched.stream.forked", s.stream_forked);
    put("sched.stream.executed", s.stream_executed);
    put("sched.stream.seals", s.stream_seals);
    put("sched.stream.backpressure", s.stream_backpressure_waits);
    put("sched.stream.inline_drains", s.stream_inline_drains);
    put("sched.stream.backlog", s.stream_backlog);
    put("sched.stream.peak_backlog", s.stream_peak_backlog);
    put("sched.recover.deadlines", s.recover_deadlines);
    put("sched.recover.watchdog_cancels", s.recover_watchdog_cancels);
    put("sched.recover.cancelled_bins", s.recover_cancelled_bins);
    put("sched.recover.cancelled_threads",
        s.recover_cancelled_threads);
    put("sched.recover.admission_retries",
        s.recover_admission_retries);
    put("sched.recover.admission_timeouts",
        s.recover_admission_timeouts);
    put("sched.recover.load_sheds", s.recover_load_sheds);
    put("sched.recover.degraded_tours", s.recover_degraded_tours);
    put("sched.recover.recoveries", s.recover_recoveries);
    put("sched.recover.state",
        static_cast<unsigned long long>(s.recover_state));
    put("sched.adapt.retunes", s.adapt_retunes);
    put("sched.adapt.observations", s.adapt_observations);
    put("sched.adapt.block_bytes", s.adapt_block_bytes);
    put("sched.adapt.super_bin_fan", s.adapt_super_bin_fan);
    put("sched.adapt.regime",
        static_cast<unsigned long long>(s.adapt_regime));
    put("sched.pool.pin_failed", s.pool_pin_failed);
    put("sched.pool.cross_steals", s.pool_cross_domain_steals);
    return {table.begin(), table.end()};
}

} // namespace

lsched::threads::LocalityScheduler &
th_default_scheduler()
{
    return instance();
}

void
th_init(std::size_t blocksize, std::size_t hashsize)
{
    // Shim over the unified config surface: one reconfiguration with
    // both keys applied, same semantics the dedicated code had
    // (0 selects the default for either size).
    guarded([&] {
        lsched::threads::SchedulerConfig config = instance().config();
        std::string error;
        if (!lsched::threads::applyConfigKey(
                config, "block_bytes", std::to_string(blocksize),
                &error) ||
            !lsched::threads::applyConfigKey(
                config, "hash_buckets", std::to_string(hashsize),
                &error)) {
            throw lsched::ConfigError(error);
        }
        instance().configure(config);
    });
}

void
th_fork(void (*f)(void *, void *), void *arg1, void *arg2,
        const void *hint1, const void *hint2, const void *hint3)
{
    if (!f) {
        // The C++ API treats a null body as a library-invariant panic;
        // at the C boundary it is a reportable caller error.
        recordError("th_fork: NULL thread function");
        return;
    }
    guarded([&] {
        instance().fork(f, arg1, arg2, lsched::threads::hintOf(hint1),
                        lsched::threads::hintOf(hint2),
                        lsched::threads::hintOf(hint3));
    });
}

void
th_run(int keep)
{
    guarded([&] { instance().run(keep != 0); });
}

void
th_run_parallel(int workers, int keep)
{
    guarded([&] {
        instance().runParallel(
            workers < 0 ? 0u : static_cast<unsigned>(workers),
            keep != 0);
    });
}

extern "C" {

th_stats_t
th_stats(void)
{
    const lsched::threads::SchedulerStats s = instance().stats();
    th_stats_t out;
    out.pending_threads = s.pendingThreads;
    out.executed_threads = s.executedThreads;
    out.bins = s.bins;
    out.occupied_bins = s.occupiedBins;
    out.max_hash_chain = s.maxHashChain;
    out.tour_length = s.tourLength;
    out.pool_threads_spawned = s.pool.threadsSpawned;
    out.pool_steals = s.pool.steals;
    out.pool_parks = s.pool.parks;
    out.placement = static_cast<int>(instance().config().placement);
    out.backend = static_cast<int>(instance().config().backend);
    const bool any = s.threadsPerBin.count() > 0;
    out.threads_per_bin_mean = any ? s.threadsPerBin.mean() : 0;
    out.threads_per_bin_min = any ? s.threadsPerBin.min() : 0;
    out.threads_per_bin_max = any ? s.threadsPerBin.max() : 0;
    out.threads_per_bin_stddev = any ? s.threadsPerBin.stddev() : 0;
    out.faulted_threads = s.faultedThreads;
    out.last_fault_count = instance().lastFaultCount();
    out.stream_forked = s.stream.forked;
    out.stream_executed = s.stream.executed;
    out.stream_seals = s.stream.seals;
    out.stream_backpressure_waits = s.stream.backpressureWaits;
    out.stream_inline_drains = s.stream.inlineDrains;
    out.stream_backlog = s.stream.backlog;
    out.stream_peak_backlog = s.stream.peakBacklog;
    out.recover_deadlines = s.recover.deadlines;
    out.recover_watchdog_cancels = s.recover.watchdogCancels;
    out.recover_cancelled_bins = s.recover.cancelledBins;
    out.recover_cancelled_threads = s.recover.cancelledThreads;
    out.recover_admission_retries = s.recover.admissionRetries;
    out.recover_admission_timeouts = s.recover.admissionTimeouts;
    out.recover_load_sheds = s.recover.loadSheds;
    out.recover_degraded_tours = s.recover.degradedTours;
    out.recover_recoveries = s.recover.recoveries;
    out.recover_state = static_cast<int>(s.recover.state);
    out.adapt_retunes = s.adapt.retunes;
    out.adapt_observations = s.adapt.observations;
    out.adapt_block_bytes = s.adapt.blockBytes;
    out.adapt_super_bin_fan = s.adapt.superBinFan;
    out.adapt_regime = static_cast<int>(s.adapt.regime);
    out.pool_pin_failed = s.pool.pinFailed;
    out.pool_cross_domain_steals = s.pool.crossSteals;
    return out;
}

th_topology_t
th_topology(void)
{
    const lsched::threads::TopologySnapshot t =
        instance().stats().topology;
    th_topology_t out;
    out.active = t.active ? 1 : 0;
    out.source = static_cast<int>(t.source);
    out.packages = t.packages;
    out.l3_clusters = t.l3Clusters;
    out.l2_groups = t.l2Groups;
    out.cpus = t.cpus;
    out.smt_per_core = t.smtPerCore;
    out.l2_bytes = t.l2Bytes;
    out.l3_bytes = t.l3Bytes;
    out.derived_fan = t.derivedFan;
    out.domains = t.domains;
    out.domain_workers = t.domainWorkers;
    return out;
}

int
th_topology_summary(char *buf, std::size_t len)
{
    if (!buf && len > 0) {
        recordError("th_topology_summary: NULL buffer");
        return -1;
    }
    const std::string summary = instance().stats().topology.summary;
    if (len > 0) {
        const std::size_t n =
            summary.size() < len - 1 ? summary.size() : len - 1;
        std::memcpy(buf, summary.data(), n);
        buf[n] = '\0';
    }
    return static_cast<int>(summary.size());
}

int
th_set_deadline(long long millis)
{
    if (millis < 0) {
        recordError("th_set_deadline: negative deadline");
        return -1;
    }
    // Shim over the unified config surface, like th_set_backend.
    return th_configure("deadline_millis",
                        std::to_string(millis).c_str());
}

int
th_configure(const char *key, const char *value)
{
    if (!key || !value) {
        recordError("th_configure: NULL key or value");
        return -1;
    }
    return guarded([&] {
               lsched::threads::SchedulerConfig config =
                   instance().config();
               std::string error;
               if (!lsched::threads::applyConfigKey(config, key, value,
                                                    &error)) {
                   throw lsched::ConfigError("th_configure: " +
                                                      error);
               }
               instance().configure(config);
           })
               ? 0
               : -1;
}

int
th_config_get(const char *key, char *buf, std::size_t len)
{
    if (!key || (!buf && len > 0)) {
        recordError("th_config_get: NULL key or buffer");
        return -1;
    }
    std::string value;
    if (!lsched::threads::configKeyValue(instance().config(), key,
                                         &value)) {
        recordError(std::string("th_config_get: unknown config key '") +
                    key + "'");
        return -1;
    }
    if (len > 0) {
        const std::size_t n = value.size() < len - 1 ? value.size()
                                                     : len - 1;
        std::memcpy(buf, value.data(), n);
        buf[n] = '\0';
    }
    return static_cast<int>(value.size());
}

int
th_config_keys(void)
{
    return static_cast<int>(lsched::threads::configKeys().size());
}

int
th_config_key(int index, char *buf, std::size_t len)
{
    if (!buf && len > 0) {
        recordError("th_config_key: NULL buffer");
        return -1;
    }
    const std::vector<std::string> &keys =
        lsched::threads::configKeys();
    if (index < 0 || index >= static_cast<int>(keys.size())) {
        recordError("th_config_key: index " + std::to_string(index) +
                    " out of range [0, " +
                    std::to_string(keys.size()) + ")");
        return -1;
    }
    return copyOut(keys[static_cast<std::size_t>(index)], buf, len);
}

int
th_metric_count(void)
{
    int count = -1;
    guarded([&] {
        count = static_cast<int>(metricTable().size());
    });
    return count;
}

int
th_metric_name(int index, char *buf, std::size_t len)
{
    if (!buf && len > 0) {
        recordError("th_metric_name: NULL buffer");
        return -1;
    }
    int size = -1;
    if (!guarded([&] {
            const auto table = metricTable();
            if (index < 0 ||
                index >= static_cast<int>(table.size())) {
                throw lsched::ConfigError(
                    "th_metric_name: index " + std::to_string(index) +
                    " out of range [0, " +
                    std::to_string(table.size()) + ")");
            }
            size = copyOut(table[static_cast<std::size_t>(index)].first,
                           buf, len);
        }))
        return -1;
    return size;
}

int
th_metric_get(const char *name, unsigned long long *value)
{
    if (!name || !value) {
        recordError("th_metric_get: NULL name or value");
        return -1;
    }
    return guarded([&] {
               const auto table = metricTable();
               const std::string key(name);
               // The table is sorted by name; binary search.
               std::size_t lo = 0, hi = table.size();
               while (lo < hi) {
                   const std::size_t mid = lo + (hi - lo) / 2;
                   if (table[mid].first < key)
                       lo = mid + 1;
                   else
                       hi = mid;
               }
               if (lo == table.size() || table[lo].first != key) {
                   throw lsched::ConfigError(
                       std::string(
                           "th_metric_get: unknown metric '") +
                       name + "'");
               }
               *value = table[lo].second;
           })
               ? 0
               : -1;
}

int
th_set_placement(const char *name)
{
    if (!name) {
        recordError("th_set_placement: NULL name");
        return -1;
    }
    // Shim: the key table rejects unknown names with the same
    // token-list message the dedicated parser used to emit.
    return th_configure("placement", name);
}

int
th_set_backend(const char *name)
{
    if (!name) {
        recordError("th_set_backend: NULL name");
        return -1;
    }
    // Shim: the key table rejects unknown names (the removed
    // "coldspawn" among them) with its token-list message.
    return th_configure("backend", name);
}

int
th_stream_begin(int workers)
{
    return guarded([&] {
               instance().streamBegin(
                   workers < 0 ? 0u : static_cast<unsigned>(workers));
           })
               ? 0
               : -1;
}

long long
th_stream_end(void)
{
    long long executed = -1;
    guarded([&] {
        executed = static_cast<long long>(instance().streamEnd());
    });
    return executed;
}

int
th_profile_enable(long long interval_ms)
{
    if (!lsched::obs::kTraceCompiled) {
        recordError("th_profile_enable: instrumentation compiled out "
                    "(LSCHED_TRACE_ENABLED=OFF)");
        return -1;
    }
    if (interval_ms < 0) {
        recordError("th_profile_enable: negative interval");
        return -1;
    }
    lsched::obs::Profiler &profiler = lsched::obs::Profiler::global();
    lsched::obs::ProfileConfig config = profiler.config();
    config.intervalMs = static_cast<std::uint64_t>(interval_ms);
    std::string error;
    if (!profiler.configure(config, &error)) {
        recordError("th_profile_enable: " + error);
        return -1;
    }
    return profiler.setEnabled(true) ? 0 : -1;
}

void
th_profile_disable(void)
{
    lsched::obs::Profiler::global().setEnabled(false);
}

long long
th_profile_snapshot(void)
{
    if (!lsched::obs::Profiler::global().enabled())
        return -1;
    return static_cast<long long>(
        lsched::obs::SnapshotEngine::global().take().seq);
}

int
th_profile_report(const char *path)
{
    if (!path) {
        recordError("th_profile_report: NULL path");
        return -1;
    }
    if (!lsched::obs::kTraceCompiled) {
        recordError("th_profile_report: instrumentation compiled out");
        return -1;
    }
    if (!lsched::obs::SnapshotEngine::global().writeReport(path)) {
        recordError(std::string("th_profile_report: cannot write '") +
                    path + "'");
        return -1;
    }
    return 0;
}

void
th_trace_enable(void)
{
    lsched::obs::setTraceEnabled(true);
    lsched::obs::setMetricsEnabled(true);
}

void
th_trace_disable(void)
{
    lsched::obs::setTraceEnabled(false);
    lsched::obs::setMetricsEnabled(false);
}

int
th_trace_write(const char *path)
{
    if (!path || !lsched::obs::kTraceCompiled)
        return -1;
    return lsched::obs::writeChromeTrace(path) ? 0 : -1;
}

int
th_metrics_write(const char *path)
{
    if (!path)
        return -1;
    return lsched::obs::writeMetricsFile(path) ? 0 : -1;
}

const char *
th_last_error(void)
{
    return t_hasError ? t_lastError.c_str() : nullptr;
}

void
th_clear_error(void)
{
    t_hasError = false;
    t_lastError.clear();
}

void
th_set_error_handler(th_error_handler_t handler, void *user)
{
    std::lock_guard<std::mutex> lock(g_handlerMutex);
    g_handler = handler;
    g_handlerUser = user;
}

int
th_failpoint_arm(const char *name, const char *spec)
{
    if (!name || !spec) {
        recordError("th_failpoint_arm: NULL name or spec");
        return -1;
    }
    std::string error;
    if (!lsched::failpoint::arm(name, spec, &error)) {
        recordError(error);
        return -1;
    }
    return 0;
}

void
th_failpoint_disarm(const char *name)
{
    if (name)
        lsched::failpoint::disarm(name);
}

void
th_failpoint_disarm_all(void)
{
    lsched::failpoint::disarmAll();
}

void
th_init_(const long *blocksize, const long *hashsize)
{
    th_init(blocksize ? static_cast<std::size_t>(*blocksize) : 0,
            hashsize ? static_cast<std::size_t>(*hashsize) : 0);
}

void
th_fork_(void (*f)(void *, void *), void *arg1, void *arg2,
         const void *hint1, const void *hint2, const void *hint3)
{
    th_fork(f, arg1, arg2, hint1, hint2, hint3);
}

void
th_run_(const int *keep)
{
    th_run(keep ? *keep : 0);
}

void
th_run_parallel_(const int *workers, const int *keep)
{
    th_run_parallel(workers ? *workers : 0, keep ? *keep : 0);
}

void
th_set_placement_(const int *kind)
{
    static const char *const names[] = {"blockhash", "roundrobin",
                                        "hierarchical", "adaptive"};
    if (!kind || *kind < 0 || *kind > 3) {
        recordError("th_set_placement: kind must be 0..3");
        return;
    }
    th_set_placement(names[*kind]);
}

void
th_set_backend_(const int *kind)
{
    static const char *const names[] = {"serial", "pooled"};
    if (!kind || *kind < 0 || *kind > 1) {
        recordError("th_set_backend: kind must be 0..1");
        return;
    }
    th_set_backend(names[*kind]);
}

void
th_set_deadline_(const long long *millis)
{
    th_set_deadline(millis ? *millis : 0);
}

void
th_stream_begin_(const int *workers)
{
    th_stream_begin(workers ? *workers : 0);
}

void
th_stream_end_(long long *executed)
{
    const long long result = th_stream_end();
    if (executed)
        *executed = result;
}

void
th_profile_enable_(const int *interval_ms, int *status)
{
    const int result =
        th_profile_enable(interval_ms ? *interval_ms : 0);
    if (status)
        *status = result;
}

void
th_profile_disable_(void)
{
    th_profile_disable();
}

void
th_profile_snapshot_(long long *seq)
{
    const long long result = th_profile_snapshot();
    if (seq)
        *seq = result;
}

void
th_profile_report_(int *status)
{
    // Numeric-only shim: the path comes from the profile.output key,
    // defaulting to the same file the --profile flag uses.
    std::string path =
        lsched::obs::Profiler::global().config().output;
    if (path.empty())
        path = "lsched_profile.jsonl";
    const int result = th_profile_report(path.c_str());
    if (status)
        *status = result;
}

void
th_stats_(long long *values, const int *count)
{
    if (!values || !count || *count <= 0)
        return;
    const th_stats_t s = th_stats();
    // Field order mirrors th_stats_t exactly; both are append-only.
    const long long fields[] = {
        static_cast<long long>(s.pending_threads),
        static_cast<long long>(s.executed_threads),
        static_cast<long long>(s.bins),
        static_cast<long long>(s.occupied_bins),
        static_cast<long long>(s.max_hash_chain),
        static_cast<long long>(s.tour_length),
        static_cast<long long>(s.pool_threads_spawned),
        static_cast<long long>(s.pool_steals),
        static_cast<long long>(s.pool_parks),
        s.placement,
        s.backend,
        std::llround(s.threads_per_bin_mean),
        std::llround(s.threads_per_bin_min),
        std::llround(s.threads_per_bin_max),
        std::llround(s.threads_per_bin_stddev),
        static_cast<long long>(s.faulted_threads),
        static_cast<long long>(s.last_fault_count),
        static_cast<long long>(s.stream_forked),
        static_cast<long long>(s.stream_executed),
        static_cast<long long>(s.stream_seals),
        static_cast<long long>(s.stream_backpressure_waits),
        static_cast<long long>(s.stream_inline_drains),
        static_cast<long long>(s.stream_backlog),
        static_cast<long long>(s.stream_peak_backlog),
        static_cast<long long>(s.recover_deadlines),
        static_cast<long long>(s.recover_watchdog_cancels),
        static_cast<long long>(s.recover_cancelled_bins),
        static_cast<long long>(s.recover_cancelled_threads),
        static_cast<long long>(s.recover_admission_retries),
        static_cast<long long>(s.recover_admission_timeouts),
        static_cast<long long>(s.recover_load_sheds),
        static_cast<long long>(s.recover_degraded_tours),
        static_cast<long long>(s.recover_recoveries),
        s.recover_state,
        static_cast<long long>(s.adapt_retunes),
        static_cast<long long>(s.adapt_observations),
        static_cast<long long>(s.adapt_block_bytes),
        static_cast<long long>(s.adapt_super_bin_fan),
        s.adapt_regime,
        static_cast<long long>(s.pool_pin_failed),
        static_cast<long long>(s.pool_cross_domain_steals),
    };
    const int have = static_cast<int>(sizeof(fields) / sizeof(fields[0]));
    const int n = *count < have ? *count : have;
    for (int i = 0; i < n; ++i)
        values[i] = fields[i];
}

void
th_metric_count_(int *count)
{
    if (count)
        *count = th_metric_count();
}

void
th_metric_value_(const int *index, long long *value)
{
    if (!value)
        return;
    *value = -1;
    if (!index)
        return;
    guarded([&] {
        const auto table = metricTable();
        if (*index >= 0 && *index < static_cast<int>(table.size()))
            *value = static_cast<long long>(
                table[static_cast<std::size_t>(*index)].second);
    });
}

void
th_topology_(long long *values, const int *count)
{
    if (!values || !count || *count <= 0)
        return;
    const th_topology_t t = th_topology();
    // Field order mirrors th_topology_t exactly; both are append-only.
    const long long fields[] = {
        t.active,
        t.source,
        static_cast<long long>(t.packages),
        static_cast<long long>(t.l3_clusters),
        static_cast<long long>(t.l2_groups),
        static_cast<long long>(t.cpus),
        static_cast<long long>(t.smt_per_core),
        static_cast<long long>(t.l2_bytes),
        static_cast<long long>(t.l3_bytes),
        static_cast<long long>(t.derived_fan),
        static_cast<long long>(t.domains),
        static_cast<long long>(t.domain_workers),
    };
    const int have = static_cast<int>(sizeof(fields) / sizeof(fields[0]));
    const int n = *count < have ? *count : have;
    for (int i = 0; i < n; ++i)
        values[i] = fields[i];
}

} // extern "C"
