/**
 * @file
 * The key table behind applyConfigKey/configKeyValue. One row per
 * SchedulerConfig field; see config_keys.hh for the contract.
 */

#include "threads/config_keys.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "machine/topology.hh"
#include "obs/profile.hh"
#include "threads/scheduler.hh"

namespace lsched::threads
{

namespace
{

bool
parseU64(const std::string &value, std::uint64_t *out)
{
    if (value.empty())
        return false;
    const char *begin = value.c_str();
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(begin, &end, 10);
    if (errno != 0 || end != begin + value.size())
        return false;
    // strtoull silently accepts a leading minus by wrapping.
    if (value[0] == '-')
        return false;
    *out = parsed;
    return true;
}

bool
parseDouble(const std::string &value, double *out)
{
    if (value.empty())
        return false;
    const char *begin = value.c_str();
    char *end = nullptr;
    errno = 0;
    const double parsed = std::strtod(begin, &end);
    if (errno != 0 || end != begin + value.size())
        return false;
    if (!std::isfinite(parsed) || parsed < 0.0)
        return false;
    *out = parsed;
    return true;
}

/** %g keeps the round-trip short ("0.05", not "0.050000"). */
std::string
doubleToken(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", value);
    return buf;
}

bool
parseBool(const std::string &value, bool *out)
{
    if (value == "1" || value == "true" || value == "on" ||
        value == "yes") {
        *out = true;
        return true;
    }
    if (value == "0" || value == "false" || value == "off" ||
        value == "no") {
        *out = false;
        return true;
    }
    return false;
}

/**
 * Non-fatal counterpart of tourPolicyFromName (which is a CLI-path
 * LSCHED_FATAL on unknown names).
 */
bool
tryTourFromName(const std::string &name, TourPolicy *out)
{
    if (name == "creation")
        *out = TourPolicy::CreationOrder;
    else if (name == "snake")
        *out = TourPolicy::SortedSnake;
    else if (name == "nearest")
        *out = TourPolicy::NearestNeighbor;
    else if (name == "hilbert")
        *out = TourPolicy::Hilbert;
    else
        return false;
    return true;
}

bool
tryErrorPolicyFromName(const std::string &name, ErrorPolicy *out)
{
    if (name == "abort")
        *out = ErrorPolicy::Abort;
    else if (name == "stoptour")
        *out = ErrorPolicy::StopTour;
    else if (name == "continue")
        *out = ErrorPolicy::ContinueAndCollect;
    else
        return false;
    return true;
}

const char *
errorPolicyToken(ErrorPolicy policy)
{
    switch (policy) {
      case ErrorPolicy::Abort:              return "abort";
      case ErrorPolicy::StopTour:           return "stoptour";
      case ErrorPolicy::ContinueAndCollect: return "continue";
    }
    return "?";
}

void
fail(std::string *error, std::string message)
{
    if (error)
        *error = std::move(message);
}

bool
badValue(std::string *error, const std::string &key,
         const std::string &value, const char *want)
{
    fail(error, "config key '" + key + "': bad value '" + value +
                    "' (want " + want + ")");
    return false;
}

/**
 * The process-global profile.* family (obs::Profiler), reached through
 * the same string surface as the SchedulerConfig keys. Idempotent, so
 * --sched replay onto every scheduler a program builds is harmless.
 */
bool
applyProfileKey(const std::string &key, const std::string &value,
                std::string *error)
{
    std::uint64_t u = 0;
    bool b = false;
    obs::ProfileConfig config = obs::Profiler::global().config();

    if (key == "profile.enable") {
        if (!parseBool(value, &b))
            return badValue(error, key, value, "a boolean");
        obs::Profiler::global().setEnabled(b);
        return true;
    }
    if (key == "profile.pmu") {
        if (!parseBool(value, &b))
            return badValue(error, key, value, "a boolean");
        config.pmu = b;
    } else if (key == "profile.interval_ms") {
        if (!parseU64(value, &u))
            return badValue(error, key, value,
                            "milliseconds (0 = manual snapshots)");
        config.intervalMs = u;
    } else if (key == "profile.output") {
        config.output = value;
    } else if (key == "profile.om_output") {
        config.omOutput = value;
    } else if (key == "profile.ring") {
        if (!parseU64(value, &u) || u == 0)
            return badValue(error, key, value,
                            "a positive snapshot count");
        config.ringDepth = static_cast<std::size_t>(u);
    } else if (key == "profile.max_bins") {
        if (!parseU64(value, &u) || u == 0)
            return badValue(error, key, value, "a positive bin count");
        config.maxBins = static_cast<std::size_t>(u);
    } else {
        fail(error, "unknown config key '" + key + "'");
        return false;
    }
    return obs::Profiler::global().configure(config, error);
}

bool
profileKeyValue(const std::string &key, std::string *out)
{
    const obs::ProfileConfig config = obs::Profiler::global().config();
    if (key == "profile.enable")
        *out = obs::Profiler::global().enabled() ? "1" : "0";
    else if (key == "profile.pmu")
        *out = config.pmu ? "1" : "0";
    else if (key == "profile.interval_ms")
        *out = std::to_string(config.intervalMs);
    else if (key == "profile.output")
        *out = config.output;
    else if (key == "profile.om_output")
        *out = config.omOutput;
    else if (key == "profile.ring")
        *out = std::to_string(config.ringDepth);
    else if (key == "profile.max_bins")
        *out = std::to_string(config.maxBins);
    else
        return false;
    return true;
}

} // namespace

std::string
canonicalConfigKey(const std::string &raw)
{
    bool hasUpper = false;
    for (char c : raw) {
        if (c >= 'A' && c <= 'Z') {
            hasUpper = true;
            break;
        }
    }
    if (!hasUpper)
        return raw;
    std::string key;
    key.reserve(raw.size() + 4);
    for (char c : raw) {
        if (c >= 'A' && c <= 'Z') {
            key.push_back('_');
            key.push_back(static_cast<char>(c - 'A' + 'a'));
        } else {
            key.push_back(c);
        }
    }
    return key;
}

bool
applyConfigKey(SchedulerConfig &config, const std::string &rawKey,
               const std::string &value, std::string *error)
{
    const std::string key = canonicalConfigKey(rawKey);
    if (key.rfind("profile.", 0) == 0)
        return applyProfileKey(key, value, error);

    std::uint64_t u = 0;
    bool b = false;

    if (key == "dims") {
        if (!parseU64(value, &u) || u == 0 || u > kMaxDims)
            return badValue(error, key, value, "an integer in [1, 8]");
        config.dims = static_cast<unsigned>(u);
    } else if (key == "cache_bytes") {
        if (!parseU64(value, &u))
            return badValue(error, key, value, "a byte count");
        config.cacheBytes = u;
    } else if (key == "block_bytes") {
        if (!parseU64(value, &u))
            return badValue(error, key, value,
                            "a byte count (0 = cache_bytes / dims)");
        config.blockBytes = u;
    } else if (key == "hash_buckets") {
        if (!parseU64(value, &u))
            return badValue(error, key, value,
                            "a bucket count (0 = default)");
        config.hashBuckets = static_cast<std::size_t>(u);
    } else if (key == "group_capacity") {
        if (!parseU64(value, &u) || u == 0 || u > 0xffffffffull)
            return badValue(error, key, value,
                            "a positive 32-bit thread count");
        config.groupCapacity = static_cast<std::uint32_t>(u);
    } else if (key == "symmetric_hints") {
        if (!parseBool(value, &b))
            return badValue(error, key, value, "a boolean");
        config.symmetricHints = b;
    } else if (key == "placement") {
        PlacementKind kind;
        if (!tryPlacementFromName(value, &kind))
            return badValue(error, key, value,
                            "blockhash|roundrobin|hierarchical|adaptive");
        config.placement = kind;
    } else if (key == "backend") {
        BackendKind kind;
        if (!tryBackendFromName(value, &kind))
            return badValue(error, key, value, "serial|pooled");
        config.backend = kind;
    } else if (key == "round_robin_bins") {
        if (!parseU64(value, &u))
            return badValue(error, key, value,
                            "a bin count (0 = policy default)");
        config.roundRobinBins = u;
    } else if (key == "topology") {
        if (value != "auto" && value != "flat") {
            machine::CacheTopology probe;
            std::string why;
            if (!machine::CacheTopology::fromSpec(value, &probe, &why))
                return badValue(error, key, value,
                                "auto|flat|PxCxGxS[/l2=N][/l3=N]");
        }
        config.topology = value;
    } else if (key == "super_bin_fan") {
        if (!parseU64(value, &u))
            return badValue(error, key, value,
                            "blocks per super-bin (0 = policy default)");
        config.superBinFan = u;
    } else if (key == "tour") {
        TourPolicy policy;
        if (!tryTourFromName(value, &policy))
            return badValue(error, key, value,
                            "creation|snake|nearest|hilbert");
        config.tour = policy;
    } else if (key == "on_error") {
        ErrorPolicy policy;
        if (!tryErrorPolicyFromName(value, &policy))
            return badValue(error, key, value,
                            "abort|stoptour|continue");
        config.onError = policy;
    } else if (key == "watchdog_millis") {
        if (!parseU64(value, &u) || u > 0xffffffffull)
            return badValue(error, key, value,
                            "milliseconds (0 disables)");
        config.watchdogMillis = static_cast<std::uint32_t>(u);
    } else if (key == "watchdog_action") {
        WatchdogAction action;
        if (!tryWatchdogActionFromName(value, &action))
            return badValue(error, key, value, "event|cancel");
        config.watchdogAction = action;
    } else if (key == "deadline_millis") {
        if (!parseU64(value, &u) || u > 0xffffffffull)
            return badValue(error, key, value,
                            "milliseconds (0 disables)");
        config.deadlineMillis = static_cast<std::uint32_t>(u);
    } else if (key == "stream_admit_retries") {
        if (!parseU64(value, &u) || u > 0xffffffffull)
            return badValue(error, key, value,
                            "a retry bound (0 = retry forever)");
        config.streamAdmitRetries = static_cast<std::uint32_t>(u);
    } else if (key == "overload_epochs") {
        if (!parseU64(value, &u) || u > 0xffffffffull)
            return badValue(error, key, value,
                            "an epoch count (0 disables the governor)");
        config.overloadEpochs = static_cast<unsigned>(u);
    } else if (key == "recover_epochs") {
        if (!parseU64(value, &u) || u == 0 || u > 0xffffffffull)
            return badValue(error, key, value,
                            "a positive epoch count");
        config.recoverEpochs = static_cast<unsigned>(u);
    } else if (key == "pin_workers") {
        if (!parseBool(value, &b))
            return badValue(error, key, value, "a boolean");
        config.pinWorkers = b;
    } else if (key == "stream_max_pending") {
        if (!parseU64(value, &u))
            return badValue(error, key, value,
                            "a thread bound (0 = unbounded)");
        config.streamMaxPending = u;
    } else if (key == "stream_seal_threshold") {
        if (!parseU64(value, &u))
            return badValue(error, key, value,
                            "a thread count (0 = seal at end only)");
        config.streamSealThreshold = u;
    } else if (key == "adapt.base") {
        PlacementKind kind;
        if (!tryPlacementFromName(value, &kind) ||
            kind == PlacementKind::Adaptive)
            return badValue(error, key, value,
                            "blockhash|roundrobin|hierarchical");
        config.adaptBase = kind;
    } else if (key == "adapt.target_miss") {
        double d = 0.0;
        if (!parseDouble(value, &d) || d > 1.0)
            return badValue(error, key, value,
                            "a miss rate in [0, 1]");
        config.adaptTargetMiss = d;
    } else if (key == "adapt.high_miss") {
        double d = 0.0;
        if (!parseDouble(value, &d) || d > 1.0)
            return badValue(error, key, value,
                            "a miss rate in [0, 1]");
        config.adaptHighMiss = d;
    } else if (key == "adapt.converge") {
        double d = 0.0;
        if (!parseDouble(value, &d) || d < 1.0)
            return badValue(error, key, value,
                            "a factor >= 1 over the tuned miss rate");
        config.adaptConverge = d;
    } else if (key == "adapt.epochs") {
        if (!parseU64(value, &u) || u == 0 || u > 0xffffffffull)
            return badValue(error, key, value,
                            "a positive epoch count");
        config.adaptEpochs = static_cast<unsigned>(u);
    } else if (key == "adapt.hold") {
        if (!parseU64(value, &u) || u > 0xffffffffull)
            return badValue(error, key, value,
                            "an epoch count (0 = react immediately)");
        config.adaptHold = static_cast<unsigned>(u);
    } else if (key == "adapt.min_block") {
        if (!parseU64(value, &u) || u == 0)
            return badValue(error, key, value,
                            "a positive byte floor");
        config.adaptMinBlock = u;
    } else if (key == "adapt.max_block") {
        if (!parseU64(value, &u))
            return badValue(error, key, value,
                            "a byte ceiling (0 = cache_bytes)");
        config.adaptMaxBlock = u;
    } else if (key == "adapt.min_refs") {
        if (!parseU64(value, &u))
            return badValue(error, key, value,
                            "an LLC-reference floor per epoch");
        config.adaptMinRefs = u;
    } else if (key == "adapt.dwell_improve") {
        double d = 0.0;
        if (!parseDouble(value, &d) || d > 1.0)
            return badValue(error, key, value,
                            "an improvement fraction in [0, 1]");
        config.adaptDwellImprove = d;
    } else {
        fail(error, "unknown config key '" + key + "'");
        return false;
    }
    return true;
}

bool
configKeyValue(const SchedulerConfig &config,
               const std::string &rawKey, std::string *out)
{
    const std::string key = canonicalConfigKey(rawKey);
    if (key.rfind("profile.", 0) == 0)
        return profileKeyValue(key, out);

    if (key == "dims")
        *out = std::to_string(config.dims);
    else if (key == "cache_bytes")
        *out = std::to_string(config.cacheBytes);
    else if (key == "block_bytes")
        *out = std::to_string(config.blockBytes);
    else if (key == "hash_buckets")
        *out = std::to_string(config.hashBuckets);
    else if (key == "group_capacity")
        *out = std::to_string(config.groupCapacity);
    else if (key == "symmetric_hints")
        *out = config.symmetricHints ? "1" : "0";
    else if (key == "placement")
        *out = placementName(config.placement);
    else if (key == "backend")
        *out = backendName(config.backend);
    else if (key == "round_robin_bins")
        *out = std::to_string(config.roundRobinBins);
    else if (key == "topology")
        *out = config.topology;
    else if (key == "super_bin_fan")
        *out = std::to_string(config.superBinFan);
    else if (key == "tour")
        *out = tourPolicyName(config.tour);
    else if (key == "on_error")
        *out = errorPolicyToken(config.onError);
    else if (key == "watchdog_millis")
        *out = std::to_string(config.watchdogMillis);
    else if (key == "watchdog_action")
        *out = watchdogActionName(config.watchdogAction);
    else if (key == "deadline_millis")
        *out = std::to_string(config.deadlineMillis);
    else if (key == "stream_admit_retries")
        *out = std::to_string(config.streamAdmitRetries);
    else if (key == "overload_epochs")
        *out = std::to_string(config.overloadEpochs);
    else if (key == "recover_epochs")
        *out = std::to_string(config.recoverEpochs);
    else if (key == "pin_workers")
        *out = config.pinWorkers ? "1" : "0";
    else if (key == "stream_max_pending")
        *out = std::to_string(config.streamMaxPending);
    else if (key == "stream_seal_threshold")
        *out = std::to_string(config.streamSealThreshold);
    else if (key == "adapt.base")
        *out = placementName(config.adaptBase);
    else if (key == "adapt.target_miss")
        *out = doubleToken(config.adaptTargetMiss);
    else if (key == "adapt.high_miss")
        *out = doubleToken(config.adaptHighMiss);
    else if (key == "adapt.converge")
        *out = doubleToken(config.adaptConverge);
    else if (key == "adapt.epochs")
        *out = std::to_string(config.adaptEpochs);
    else if (key == "adapt.hold")
        *out = std::to_string(config.adaptHold);
    else if (key == "adapt.min_block")
        *out = std::to_string(config.adaptMinBlock);
    else if (key == "adapt.max_block")
        *out = std::to_string(config.adaptMaxBlock);
    else if (key == "adapt.min_refs")
        *out = std::to_string(config.adaptMinRefs);
    else if (key == "adapt.dwell_improve")
        *out = doubleToken(config.adaptDwellImprove);
    else
        return false;
    return true;
}

const std::vector<std::string> &
configKeys()
{
    static const std::vector<std::string> keys = {
        "dims",
        "cache_bytes",
        "block_bytes",
        "hash_buckets",
        "group_capacity",
        "symmetric_hints",
        "placement",
        "backend",
        "round_robin_bins",
        "super_bin_fan",
        "topology",
        "tour",
        "on_error",
        "watchdog_millis",
        "watchdog_action",
        "deadline_millis",
        "stream_admit_retries",
        "overload_epochs",
        "recover_epochs",
        "pin_workers",
        "stream_max_pending",
        "stream_seal_threshold",
        "adapt.base",
        "adapt.target_miss",
        "adapt.high_miss",
        "adapt.converge",
        "adapt.epochs",
        "adapt.hold",
        "adapt.min_block",
        "adapt.max_block",
        "adapt.min_refs",
        "adapt.dwell_improve",
        "profile.enable",
        "profile.pmu",
        "profile.interval_ms",
        "profile.output",
        "profile.om_output",
        "profile.ring",
        "profile.max_bins",
    };
    return keys;
}

} // namespace lsched::threads
