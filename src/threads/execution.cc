/**
 * @file
 * Execution backend selection (execution.hh): the backend names, the
 * worker thread-local marker fork() checks, and the --placement/
 * --backend/--sched CLI hook.
 */

#include "threads/execution.hh"

#include "support/cli.hh"
#include "support/panic.hh"
#include "threads/config_keys.hh"
#include "threads/scheduler.hh"

namespace lsched::threads
{

namespace
{

thread_local bool t_inParallelWorker = false;

std::vector<std::pair<std::string, std::string>> g_schedOverrides;

/**
 * Validate and record one (key, value) override. All three flags
 * funnel through here so a typo dies at the command line — against a
 * scratch config, since the real ones don't exist yet — instead of
 * surfacing as a ConfigError from whichever scheduler is configured
 * first.
 */
void
addSchedOverride(const char *flag, const std::string &key,
                 const std::string &value)
{
    SchedulerConfig scratch;
    std::string error;
    if (!applyConfigKey(scratch, key, value, &error))
        LSCHED_FATAL(flag, ": ", error);
    g_schedOverrides.emplace_back(key, value);
}

/** Receiver for the built-in --placement/--backend/--sched values. */
void
applyCliSched(const std::string &placement, const std::string &backend,
              const std::string &sched)
{
    if (!placement.empty())
        addSchedOverride("--placement", "placement", placement);
    if (!backend.empty())
        addSchedOverride("--backend", "backend", backend);
    // --sched is comma-separated key=value pairs, later pairs winning
    // (they replay in order).
    std::size_t pos = 0;
    while (pos < sched.size()) {
        std::size_t comma = sched.find(',', pos);
        if (comma == std::string::npos)
            comma = sched.size();
        const std::string pair = sched.substr(pos, comma - pos);
        pos = comma + 1;
        if (pair.empty())
            continue;
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0) {
            LSCHED_FATAL("--sched: expected key=value, got '", pair,
                         "'");
        }
        addSchedOverride("--sched", pair.substr(0, eq),
                         pair.substr(eq + 1));
    }
}

/**
 * Install the hook at static-initialization time, mirroring the obs
 * library's --trace/--metrics registration: any binary linking the
 * scheduler honours --placement/--backend with no per-program code.
 */
[[maybe_unused]] const bool g_cliSchedHookInstalled =
    (lsched::setCliSchedHook(&applyCliSched), true);

} // namespace

namespace detail
{

bool
inParallelWorker()
{
    return t_inParallelWorker;
}

ParallelWorkerScope::ParallelWorkerScope()
{
    t_inParallelWorker = true;
}

ParallelWorkerScope::~ParallelWorkerScope()
{
    t_inParallelWorker = false;
}

const std::vector<std::pair<std::string, std::string>> &
schedOverrides()
{
    return g_schedOverrides;
}

} // namespace detail

const char *
backendName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Serial:
        return "serial";
      case BackendKind::Pooled:
        return "pooled";
    }
    return "?";
}

bool
tryBackendFromName(const std::string &name, BackendKind *out)
{
    if (name == "serial")
        *out = BackendKind::Serial;
    else if (name == "pooled")
        *out = BackendKind::Pooled;
    else
        return false;
    return true;
}

BackendKind
backendFromName(const std::string &name)
{
    BackendKind kind;
    if (!tryBackendFromName(name, &kind)) {
        LSCHED_FATAL("unknown execution backend '", name,
                     "' (want serial|pooled)");
    }
    return kind;
}

} // namespace lsched::threads
