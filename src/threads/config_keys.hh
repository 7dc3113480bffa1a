/**
 * @file
 * The unified, string-keyed configuration surface.
 *
 * The config surface had sprawled — th_init's two sizes,
 * th_set_placement/th_set_backend, one CLI flag per knob — and every
 * new knob (the streaming ones arrived with three) widened every
 * layer. This is the one parser all of them now route through:
 * th_configure("key", "value") and th_config_get() at the C boundary,
 * the generic --sched key=value CLI flag, and the legacy entry points
 * reimplemented as shims over it.
 *
 * The key set mirrors SchedulerConfig field-for-field in snake_case
 * (configKeys() enumerates it), values round-trip — configKeyValue()
 * emits exactly the tokens applyConfigKey() accepts — and a new
 * SchedulerConfig field needs only a row in the table in
 * config_keys.cc to be reachable from C, Fortran (numerically), and
 * the command line.
 *
 * Canonical names are snake_case. The camelCase spellings that
 * predate the audit (the SchedulerConfig field names themselves —
 * "streamMaxPending", "cacheBytes", "adapt.targetMiss", ...) are
 * accepted as read/write aliases: canonicalConfigKey() folds any key
 * with an uppercase letter to its snake_case form before dispatch.
 * configKeys() enumerates canonical names only.
 *
 * One prefixed family is process-global rather than per-scheduler:
 * the "profile.*" keys configure the continuous-profiling subsystem
 * (obs/profile.hh). They accept writes and round-trip reads through
 * the same entry points, but the @p config argument is bypassed —
 * applying the same value twice (e.g. --sched replayed onto several
 * schedulers) is idempotent.
 */

#ifndef LSCHED_THREADS_CONFIG_KEYS_HH
#define LSCHED_THREADS_CONFIG_KEYS_HH

#include <string>
#include <vector>

namespace lsched::threads
{

struct SchedulerConfig;

/**
 * Set the field @p key names on @p config from the string @p value.
 * Returns false — with a caller-facing message in @p error, when
 * non-null — on an unknown key or an unparsable value; @p config is
 * untouched on failure.
 */
bool applyConfigKey(SchedulerConfig &config, const std::string &key,
                    const std::string &value, std::string *error);

/**
 * Read the field @p key names from @p config, formatted so feeding it
 * back through applyConfigKey() reproduces the field. Returns false
 * on an unknown key.
 */
bool configKeyValue(const SchedulerConfig &config,
                    const std::string &key, std::string *out);

/** Every canonical key, in the order they are documented. */
const std::vector<std::string> &configKeys();

/**
 * Fold a legacy camelCase spelling to the canonical snake_case key
 * ("streamMaxPending" → "stream_max_pending"). Keys without an
 * uppercase letter come back unchanged, so canonical names pay one
 * scan and no allocation-shape change.
 */
std::string canonicalConfigKey(const std::string &key);

} // namespace lsched::threads

#endif // LSCHED_THREADS_CONFIG_KEYS_HH
