/**
 * @file
 * Minimal command-line parsing for benches and examples.
 *
 * Supports --name=value, --name value, and boolean --name flags, plus
 * automatic --help generated from the registered options.
 *
 * Every Cli additionally understands the observability flags
 * --trace=<file> (Chrome trace-event JSON of the run) and
 * --metrics=<file> (metrics-registry dump; .json/.csv/text by
 * extension), plus the scheduler flags --placement=<policy>,
 * --backend=<backend>, and the generic --sched key=value[,key=value...]
 * which reaches every string-keyed scheduler config knob. Each group is
 * forwarded to the hook its library installs at static-initialization
 * time (setCliObsHook from lsched_obs, setCliSchedHook from
 * lsched_threads), so any binary linking the schedulers honours them
 * with no per-program code.
 */

#ifndef LSCHED_SUPPORT_CLI_HH
#define LSCHED_SUPPORT_CLI_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace lsched
{

/** Receiver for the built-in --trace/--metrics values. */
using CliObsHook = void (*)(const std::string &trace_path,
                            const std::string &metrics_path);

/**
 * Install the observability hook Cli::parse() calls when --trace or
 * --metrics was given. Registered by the obs library's static
 * initializer; a program that somehow lacks it fails fatally when the
 * flags are used rather than dropping them silently.
 */
void setCliObsHook(CliObsHook hook);

/** Receiver for the built-in --placement/--backend/--sched values. */
using CliSchedHook = void (*)(const std::string &placement,
                              const std::string &backend,
                              const std::string &sched);

/**
 * Install the scheduler-selection hook Cli::parse() calls when
 * --placement, --backend, or --sched was given, returning the hook
 * previously installed (so a test can capture and restore). Registered
 * by the scheduler library's static initializer; a program that lacks
 * it fails fatally when the flags are used rather than dropping them
 * silently.
 */
CliSchedHook setCliSchedHook(CliSchedHook hook);

/**
 * Receiver for the built-in --profile[=interval] value: "on" when the
 * flag was given bare, otherwise the text after '='.
 */
using CliProfileHook = void (*)(const std::string &value);

/**
 * Install the profiling hook Cli::parse() calls when --profile was
 * given, returning the previously installed hook (so a test can
 * capture and restore). Registered by the obs library's static
 * initializer; a program that lacks it fails fatally when the flag is
 * used rather than dropping it silently.
 */
CliProfileHook setCliProfileHook(CliProfileHook hook);

/** Declarative command-line parser. */
class Cli
{
  public:
    /** addInt() minimum meaning "no lower bound". */
    static constexpr std::int64_t kNoMinimum =
        std::numeric_limits<std::int64_t>::min();

    /** @param program short program name, @param blurb one-line help. */
    Cli(std::string program, std::string blurb);

    /**
     * Register an integer option with a default. parse() rejects a
     * value below @p min with a usage error (sizes and counts pass 1,
     * so 0 never reaches the program).
     */
    void addInt(const std::string &name, std::int64_t def,
                const std::string &help, std::int64_t min = kNoMinimum);
    /** Register a floating-point option with a default. */
    void addDouble(const std::string &name, double def,
                   const std::string &help);
    /** Register a string option with a default. */
    void addString(const std::string &name, const std::string &def,
                   const std::string &help);
    /** Register a boolean flag (default false). */
    void addFlag(const std::string &name, const std::string &help);

    /**
     * Parse argv. Prints help and exits(0) on --help; reports unknown
     * options, malformed or out-of-range values through usageError().
     */
    void parse(int argc, const char *const *argv);

    /**
     * Print @p message and a one-line usage hint to stderr, then
     * exit(1). For checks a program makes on parsed values that the
     * option table cannot express (a value from a fixed set, a power
     * of two, ...), so bad input always ends the same way.
     */
    [[noreturn]] void usageError(const std::string &message) const;

    /** Look up parsed values (fatal if the name was never added). */
    std::int64_t getInt(const std::string &name) const;
    double getDouble(const std::string &name) const;
    const std::string &getString(const std::string &name) const;
    bool getFlag(const std::string &name) const;

    /** The generated help text. */
    std::string helpText() const;

  private:
    /** OptStr takes an optional =value ("on" when given bare) and
     *  never consumes the next argv word. */
    enum class Kind { Int, Double, String, Flag, OptStr };

    struct Option
    {
        std::string name;
        Kind kind;
        std::string help;
        std::string value; // textual; parsed on get
        std::string def;
        std::int64_t min = kNoMinimum;
    };

    const Option &find(const std::string &name, Kind kind) const;
    Option *lookup(const std::string &name);

    std::string program_;
    std::string blurb_;
    std::vector<Option> options_;
};

} // namespace lsched

#endif // LSCHED_SUPPORT_CLI_HH
