/**
 * @file
 * RunOptions: the one typed description of "how to run a simulation"
 * shared by every binary in the tree (benches, tools, examples).
 *
 * Design rule: **nothing reads the environment.**  Binaries parse
 * the shared command-line flags, and those flags are the only way to
 * set these options; no std::getenv() call exists in the tree.
 *
 * Every option is declared once, in the key table behind
 * optionKeys(): its key, accepted values, help text, and setter.
 * `--key V` on any command line, `--set key=V` and `key = V` in a
 * delta-sweep grid file all parse through that table, and every help
 * listing (optionsHelp(), delta-sweep's usage and --list-grid-keys)
 * is generated from it.  Keys marked sweepOnly (the grid axes and
 * delta-sweep's own outputs) are taken by delta-sweep only.
 *
 * parseCommandLine() erases the flags it consumed from argv, so
 * google-benchmark binaries can hand the remainder to
 * benchmark::Initialize().  In strict mode any leftover option is
 * fatal, listing the valid flags — tools use that.
 */

#ifndef TS_DRIVER_OPTIONS_HH
#define TS_DRIVER_OPTIONS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "accel/delta.hh"
#include "workloads/workload.hh"

namespace ts
{
namespace driver
{

/** Everything a single simulated run needs from the outside world. */
struct RunOptions
{
    /** Workloads this process operates on (the whole suite unless
     *  narrowed by --workloads). */
    std::vector<Wk> workloads = allWorkloads();

    double scale = 1.0;      ///< problem-size multiplier (> 0)
    std::uint64_t seed = 7;  ///< base RNG seed
    int logLevel = 1;        ///< stderr verbosity (0|1|2)

    std::string tracePath;     ///< Perfetto trace out ("" = off)
    std::string statsJsonPath; ///< flat StatSet dump ("" = off)
    std::string benchJsonDir;  ///< per-run wrapper dumps ("" = off)

    /** Disable the activity-driven simulation core and tick every
     *  component every cycle (the naive reference mode).  Results are
     *  bit-identical either way; this exists for differential testing
     *  and host-performance comparison. */
    bool noFastForward = false;

    /** NoC work stealing between lane task units
     *  (none|steal-one|steal-half).  Behaviour-relevant: participates
     *  in canonicalConfig / cache keys.  --steal P. */
    StealPolicy steal = StealPolicy::None;

    /** Scheduling policy override
     *  (static|dyncount|workaware|spatial); only applied when
     *  schedSet (presets keep their own policy otherwise).
     *  Behaviour-relevant: participates in canonicalConfig / cache
     *  keys.  --sched P. */
    SchedPolicy sched = SchedPolicy::WorkAware;
    bool schedSet = false; ///< --sched was given

    /** Host worker threads for sweep-style drivers (0 = pick
     *  hardware concurrency at use site). */
    unsigned jobs = 0;

    /**
     * Progress/ETA lines on stderr for sweep-style drivers:
     * "auto" (default) emits them only when stderr is a TTY,
     * "always" forces them (CI logs), "never" suppresses them.
     * --progress[=]VALUE.
     */
    std::string progress = "auto";

    /** Timeline sampling interval in simulated cycles (0 = off).
     *  --timeline N. */
    Tick timelineInterval = 0;

    /** Timeline probe-group subset ("lanes,ready,noc,dram"; empty =
     *  all).  --timeline-series LIST. */
    std::string timelineSeries;

    /** Attribute host wall-ns per component class and simulator
     *  phase (sim.host.profile.*).  --host-profile. */
    bool hostProfile = false;

    /** Flight-recorder ring capacity in records (0 = off).
     *  --flight-recorder N. */
    std::size_t flightRecorder = 0;

    /**
     * Resolve the progress setting against a TTY check of stderr:
     * "always" is true, "never" is false, "auto" is isatty(stderr).
     */
    bool progressEnabled() const;

    /** Suite knobs in the shape the workload factories expect. */
    SuiteParams suiteParams() const;

    /**
     * Apply these options to an accelerator config: the one place a
     * run-wide override meets a preset (runOne and every sweep point
     * go through it).  Sets cfg.statsJsonPath, and when tracing is
     * requested and cfg has no tracer yet installs a per-instance
     * trace path (the second and later accelerator instances in one
     * process get a ".N" suffix before the extension, so traces never
     * overwrite each other).  steal, timelineInterval and
     * flightRecorder fill only what cfg leaves off; sched replaces
     * cfg.policy when schedSet.  timelineSeries is carried only when
     * the resulting timeline is on, so a bare --timeline-series
     * leaves canonicalConfig (and every cache key) alone.
     */
    DeltaConfig applyTo(DeltaConfig cfg) const;

    /** Apply logLevel to the process-wide logger (setLogVerbosity). */
    void applyLogLevel() const;
};

struct GridSettings; // driver/grid.hh

/** One entry of the option table. */
struct OptionKey
{
    const char* key;    ///< `--key` on a command line, `key` in a file
    const char* values; ///< accepted values (help and error text)
    const char* help;   ///< one-line meaning
    /** Takes no value on a command line (`--key` means 1) and 0|1
     *  in a file or after `--key=`. */
    bool isSwitch;
    /** A grid axis or delta-sweep output: parseCommandLine leaves
     *  it alone. */
    bool sweepOnly;
    /** Store @p value; false when it is malformed (the caller then
     *  fails naming the key and #values). */
    bool (*set)(const std::string& value, GridSettings& g);
};

/** The option table, in help order. */
const std::vector<OptionKey>& optionKeys();

/** Set option @p key to @p value (`--set` and grid files); fatal
 *  on a malformed value or an unknown key, listing the valid ones. */
void applyOptionKey(const std::string& key, const std::string& value,
                    GridSettings& g);

/**
 * When argv[i] names a table key (`--key`, `--key=V`, or `-j`),
 * apply it and its value to @p g, advance @p i past the value, and
 * return true.  Sweep-only keys count only when @p sweep is set.
 */
bool consumeOptionArg(int argc, char** argv, int& i, GridSettings& g,
                      bool sweep);

/**
 * The table rendered as help text: `--key <values>` per entry (or
 * `key = <values>` with @p fileForm), each followed by its help
 * line.  Sweep-only keys are listed only when @p sweep is set.
 */
std::string renderOptionKeys(bool sweep, bool fileForm);

/**
 * Parse the shared flags out of argv (argv[0] is preserved).
 * Consumed arguments are erased and argc updated; anything
 * unrecognized is left in place for the caller (google-benchmark
 * flags, positional arguments).  With @p strict set, any remaining
 * argument starting with '-' is fatal() listing the valid flags.
 * Starts from RunOptions{}: the flags are the only input.
 * `--help` prints optionsHelp() to stdout and exits 0 in strict
 * mode; in lenient mode it is left for the caller's own help path.
 */
RunOptions parseCommandLine(int& argc, char** argv,
                            bool strict = false);

/** One-screen reference for the shared flags (ends with '\n'). */
std::string optionsHelp();

/**
 * Parse a non-negative decimal integer into @p out.  With
 * @p allowUnit, one trailing K, M, or G (either case) multiplies by
 * 2^10, 2^20, or 2^30.  Returns false, leaving @p out untouched, on
 * anything but leading digits (so no sign or whitespace), trailing
 * characters, or a value or product that overflows 64 bits.  Every
 * unsigned option and list entry parses through this.
 */
bool parseUnsigned(const std::string& s, std::uint64_t& out,
                   bool allowUnit = false);

/** parseCommandLine(strict), but option errors print to stderr and
 *  exit(2) instead of throwing — for examples and small CLIs whose
 *  main() has no try/catch. */
RunOptions parseCommandLineOrExit(int& argc, char** argv,
                                  bool strict = true);

/**
 * Trace config for one accelerator instance: disabled when @p base
 * is empty; otherwise instance 0 gets @p base verbatim and instance
 * i > 0 gets ".i" inserted before the extension.  Instance numbers
 * come from a process-wide atomic counter, so serial benches that
 * construct many Deltas keep distinct trace files.  Sweep drivers
 * that need deterministic names bypass this and set
 * DeltaConfig::trace explicitly via traceConfigTagged().
 */
trace::TracerConfig nextTraceConfig(const std::string& base);

/** Deterministically named trace config: ".<tag>" before the
 *  extension of @p base; disabled when @p base is empty. */
trace::TracerConfig traceConfigTagged(const std::string& base,
                                      const std::string& tag);

} // namespace driver
} // namespace ts

#endif // TS_DRIVER_OPTIONS_HH
