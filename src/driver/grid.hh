/**
 * @file
 * delta-sweep's settings: a SweepSpec plus the few settings only the
 * CLI acts on, read from the command line, `--set key=value` and
 * `key = value` grid files.
 *
 * All three spellings go through the one option table (options.hh),
 * so a grid file and the equivalent flags mean exactly the same
 * sweep.
 */

#ifndef TS_DRIVER_GRID_HH
#define TS_DRIVER_GRID_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "driver/options.hh"
#include "driver/sweep.hh"

namespace ts
{
namespace driver
{

/** Everything delta-sweep reads: the sweep plus its CLI settings. */
struct GridSettings : SweepSpec
{
    std::string out;         ///< aggregate report ("" = stdout)
    bool quiet = false;      ///< no progress or run summaries
    bool dryRun = false;     ///< expand + predict, no runs

    /** progress starts at the command-line default, auto. */
    GridSettings();

    /**
     * The sweep these settings describe: empty configs resolve to
     * static,delta, and quiet turns progress off.
     */
    SweepSpec spec() const;
};

/** Split a comma-separated list, trimming surrounding whitespace and
 *  dropping empty entries. */
std::vector<std::string> splitList(const std::string& list);

/** Print every key of the option table in grid-file form, with the
 *  values it accepts and what it does (`--list-grid-keys`). */
void printGridKeys(std::ostream& os);

/** Read a `key = value` grid file ('#' comments, blank lines ok). */
void loadGridFile(const std::string& path, GridSettings& grid);

/**
 * Parse a delta-sweep command line in order, later settings winning:
 * every table key as `--key V`, plus `--grid FILE`, `--set KEY=VALUE`,
 * and `--list-grid-keys` / `--help`, which print and exit 0.  Fatal
 * on anything else.  Applies the log level.
 */
GridSettings parseSweepCommandLine(int argc, char** argv);

} // namespace driver
} // namespace ts

#endif // TS_DRIVER_GRID_HH
