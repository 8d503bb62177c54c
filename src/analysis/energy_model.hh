/**
 * @file
 * Analytical energy model: event counts from a run's statistics times
 * per-event energy constants (generic 28nm-class numbers; documented
 * substitution, DESIGN.md §4).  Complements the Tab-3 area model: the
 * interesting quantity is the *relative* energy of Delta vs the
 * static baseline — multicast removes DRAM fetches (the dominant
 * per-event cost), and pipelining removes memory round trips.
 */

#ifndef TS_ANALYSIS_ENERGY_MODEL_HH
#define TS_ANALYSIS_ENERGY_MODEL_HH

#include <string>
#include <vector>

#include "sim/stats.hh"

namespace ts
{

/** One row of the energy breakdown. */
struct EnergyEntry
{
    std::string name;
    double events = 0;
    double nanojoules = 0;
};

/** Energy breakdown of one run. */
struct EnergyReport
{
    std::vector<EnergyEntry> entries;

    double totalNanojoules() const;
};

/**
 * Compute the energy breakdown from a run's statistics dump
 * (the StatSet returned by Delta::run()).
 *
 * @param stats run statistics.
 * @param lanes lane count of the configuration that produced them.
 */
EnergyReport computeEnergy(const StatSet& stats, std::uint32_t lanes);

} // namespace ts

#endif // TS_ANALYSIS_ENERGY_MODEL_HH
