#include "analysis/energy_model.hh"

namespace ts
{

namespace
{

// Per-event energy constants, generic 28nm-class (nJ/event).
constexpr double kDramLineNj = 6.0;     ///< 64B DRAM access
constexpr double kNocWordHopNj = 0.05;  ///< 64b link + router traversal
constexpr double kFiringNj = 0.010;     ///< one 64b fabric operation
constexpr double kSpmAccessNj = 0.020;  ///< 64b scratchpad access
constexpr double kTokenNj = 0.005;      ///< stream-engine token handling
constexpr double kLaneIdleNjPerCycle = 0.002; ///< clock/leakage per lane

/** Sum every lane statistic whose name contains @p needle. */
double
sumLaneStat(const StatSet& stats, const std::string& needle)
{
    double sum = 0;
    for (const auto& [name, value] : stats.matchPrefix("lane")) {
        if (name.find(needle) != std::string::npos)
            sum += value;
    }
    return sum;
}

} // namespace

double
EnergyReport::totalNanojoules() const
{
    double t = 0;
    for (const auto& e : entries)
        t += e.nanojoules;
    return t;
}

EnergyReport
computeEnergy(const StatSet& stats, std::uint32_t lanes)
{
    EnergyReport r;
    auto add = [&r](std::string name, double events, double njPer) {
        r.entries.push_back(
            EnergyEntry{std::move(name), events, events * njPer});
    };

    const double dramLines = stats.getOr("mem.linesRead", 0) +
                             stats.getOr("mem.linesWritten", 0);
    add("DRAM line accesses", dramLines, kDramLineNj);
    add("NoC word-hops", stats.getOr("noc.wordHops", 0),
        kNocWordHopNj);
    add("fabric firings", sumLaneStat(stats, ".fabric.firings"),
        kFiringNj);
    add("scratchpad accesses", sumLaneStat(stats, ".spm.accesses"),
        kSpmAccessNj);
    // Matches laneN.rdK.tokens and laneN.wrK.tokens (pipe token
    // counts are reported as ".pipeTokens" and excluded).
    add("stream tokens", sumLaneStat(stats, ".tokens"), kTokenNj);
    add("lane clock/leakage",
        stats.getOr("delta.cycles", 0) * lanes, kLaneIdleNjPerCycle);
    return r;
}

} // namespace ts
