/**
 * @file
 * delta-sweep: the single CLI entry point for running grids of
 * simulations on a host thread pool (src/driver/sweep.hh), either
 * directly or against a content-addressed run cache.
 *
 * A grid is the cross product workloads x configs x lanes x seeds x
 * scales.
 * Each point runs in full isolation; results aggregate
 * deterministically (bit-identical between -j 1 and -j N, and between
 * cold and warm cache passes).
 *
 * Modes:
 *   (default)         expand the grid and run it locally
 *   --dry-run         print each point's tag, cache key, and
 *                     predicted hit/miss; execute nothing
 *
 * Every option comes from the one option table (driver/options.hh):
 * `--help` lists them as flags, `--list-grid-keys` as grid-file keys.
 *
 * Per-run StatSets land in --bench-json DIR as `<tag>.json` in the
 * wrapper shape `tools/delta-report --baseline` ingests.  Exit code:
 * 0 when every run completed and passed its check, 1 otherwise, 2 on
 * usage errors.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "cache/run_cache.hh"
#include "driver/grid.hh"
#include "sim/logging.hh"

int
main(int argc, char** argv)
{
    using namespace ts;

    try {
        const driver::GridSettings grid =
            driver::parseSweepCommandLine(argc, argv);
        driver::SweepSpec spec = grid.spec();

        if (grid.dryRun) {
            driver::Sweep sweep(spec);
            std::unique_ptr<cache::RunCache> cache;
            if (!spec.cacheDir.empty())
                cache = std::make_unique<cache::RunCache>(
                    cache::RunCacheConfig{spec.cacheDir,
                                          spec.cacheCapBytes});
            const std::string& fp = cache::RunCache::codeFingerprint();
            std::size_t hits = 0;
            for (const driver::RunPoint& p : sweep.points()) {
                const std::string key = cache::RunCache::keyFor(
                    fp, driver::canonicalCell(spec, p));
                const bool hit = cache && cache->contains(key);
                hits += hit ? 1 : 0;
                std::printf("%-40s %s %s\n", p.tag().c_str(),
                            key.c_str(), hit ? "hit" : "miss");
            }
            if (!grid.quiet)
                std::fprintf(stderr,
                             "delta-sweep: dry run: %zu points, "
                             "%zu predicted hits, %zu misses\n",
                             sweep.points().size(), hits,
                             sweep.points().size() - hits);
            return 0;
        }

        driver::Sweep sweep(std::move(spec));
        if (!grid.quiet) {
            const driver::SweepSpec& s = sweep.spec();
            const std::string jobs =
                grid.jobs > 0 ? std::to_string(grid.jobs) : "auto";
            std::fprintf(stderr,
                         "delta-sweep: %zu runs (%zu workloads x %zu "
                         "configs x %zu lanes x %zu seeds x %zu "
                         "scales), -j %s\n",
                         sweep.points().size(), s.workloads.size(),
                         s.configs.size(), s.laneCounts.size(),
                         s.seeds.size(), s.scales.size(), jobs.c_str());
        }
        const driver::SweepReport report = sweep.run();

        if (!report.spec.cacheDir.empty())
            std::fprintf(stderr,
                         "delta-sweep: cache: %llu hits, %llu "
                         "misses\n",
                         static_cast<unsigned long long>(
                             report.cacheHits),
                         static_cast<unsigned long long>(
                             report.cacheMisses));

        if (!grid.out.empty()) {
            std::ofstream os(grid.out);
            if (!os)
                fatal("cannot write report '", grid.out, "'");
            report.writeJson(os);
            std::fprintf(stderr, "delta-sweep: report written to %s\n",
                         grid.out.c_str());
        } else {
            report.writeJson(std::cout);
        }

        const std::size_t bad = report.failures();
        if (bad > 0) {
            std::fprintf(stderr,
                         "delta-sweep: %zu of %zu runs failed:\n",
                         bad, report.runs.size());
            for (const driver::RunOutcome& r : report.runs) {
                if (!r.ok())
                    std::fprintf(
                        stderr, "  %-32s %s\n",
                        r.point.tag().c_str(),
                        r.failed ? r.error.c_str() : "check failed");
            }
            return 1;
        }
        return 0;
    } catch (const FatalError& e) {
        std::cerr << "delta-sweep: " << e.what() << "\n";
        return 2;
    }
}
