#include "driver/grid.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "sim/logging.hh"

namespace ts
{
namespace driver
{

std::vector<std::string>
splitList(const std::string& list)
{
    std::vector<std::string> out;
    std::string cur;
    const auto flush = [&] {
        const auto b = cur.find_first_not_of(" \t");
        const auto e = cur.find_last_not_of(" \t");
        if (b != std::string::npos)
            out.push_back(cur.substr(b, e - b + 1));
        cur.clear();
    };
    for (const char c : list) {
        if (c == ',')
            flush();
        else
            cur += c;
    }
    flush();
    return out;
}

GridSettings::GridSettings()
{
    progress = "auto";
}

SweepSpec
GridSettings::spec() const
{
    SweepSpec s = *this;
    if (s.configs.empty())
        s.configs = sweepConfigsFromList("");
    if (quiet)
        s.progress = "never";
    return s;
}

void
printGridKeys(std::ostream& os)
{
    os << "grid keys: `key = value` in grid files, `key=value` with "
          "--set,\n`--key value` as flags (switches take no value as "
          "flags):\n"
       << renderOptionKeys(/*sweep=*/true, /*fileForm=*/true);
}

void
loadGridFile(const std::string& path, GridSettings& grid)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open grid file '", path, "'");
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        const auto b = line.find_first_not_of(" \t\r");
        if (b == std::string::npos)
            continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            fatal("grid file ", path, ":", lineno,
                  ": expected `key = value`, got '", line, "'");
        const auto trim = [](std::string s) {
            const auto tb = s.find_first_not_of(" \t\r");
            const auto te = s.find_last_not_of(" \t\r");
            return tb == std::string::npos
                       ? std::string()
                       : s.substr(tb, te - tb + 1);
        };
        applyOptionKey(trim(line.substr(0, eq)),
                       trim(line.substr(eq + 1)), grid);
    }
}

namespace
{

std::string
sweepUsage()
{
    return "usage: delta-sweep [options]\n"
           "  --grid FILE\n"
           "      apply a `key = value` grid file\n"
           "  --set KEY=VALUE\n"
           "      apply one grid-file setting inline\n"
           "  --list-grid-keys\n"
           "      print every key in grid-file form and exit\n"
           "options (later settings win):\n" +
           renderOptionKeys(/*sweep=*/true, /*fileForm=*/false);
}

} // namespace

GridSettings
parseSweepCommandLine(int argc, char** argv)
{
    GridSettings grid;
    for (int i = 1; i < argc; ++i) {
        if (consumeOptionArg(argc, argv, i, grid, /*sweep=*/true))
            continue;
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("option '", arg, "' requires a value");
            return argv[++i];
        };
        if (arg == "--grid") {
            loadGridFile(value(), grid);
        } else if (arg == "--set") {
            const std::string kv = value();
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0)
                fatal("--set expects KEY=VALUE, got '", kv, "'");
            applyOptionKey(kv.substr(0, eq), kv.substr(eq + 1), grid);
        } else if (arg == "--list-grid-keys") {
            printGridKeys(std::cout);
            std::exit(0);
        } else if (arg == "--help" || arg == "-h") {
            std::fputs(sweepUsage().c_str(), stdout);
            std::exit(0);
        } else {
            fatal("unknown option '", arg, "'\n", sweepUsage());
        }
    }
    grid.applyLogLevel();
    return grid;
}

} // namespace driver
} // namespace ts
