/**
 * @file
 * Fig. 12: latency change of the eight governor/HMP parameter
 * configurations relative to the default system, for the seven
 * latency-oriented apps (average and min-max range).
 *
 * Expected shape (Section VI-C): longer sampling intervals trade
 * power for latency; the conservative HMP setting can hurt the worst
 * case app; most other knobs have little average effect.
 */

#include <cstdio>

#include "base/argparse.hh"
#include "base/csv.hh"
#include "base/strutil.hh"
#include "bench_util.hh"

using namespace biglittle;

int
main(int argc, char **argv)
{
    ArgParser args("bench_fig12_param_latency",
                   "Fig. 12: latency change of 8 configs");
    args.addString("csv", "", "mirror rows into this CSV file");
    args.parse(argc, argv);

    std::unique_ptr<CsvWriter> csv = openCsvOrExit(args);
    if (csv) {
        csv->header({"config", "app", "latency_ms",
                     "latency_increase_pct"});
    }

    const auto apps = latencyApps();
    const auto configs = sweepConfigs();
    const auto grid = runGrid(configs, apps);
    const auto &baseline = grid[0];

    std::printf("%s\n",
                (padRight("config", 20) + padLeft("avg %", 9) +
                 padLeft("min %", 9) + padLeft("max %", 9))
                    .c_str());
    std::puts("  (latency increase vs baseline; positive = slower)");

    for (std::size_t c = 1; c < configs.size(); ++c) {
        const std::string &label = configs[c].label;
        const auto &results = grid[c];
        double sum = 0.0, mn = 1e9, mx = -1e9;
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const double change = pctChange(
                static_cast<double>(results[a].latency),
                static_cast<double>(baseline[a].latency));
            sum += change;
            mn = std::min(mn, change);
            mx = std::max(mx, change);
            if (csv) {
                csv->beginRow();
                csv->cell(label);
                csv->cell(apps[a].name);
                csv->cell(static_cast<double>(results[a].latency) /
                          static_cast<double>(oneMs));
                csv->cell(change);
                csv->endRow();
            }
        }
        std::printf("%s%9.2f%9.2f%9.2f\n",
                    padRight(label, 20).c_str(),
                    sum / static_cast<double>(apps.size()), mn, mx);
    }
    return 0;
}
