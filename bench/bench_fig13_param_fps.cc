/**
 * @file
 * Fig. 13: average-FPS change of the eight governor/HMP parameter
 * configurations relative to the default system, for the five
 * FPS-oriented apps (average and min-max range).
 *
 * Expected shape (Section VI-C): average FPS is largely insensitive
 * to the knobs; only the longest sampling interval shows visible
 * drops for the demanding game.
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
    ArgParser args("bench_fig13_param_fps",
                   "Fig. 13: FPS change of 8 configs");
    args.addString("csv", "", "mirror rows into this CSV file");
    addRaceOptions(args);
    args.parse(argc, argv);

    std::unique_ptr<CsvWriter> csv = openCsvOrExit(args);
    if (csv) {
        csv->header({"config", "app", "avg_fps",
                     "fps_change_pct"});
    }

    RaceGate gate(args);
    const auto apps = fpsApps();
    std::vector<ExperimentConfig> configs = sweepConfigs();
    for (ExperimentConfig &cfg : configs)
        applyRaceOptions(args, cfg);
    const auto grid = runGrid(configs, apps);
    for (std::size_t c = 0; c < configs.size(); ++c)
        gate.check(configs[c], apps, grid[c]);
    const auto &baseline = grid[0];

    std::printf("%s\n",
                (padRight("config", 20) + padLeft("avg %", 9) +
                 padLeft("min %", 9) + padLeft("max %", 9))
                    .c_str());
    std::puts("  (average-FPS change vs baseline; negative = worse)");

    for (std::size_t c = 1; c < configs.size(); ++c) {
        const std::string &label = configs[c].label;
        const auto &results = grid[c];
        double sum = 0.0, mn = 1e9, mx = -1e9;
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const double change =
                pctChange(results[a].avgFps, baseline[a].avgFps);
            sum += change;
            mn = std::min(mn, change);
            mx = std::max(mx, change);
            if (csv) {
                csv->beginRow();
                csv->cell(label);
                csv->cell(apps[a].name);
                csv->cell(results[a].avgFps);
                csv->cell(change);
                csv->endRow();
            }
        }
        std::printf("%s%9.2f%9.2f%9.2f\n",
                    padRight(label, 20).c_str(),
                    sum / static_cast<double>(apps.size()), mn, mx);
    }
    return gate.exitCode();
}
