/**
 * @file
 * Fig. 7: performance (latency or FPS) of the seven restricted core
 * configurations, relative to the L4+B4 baseline, for all apps.
 *
 * Expected shape (Section V-C): little-only configurations degrade
 * some apps severely; adding a single big core recovers most of the
 * interactivity; angry_bird and video_player barely care.
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
    ArgParser args("bench_fig07_core_configs_perf",
                   "Fig. 7: performance with core combinations");
    args.addString("csv", "", "mirror rows into this CSV file");
    args.parse(argc, argv);

    std::unique_ptr<CsvWriter> csv = openCsvOrExit(args);
    if (csv) {
        csv->header({"app", "config", "perf_value",
                     "perf_change_pct", "metric"});
    }

    const auto configs = standardCoreConfigs();
    const auto apps = allApps();

    // The last entry of standardCoreConfigs is the L4+B4 baseline.
    std::vector<ExperimentConfig> grid;
    for (const CoreConfig &cc : configs) {
        grid.emplace_back();
        grid.back().coreConfig = cc;
        grid.back().label = cc.label;
    }
    const auto by_config = runGrid(grid, apps);
    const auto &baseline = by_config.back();

    std::string header = padRight("app", 18);
    for (const CoreConfig &cc : configs)
        header += padLeft(cc.label, 9);
    std::printf("%s\n", header.c_str());
    std::puts("  (performance change vs L4+B4, %; latency apps: "
              "negative = slower)");

    for (std::size_t a = 0; a < apps.size(); ++a) {
        std::string line = padRight(apps[a].name, 18);
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const AppRunResult &r = by_config[c][a];
            const AppRunResult &b = baseline[a];
            // For latency, lower is better: report change in
            // "goodness" so the sign is comparable across metrics.
            double change;
            if (apps[a].metric == AppMetric::latency) {
                change = -pctChange(
                    static_cast<double>(r.latency),
                    static_cast<double>(b.latency));
            } else {
                change = pctChange(r.avgFps, b.avgFps);
            }
            line += padLeft(format("%.1f", change), 9);
            if (csv) {
                csv->beginRow();
                csv->cell(apps[a].name);
                csv->cell(configs[c].label);
                csv->cell(r.performanceValue());
                csv->cell(change);
                csv->cell(std::string(appMetricName(apps[a].metric)));
                csv->endRow();
            }
        }
        std::printf("%s\n", line.c_str());
    }
    return 0;
}
