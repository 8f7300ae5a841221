/**
 * @file
 * Fig. 11: power saving of the eight governor/HMP parameter
 * configurations relative to the default system, averaged over all
 * twelve apps, with the min-max range across apps.
 *
 * Expected shape (Section VI-C): the governor sampling interval is
 * the most impactful knob (~2% average saving at 60 ms, up to ~10%
 * for bbench); the aggressive HMP setting mostly costs power; the
 * history-weight changes barely matter.
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
    ArgParser args("bench_fig11_param_power",
                   "Fig. 11: power saving of 8 governor/HMP configs");
    args.addString("csv", "", "mirror rows into this CSV file");
    args.parse(argc, argv);

    std::unique_ptr<CsvWriter> csv = openCsvOrExit(args);
    if (csv) {
        csv->header({"config", "app", "power_mw",
                     "power_saving_pct"});
    }

    const auto apps = allApps();
    const auto configs = sweepConfigs();
    const auto grid = runGrid(configs, apps);
    const auto &baseline = grid[0];

    std::printf("%s\n",
                (padRight("config", 20) + padLeft("avg %", 9) +
                 padLeft("min %", 9) + padLeft("max %", 9))
                    .c_str());
    std::puts("  (power saving vs baseline across the 12 apps)");

    for (std::size_t c = 1; c < configs.size(); ++c) {
        const std::string &label = configs[c].label;
        const auto &results = grid[c];
        double sum = 0.0, mn = 1e9, mx = -1e9;
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const double saving = -pctChange(results[a].avgPowerMw,
                                             baseline[a].avgPowerMw);
            sum += saving;
            mn = std::min(mn, saving);
            mx = std::max(mx, saving);
            if (csv) {
                csv->beginRow();
                csv->cell(label);
                csv->cell(apps[a].name);
                csv->cell(results[a].avgPowerMw);
                csv->cell(saving);
                csv->endRow();
            }
        }
        std::printf("%s%9.2f%9.2f%9.2f\n",
                    padRight(label, 20).c_str(),
                    sum / static_cast<double>(apps.size()), mn, mx);
    }
    return 0;
}
