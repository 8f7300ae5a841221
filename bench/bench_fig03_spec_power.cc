/**
 * @file
 * Fig. 3: whole-system power (mW) while running each SPEC-like
 * kernel on one core, for little\@1.3 GHz and big\@{0.8, 1.3, 1.9}.
 *
 * Expected shape (Section III-A): at the shared 1.3 GHz point the
 * big core draws ~2.3x the little-core system power; even big\@0.8
 * draws ~1.5x little\@1.3; spread across kernels is much smaller
 * than the performance spread.
 */

#include <cstdio>

#include "base/argparse.hh"
#include "base/csv.hh"
#include "base/strutil.hh"
#include "bench_util.hh"
#include "core/experiment.hh"
#include "workload/spec.hh"

using namespace biglittle;

int
main(int argc, char **argv)
{
    ArgParser args("bench_fig03_spec_power",
                   "Fig. 3: SPEC whole-system power by core/freq");
    args.addString("csv", "", "mirror rows into this CSV file");
    args.parse(argc, argv);

    std::unique_ptr<CsvWriter> csv = openCsvOrExit(args);
    if (csv) {
        csv->header({"kernel", "little_1.3GHz_mw", "big_0.8GHz_mw",
                     "big_1.3GHz_mw", "big_1.9GHz_mw"});
    }

    const std::pair<CoreType, FreqKHz> runs[] = {
        {CoreType::little, 1300000}, {CoreType::big, 800000},
        {CoreType::big, 1300000}, {CoreType::big, 1900000}};
    const auto kernels = specSuite();
    std::vector<double> power(kernels.size() * 4);
    forEachCell(power.size(), [&](std::size_t cell) {
        const auto &[type, freq] = runs[cell % 4];
        power[cell] =
            Experiment().runKernel(kernels[cell / 4], type, freq).avgPowerMw;
    });

    std::printf("%s\n", (padRight("kernel", 14) +
                         padLeft("little@1.3", 12) +
                         padLeft("big@0.8", 10) +
                         padLeft("big@1.3", 10) +
                         padLeft("big@1.9", 10))
                            .c_str());
    std::puts("  (average whole-system power in mW)");

    for (std::size_t k = 0; k < kernels.size(); ++k) {
        const SpecKernel &kernel = kernels[k];
        const double little = power[k * 4];
        const double big08 = power[k * 4 + 1];
        const double big13 = power[k * 4 + 2];
        const double big19 = power[k * 4 + 3];
        std::printf("%s%12.0f%10.0f%10.0f%10.0f\n",
                    padRight(kernel.name, 14).c_str(), little, big08,
                    big13, big19);
        if (csv) {
            csv->beginRow();
            csv->cell(kernel.name);
            csv->cell(little);
            csv->cell(big08);
            csv->cell(big13);
            csv->cell(big19);
            csv->endRow();
        }
    }
    return 0;
}
