/**
 * @file
 * Fig. 2: speedup of a single big core at 1.9/1.3/0.8 GHz over a
 * single little core at 1.3 GHz for the SPEC-like kernel suite.
 *
 * Expected shape (Section III-A): big\@1.3 always faster than
 * little\@1.3 (up to ~4.5x for the cache-sensitive kernels whose
 * working set fits the 2 MB big L2 but not the 512 KB little L2);
 * a few low-ILP kernels are slower on the big core at 0.8 GHz.
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
    ArgParser args("bench_fig02_spec_speedup",
                   "Fig. 2: SPEC speedup, big vs little core");
    args.addString("csv", "", "mirror rows into this CSV file");
    args.parse(argc, argv);

    std::unique_ptr<CsvWriter> csv = openCsvOrExit(args);
    if (csv) {
        csv->header({"kernel", "big_1.9GHz", "big_1.3GHz",
                     "big_0.8GHz"});
    }

    // Per kernel: the little@1.3 reference, then the three big points.
    const std::pair<CoreType, FreqKHz> runs[] = {
        {CoreType::little, 1300000}, {CoreType::big, 1900000},
        {CoreType::big, 1300000}, {CoreType::big, 800000}};
    const auto kernels = specSuite();
    std::vector<Tick> runtimes(kernels.size() * 4);
    forEachCell(runtimes.size(), [&](std::size_t cell) {
        const auto &[type, freq] = runs[cell % 4];
        runtimes[cell] =
            Experiment().runKernel(kernels[cell / 4], type, freq).runtime;
    });

    std::printf("%s\n",
                (padRight("kernel", 14) + padLeft("big@1.9", 10) +
                 padLeft("big@1.3", 10) + padLeft("big@0.8", 10))
                    .c_str());
    std::puts("  (speedup over little@1.3GHz; one core, fixed freq)");

    for (std::size_t k = 0; k < kernels.size(); ++k) {
        const SpecKernel &kernel = kernels[k];
        const Tick *runtime = &runtimes[k * 4];
        double speedups[3];
        for (int i = 0; i < 3; ++i) {
            speedups[i] = static_cast<double>(runtime[0]) /
                          static_cast<double>(runtime[i + 1]);
        }
        std::printf("%s%10.2f%10.2f%10.2f\n",
                    padRight(kernel.name, 14).c_str(), speedups[0],
                    speedups[1], speedups[2]);
        if (csv) {
            csv->beginRow();
            csv->cell(kernel.name);
            csv->cell(speedups[0]);
            csv->cell(speedups[1]);
            csv->cell(speedups[2]);
            csv->endRow();
        }
    }
    return 0;
}
