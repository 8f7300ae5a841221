/**
 * @file
 * Fig. 6: whole-system power vs CPU utilization, one core busy, for
 * a sweep of frequencies on each core type.
 *
 * Expected shape (Section III-B): power grows linearly in
 * utilization with a slope that steepens sharply with frequency, and
 * the big core covers a clearly higher power band than the little
 * core at every utilization level.
 */

#include <cstdio>

#include "base/argparse.hh"
#include "base/csv.hh"
#include "base/strutil.hh"
#include "bench_util.hh"
#include "core/experiment.hh"

using namespace biglittle;

namespace
{

void
sweepCoreType(CoreType type, const std::vector<FreqKHz> &freqs,
              Tick duration, CsvWriter *csv)
{
    // Cell f * 10 + u / 10 - 1 holds freqs[f] at u % utilization.
    std::vector<MicrobenchResult> cells(freqs.size() * 10);
    forEachCell(cells.size(), [&](std::size_t cell) {
        const int u = static_cast<int>(cell % 10 + 1) * 10;
        cells[cell] = Experiment().runMicrobench(
            type, freqs[cell / 10], u / 100.0, duration);
    });

    std::printf("\n%s core (power in mW by utilization %%)\n",
                coreTypeName(type));
    std::string header = padRight("freq", 10);
    for (int u = 10; u <= 100; u += 10)
        header += padLeft(format("%d%%", u), 7);
    std::printf("%s\n", header.c_str());

    for (std::size_t f = 0; f < freqs.size(); ++f) {
        const FreqKHz freq = freqs[f];
        std::string line = padRight(freqToString(freq), 10);
        for (int u = 10; u <= 100; u += 10) {
            const MicrobenchResult &r = cells[f * 10 + u / 10 - 1];
            line += padLeft(format("%.0f", r.avgPowerMw), 7);
            if (csv) {
                csv->beginRow();
                csv->cell(std::string(coreTypeName(type)));
                csv->cell(static_cast<std::uint64_t>(freq));
                csv->cell(static_cast<std::uint64_t>(u));
                csv->cell(r.avgPowerMw);
                csv->cell(r.achievedUtilization * 100.0);
                csv->endRow();
            }
        }
        std::printf("%s\n", line.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("bench_fig06_util_power",
                   "Fig. 6: power vs utilization by core/frequency");
    args.addString("csv", "", "mirror rows into this CSV file");
    args.addInt("duration-ms", 2000, "length of each point");
    args.parse(argc, argv);

    std::unique_ptr<CsvWriter> csv = openCsvOrExit(args);
    if (csv) {
        csv->header({"core_type", "freq_khz", "target_util_pct",
                     "power_mw", "achieved_util_pct"});
    }

    const Tick duration =
        msToTicks(static_cast<std::uint64_t>(args.getInt("duration-ms")));
    sweepCoreType(CoreType::little,
                  {500000, 700000, 900000, 1100000, 1300000}, duration,
                  csv.get());
    sweepCoreType(CoreType::big,
                  {800000, 1100000, 1400000, 1700000, 1900000}, duration,
                  csv.get());
    return 0;
}
