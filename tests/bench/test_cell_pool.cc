/**
 * @file
 * Tests for the bench cell pool (bench/bench_util.hh): runGrid must
 * hand back exactly what one-at-a-time Experiment runs produce, in
 * declaration order, and grids that write or resume checkpoints must
 * stay on one worker.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "bench_util.hh"

using namespace biglittle;

namespace
{

/**
 * An FPS app cut to 1.5 s, so a 12-cell grid stays quick under
 * sanitizers; latency apps keep their cap and run their script out.
 */
AppSpec
shortApp(AppSpec app)
{
    if (app.metric == AppMetric::fps)
        app.duration = msToTicks(1500);
    return app;
}

/** Two latency and two FPS apps, interleaved. */
std::vector<AppSpec>
mixedApps()
{
    return {shortApp(pdfReaderApp()), shortApp(angryBirdApp()),
            shortApp(bbenchApp()), shortApp(eternityWarrior2App())};
}

/** Baseline, the 4-little condition and a fault-injection config. */
std::vector<ExperimentConfig>
threeConfigs()
{
    ExperimentConfig faulty;
    faulty.fault = scaledFaultParams(2.0, 7);
    faulty.label = "fault-x2";
    return {baselineConfig(), littleOnlyConfig(), faulty};
}

void
expectSameRun(const AppRunResult &got, const AppRunResult &want)
{
    EXPECT_EQ(got.app, want.app);
    EXPECT_EQ(got.configLabel, want.configLabel);
    EXPECT_EQ(got.latency, want.latency);
    EXPECT_EQ(got.avgFps, want.avgFps);
    EXPECT_EQ(got.frames, want.frames);
    EXPECT_EQ(got.energy.coreDynamicMj, want.energy.coreDynamicMj);
    EXPECT_EQ(got.energy.coreStaticMj, want.energy.coreStaticMj);
    EXPECT_EQ(got.energy.clusterStaticMj, want.energy.clusterStaticMj);
    EXPECT_EQ(got.energy.baseMj, want.energy.baseMj);
    EXPECT_EQ(got.faults.totalInjected(), want.faults.totalInjected());
    EXPECT_EQ(got.stateDigests, want.stateDigests);
}

} // namespace

TEST(CellPool, GridMatchesSequentialRunsInDeclarationOrder)
{
    const auto configs = threeConfigs();
    const auto apps = mixedApps();
    const auto grid = runGrid(configs, apps);
    // The same cells on four workers, however wide the host's default
    // pool is, so ThreadSanitizer always sees simulations side by side.
    std::vector<AppRunResult> wide(configs.size() * apps.size());
    forEachCell(
        wide.size(),
        [&](std::size_t cell) {
            wide[cell] = Experiment(configs[cell / apps.size()])
                             .runApp(apps[cell % apps.size()]);
        },
        4);

    ASSERT_EQ(grid.size(), configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        ASSERT_EQ(grid[c].size(), apps.size());
        for (std::size_t a = 0; a < apps.size(); ++a) {
            SCOPED_TRACE(configs[c].label + " / " + apps[a].name);
            const AppRunResult want =
                Experiment(configs[c]).runApp(apps[a]);
            expectSameRun(grid[c][a], want);
            expectSameRun(wide[c * apps.size() + a], want);
        }
    }
    // The fault config really injected, so that row is not a copy of
    // the baseline row.
    EXPECT_GT(grid[2][3].faults.totalInjected(), 0u);
}

TEST(CellPool, CheckpointGridRunsOnOneWorker)
{
    const std::string dir = ::testing::TempDir() + "bl_cell_pool_ckpt";
    ::mkdir(dir.c_str(), 0755);
    ExperimentConfig ckpt = baselineConfig();
    ckpt.snapshot.checkpointEvery = msToTicks(500);
    ckpt.snapshot.checkpointDir = dir;
    ExperimentConfig resume = baselineConfig();
    resume.snapshot.resumePath = dir + "/missing.ckpt";

    EXPECT_EQ(gridWorkers({baselineConfig(), ckpt}), 1u);
    EXPECT_EQ(gridWorkers({resume}), 1u);
    EXPECT_EQ(gridWorkers({baselineConfig(), littleOnlyConfig()}),
              poolWorkers());

    const auto apps = mixedApps();
    const auto grid = runGrid({ckpt}, apps);
    ASSERT_EQ(grid.size(), 1u);
    for (std::size_t a = 0; a < apps.size(); ++a) {
        SCOPED_TRACE(apps[a].name);
        EXPECT_GT(grid[0][a].checkpoints.count, 0u);
        expectSameRun(grid[0][a], Experiment(ckpt).runApp(apps[a]));
    }
}

TEST(CellPool, OneWorkerRunsEveryCellInlineInOrder)
{
    std::vector<std::size_t> order;
    std::vector<std::thread::id> threads;
    forEachCell(
        5,
        [&](std::size_t i) {
            order.push_back(i);
            threads.push_back(std::this_thread::get_id());
        },
        1);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
    for (const std::thread::id id : threads)
        EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(CellPool, EveryCellRunsExactlyOnce)
{
    std::vector<int> visits(37, 0);
    forEachCell(visits.size(), [&](std::size_t i) { ++visits[i]; }, 4);
    EXPECT_EQ(visits, std::vector<int>(37, 1));

    bool ran = false;
    forEachCell(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(CellPool, CellExceptionIsRethrownAfterTheJoin)
{
    std::vector<int> visits(64, 0);
    EXPECT_THROW(forEachCell(
                     visits.size(),
                     [&](std::size_t i) {
                         ++visits[i];
                         if (i == 5)
                             throw std::runtime_error("cell 5");
                     },
                     4),
                 std::runtime_error);
    EXPECT_EQ(visits[5], 1);
    for (const int v : visits)
        EXPECT_LE(v, 1);
}

TEST(CellPool, OneCellGrid)
{
    const AppSpec app = shortApp(youtubeApp());
    const auto grid = runGrid({littleOnlyConfig()}, {app});
    ASSERT_EQ(grid.size(), 1u);
    ASSERT_EQ(grid[0].size(), 1u);
    expectSameRun(grid[0][0], Experiment(littleOnlyConfig()).runApp(app));
    expectSameRun(runApps(littleOnlyConfig(), {app})[0], grid[0][0]);
}
