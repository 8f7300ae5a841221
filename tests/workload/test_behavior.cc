/**
 * @file
 * Tests for the thread behaviors: continuous budgets, vsync-paced
 * frame loops (with skips and scene pauses), burst injection, and
 * the duty-cycle microbenchmark behavior.
 */

#include <gtest/gtest.h>

#include "platform/perf_model.hh"
#include "platform/platform.hh"
#include "sched/hmp.hh"
#include "sim/simulation.hh"
#include "workload/behavior.hh"
#include "workload/microbench.hh"

using namespace biglittle;

namespace
{

class BehaviorTest : public ::testing::Test
{
  protected:
    Simulation sim;
    AsymmetricPlatform plat{sim, exynos5422Params()};
    HmpScheduler sched{sim, plat, baselineSchedParams()};

    void
    SetUp() override
    {
        plat.littleCluster().freqDomain().setFreqNow(1300000);
        plat.bigCluster().freqDomain().setFreqNow(1900000);
        sched.start();
    }

    static WorkClass
    pureCompute()
    {
        return WorkClass{0.8, 0.0, 64.0};
    }

    double
    littleRate()
    {
        return perf_model::instRate(plat.littleCluster().core(0),
                                    pureCompute());
    }
};

} // namespace

TEST_F(BehaviorTest, ContinuousCompletesBudget)
{
    Task &t = sched.createTask("t", pureCompute(), CoreId{0});
    Tick done_at = 0;
    ContinuousBehavior b(sim, t, Rng(1), 10e6,
                         [&](Tick at) { done_at = at; });
    b.start();
    sim.runFor(msToTicks(100));
    EXPECT_TRUE(b.complete());
    EXPECT_GT(done_at, 0u);
    EXPECT_EQ(b.completionTick(), done_at);
    EXPECT_NEAR(t.instructionsRetired(), 10e6, 1.0);
}

TEST_F(BehaviorTest, ContinuousCompletionTimeIsAnalytic)
{
    Task &t = sched.createTask("t", pureCompute(), CoreId{0});
    ContinuousBehavior b(sim, t, Rng(1), littleRate() * 0.5);
    b.start();
    sim.runFor(msToTicks(2000));
    ASSERT_TRUE(b.complete());
    EXPECT_NEAR(ticksToSeconds(b.completionTick()), 0.5, 0.01);
}

TEST_F(BehaviorTest, PeriodicProducesFramesAtVsyncRate)
{
    Task &t = sched.createTask("t", pureCompute(), CoreId{0});
    PeriodicSpec spec;
    spec.period = msToTicks(20);
    spec.instPerPeriod = littleRate() * 0.004; // 4 ms per frame
    spec.jitterSigma = 0.0;
    FrameStats stats;
    PeriodicBehavior b(sim, t, Rng(2), spec, &stats);
    b.start();
    sim.runFor(msToTicks(2000));
    // 50 Hz pacing with light frames: ~100 frames in 2 s.
    EXPECT_NEAR(static_cast<double>(b.framesDone()), 100.0, 2.0);
    EXPECT_NEAR(stats.averageFps(), 50.0, 1.0);
}

TEST_F(BehaviorTest, OverloadedPeriodicRunsBackToBack)
{
    Task &t = sched.createTask("t", pureCompute(), CoreId{0});
    PeriodicSpec spec;
    spec.period = msToTicks(10);
    spec.instPerPeriod = littleRate() * 0.025; // 25 ms per frame
    spec.jitterSigma = 0.0;
    FrameStats stats;
    PeriodicBehavior b(sim, t, Rng(2), spec, &stats);
    b.start();
    sim.runFor(msToTicks(1000));
    // Fully saturated: ~40 FPS equivalent of 25 ms frames.
    EXPECT_NEAR(stats.averageFps(), 40.0, 2.0);
}

TEST_F(BehaviorTest, ActiveProbabilitySkipsFrames)
{
    Task &t = sched.createTask("t", pureCompute(), CoreId{0});
    PeriodicSpec spec;
    spec.period = msToTicks(10);
    spec.instPerPeriod = littleRate() * 0.001;
    spec.activeProbability = 0.3;
    PeriodicBehavior b(sim, t, Rng(3), spec);
    b.start();
    sim.runFor(msToTicks(5000));
    // ~500 periods at p=0.3: ~150 frames.
    EXPECT_NEAR(static_cast<double>(b.framesDone()), 150.0, 30.0);
}

TEST_F(BehaviorTest, ScenePauseCreatesGaps)
{
    Task &t = sched.createTask("t", pureCompute(), CoreId{0});
    PeriodicSpec spec;
    spec.period = msToTicks(10);
    spec.instPerPeriod = littleRate() * 0.002;
    spec.jitterSigma = 0.0;
    spec.pauseCycle = msToTicks(100);
    spec.pauseLength = msToTicks(40);
    FrameStats stats;
    PeriodicBehavior b(sim, t, Rng(4), spec, &stats);
    b.start();
    sim.runFor(msToTicks(2000));
    // 40% of the time is paused: ~6 frames per 100 ms cycle.
    EXPECT_NEAR(static_cast<double>(b.framesDone()), 120.0, 15.0);
    // The pause shows up as a >= 40 ms frame interval.
    EXPECT_GT(stats.frameIntervalsMs().max(), 39.0);
}

TEST_F(BehaviorTest, BurstBehaviorRunsInjectedWork)
{
    Task &t = sched.createTask("t", pureCompute(), CoreId{0});
    BurstBehavior b(sim, t, Rng(5));
    int drains = 0;
    Tick last_drain = 0;
    b.setDrainListener([&](BurstBehavior &, Tick now) {
        ++drains;
        last_drain = now;
    });
    b.start();
    sim.runFor(msToTicks(10));
    EXPECT_EQ(drains, 0); // nothing injected yet
    b.injectBurst(1e6);
    sim.runFor(msToTicks(50));
    EXPECT_EQ(drains, 1);
    EXPECT_EQ(b.burstsDone(), 1u);
    b.injectBurst(1e6);
    sim.runFor(msToTicks(50));
    EXPECT_EQ(drains, 2);
    EXPECT_GT(last_drain, msToTicks(60));
}

TEST_F(BehaviorTest, BurstInjectedDuringChunkGapJoinsTheBacklog)
{
    Task &t = sched.createTask("t", pureCompute(), CoreId{0});
    const double chunk = littleRate() * 1e-4; // 0.1 ms of work
    BurstBehavior b(sim, t, Rng(9), chunk, msToTicks(2));
    int drains = 0;
    b.setDrainListener([&](BurstBehavior &, Tick) { ++drains; });
    b.start();
    b.injectBurst(3 * chunk);
    sim.runFor(msToTicks(1)); // first chunk done, its gap wake pending
    b.injectBurst(chunk);
    sim.runFor(msToTicks(19));
    // The pending wake carries the whole burst: one drain, all four
    // chunks retired, and no second wake left to fire on no backlog.
    EXPECT_EQ(drains, 1);
    EXPECT_EQ(b.burstsDone(), 1u);
    EXPECT_NEAR(t.instructionsRetired(), 4 * chunk, 1.0);
}

TEST_F(BehaviorTest, DutyCycleHoldsTargetUtilization)
{
    for (const double target : {0.25, 0.5, 0.9}) {
        Simulation sim2;
        AsymmetricPlatform plat2(sim2, exynos5422Params());
        plat2.littleCluster().freqDomain().setFreqNow(1300000);
        HmpScheduler sched2(sim2, plat2, baselineSchedParams());
        sched2.start();
        Task &t = sched2.createTask("duty", pureCompute(), CoreId{0});
        DutyCycleBehavior b(sim2, t, Rng(6), target);
        b.start();
        sim2.runFor(msToTicks(4000));
        plat2.sync();
        const double util =
            static_cast<double>(plat2.core(0).busyTicks()) /
            static_cast<double>(sim2.now());
        EXPECT_NEAR(util, target, 0.03) << "target " << target;
    }
}

TEST_F(BehaviorTest, DutyCycleAdaptsToFrequencyChange)
{
    Task &t = sched.createTask("duty", pureCompute(), CoreId{0});
    DutyCycleBehavior b(sim, t, Rng(7), 0.5);
    b.start();
    sim.runFor(msToTicks(1000));
    // Halve the clock: work chunks take twice as long, but the
    // pauses stretch proportionally and utilization stays at 50%.
    plat.littleCluster().freqDomain().setFreqNow(650000);
    plat.sync();
    const Tick busy_before = plat.core(0).busyTicks();
    const Tick t_before = sim.now();
    sim.runFor(msToTicks(3000));
    plat.sync();
    const double util =
        static_cast<double>(plat.core(0).busyTicks() - busy_before) /
        static_cast<double>(sim.now() - t_before);
    EXPECT_NEAR(util, 0.5, 0.03);
}

TEST_F(BehaviorTest, UtilizationMicrobenchWrapsDutyCycle)
{
    Simulation sim2;
    AsymmetricPlatform plat2(sim2, exynos5422Params());
    plat2.bigCluster().freqDomain().setFreqNow(1400000);
    HmpScheduler sched2(sim2, plat2, baselineSchedParams());
    sched2.start();
    UtilizationMicrobench bench(sim2, sched2, CoreId{5}, 0.35);
    EXPECT_DOUBLE_EQ(bench.targetUtilization(), 0.35);
    bench.start();
    sim2.runFor(msToTicks(3000));
    plat2.sync();
    EXPECT_EQ(bench.task().core()->id(), 5u); // pinned
    const double util =
        static_cast<double>(plat2.core(5).busyTicks()) /
        static_cast<double>(sim2.now());
    EXPECT_NEAR(util, 0.35, 0.03);
}

TEST_F(BehaviorTest, BehaviorDetachesClientOnDestruction)
{
    Task &t = sched.createTask("t", pureCompute(), CoreId{0});
    {
        BurstBehavior b(sim, t, Rng(8));
        EXPECT_EQ(t.client(), &b);
    }
    EXPECT_EQ(t.client(), nullptr);
}
