/**
 * @file
 * RaceDetector unit tests: conflict detection over same-(tick,
 * priority) batches, causal-ordering exemption, dedup/counting,
 * provenance, and the report format.
 */

#include <gtest/gtest.h>

#include "sim/abrace.hh"
#include "sim/simulation.hh"

using namespace biglittle;

namespace
{

/** Simulation with a detector attached for the fixture's lifetime. */
struct TrackedSim
{
    Simulation sim;
    RaceDetector race;

    TrackedSim() { sim.eventQueue().setRaceDetector(&race); }

    ~TrackedSim()
    {
        sim.eventQueue().setRaceDetector(nullptr);
    }

    void
    at(Tick when, const char *label, std::function<void()> fn,
       EventPriority prio = EventPriority::taskState)
    {
        sim.at(when, std::move(fn), prio, label);
    }

    void
    finish()
    {
        sim.runUntil(1000);
        race.finish();
    }
};

} // namespace

TEST(RaceDetector, WriteWriteConflictReported)
{
    TrackedSim t;
    t.at(10, "a", [&] { t.sim.noteWrite("comp", "field"); });
    t.at(10, "b", [&] { t.sim.noteWrite("comp", "field"); });
    t.finish();

    ASSERT_EQ(t.race.conflicts().size(), 1u);
    const RaceDetector::Conflict &c = t.race.conflicts()[0];
    EXPECT_EQ(c.eventA, "a");
    EXPECT_EQ(c.eventB, "b");
    EXPECT_EQ(c.cell, "comp/field");
    EXPECT_TRUE(c.writeA);
    EXPECT_TRUE(c.writeB);
    EXPECT_EQ(c.tick, 10u);
    EXPECT_EQ(c.key(), "a|b|comp/field");
}

TEST(RaceDetector, ReadWriteConflictReported)
{
    TrackedSim t;
    t.at(10, "reader", [&] { t.sim.noteRead("comp", "field"); });
    t.at(10, "writer", [&] { t.sim.noteWrite("comp", "field"); });
    t.finish();

    ASSERT_EQ(t.race.conflicts().size(), 1u);
    const RaceDetector::Conflict &c = t.race.conflicts()[0];
    EXPECT_FALSE(c.writeA);
    EXPECT_TRUE(c.writeB);
    EXPECT_NE(c.describe().find("read-write"), std::string::npos);
}

TEST(RaceDetector, ReadReadIsNotAConflict)
{
    TrackedSim t;
    t.at(10, "a", [&] { t.sim.noteRead("comp", "field"); });
    t.at(10, "b", [&] { t.sim.noteRead("comp", "field"); });
    t.finish();
    EXPECT_TRUE(t.race.conflicts().empty());
}

TEST(RaceDetector, DifferentCellsDoNotConflict)
{
    TrackedSim t;
    t.at(10, "a", [&] { t.sim.noteWrite("comp", "x"); });
    t.at(10, "b", [&] { t.sim.noteWrite("comp", "y"); });
    t.finish();
    EXPECT_TRUE(t.race.conflicts().empty());
}

TEST(RaceDetector, DifferentTickOrPriorityDoNotConflict)
{
    TrackedSim t;
    t.at(10, "a", [&] { t.sim.noteWrite("comp", "f"); });
    t.at(11, "b", [&] { t.sim.noteWrite("comp", "f"); });
    t.at(20, "c", [&] { t.sim.noteWrite("comp", "f"); },
         EventPriority::taskState);
    t.at(20, "d", [&] { t.sim.noteWrite("comp", "f"); },
         EventPriority::governor);
    t.finish();
    EXPECT_TRUE(t.race.conflicts().empty());
}

TEST(RaceDetector, CausallyOrderedEventsAreExempt)
{
    // a schedules b into its own batch: b is ordered after a, so
    // their shared cell is not contested.  c, scheduled up front, is
    // unordered with respect to both.
    TrackedSim t;
    t.at(10, "a", [&] {
        t.sim.noteWrite("comp", "f");
        t.at(10, "b", [&] { t.sim.noteWrite("comp", "f"); });
    });
    t.finish();
    EXPECT_TRUE(t.race.conflicts().empty());
}

TEST(RaceDetector, TransitiveCausalityIsExempt)
{
    TrackedSim t;
    t.at(10, "a", [&] {
        t.sim.noteWrite("comp", "f");
        t.at(10, "b", [&] {
            t.at(10, "c", [&] { t.sim.noteWrite("comp", "f"); });
        });
    });
    t.finish();
    EXPECT_TRUE(t.race.conflicts().empty());
}

TEST(RaceDetector, ScheduledChildStillConflictsWithUnrelatedPeer)
{
    TrackedSim t;
    t.at(10, "peer", [&] { t.sim.noteWrite("comp", "f"); });
    t.at(10, "a", [&] {
        t.at(10, "child", [&] { t.sim.noteWrite("comp", "f"); });
    });
    t.finish();
    // peer vs child are unordered (different parents).
    ASSERT_EQ(t.race.conflicts().size(), 1u);
    EXPECT_EQ(t.race.conflicts()[0].eventA, "peer");
    EXPECT_EQ(t.race.conflicts()[0].eventB, "child");
}

TEST(RaceDetector, DuplicateConflictsAreCountedOnce)
{
    TrackedSim t;
    for (Tick tick = 10; tick <= 30; tick += 10) {
        t.at(tick, "a", [&] { t.sim.noteWrite("comp", "f"); });
        t.at(tick, "b", [&] { t.sim.noteWrite("comp", "f"); });
    }
    t.finish();
    ASSERT_EQ(t.race.conflicts().size(), 1u);
    EXPECT_EQ(t.race.conflicts()[0].count, 3u);
    EXPECT_EQ(t.race.conflicts()[0].tick, 10u);
}

TEST(RaceDetector, ProvenanceNamesTheSchedulingEvent)
{
    TrackedSim t;
    t.at(10, "peer", [&] { t.sim.noteWrite("comp", "f"); });
    t.at(10, "parent", [&] {
        t.at(10, "child", [&] { t.sim.noteWrite("comp", "f"); });
    });
    t.finish();
    ASSERT_EQ(t.race.conflicts().size(), 1u);
    const RaceDetector::Conflict &c = t.race.conflicts()[0];
    EXPECT_NE(c.provenanceA.find("outside any event"),
              std::string::npos);
    EXPECT_NE(c.provenanceB.find("during 'parent'"),
              std::string::npos);
    const std::string report = t.race.report();
    EXPECT_NE(report.find("peer"), std::string::npos);
    EXPECT_NE(report.find("child"), std::string::npos);
    EXPECT_NE(report.find("comp/f"), std::string::npos);
    // Conflict keys are canonical: event names in sorted order.
    EXPECT_NE(report.find("child|peer|comp/f"), std::string::npos);
}

TEST(RaceDetector, AccessesOutsideEventsAreIgnored)
{
    TrackedSim t;
    t.sim.noteWrite("comp", "f"); // outside any handler
    t.at(10, "a", [&] { t.sim.noteWrite("comp", "f"); });
    t.finish();
    EXPECT_TRUE(t.race.conflicts().empty());
    EXPECT_EQ(t.race.eventsTracked(), 1u);
}

TEST(RaceDetector, WriteDominatesRead)
{
    TrackedSim t;
    t.at(10, "a", [&] {
        t.sim.noteRead("comp", "f");
        t.sim.noteWrite("comp", "f");
    });
    t.at(10, "b", [&] { t.sim.noteRead("comp", "f"); });
    t.finish();
    ASSERT_EQ(t.race.conflicts().size(), 1u);
    EXPECT_TRUE(t.race.conflicts()[0].writeA);
    EXPECT_FALSE(t.race.conflicts()[0].writeB);
}

TEST(RaceDetector, CleanRunReportIsEmpty)
{
    TrackedSim t;
    t.at(10, "a", [&] { t.sim.noteWrite("comp", "x"); });
    t.at(10, "b", [&] { t.sim.noteWrite("comp", "y"); });
    t.finish();
    EXPECT_EQ(t.race.report(), "");
    EXPECT_EQ(t.race.batchesAnalyzed(), 1u);
    EXPECT_EQ(t.race.eventsTracked(), 2u);
}

