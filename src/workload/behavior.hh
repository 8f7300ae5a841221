/**
 * @file
 * Thread behaviors: the building blocks of synthetic applications.
 *
 * A Behavior owns the phase machine of one task.  Four archetypes
 * cover the mobile workloads the paper studies:
 *
 *  - ContinuousBehavior: back-to-back compute until a budget is
 *    retired (SPEC kernels, the encoder's hot thread).
 *  - PeriodicBehavior: a vsync-paced frame loop with log-normal
 *    per-frame cost (render/logic/audio threads of games and video).
 *  - BurstBehavior: runs bursts injected by a coordinator (UI and
 *    worker threads of the latency-oriented apps).
 *  - DutyCycleBehavior: holds an exact target utilization by
 *    adaptively pausing (the paper's microbenchmark).
 */

#ifndef BIGLITTLE_WORKLOAD_BEHAVIOR_HH
#define BIGLITTLE_WORKLOAD_BEHAVIOR_HH

#include <functional>
#include <string>

#include "base/random.hh"
#include "base/types.hh"
#include "sched/task.hh"
#include "sim/simulation.hh"
#include "workload/frame_stats.hh"

namespace biglittle
{

class Serializer;

/** Base class binding a task to its phase machine. */
class Behavior : public TaskClient
{
  public:
    /**
     * @param wake_suffix appended to the task name to label the
     *        behavior's self-scheduled wake event (".frame", ...)
     */
    Behavior(Simulation &sim, Task &task, Rng rng,
             const char *wake_suffix);

    ~Behavior() override;

    Behavior(const Behavior &) = delete;
    Behavior &operator=(const Behavior &) = delete;

    /** Begin generating work. */
    virtual void start() = 0;

    /**
     * Write the phase machine's mutable state (private rng plus the
     * subclass's progress fields).  Pending self-rescheduling events
     * are not written - deterministic re-execution recreates them
     * (see docs/DETERMINISM.md).
     */
    virtual void serializeState(Serializer &s) const;

    Task &task() { return taskRef; }
    const Task &task() const { return taskRef; }

    /**
     * Same-tick priority slot of this behavior's self-scheduled
     * events (.frame/.chunk/.duty).  AppInstance assigns each
     * behavior its own slot in the workSubmit band so same-tick
     * submissions from different threads never share a batch and
     * therefore settle in thread order, not schedule order
     * (docs/DETERMINISM.md).  Set before start().
     */
    void setWorkPriority(EventPriority prio) { wake.setPriority(prio); }

  protected:
    Simulation &sim;
    Task &taskRef;
    Rng rng;

    /** Arm the wake event at @p when; no wake may be pending. */
    void armWake(Tick when);

    /** True while the wake event is pending. */
    bool wakePending() const { return wake.scheduled(); }

  private:
    /** What the wake event does (default: nothing). */
    virtual void onWake() {}

    /** The one self-scheduled wake, labelled and prioritized once. */
    // ablint:allow(serialize-coverage): pending events are recreated by re-execution
    CallbackEvent wake;
};

/** Executes an instruction budget back to back. */
class ContinuousBehavior : public Behavior
{
  public:
    /**
     * @param total_instructions budget to retire (must be > 0)
     * @param on_complete invoked once when the budget drains
     */
    ContinuousBehavior(Simulation &sim, Task &task, Rng rng,
                       double total_instructions,
                       std::function<void(Tick)> on_complete = nullptr);

    void start() override;
    void onWorkDrained(Task &task) override;
    void serializeState(Serializer &s) const override;

    bool complete() const { return completed; }
    Tick completionTick() const { return finishTick; }

  private:
    double budget;
    std::function<void(Tick)> onComplete;
    bool completed = false;
    Tick finishTick = 0;
};

/** Parameters for a frame-paced thread. */
struct PeriodicSpec
{
    Tick period = usToTicks(16667); ///< 60 Hz vsync
    double instPerPeriod = 2e6; ///< median per-frame cost
    double jitterSigma = 0.25; ///< log-normal cost spread
    Tick phase = 0; ///< offset of the first frame

    /**
     * Probability that a period actually does work; a skipped period
     * models a frame with nothing dirty to draw (UI threads of the
     * latency apps are quiet between user actions).  Skipped periods
     * are not counted as frames.
     */
    double activeProbability = 1.0;

    /**
     * Scene-pause modulation: when pauseCycle > 0, the thread idles
     * for pauseLength at the start of every pauseCycle of wall-clock
     * time (menus, replays, buffering stalls).  Threads of one app
     * share the wall clock, so their pauses align and produce the
     * fully idle windows the paper measures for games and video.
     */
    Tick pauseCycle = 0;
    Tick pauseLength = 0;
};

/** A vsync-paced frame loop. */
class PeriodicBehavior : public Behavior
{
  public:
    /**
     * @param stats optional frame-completion collector (the render
     *        thread of an FPS app feeds the paper's FPS metrics)
     */
    PeriodicBehavior(Simulation &sim, Task &task, Rng rng,
                     const PeriodicSpec &spec,
                     FrameStats *stats = nullptr);

    void start() override;
    void onWorkDrained(Task &task) override;
    void serializeState(Serializer &s) const override;

    const PeriodicSpec &spec() const { return periodicSpec; }

    /** Frames completed so far. */
    std::uint64_t framesDone() const { return frames; }

  private:
    PeriodicSpec periodicSpec;
    FrameStats *stats;
    Tick nextRelease = 0;
    std::uint64_t frames = 0;

    void submitFrame();
    void onWake() override { submitFrame(); }
};

/** Runs externally injected bursts; reports each drain. */
class BurstBehavior : public Behavior
{
  public:
    using DrainListener = std::function<void(BurstBehavior &, Tick)>;

    /**
     * @param chunk_instructions when > 0, bursts execute as chunks
     *        of this size separated by @p chunk_gap micro-stalls
     *        (page faults, locks, I/O waits), so a burst occupies
     *        its core at a realistic 60-85% duty instead of 100%
     * @param chunk_gap stall between chunks
     */
    BurstBehavior(Simulation &sim, Task &task, Rng rng,
                  double chunk_instructions = 0.0,
                  Tick chunk_gap = usToTicks(1200));

    void start() override;
    void onWorkDrained(Task &task) override;
    void serializeState(Serializer &s) const override;

    /** Add @p instructions of burst work now. */
    void injectBurst(double instructions);

    /** Install the coordinator's drain callback. */
    void setDrainListener(DrainListener listener);

    /** Bursts completed so far. */
    std::uint64_t burstsDone() const { return bursts; }

  private:
    // ablint:allow(serialize-coverage): drain callback re-registered by the driver at construction
    DrainListener drainListener;
    double chunkInstructions; // ablint:allow(serialize-coverage): construction-time config from the burst spec (covers chunkGap)
    Tick chunkGap;
    double backlog = 0.0; ///< burst remainder awaiting chunks
    std::uint64_t bursts = 0;

    void submitNextChunk();
    void onWake() override { submitNextChunk(); }
};

/** Holds a target CPU utilization by adaptive pausing. */
class DutyCycleBehavior : public Behavior
{
  public:
    /**
     * @param target_utilization busy fraction to hold, in (0, 1]
     * @param chunk_instructions work per busy burst
     */
    DutyCycleBehavior(Simulation &sim, Task &task, Rng rng,
                      double target_utilization,
                      double chunk_instructions = 2e6);

    void start() override;
    void onWorkDrained(Task &task) override;
    void serializeState(Serializer &s) const override;

    double targetUtilization() const { return target; }

  private:
    double target; // ablint:allow(serialize-coverage): construction-time config from the duty-cycle spec (covers chunk)
    double chunk;
    Tick chunkStart = 0;

    void onWake() override;
};

} // namespace biglittle

#endif // BIGLITTLE_WORKLOAD_BEHAVIOR_HH
