/**
 * @file
 * perfbench: the in-process half of the repo benchmark (README.md in
 * this directory documents every workload and metric).
 *
 *   perfbench --workload busy_apps --seed 7 --seconds 35 --trace 0 \
 *             --refs expected/cells.txt --tmp <scratch dir>
 *
 * Untraced (--trace 0) it times whole Experiment::runApp cells, pass
 * after pass, and prints the end-to-end metrics.  Traced (--trace 1)
 * it rebuilds the runApp rig from public classes, times every
 * serviced event by priority band through EventQueue::setServiceHook,
 * times calls into single layers (event queue, one-shots, load
 * tracker, perf model, power model), and measures the on/off cost of
 * each optional layer.  Either way the last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 *
 * Every run also checks outputs: the legacy-seed cell of each app
 * against committed references, every repeated cell against its first
 * run, and each optional layer against its own success criterion.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/argparse.hh"
#include "base/exit_codes.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "base/strutil.hh"
#include "core/efficiency.hh"
#include "core/experiment.hh"
#include "core/state_sampler.hh"
#include "fault/fault.hh"
#include "fault/invariants.hh"
#include "governor/interactive.hh"
#include "platform/perf_model.hh"
#include "platform/platform.hh"
#include "platform/power.hh"
#include "platform/thermal.hh"
#include "sched/hmp.hh"
#include "sched/load.hh"
#include "sim/simulation.hh"
#include "supervise/supervisor.hh"
#include "workload/app_model.hh"
#include "workload/apps.hh"

using namespace biglittle;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Linear-interpolated quantile of @p v (0 <= q <= 1). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

// ------------------------------------------------------------ output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** The result line plus the accounting of checked operations. */
struct Report
{
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool valid = true; ///< false drops the traced-rig metrics

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Count one checked operation; @p ok false reports @p why. */
    void
    check(bool ok, const std::string &why)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         why.c_str());
        }
    }

    void
    print() const
    {
        std::string out = format(
            "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
            "\"metrics\": {",
            failed == 0 && valid ? "true" : "false",
            static_cast<unsigned long long>(attempted),
            static_cast<unsigned long long>(failed));
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            out += format("%s\"%s\": {\"value\": %.17g, \"unit\": "
                          "\"%s\"}",
                          i == 0 ? "" : ", ", metrics[i].name.c_str(),
                          metrics[i].value, metrics[i].unit.c_str());
        }
        out += "}}";
        std::printf("%s\n", out.c_str());
    }
};

// ------------------------------------------------------------ cells

/** The part of a run result that must repeat exactly. */
struct Outcome
{
    Tick simulated = 0;
    Tick latency = 0;
    std::uint64_t frames = 0;
    double avgFps = 0.0;
    double energyMj = 0.0;
    std::uint64_t digest = 0; ///< over the per-section end-state digests

    bool
    operator==(const Outcome &o) const
    {
        return simulated == o.simulated && latency == o.latency &&
               frames == o.frames && avgFps == o.avgFps &&
               energyMj == o.energyMj && digest == o.digest;
    }

    std::string
    describe() const
    {
        return format("sim_ticks=%llu latency=%llu frames=%llu "
                      "avg_fps=%.17g energy_mj=%.17g digest=%016llx",
                      static_cast<unsigned long long>(simulated),
                      static_cast<unsigned long long>(latency),
                      static_cast<unsigned long long>(frames), avgFps,
                      energyMj,
                      static_cast<unsigned long long>(digest));
    }
};

Outcome
outcomeOf(const AppRunResult &r)
{
    return {r.simulatedTime, r.latency,       r.frames,
            r.avgFps,        r.energy.totalMj(), finalStateDigest(r)};
}

/** One runApp call of a workload pass. */
struct Cell
{
    AppSpec app;
    ExperimentConfig cfg;
};

std::vector<AppSpec>
workloadApps(const std::string &workload)
{
    if (workload == "busy_apps")
        return {encoderApp(), bbenchApp(), eternityWarrior2App()};
    if (workload == "idle_apps")
        return {browserApp(), videoPlayerApp(), youtubeApp()};
    // repro: its traced breakdown covers the six apps above.
    return {encoderApp(),  bbenchApp(),      eternityWarrior2App(),
            browserApp(), videoPlayerApp(), youtubeApp()};
}

/**
 * Cells per app in one pass of busy_apps / idle_apps: 120 distinct
 * cells, enough for a p90 with twelve cells beyond it, in a pass of
 * about a second.
 */
constexpr std::size_t seedsPerApp = 40;

/** The cells of one pass: each app under @p seedsPerApp master seeds
 *  derived from the workload seed. */
std::vector<Cell>
passCells(const std::string &workload, std::uint64_t seed,
          std::size_t seeds_per_app)
{
    std::vector<Cell> cells;
    for (const AppSpec &app : workloadApps(workload)) {
        for (std::size_t k = 0; k < seeds_per_app; ++k) {
            Cell cell{app, ExperimentConfig{}};
            cell.cfg.label = "perfbench";
            cell.cfg.masterSeed = deriveStreamSeed(
                seed, format("perfbench.%s.%zu", app.name.c_str(), k));
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

/** The same cell with zero simulated length: set-up and teardown. */
Cell
zeroLength(Cell cell)
{
    cell.app.duration = 0;
    cell.cfg.maxSimTime = 0;
    return cell;
}

struct TimedRun
{
    AppRunResult result;
    double seconds = 0.0;
};

TimedRun
timedRunApp(const Cell &cell)
{
    const auto t0 = Clock::now();
    Experiment experiment(cell.cfg);
    AppRunResult r = experiment.runApp(cell.app);
    return {std::move(r), secondsSince(t0)};
}

/** Legacy-seed reference outcomes, one line per app. */
std::map<std::string, std::string>
readReferences(const std::string &path)
{
    std::map<std::string, std::string> refs;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t sp = line.find(' ');
        if (line.empty() || line[0] == '#' || sp == std::string::npos)
            continue;
        refs[line.substr(0, sp)] = line.substr(sp + 1);
    }
    return refs;
}

/** Run each app with the legacy seeds and compare to @p refs_path. */
void
checkReferences(const std::vector<AppSpec> &apps,
                const std::string &refs_path, Report &rep)
{
    const auto refs = readReferences(refs_path);
    for (const AppSpec &app : apps) {
        ExperimentConfig cfg;
        cfg.label = "perfbench";
        const AppRunResult r = Experiment(cfg).runApp(app);
        const std::string got = outcomeOf(r).describe();
        const auto it = refs.find(app.name);
        const bool ok = !r.failed && it != refs.end() &&
                        it->second == got;
        rep.check(ok, format("%s reference mismatch: got '%s', "
                             "expected '%s'",
                             app.name.c_str(), got.c_str(),
                             it == refs.end() ? "(none)"
                                              : it->second.c_str()));
    }
}

/** Median seconds of @p reps zero-length passes over @p cells. */
double
setupSeconds(const std::vector<Cell> &cells, std::size_t reps,
             Report &rep)
{
    std::vector<Cell> zero;
    for (const Cell &c : cells)
        zero.push_back(zeroLength(c));
    std::vector<double> passes;
    for (std::size_t i = 0; i < reps; ++i) {
        double pass = 0.0;
        bool ok = true;
        for (const Cell &c : zero) {
            const TimedRun t = timedRunApp(c);
            pass += t.seconds;
            ok = ok && !t.result.failed && t.result.simulatedTime == 0;
        }
        if (i == 0)
            rep.check(ok, "zero-length cells simulated time");
        passes.push_back(pass);
    }
    return median(passes);
}

/** Peak RSS of this process (VmHWM: unlike ru_maxrss, it does not
 *  include the address space of whoever started us). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

/**
 * The cell_ms_tail percentile: @p planned (fixed per workload, so a
 * faster program does not move the metric by earning a higher
 * percentile), lowered only while fewer than ten of @p n cells lie
 * beyond it.
 */
double
tailPercentile(double planned, std::size_t n)
{
    double p = planned;
    for (const double lower : {0.9, 0.75, 0.5}) {
        if (static_cast<double>(n) * (1.0 - p) >= 10.0)
            break;
        p = std::min(p, lower);
    }
    return p;
}

// ------------------------------------------------- optional layers

/**
 * The optional layers: one fps app with every layer off, or with one
 * layer on.  The traced pass times adjacent off/on runs.  Checkpoint
 * and supervisor files go to @p tmp and are removed after each run.
 */
class OptLayers
{
  public:
    OptLayers(std::uint64_t seed, std::string tmp)
        : tmpDir(std::move(tmp))
    {
        app = eternityWarrior2App();
        base.label = "perfbench";
        base.masterSeed = deriveStreamSeed(seed, "perfbench.opt");
    }

    /**
     * Run layer @p name ("off", "detect", "permute", "checkpoint",
     * "invariants" or "supervised") once; returns host seconds.  Compares the
     * run with the first run of the same layer and with the layer's
     * own criterion.
     */
    double
    run(const std::string &name, Report &rep)
    {
        const auto t0 = Clock::now();
        AppRunResult r;
        std::string why;
        if (name == "off") {
            r = Experiment(base).runApp(app);
        } else if (name == "detect") {
            ExperimentConfig cfg = base;
            cfg.race.detect = true;
            r = Experiment(cfg).runApp(app);
            if (r.raceConflicts > 0)
                why = format("%llu race conflicts",
                             static_cast<unsigned long long>(
                                 r.raceConflicts));
        } else if (name == "permute") {
            r = Experiment(base).runApp(app);
            for (const TieBreak mode :
                 {TieBreak::lifo, TieBreak::shuffle}) {
                ExperimentConfig cfg = base;
                cfg.race.tieBreak = mode;
                const AppRunResult rerun = Experiment(cfg).runApp(app);
                const Status st = compareStateDigests(r, rerun);
                if (!st.ok() || rerun.failed)
                    why = "permuted tie-break: " + st.message();
            }
        } else if (name == "checkpoint") {
            ExperimentConfig cfg = base;
            cfg.snapshot.checkpointEvery = msToTicks(100);
            cfg.snapshot.checkpointDir = dir("checkpoint");
            r = Experiment(cfg).runApp(app);
            lastCheckpoints = r.checkpoints;
            if (r.checkpoints.count == 0)
                why = "no checkpoint written";
        } else if (name == "invariants") {
            r = Experiment(faultConfig()).runApp(app);
            if (r.invariantViolations > 0 || r.faults.totalInjected() == 0)
                why = format("%llu invariant violations, %llu faults",
                             static_cast<unsigned long long>(
                                 r.invariantViolations),
                             static_cast<unsigned long long>(
                                 r.faults.totalInjected()));
        } else {
            ExperimentConfig cfg = supervisedConfig();
            SupervisorParams sp;
            // Sparser than the checkpoint layer's 100 ms: this layer
            // measures rollback-retry, and file I/O is the noisiest
            // part of a run on a shared disk.
            sp.checkpointEvery = msToTicks(400);
            const SupervisedRunResult s = Supervisor(cfg, sp).run(app);
            r = s.run;
            if (s.report.outcome == RecoveryOutcome::failed)
                why = "supervised run failed";
        }
        const double seconds = secondsSince(t0);
        std::filesystem::remove_all(tmpDir + "/" + name);

        const Outcome got = outcomeOf(r);
        const auto it = firstOutcome.emplace(name, got).first;
        if (why.empty() && r.failed && name != "supervised")
            why = "run failed: " + r.failureDetail;
        if (why.empty() && !(it->second == got))
            why = "outcome differs from the first run: " +
                  got.describe() + " vs " + it->second.describe();
        // Detection, tie permutation and checkpoints observe the run;
        // they must not change it.
        if (why.empty() &&
            (name == "detect" || name == "permute" ||
             name == "checkpoint")) {
            const auto off = firstOutcome.find("off");
            if (off != firstOutcome.end() && !(off->second == got))
                why = "layer changed the run: " + got.describe();
        }
        rep.check(why.empty(), "optional layer " + name + ": " + why);
        return seconds;
    }

    /** The faulted config the invariants layer runs. */
    ExperimentConfig
    faultConfig() const
    {
        ExperimentConfig cfg = base;
        cfg.fault = scaledFaultParams(1.0);
        return cfg;
    }

    const AppSpec &appSpec() const { return app; }
    const ExperimentConfig &offConfig() const { return base; }
    const CheckpointStats &checkpoints() const { return lastCheckpoints; }

  private:
    std::string
    dir(const std::string &name) const
    {
        const std::string d = tmpDir + "/" + name;
        std::filesystem::create_directories(d);
        return d;
    }

    /** A persistent crash on a big core, quarantined by the
     *  supervisor: the run finishes degraded. */
    ExperimentConfig
    supervisedConfig() const
    {
        ExperimentConfig cfg = base;
        cfg.snapshot.checkpointDir = dir("supervised");
        cfg.fault.enabled = true;
        cfg.fault.persistentCrashCore = 6;
        cfg.fault.persistentCrashAt = app.duration * 6 / 10;
        return cfg;
    }

    std::string tmpDir;
    AppSpec app;
    ExperimentConfig base;
    std::map<std::string, Outcome> firstOutcome;
    CheckpointStats lastCheckpoints;
};

// ------------------------------------------------------ traced rig

/** Layers of the per-band breakdown (docs/DETERMINISM.md table). */
enum Band : std::size_t
{
    bandSlice,
    bandDvfs,
    bandSubmit,
    bandTick,
    bandThermal,
    bandGovernor,
    bandStats,
    bandFault,
    bandCount,
};

const std::array<const char *, bandCount> bandNames = {
    "platform.slice",   "platform.dvfs",   "workload.submit",
    "sched.tick",       "platform.thermal", "governor.sample",
    "core.stats",       "fault.inject",
};

Band
bandOf(std::int32_t prio)
{
    const auto at = [](EventPriority p) {
        return static_cast<std::int32_t>(p);
    };
    if (prio < at(EventPriority::dvfsApply))
        return bandSlice;
    if (prio == at(EventPriority::dvfsApply))
        return bandDvfs;
    if (prio < at(EventPriority::schedTick))
        return bandSubmit; // input pump, workflow, work submission
    if (prio < at(EventPriority::thermal))
        return bandTick;
    if (prio < at(EventPriority::governor))
        return bandThermal;
    if (prio < at(EventPriority::stats))
        return bandGovernor;
    if (prio < at(EventPriority::faultReplug))
        return bandStats; // samplers, meters, invariant sweeps
    return bandFault; // replug and the deferred fault draws
}

struct BandTotals
{
    std::array<std::uint64_t, bandCount> events{};
    std::array<double, bandCount> ns{};
    std::uint64_t ticks = 0;
    std::uint64_t idleTicks = 0;

    std::uint64_t
    allEvents() const
    {
        std::uint64_t n = 0;
        for (const std::uint64_t e : events)
            n += e;
        return n;
    }
};

/**
 * Experiment::runApp's rig, assembled from public classes in the same
 * order, with a service hook that charges the host time of each
 * serviced event (until the next event or the end of runUntil) to the
 * event's priority band.  Only the interactive governor is supported,
 * which is every config this benchmark runs.
 */
Outcome
tracedRun(const Cell &cell, BandTotals &tot)
{
    const ExperimentConfig &cfg = cell.cfg;
    AppSpec app = cell.app;
    if (cfg.masterSeed != 0)
        app.seed = deriveStreamSeed(cfg.masterSeed, "app." + app.name);

    Simulation sim;
    AsymmetricPlatform platform(sim, cfg.platform);
    HmpScheduler sched(sim, platform, cfg.sched);
    PowerModel power(platform);
    platform.applyCoreConfig(cfg.coreConfig);
    std::vector<std::unique_ptr<Governor>> governors;
    std::vector<std::unique_ptr<ThermalThrottle>> throttles;
    for (std::size_t i = 0; i < platform.clusterCount(); ++i) {
        Cluster &cl = platform.cluster(i);
        governors.push_back(std::make_unique<InteractiveGovernor>(
            sim, cl, cfg.interactive));
        if (cfg.thermalEnabled) {
            throttles.push_back(
                std::make_unique<ThermalThrottle>(sim, cl, cfg.thermal));
        }
    }
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<InvariantChecker> checker;
    if (cfg.fault.enabled) {
        FaultParams fp = cfg.fault;
        if (cfg.masterSeed != 0)
            fp.seed = deriveStreamSeed(cfg.masterSeed, "fault");
        injector =
            std::make_unique<FaultInjector>(sim, platform, sched, fp);
        for (auto &throttle : throttles)
            injector->addThermal(throttle.get());
        checker = std::make_unique<InvariantChecker>(sim, platform,
                                                     &sched, &power);
        checker->setNext(sched.observer());
        sched.setObserver(checker.get());
        injector->setViolationSink([&checker](const std::string &what) {
            checker->reportExternal(what);
        });
    }
    StateSampler sampler(sim, platform, cfg.sampleWindow);
    EfficiencyAnalyzer efficiency(sim, platform, cfg.sampleWindow);
    AppInstance instance(sim, sched, app);

    bool open = false;
    Band openBand = bandSlice;
    Clock::time_point openAt;
    const auto close = [&](Clock::time_point now) {
        if (open) {
            tot.ns[openBand] +=
                std::chrono::duration<double, std::nano>(now - openAt)
                    .count();
        }
        open = false;
    };
    sim.eventQueue().setServiceHook([&](const ServicedEvent &ev) {
        const auto now = Clock::now();
        close(now);
        openBand = bandOf(ev.priority);
        ++tot.events[openBand];
        if (openBand == bandTick) {
            bool idle = true;
            for (CoreId id = 0; id < platform.coreCount(); ++id)
                idle = idle && !platform.core(id).busy();
            ++tot.ticks;
            tot.idleTicks += idle ? 1 : 0;
        }
        open = true;
        openAt = Clock::now();
    });

    for (auto &gov : governors)
        gov->start();
    for (auto &throttle : throttles)
        throttle->start();
    sched.start();
    if (checker != nullptr)
        checker->start();
    if (injector != nullptr)
        injector->start();
    sampler.start();
    efficiency.start();
    const PowerSnapshot before = power.snapshot();
    const Tick start = sim.now();
    instance.start();

    // runApp's chunked loop: a latency app stops at the first 10 ms
    // boundary after it finishes, which the energy figure includes.
    const Tick cap = start + (app.metric == AppMetric::latency
                                  ? std::min(app.duration, cfg.maxSimTime)
                                  : app.duration);
    while (sim.now() < cap) {
        if (app.metric == AppMetric::latency && instance.done())
            break;
        sim.runUntil(std::min(cap, sim.now() + msToTicks(10)));
        close(Clock::now());
    }
    sim.eventQueue().setServiceHook(nullptr);

    Outcome out;
    out.simulated = sim.now() - start;
    if (app.metric == AppMetric::latency) {
        out.latency = instance.done() ? instance.latency() : out.simulated;
    } else {
        out.avgFps = instance.frameStats().averageFps();
        out.frames = instance.frameStats().frames();
    }
    out.energyMj = power.energyBetween(before, power.snapshot()).totalMj();
    return out;
}

/** The fields the traced rig must reproduce (no state digest). */
bool
sameVisible(const Outcome &traced, const Outcome &plain)
{
    return traced.simulated == plain.simulated &&
           traced.latency == plain.latency &&
           traced.frames == plain.frames &&
           traced.avgFps == plain.avgFps &&
           traced.energyMj == plain.energyMj;
}

// ------------------------------------------------- layer microtimings

/** Median ns per op over @p batches batches of @p body. */
double
nsPerOp(std::size_t batches, std::size_t ops,
        const std::function<void()> &body)
{
    std::vector<double> per;
    for (std::size_t b = 0; b < batches; ++b) {
        const auto t0 = Clock::now();
        body();
        per.push_back(secondsSince(t0) * 1e9 / static_cast<double>(ops));
    }
    return median(per);
}

/** schedule + serviceOne at @p n pending events. */
double
eventQueueNs(std::size_t n)
{
    EventQueue queue;
    std::vector<std::unique_ptr<CallbackEvent>> events;
    for (std::size_t i = 0; i < n; ++i)
        events.push_back(std::make_unique<CallbackEvent>([] {}));
    return nsPerOp(201, n * 8, [&] {
        for (int round = 0; round < 8; ++round) {
            for (std::size_t i = 0; i < n; ++i) {
                queue.schedule(*events[i],
                               queue.now() + 1 + (i * 7919) % 1000);
            }
            while (queue.serviceOne()) {
            }
        }
    });
}

/** Simulation::after + firing the one-shot. */
double
oneShotNs()
{
    Simulation sim;
    std::uint64_t fired = 0;
    const double ns = nsPerOp(201, 2048, [&] {
        for (std::size_t i = 0; i < 2048; ++i)
            sim.after(1 + (i * 7919) % 1000, [&fired] { ++fired; });
        sim.runFor(1001);
    });
    return fired > 0 ? ns : 0.0;
}

double
loadUpdateNs()
{
    LoadTracker tracker(32.0);
    double f = 0.3;
    double sink = 0.0;
    const double ns = nsPerOp(201, 20000, [&] {
        for (int i = 0; i < 20000; ++i) {
            tracker.update(0.8, f);
            f = f < 0.9 ? f + 1e-4 : 0.3;
            sink += tracker.value();
        }
    });
    return sink != 0.0 ? ns : 0.0;
}

double
perfModelNs()
{
    const PlatformParams params = exynos5422Params();
    const CacheModel l2(params.clusters[0].l2);
    WorkClass wc{0.6, 0.02, 900.0};
    double sink = 0.0;
    const double ns = nsPerOp(201, 20000, [&] {
        for (int i = 0; i < 20000; ++i) {
            sink += perf_model::nsPerInst(params.clusters[0].perf, l2,
                                          1300000, wc);
            wc.footprintKB =
                wc.footprintKB < 4096 ? wc.footprintKB + 1 : 128.0;
        }
    });
    return sink != 0.0 ? ns : 0.0;
}

double
powerSnapshotNs()
{
    Simulation sim;
    AsymmetricPlatform platform(sim, exynos5422Params());
    PowerModel power(platform);
    Tick sink = 0;
    const double ns = nsPerOp(201, 2000, [&] {
        for (int i = 0; i < 2000; ++i)
            sink += power.snapshot().when + 1;
    });
    return sink != 0 ? ns : 0.0;
}

// ------------------------------------------------------- workloads

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::string refs;
    std::string tmp;
};

/**
 * End-to-end pass of busy_apps / idle_apps.
 *
 * Every pass repeats the same deterministic cells, so the repeats of
 * one cell differ only by host noise.  On a shared host that noise is
 * contention from other tenants: it only ever slows a run down, and
 * it comes and goes over tens of seconds.  Medians of passes and
 * percentiles of all runs followed it, moving by 15-40 % from one run
 * to the next.  So every time metric is built from each distinct
 * cell's fastest run: wall_s is their sum (a pass with no contention),
 * and p50 and tail are taken over them, which is the spread the
 * program itself makes.  The set-up pass runs once between measured
 * passes, so its median samples the whole run.
 */
void
runAppsUntraced(const Options &opt, Report &rep)
{
    const std::vector<Cell> cells =
        passCells(opt.workload, opt.seed, seedsPerApp);
    checkReferences(workloadApps(opt.workload), opt.refs, rep);

    // The first pass fixes every cell's outcome; later passes must
    // repeat it exactly.
    std::vector<Outcome> first;
    for (const Cell &c : cells) {
        const TimedRun t = timedRunApp(c);
        rep.check(!t.result.failed, c.app.name + " failed");
        first.push_back(outcomeOf(t.result));
    }

    std::vector<double> setup_s;
    std::vector<double> best_ms(cells.size(),
                                std::numeric_limits<double>::infinity());
    double sim_ms = 0.0; // of one pass; every pass simulates the same
    const auto t0 = Clock::now();
    while (setup_s.empty() || secondsSince(t0) < opt.seconds) {
        setup_s.push_back(setupSeconds(cells, 1, rep));
        sim_ms = 0.0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const TimedRun t = timedRunApp(cells[i]);
            best_ms[i] = std::min(best_ms[i], t.seconds * 1e3);
            sim_ms += ticksToMs(t.result.simulatedTime);
            rep.check(!t.result.failed &&
                          outcomeOf(t.result) == first[i],
                      cells[i].app.name + " did not repeat");
        }
    }
    double best = 0.0;
    for (const double ms : best_ms)
        best += ms / 1e3;
    rep.add("setup_s", median(setup_s), "s");
    rep.add("wall_s", best, "s");
    rep.add("sim_ms_per_s", sim_ms / best, "ms/s");
    rep.add("cell_ms_p50", median(best_ms), "ms");
    const double p = tailPercentile(0.9, best_ms.size());
    rep.add("cell_ms_tail", quantile(best_ms, p), "ms");
    std::printf("cell_ms_tail is p%g of %zu cells\n", p * 100.0,
                best_ms.size());
}

/**
 * The traced pass: per-band breakdown over the workload's cells
 * (checked against untraced runApp), layer microtimings, and the
 * on/off cost of each optional layer.
 */
void
runTraced(const Options &opt, Report &rep)
{
    const std::vector<Cell> cells = passCells(
        opt.workload, opt.seed, opt.workload == "repro" ? 1 : seedsPerApp);
    OptLayers layers(opt.seed, opt.tmp);
    checkReferences(workloadApps(opt.workload), opt.refs, rep);

    // Breakdown: repeat passes for half the run, report per pass.
    BandTotals tot;
    double plain_s = 0.0, traced_s = 0.0;
    std::size_t passes = 0;
    const auto t0 = Clock::now();
    while (passes == 0 || secondsSince(t0) < opt.seconds / 2) {
        for (const Cell &c : cells) {
            const TimedRun plain = timedRunApp(c);
            const auto tt = Clock::now();
            const Outcome traced = tracedRun(c, tot);
            traced_s += secondsSince(tt);
            plain_s += plain.seconds;
            const bool same = sameVisible(traced, outcomeOf(plain.result));
            rep.check(same, c.app.name + ": traced rig differs from "
                                         "runApp: " +
                                traced.describe());
            rep.valid = rep.valid && same;
        }
        ++passes;
    }
    const double n = static_cast<double>(passes);
    const double events = static_cast<double>(tot.allEvents()) / n;
    // The fault band is empty without fault injection; the fault
    // rig below reports it.
    for (std::size_t b = 0; b < bandFault; ++b) {
        rep.add(format("%s.events", bandNames[b]),
                static_cast<double>(tot.events[b]) / n, "count");
        rep.add(format("%s.self_ms", bandNames[b]), tot.ns[b] / n / 1e6,
                "ms");
    }
    rep.add("sched.tick.idle_ratio",
            tot.ticks > 0 ? static_cast<double>(tot.idleTicks) /
                                static_cast<double>(tot.ticks)
                          : 0.0,
            "ratio");
    rep.add("sim.events", events, "count");
    rep.add("sim.ns_per_event", plain_s / n * 1e9 / events, "ns");
    rep.add("trace.overhead_pct", 100.0 * (traced_s - plain_s) / plain_s,
            "%");

    // Fault injection's own events, from the invariants layer's rig.
    {
        BandTotals ft;
        const Cell fc{layers.appSpec(), layers.faultConfig()};
        const Outcome traced = tracedRun(fc, ft);
        const AppRunResult plain = Experiment(fc.cfg).runApp(fc.app);
        const bool same = sameVisible(traced, outcomeOf(plain));
        rep.check(same, "fault rig differs from runApp: " +
                            traced.describe());
        rep.valid = rep.valid && same;
        rep.add("fault.inject.events",
                static_cast<double>(ft.events[bandFault]), "count");
        rep.add("fault.inject.self_ms", ft.ns[bandFault] / 1e6, "ms");
    }

    rep.add("core.setup_ms",
            setupSeconds({cells.front()}, 500, rep) * 1e3,
            "ms");

    rep.add("sim.eventq_ns.64", eventQueueNs(64), "ns");
    rep.add("sim.eventq_ns.1024", eventQueueNs(1024), "ns");
    rep.add("sim.oneshot_ns", oneShotNs(), "ns");
    rep.add("sched.load_update_ns", loadUpdateNs(), "ns");
    rep.add("platform.perf_model_ns", perfModelNs(), "ns");
    rep.add("platform.power_snapshot_ns", powerSnapshotNs(), "ns");

    // On/off cost of each optional layer: adjacent off and on runs,
    // three pairs, medians.
    const std::vector<std::pair<std::string, std::string>> ratios = {
        {"detect", "abrace.detect"},
        {"permute", "abrace.permute"},
        {"checkpoint", "snapshot.checkpoint"},
        {"invariants", "fault.invariants"},
        {"supervised", "supervise.supervised"},
    };
    for (const auto &[layer, metric] : ratios) {
        std::vector<double> off, on;
        for (int i = 0; i < 3; ++i) {
            off.push_back(layers.run("off", rep));
            on.push_back(layers.run(layer, rep));
        }
        rep.add(metric + "_x", median(on) / median(off), "x");
        rep.add(metric + "_base_ms", median(off) * 1e3, "ms");
        if (layer == "checkpoint") {
            rep.add("snapshot.ckpt_bytes",
                    static_cast<double>(layers.checkpoints().bytes),
                    "B");
            rep.add("snapshot.ckpt_write_ms",
                    layers.checkpoints().writeMs, "ms");
        }
    }

    if (!rep.valid) {
        // The breakdown does not describe runApp: drop it.
        std::vector<Metric> kept;
        for (Metric &m : rep.metrics) {
            const bool rig = m.name.find(".events") != std::string::npos ||
                             m.name.find(".self_ms") != std::string::npos ||
                             m.name.find("idle_ratio") != std::string::npos ||
                             m.name == "sim.ns_per_event" ||
                             m.name == "trace.overhead_pct";
            if (!rig)
                kept.push_back(std::move(m));
        }
        rep.metrics = std::move(kept);
    }
}

/** Print the legacy-seed reference lines (expected/cells.txt). */
void
writeReferences()
{
    std::printf("# app outcome of Experiment::runApp at the baseline "
                "config with the legacy seeds (masterSeed 0)\n");
    for (const AppSpec &app : workloadApps("repro")) {
        ExperimentConfig cfg;
        cfg.label = "perfbench";
        const AppRunResult r = Experiment(cfg).runApp(app);
        std::printf("%s %s\n", app.name.c_str(),
                    outcomeOf(r).describe().c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("perfbench",
                   "in-process workloads and traced pass of the repo "
                   "benchmark");
    args.addString("workload", "busy_apps",
                   "busy_apps, idle_apps, or repro "
                   "(traced pass only)");
    args.addInt("seed", 1, "workload seed; cells derive masterSeed");
    args.addDouble("seconds", 10.0, "measuring time");
    args.addInt("trace", 0, "1 = traced pass with per-layer metrics");
    args.addString("refs", "", "legacy-seed reference outcomes");
    args.addString("tmp", "", "scratch directory for checkpoint files");
    args.addFlag("write-refs", "print the reference outcomes and exit");
    args.parse(argc, argv);
    // Zero-length latency cells warn that they hit the cap, and the
    // supervisor narrates its recovery; the checks report failures.
    setLogLevel(LogLevel::quiet);

    if (args.getFlag("write-refs")) {
        writeReferences();
        return exitOk;
    }

    Options opt;
    opt.workload = args.getString("workload");
    opt.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    opt.seconds = args.getDouble("seconds");
    opt.refs = args.getString("refs");
    opt.tmp = args.getString("tmp");
    const bool traced = args.getInt("trace") != 0;
    const bool known = opt.workload == "busy_apps" ||
                       opt.workload == "idle_apps" ||
                       (traced && opt.workload == "repro");
    if (!known || opt.refs.empty() || opt.tmp.empty()) {
        std::fprintf(stderr, "perfbench: bad arguments\n%s",
                     args.helpText().c_str());
        return exitUsage;
    }

    Report rep;
    if (traced)
        runTraced(opt, rep);
    else
        runAppsUntraced(opt, rep);
    if (!traced)
        rep.add("rss_mb", peakRssMb(), "MB");
    rep.print();
    return exitOk;
}
