/**
 * @file
 * Shared helpers for the figure/table regeneration benches: the
 * standard experimental conditions of the paper (4-big vs 4-little,
 * the Figs. 7/8 core combinations, the Section VI-C parameter sweep)
 * and the cell pool that runs them.
 *
 * A bench declares its cells up front - a grid of configs x apps for
 * runGrid(), or any n independent runs for forEachCell() - and
 * renders its table from the results afterwards.  The pool runs the
 * cells on at most poolWorkers() threads; each cell builds
 * its own Experiment and writes only its own result slot, and each
 * simulation stays single-threaded, so the tables are byte-identical
 * to a one-at-a-time run (docs/DETERMINISM.md).  Progress lines,
 * failure exits and checkpoint reports come afterwards, on the main
 * thread, in declaration order.  Two cases stay sequential: a grid
 * whose configs write checkpoints or resume from one (runGrid), and
 * bench_abl_recovery, which times each supervised run and writes
 * checkpoints.
 */

#ifndef BIGLITTLE_BENCH_BENCH_UTIL_HH
#define BIGLITTLE_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "base/argparse.hh"
#include "base/csv.hh"
#include "base/exit_codes.hh"
#include "base/logging.hh"
#include "core/experiment.hh"
#include "snapshot/checkpoint.hh"
#include "workload/apps.hh"

namespace biglittle
{

/** Default system: all 8 cores, HMP + interactive, Table II setup. */
inline ExperimentConfig
baselineConfig()
{
    ExperimentConfig cfg;
    cfg.label = "baseline";
    return cfg;
}

/** Fig. 4/5 "4 little cores" condition. */
inline ExperimentConfig
littleOnlyConfig()
{
    ExperimentConfig cfg;
    cfg.coreConfig = {4, 0, "L4"};
    cfg.label = "4-little";
    return cfg;
}

/**
 * Fig. 4/5 "4 big cores" condition.  The boot little core must stay
 * online, so the scheduler is biased to lift every runnable task to
 * the big cluster immediately (up-threshold 1, down-threshold 0).
 */
inline ExperimentConfig
bigOnlyConfig()
{
    ExperimentConfig cfg;
    cfg.coreConfig = {1, 4, "B4"};
    cfg.sched.upThreshold = 1;
    cfg.sched.downThreshold = 0;
    // Placement is static here, so the migration boost would only
    // spam hispeed requests; let the governor pick frequencies as
    // it does on the real platform.
    cfg.sched.upMigrationBoostFreq = 0;
    cfg.sched.name = "force-big";
    cfg.label = "4-big";
    return cfg;
}

/**
 * The Figs. 11-13 grid rows: the baseline first, then the 8
 * governor/HMP configurations of the Section VI-C sweep.
 */
inline std::vector<ExperimentConfig>
sweepConfigs()
{
    std::vector<ExperimentConfig> sweep = {baselineConfig()};
    auto add = [&sweep](const std::string &label,
                        const ExperimentConfig &cfg) {
        sweep.push_back(cfg);
        sweep.back().label = label;
    };

    ExperimentConfig cfg;
    cfg.interactive = interval60Params();
    add("interval-60ms", cfg);

    cfg = ExperimentConfig{};
    cfg.interactive = interval100Params();
    add("interval-100ms", cfg);

    cfg = ExperimentConfig{};
    cfg.interactive = highTargetLoadParams();
    add("target-load-80", cfg);

    cfg = ExperimentConfig{};
    cfg.interactive = lowTargetLoadParams();
    add("target-load-60", cfg);

    cfg = ExperimentConfig{};
    cfg.sched = conservativeSchedParams();
    add("hmp-conservative", cfg);

    cfg = ExperimentConfig{};
    cfg.sched = aggressiveSchedParams();
    add("hmp-aggressive", cfg);

    cfg = ExperimentConfig{};
    cfg.sched = doubleHistorySchedParams();
    add("hmp-2x-history", cfg);

    cfg = ExperimentConfig{};
    cfg.sched = halfHistorySchedParams();
    add("hmp-half-history", cfg);

    return sweep;
}

/** Declare the shared determinism/recovery options on @p args. */
inline void
addSnapshotOptions(ArgParser &args)
{
    args.addInt("checkpoint-every", 0,
                "write a checkpoint every N simulated ms (0 = off)");
    args.addString("checkpoint-dir", ".",
                   "directory for periodic checkpoints");
    args.addString("resume", "",
                   "resume (with state verification) from this "
                   "checkpoint file");
    args.addInt("seed", 0,
                "master seed for named random streams (0 = the "
                "legacy per-spec seeds)");
}

/** Apply the addSnapshotOptions() values onto @p cfg. */
inline void
applySnapshotOptions(const ArgParser &args, ExperimentConfig &cfg)
{
    cfg.snapshot.checkpointEvery = msToTicks(
        static_cast<std::uint64_t>(args.getInt("checkpoint-every")));
    cfg.snapshot.checkpointDir = args.getString("checkpoint-dir");
    cfg.snapshot.resumePath = args.getString("resume");
    cfg.masterSeed =
        static_cast<std::uint64_t>(args.getInt("seed"));
}

/** Declare the abrace determinism options on @p args. */
inline void
addRaceOptions(ArgParser &args)
{
    args.addFlag("race-detect",
                 "attach the abrace same-tick race detector; "
                 "conflicts print TSan-style and fail the bench");
    args.addFlag("permute-ties",
                 "rerun every condition under lifo and seeded-shuffle "
                 "tie-breaks and byte-compare end-state digests "
                 "(implies --race-detect)");
}

/** Apply the addRaceOptions() values onto @p cfg. */
inline void
applyRaceOptions(const ArgParser &args, ExperimentConfig &cfg)
{
    cfg.race.detect =
        args.getFlag("race-detect") || args.getFlag("permute-ties");
}

/**
 * The pool's width: half the host's hardware threads, at least one.
 * A pool as wide as the host gets only the share of it that other
 * processes leave free, so a bench's wall time would follow their
 * load.  A pool of half the width keeps its pace while half the
 * CPUs are free, and still runs a sweep about twice as fast as one
 * thread.
 */
inline std::size_t
poolWorkers()
{
    return std::max<std::size_t>(std::thread::hardware_concurrency() / 2,
                                 1);
}

/**
 * Call @p fn(i) once for every cell index i in [0, n), on up to
 * min(n, @p max_workers) threads - the caller's own included - that
 * pull indices from one atomic counter.  @p fn must read only shared
 * immutable state and write only what belongs to cell i.
 * @p max_workers = 1 runs every cell inline, in index order.  The
 * first exception a cell throws stops the handing out of cells and
 * is rethrown here once every thread has joined.
 */
template <typename Fn>
void
forEachCell(std::size_t n, const Fn &fn,
            std::size_t max_workers = poolWorkers())
{
    const std::size_t workers =
        std::min(n, std::max<std::size_t>(max_workers, 1));
    std::atomic<std::size_t> next{0};
    std::mutex failure_mutex;
    std::exception_ptr failure; // guarded by failure_mutex
    const auto drain = [&] {
        try {
            for (std::size_t i = next++; i < n; i = next++)
                fn(i);
        } catch (...) {
            next = n;
            const std::lock_guard<std::mutex> lock(failure_mutex);
            if (!failure)
                failure = std::current_exception();
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers > 0 ? workers - 1 : 0);
    try {
        for (std::size_t w = 1; w < workers; ++w)
            pool.emplace_back(drain);
    } catch (const std::system_error &) {
        // No more threads to be had: the ones started, and this
        // one, still drain every cell.
    }
    drain();
    for (std::thread &t : pool)
        t.join();
    if (failure)
        std::rethrow_exception(failure);
}

/**
 * Per-bench --race-detect / --permute-ties verdict.  After
 * runGrid(), check() each config's row: it reports abrace conflicts
 * and (under --permute-ties) reruns every app with lifo and
 * seeded-shuffle tie-breaks on the cell pool, byte-comparing
 * end-state digests against the fifo run.  exitCode() turns any
 * failure into a nonzero bench exit.
 */
class RaceGate
{
  public:
    explicit RaceGate(const ArgParser &args)
        : detect(args.getFlag("race-detect") ||
                 args.getFlag("permute-ties")),
          permute(args.getFlag("permute-ties"))
    {
    }

    void
    check(const ExperimentConfig &cfg,
          const std::vector<AppSpec> &apps,
          const std::vector<AppRunResult> &results)
    {
        if (!detect)
            return;
        BL_ASSERT(apps.size() == results.size());
        // Rerun 2i is app i under lifo, 2i + 1 under shuffle.
        const TieBreak modes[] = {TieBreak::lifo, TieBreak::shuffle};
        std::vector<AppRunResult> reruns(permute ? 2 * apps.size() : 0);
        forEachCell(reruns.size(), [&](std::size_t cell) {
            ExperimentConfig rerun_cfg = cfg;
            rerun_cfg.race.tieBreak = modes[cell % 2];
            reruns[cell] = Experiment(rerun_cfg).runApp(apps[cell / 2]);
        });
        for (std::size_t i = 0; i < results.size(); ++i) {
            const AppRunResult &r = results[i];
            if (r.raceConflicts > 0) {
                ++failures;
                std::fprintf(stderr, "%s", r.raceReport.c_str());
            }
            for (std::size_t m = 0; permute && m < 2; ++m)
                comparePermuted(r, reruns[2 * i + m], modes[m]);
        }
    }

    int exitCode() const { return failures == 0 ? 0 : 1; }

  private:
    void
    comparePermuted(const AppRunResult &fifo, const AppRunResult &rerun,
                    TieBreak mode)
    {
        const Status st = compareStateDigests(fifo, rerun);
        const char *name = mode == TieBreak::lifo ? "lifo" : "shuffle";
        if (!st.ok()) {
            ++failures;
            std::fprintf(stderr,
                         "  [%s] %s: %s tie-break DIVERGED: %s\n",
                         fifo.configLabel.c_str(), fifo.app.c_str(),
                         name, st.message().c_str());
        } else {
            std::fprintf(stderr,
                         "  [%s] %s: %s tie-break digests match\n",
                         fifo.configLabel.c_str(), fifo.app.c_str(),
                         name);
        }
    }

    bool detect;
    bool permute;
    std::size_t failures = 0;
};

/**
 * Open the --csv output when requested.  Returns nullptr when the
 * option is unset; prints the open error and exits with exitBadFile
 * (3) when the path cannot be created - the documented bench exit
 * code for file problems, distinct from usage errors (2).
 */
inline std::unique_ptr<CsvWriter>
openCsvOrExit(const ArgParser &args)
{
    if (args.getString("csv").empty())
        return nullptr;
    auto csv = std::make_unique<CsvWriter>();
    const Status opened = csv->open(args.getString("csv"));
    if (!opened.ok()) {
        std::fprintf(stderr, "%s\n", opened.message().c_str());
        std::exit(exitBadFile);
    }
    return csv;
}

/**
 * Exit through the taxonomy when an unsupervised run failed.  The
 * only failure Experiment reports (rather than dies on) for
 * unsupervised runs is resume divergence; a bench that ignored it
 * would print partial metrics for a run that is not the one the
 * checkpoint belongs to.  Supervised callers (the Supervisor, abrun)
 * consume `failed` themselves and never go through here.
 */
inline void
exitIfRunFailed(const AppRunResult &r)
{
    if (!r.failed)
        return;
    std::fprintf(stderr,
                 "[%s] %s: run failed (%s): %s\n",
                 r.configLabel.c_str(), r.app.c_str(),
                 recoveryTriggerName(r.failureTrigger),
                 r.failureDetail.c_str());
    std::exit(exitFatal);
}

/** One stderr line of checkpoint overhead, when any were written. */
inline void
reportCheckpointOverhead(const AppRunResult &r)
{
    if (r.checkpoints.count == 0)
        return;
    std::fprintf(stderr,
                 "  [%s] %s: %llu checkpoints, %llu bytes, %.2f ms "
                 "write time (last: %s)\n",
                 r.configLabel.c_str(), r.app.c_str(),
                 static_cast<unsigned long long>(r.checkpoints.count),
                 static_cast<unsigned long long>(r.checkpoints.bytes),
                 r.checkpoints.writeMs,
                 r.checkpoints.files.back().path.c_str());
}

/**
 * Workers runGrid() uses for @p configs: one when any config writes
 * checkpoints or resumes from one (each checkpoint's write time is a
 * host-time measurement, and a resume replays one matching cell),
 * otherwise poolWorkers().
 */
inline std::size_t
gridWorkers(const std::vector<ExperimentConfig> &configs)
{
    for (const ExperimentConfig &cfg : configs) {
        if (cfg.snapshot.checkpointEvery != 0 ||
            !cfg.snapshot.resumePath.empty())
            return 1;
    }
    return poolWorkers();
}

/**
 * Run every (config, app) cell of @p configs x @p apps on
 * gridWorkers(configs) workers and return results[c][a].  Then, on
 * the calling thread and in declaration order, print each cell's
 * progress line, exit if it failed, and report its checkpoint
 * overhead.
 */
inline std::vector<std::vector<AppRunResult>>
runGrid(const std::vector<ExperimentConfig> &configs,
        const std::vector<AppSpec> &apps)
{
    // A checkpoint belongs to exactly one (app, config) run; on a
    // multi-app bench, resume only the run it matches instead of
    // dying on the identity check of the first unrelated app.  Each
    // named checkpoint is loaded once per grid.
    std::map<std::string, std::optional<Checkpoint>> resumes;
    for (const ExperimentConfig &cfg : configs) {
        const std::string &path = cfg.snapshot.resumePath;
        if (path.empty() || resumes.count(path) != 0)
            continue;
        Result<Checkpoint> loaded = loadCheckpointWithFallback(path);
        std::optional<Checkpoint> &resume = resumes[path];
        if (!loaded.ok()) {
            warn("--resume: %s; running every app from scratch",
                 loaded.status().message().c_str());
        } else {
            resume = std::move(loaded.value());
        }
    }

    std::vector<std::vector<AppRunResult>> results(
        configs.size(), std::vector<AppRunResult>(apps.size()));
    forEachCell(
        configs.size() * apps.size(),
        [&](std::size_t cell) {
            const std::size_t c = cell / apps.size();
            const std::size_t a = cell % apps.size();
            ExperimentConfig run_cfg = configs[c];
            if (!run_cfg.snapshot.resumePath.empty()) {
                const std::optional<Checkpoint> &resume =
                    resumes.at(run_cfg.snapshot.resumePath);
                if (!resume || resume->app != apps[a].name ||
                    resume->label != run_cfg.label)
                    run_cfg.snapshot.resumePath.clear();
            }
            results[c][a] = Experiment(run_cfg).runApp(apps[a]);
        },
        gridWorkers(configs));

    for (std::size_t c = 0; c < configs.size(); ++c) {
        for (std::size_t a = 0; a < apps.size(); ++a) {
            std::fprintf(stderr, "  [%s] running %s...\n",
                         configs[c].label.c_str(), apps[a].name.c_str());
            exitIfRunFailed(results[c][a]);
            reportCheckpointOverhead(results[c][a]);
        }
    }
    return results;
}

/** Run @p apps under @p cfg: one row of runGrid(). */
inline std::vector<AppRunResult>
runApps(const ExperimentConfig &cfg, const std::vector<AppSpec> &apps)
{
    return runGrid({cfg}, apps)[0];
}

/** Percentage change of @p now vs @p base (positive = increase). */
inline double
pctChange(double now, double base)
{
    return base != 0.0 ? 100.0 * (now - base) / base : 0.0;
}

} // namespace biglittle

#endif // BIGLITTLE_BENCH_BENCH_UTIL_HH
