/**
 * @file
 * `mispsim` — the scenario driver CLI.
 *
 * Runs a declarative `.scn` scenario (machine topology x workload x
 * sweep axes) through the shared ScenarioRunner and emits a human
 * table plus optional machine-readable JSON. Every paper figure and
 * any new experiment is a spec file, not a C++ program:
 *
 *   $ ./build/mispsim scenarios/fig4.scn -o fig4.json
 *   $ ./build/mispsim scenarios/fig7.scn --quick --md
 *   $ ./build/mispsim scenarios/smoke.scn --dry-run
 *
 * The flags are the rows of driver/cli_help.cc's table, which both
 * parses them and renders --help.
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "cpu/engine.hh"
#include "driver/cli_help.hh"
#include "driver/report.hh"
#include "driver/runner.hh"
#include "driver/shard.hh"
#include "obs/host_profile.hh"
#include "obs/host_run_log.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

using namespace misp;
using namespace misp::driver;

namespace {

int
usage(const char *argv0, int code)
{
    std::fputs(mispsimUsage(argv0).c_str(), code ? stderr : stdout);
    return code;
}

void
listWorkloads()
{
    std::printf("%-18s %s\n", "name", "suite");
    for (const wl::WorkloadInfo &info : wl::allWorkloads())
        std::printf("%-18s %s\n", info.name.c_str(), info.suite.c_str());
    for (const wl::WorkloadInfo &info : wl::utilWorkloads())
        std::printf("%-18s %s\n", info.name.c_str(), info.suite.c_str());
}

/** Open @p path for writing; false (after saying so) if it cannot be. */
bool
openOutput(const std::string &path, std::ofstream *os)
{
    os->open(path);
    if (*os)
        return true;
    std::fprintf(stderr, "mispsim: cannot write '%s'\n", path.c_str());
    return false;
}

/** Write one output file through @p emit and say so. */
template <class Emit>
bool
writeOutput(const std::string &path, Emit emit)
{
    std::ofstream os;
    if (!openOutput(path, &os))
        return false;
    emit(os);
    std::fprintf(stderr, "mispsim: wrote %s\n", path.c_str());
    return true;
}

/** A --shard run's slice of the grid, for its --metrics header. */
struct ShardRun {
    ShardSpec spec;
    std::size_t totalPoints = 0;
    std::string configHash;
    std::vector<std::size_t> indices;
};

const char *
failureText(harness::RunStatus status)
{
    switch (status) {
      case harness::RunStatus::MaxTicksReached:
        return "never finished (hit max_ticks)";
      case harness::RunStatus::SnapshotError:
        return "snapshot error";
      case harness::RunStatus::WorkerCrashed:
        return "worker crashed";
      case harness::RunStatus::WorkerTimeout:
        return "worker timed out";
      case harness::RunStatus::Completed:
        break;
    }
    return "failed result validation";
}

/**
 * The shared end of every run — serial, --shard, and --merge-frames:
 * render the frame, write -o and @p metricsPath, report failed points,
 * evaluate the [report] asserts (a shard defers them to the merge),
 * and pick the exit code. @p results carries the per-point failure
 * notes; a merged frame has none.
 */
int
finishRun(const CliOptions &cli, const Scenario &sc, bool quick,
          const harness::MetricFrame &frame,
          const std::vector<PointResult> *results, const ShardRun *shard,
          const std::string &metricsPath)
{
    if (cli.pointsOnly)
        writePoints(std::cout, frame);
    else if (sc.report.mode == ReportMode::Events)
        writeEventsTable(std::cout, sc, frame, cli.markdown);
    else
        writeTable(std::cout, sc, frame, cli.markdown);

    if (!cli.jsonPath.empty() &&
        !writeOutput(cli.jsonPath, [&](std::ostream &os) {
            writeJson(os, sc, quick, frame);
        }))
        return 1;
    if (!metricsPath.empty() &&
        !writeOutput(metricsPath, [&](std::ostream &os) {
            if (shard)
                writeShardMetricsJson(os, sc, quick, frame, shard->spec,
                                      shard->totalPoints,
                                      shard->configHash, shard->indices);
            else
                writeMetricsJson(os, sc, quick, frame);
        }))
        return 1;

    int rc = 0;
    std::size_t failedPoints = 0;
    const bool degradeGracefully =
        sc.report.onFailedPoints == FailedPointPolicy::Skip;
    for (std::size_t r = 0; r < frame.numRows(); ++r) {
        const harness::MetricFrame::Row &row = frame.row(r);
        if (row.status == harness::RunStatus::Completed &&
            frame.at(r, "valid") != 0.0)
            continue;
        const bool infra = harness::runStatusIsInfraFailure(row.status);
        std::string what = failureText(row.status);
        if (infra && results)
            what += ": " + (*results)[r].run.note;
        const double attempts = frame.at(r, "attempts");
        if (attempts > 1)
            what += " [attempts=" +
                    std::to_string(static_cast<long long>(attempts)) +
                    "]";
        std::fprintf(stderr,
                     "mispsim: point machine=%s workload=%s "
                     "competitors=%u %s\n",
                     row.machine.c_str(), row.workload.c_str(),
                     row.competitors, what.c_str());
        // Infrastructure failures degrade instead of failing when the
        // policy says skip; simulation outcomes (max_ticks, invalid
        // results) are real findings and always fail the run.
        if (infra && degradeGracefully)
            ++failedPoints;
        else
            rc = 1;
    }

    // [report] asserts guard paper claims from the spec itself; any
    // failing (or malformed) assert makes the run exit non-zero. A
    // shard sees only its slice of the grid — cross-combination
    // references would dangle — so asserts are deferred to the
    // --merge-frames pass over the reassembled frame.
    if (shard) {
        if (!sc.report.asserts.empty())
            std::fprintf(stderr,
                         "mispsim: %zu [report] assert(s) deferred to "
                         "--merge-frames (--shard %zu/%zu)\n",
                         sc.report.asserts.size(), shard->spec.index,
                         shard->spec.count);
    } else {
        std::vector<AssertFailure> failures;
        std::size_t skippedGroups = 0;
        std::string err;
        if (!evaluateAsserts(sc, frame, &failures, &err,
                             &skippedGroups)) {
            std::fprintf(stderr, "mispsim: %s\n", err.c_str());
            return 1;
        }
        for (const AssertFailure &f : failures) {
            std::fprintf(stderr,
                         "mispsim: %s:%d: assert FAILED: %s (%s)\n",
                         sc.specPath.c_str(), f.line, f.text.c_str(),
                         f.detail.c_str());
            rc = 1;
        }
        if (skippedGroups > 0)
            std::fprintf(stderr,
                         "mispsim: %zu assert evaluation(s) skipped "
                         "over failed points\n",
                         skippedGroups);
        if (!sc.report.asserts.empty() && failures.empty())
            std::fprintf(stderr, "mispsim: %zu assert(s) passed\n",
                         sc.report.asserts.size());
    }
    // Distinct code for "completed with failed points": everything
    // that ran passed, but the sweep is degraded (on_failed_points =
    // skip swallowed infrastructure failures).
    if (rc == 0 && failedPoints > 0) {
        std::fprintf(stderr,
                     "mispsim: completed with %zu failed point(s) "
                     "(on_failed_points=skip)\n",
                     failedPoints);
        rc = 4;
    }
    return rc;
}

/**
 * `--merge-frames OUT IN...`: reassemble per-shard `--metrics` dumps
 * into one frame, written to OUT in the serial format, and finish it
 * like a serial run (the shards' deferred asserts run here).
 */
int
mergeFrames(const CliOptions &cli, const Scenario &sc)
{
    std::string err;
    std::vector<ShardDump> dumps;
    for (std::size_t i = 1; i < cli.args.size(); ++i) {
        ShardDump dump;
        if (!readShardDump(cli.args[i], &dump, &err)) {
            std::fprintf(stderr, "mispsim: %s\n", err.c_str());
            return 1;
        }
        dumps.push_back(std::move(dump));
    }
    // The grid is re-expanded under the mode the shards ran in;
    // mergeShardDumps fails closed if the dumps disagree on it.
    const bool quick = dumps[0].quick;
    std::vector<ScenarioPoint> grid;
    harness::MetricFrame frame;
    if (!sc.expandPoints(quick, &grid, &err) ||
        !mergeShardDumps(sc, quick, grid, dumps, &frame, &err)) {
        std::fprintf(stderr, "mispsim: %s\n", err.c_str());
        return 1;
    }
    return finishRun(cli, sc, quick, frame, nullptr, nullptr,
                     cli.mergeOut);
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    std::string err;
    if (!parseMispsimArgs(argc, argv, &cli, &err)) {
        if (err.empty())
            return usage(argv[0], 2);
        std::fprintf(stderr, "mispsim: %s\n", err.c_str());
        return 2;
    }
    if (cli.help)
        return usage(argv[0], 0);
    if (cli.listWorkloads) {
        listWorkloads();
        return 0;
    }

    setQuietLogging(!cli.verbose);

    const std::string &scnArg = cli.args[0];
    std::string path = findScenarioFile(scnArg, argv[0]);
    if (path.empty()) {
        std::fprintf(stderr, "mispsim: scenario '%s' not found\n",
                     scnArg.c_str());
        return 1;
    }
    SpecFile spec;
    Scenario sc;
    if (!SpecFile::parseFile(path, &spec, &err) ||
        !Scenario::fromSpec(spec, &sc, &err)) {
        std::fprintf(stderr, "mispsim: %s\n", err.c_str());
        return 1;
    }
    if (cli.onFailed)
        sc.report.onFailedPoints = *cli.onFailed;

    if (!cli.mergeOut.empty())
        return mergeFrames(cli, sc);

    std::vector<ScenarioPoint> points;
    if (!sc.expandPoints(cli.quick, &points, &err)) {
        std::fprintf(stderr, "mispsim: %s\n", err.c_str());
        return 1;
    }

    // --shard k/N: keep only this shard's coordinate combinations.
    // Combinations (not raw points) are dealt round-robin so each
    // coordinate group stays whole and its derived columns (speedup)
    // match the serial run's; the owned points keep their global grid
    // indices so snapshots and fault plans compose unchanged.
    const bool sharded = !cli.shard.empty();
    ShardRun shard;
    if (sharded) {
        shard.spec = cli.shardSpec;
        shard.totalPoints = points.size();
        shard.configHash = gridConfigHash(sc, points);
        shard.indices = shardPointIndices(cli.shardSpec, points.size(),
                                          sc.machines.size());
        std::vector<ScenarioPoint> owned;
        owned.reserve(shard.indices.size());
        for (std::size_t g : shard.indices)
            owned.push_back(points[g]);
        points.swap(owned);
    }

    if (cli.dryRun) {
        std::printf("scenario %s: %zu point(s)\n", sc.name.c_str(),
                    points.size());
        for (const ScenarioPoint &pt : points) {
            std::printf("  %-10s %-18s competitors=%u",
                        pt.machine.name.c_str(),
                        pt.workload.name.c_str(), pt.competitors);
            std::string coords = pt.coordString();
            if (!coords.empty())
                std::printf("  [%s]", coords.c_str());
            std::printf("\n");
        }
        return 0;
    }

    if (!cli.saveSnapshotDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cli.saveSnapshotDir, ec);
        if (ec) {
            std::fprintf(stderr, "mispsim: cannot create '%s': %s\n",
                         cli.saveSnapshotDir.c_str(),
                         ec.message().c_str());
            return 1;
        }
    }

    std::ofstream runLogFile;
    if (!cli.runLogPath.empty() && !openOutput(cli.runLogPath, &runLogFile))
        return 1;
    obs::RunLog runLog(runLogFile.is_open() ? &runLogFile : nullptr);

    ScenarioRunner::Options opts;
    opts.forceEngine = cli.engine.has_value();
    opts.engine = cli.engine.value_or(cpu::Engine::Superblock);
    opts.fullStats = cli.fullStats;
    opts.jobs = cli.jobs.value_or(1);
    opts.isolate = cli.isolate;
    opts.deadlineMs = cli.deadlineMs ? std::int64_t{*cli.deadlineMs} : -1;
    opts.retries = cli.retries ? static_cast<int>(*cli.retries) : -1;
    opts.backoffMs = cli.backoffMs ? static_cast<int>(*cli.backoffMs) : -1;
    opts.faults = cli.faults;
    opts.snapshotSaveDir = cli.saveSnapshotDir;
    opts.snapshotLoadDir = cli.fromSnapshotDir;
    opts.traceEnabled = !cli.tracePath.empty();
    opts.traceSkip = cli.traceSkip;
    if (runLogFile.is_open())
        opts.runLog = &runLog;
    opts.pointIndices = shard.indices;
    ScenarioRunner runner(opts);
    const bool showProgress = cli.progress || !cli.pointsOnly;
    std::vector<PointResult> results =
        runner.runAll(sc, points, showProgress ? &std::cerr : nullptr);

    // Per-point labels for the observability artifacts: coordinates
    // only, identical across engines and execution backends.
    auto pointLabel = [&](std::size_t i) {
        std::string label =
            results[i].machine + ":" + results[i].workload;
        std::string coords = points[i].coordString();
        if (!coords.empty())
            label += " " + coords;
        return label;
    };

    if (!cli.tracePath.empty()) {
        std::vector<obs::TracePoint> tps;
        tps.reserve(results.size());
        for (std::size_t i = 0; i < results.size(); ++i)
            tps.push_back({pointLabel(i), &results[i].run.trace});
        if (!writeOutput(cli.tracePath, [&](std::ostream &os) {
                obs::writeChromeTrace(os, tps);
            }))
            return 1;
    }

    if (!cli.profilePath.empty()) {
        std::vector<obs::PointProfile> profiles;
        profiles.reserve(results.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            obs::PointProfile p;
            p.label = pointLabel(i);
            p.engine = cpu::engineName(
                cli.engine.value_or(points[i].machine.engine));
            p.phases = results[i].run.phases;
            p.hostSeconds = results[i].run.hostSeconds;
            p.hostMips = results[i].run.hostMips;
            p.instsRetired = results[i].run.instsRetired;
            profiles.push_back(std::move(p));
        }
        if (!writeOutput(cli.profilePath, [&](std::ostream &os) {
                obs::writeProfileJson(os, profiles);
            }))
            return 1;
    }

    // One columnar frame per sweep: every renderer and the assert
    // evaluator read the results through it.
    const harness::MetricFrame frame = buildMetricFrame(sc, results);
    return finishRun(cli, sc, cli.quick, frame, &results,
                     sharded ? &shard : nullptr, cli.metricsPath);
}
