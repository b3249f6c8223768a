/**
 * @file
 * Shared experiment plumbing for the paper-reproduction benches.
 *
 * Each bench binary regenerates one table or figure from the paper's
 * evaluation (Section 5); see docs/RESULTS.md for the index. Every
 * bench accepts `--quick` (smaller inputs for CI smoke runs) and most
 * `--engine=ref|superblock`; the scenario wrappers also take
 * `--points`. The flags are rows of mispsim's table
 * (driver/cli_help.hh), and any other argument exits 2.
 */

#ifndef MISP_BENCH_BENCH_COMMON_HH
#define MISP_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "driver/cli_help.hh"
#include "driver/runner.hh"
#include "harness/run_record.hh"
#include "workloads/workload.hh"

namespace misp::bench {

/** Outcome of one measured run — the unified record of the run layer
 *  (status enum, ticks, validation, EventSnapshot under `.events`,
 *  host throughput, derived metrics). */
using RunResult = harness::RunRecord;

/** Default execution engine baked into the config helpers below. Set
 *  once per bench by parseBenchFlags() from `--engine=`; explicit
 *  assignments to SystemConfig::misp.engine after construction still
 *  win (the engine ablation relies on that for its A/B legs). */
inline cpu::Engine gBenchEngine = cpu::Engine::Superblock;

/** Parse the bench's flags — the rows of mispsim's flag table named
 *  @p names — and exit 2 on anything else. Call first thing in
 *  main(). Returns the parsed options (`quick`, `engine`, ...). */
inline driver::CliOptions
parseBenchFlags(int argc, char **argv,
                std::initializer_list<std::string_view> names = {
                    "--quick", "--engine"})
{
    driver::CliOptions cli;
    if (!driver::parseToolArgs(driver::mispsimFlagSubset(names), argc,
                               argv, &cli))
        std::exit(2);
    gBenchEngine = cli.engine.value_or(cpu::Engine::Superblock);
    return cli;
}

/** Sum of retired guest instructions over every sequencer of every
 *  processor in @p sys (shared with the scenario runner). */
inline std::uint64_t
totalInstsRetired(arch::MispSystem &sys)
{
    return harness::totalInstsRetired(sys);
}

/** The paper's default machine: 8 sequencers at 3.0 GHz. */
inline arch::SystemConfig
mispUni(unsigned numAms = 7)
{
    arch::SystemConfig sys = arch::SystemConfig::uniprocessor(numAms);
    sys.misp.engine = gBenchEngine;
    return sys;
}

/** An MP machine with the given per-processor AMS counts; the single
 *  place bench-wide flags are folded into MP configs. */
inline arch::SystemConfig
mispMp(const std::vector<unsigned> &amsCounts)
{
    arch::SystemConfig sys = arch::SystemConfig::mp(amsCounts);
    sys.misp.engine = gBenchEngine;
    return sys;
}

inline arch::SystemConfig
smp8()
{
    return mispMp({0, 0, 0, 0, 0, 0, 0, 0});
}

inline arch::SystemConfig
smp1()
{
    return mispMp({0});
}

/** Uniform host-throughput line, one per measured run, on stderr (so
 *  figure tables on stdout stay clean). Shared with the scenario
 *  runner via harness::reportHost. @return MIPS. */
inline double
reportHost(const std::string &name, std::uint64_t instsRetired,
           double hostSeconds, cpu::Engine engine)
{
    return harness::reportHost(name, instsRetired, hostSeconds, engine);
}

/** Build + load + run one workload to completion; harvest stats —
 *  a thin adapter over the unified run layer (harness::runOne), so
 *  bench runs can never diverge from `mispsim` scenario runs. The
 *  uniform HOST throughput line keeps perf trajectories comparable
 *  across figures. */
inline RunResult
runWorkload(const arch::SystemConfig &sys, rt::Backend backend,
            const wl::WorkloadInfo &info, const wl::WorkloadParams &params)
{
    harness::RunRequest req;
    req.label = info.name;
    req.config = sys;
    req.backend = backend;
    req.target = {info.name, params};
    return harness::runOne(req);
}

/** Default parameters matching the paper's 1 OMS + 7 AMS setup. */
inline wl::WorkloadParams
defaultParams(bool quick)
{
    wl::WorkloadParams p;
    p.workers = 7;
    p.scale = 1;
    (void)quick; // problem sizes are already scaled; quick trims suites
    return p;
}

/** Workload subset: all in full mode, a spread in quick mode. */
inline std::vector<const wl::WorkloadInfo *>
benchSuite(bool quick)
{
    std::vector<const wl::WorkloadInfo *> out;
    for (const wl::WorkloadInfo &info : wl::allWorkloads()) {
        if (quick && info.name != "dense_mvm" && info.name != "gauss" &&
            info.name != "Raytracer" && info.name != "swim") {
            continue;
        }
        out.push_back(&info);
    }
    return out;
}

/**
 * The shared scaffolding of every scenario-wrapper bench: quiet
 * logging, the common flags (--quick / --engine / --points),
 * the run of @p scn through the scenario runner, and the sweep's
 * MetricFrame — the one store the bench's presentation code queries
 * (the same frame `mispsim` renders and asserts against). Returns
 * true when the caller should exit immediately with *exitCode — on a
 * failed run (1), or after `--points` printed the canonical
 * equivalence lines (0).
 */
inline bool
scenarioBenchMain(const char *scn, const char *tool, int argc,
                  char **argv, driver::Scenario *sc,
                  harness::MetricFrame *frame, int *exitCode)
{
    setQuietLogging(true);
    const driver::CliOptions cli =
        parseBenchFlags(argc, argv, {"--quick", "--engine", "--points"});

    driver::RunnerOptions opts;
    opts.forceEngine = cli.engine.has_value();
    opts.engine = gBenchEngine;
    std::vector<driver::PointResult> results;
    if (!driver::runScenarioByName(scn, argv[0], cli.quick, opts, tool,
                                   sc, &results)) {
        *exitCode = 1;
        return true;
    }
    *frame = driver::buildMetricFrame(*sc, results);
    if (cli.pointsOnly) {
        driver::writePoints(std::cout, *frame);
        *exitCode = 0;
        return true;
    }
    return false;
}

inline void
printHeader(const char *title)
{
    std::printf("\n==================================================="
                "=====================\n");
    std::printf("%s\n", title);
    std::printf("====================================================="
                "===================\n");
}

} // namespace misp::bench

#endif // MISP_BENCH_BENCH_COMMON_HH
