/**
 * @file
 * Shared experiment plumbing for the benches: Table 2 and the
 * host-side ablations (each paper figure is a `mispsim` scenario;
 * see docs/RESULTS.md for the index). Every bench
 * accepts `--quick` (smaller inputs for CI smoke runs) and most
 * `--engine=ref|superblock`. The flags are rows of mispsim's table
 * (driver/cli_help.hh), and any other argument exits 2.
 */

#ifndef MISP_BENCH_BENCH_COMMON_HH
#define MISP_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
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
