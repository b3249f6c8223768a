/**
 * @file
 * Ablation: the host execution engines — reference per-instruction
 * decode against chained superblocks over predecoded pages.
 *
 * Runs interpreter-bound kernels — straight-line, tight loop, and a
 * memory-touching loop — plus one full-system workload, each under both
 * engines, and reports:
 *
 *  - host throughput (retired guest instructions per host second) per
 *    engine and the superblock/ref speedup ratio, and
 *  - a model check: simulated cycles, retired counts, and final ticks
 *    must be bit-identical across the engines (an engine is a
 *    host-side optimization only). Any divergence fails the run.
 *
 * Results are also written to BENCH_decode_cache.json so CI keeps a
 * perf trajectory across PRs.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "harness/bare_machine.hh"
#include "isa/assembler.hh"

using namespace misp;
using namespace misp::bench;

namespace {

constexpr unsigned kNumEngines = 2;
const cpu::Engine kEngines[kNumEngines] = {cpu::Engine::Reference,
                                           cpu::Engine::Superblock};

struct KernelResult {
    std::string name;
    Tick simCycles[kNumEngines] = {};
    std::uint64_t retired[kNumEngines] = {};
    double mips[kNumEngines] = {};
    double sbSpeedup = 0.0; ///< superblock vs ref
    bool identical = false;
};

/** Multi-page straight-line code: @p bodyInsts ALU ops in sequence,
 *  re-run @p reps times by one outer backward branch. */
std::string
straightLineSrc(unsigned bodyInsts, unsigned reps)
{
    std::string src = "main:\n    movi r1, 0\nouter:\n";
    for (unsigned i = 0; i < bodyInsts; ++i) {
        switch (i % 4) {
          case 0: src += "    addi r2, r2, 3\n"; break;
          case 1: src += "    xori r3, r2, 0x5a\n"; break;
          case 2: src += "    muli r4, r3, 7\n"; break;
          case 3: src += "    subi r5, r4, 1\n"; break;
        }
    }
    src += "    addi r1, r1, 1\n    cmpi r1, " + std::to_string(reps) +
           "\n    jcc.lt outer\n    halt\n";
    return src;
}

std::string
tightLoopSrc(unsigned iters)
{
    return R"(
        main:
            movi r1, 0
        loop:
            addi r1, r1, 1
            muli r2, r1, 3
            xori r3, r2, 0x55
            cmpi r1, )" +
           std::to_string(iters) + R"(
            jcc.lt loop
            halt
    )";
}

std::string
memLoopSrc(unsigned iters)
{
    // Loads + stores so the data-side TLB and the SMC write probe are
    // both exercised (stores land on data pages: O(1) bitmap test).
    return R"(
        main:
            movi r1, 0
            movi r4, 0x100000
        loop:
            ld8 r2, [r4+0]
            addi r2, r2, 1
            st8 [r4+0], r2
            addi r1, r1, 1
            cmpi r1, )" +
           std::to_string(iters) + R"(
            jcc.lt loop
            halt
    )";
}

struct Measured {
    Tick ticks = 0;
    Tick busyCycles = 0;
    std::uint64_t retired = 0;
    double seconds = 0.0;
};

Measured
runKernel(const std::string &src, cpu::Engine engine)
{
    harness::BareMachine m(src, engine);
    auto t0 = std::chrono::steady_clock::now();
    m.run();
    auto t1 = std::chrono::steady_clock::now();
    Measured out;
    out.ticks = m.eq.curTick();
    out.busyCycles = m.seq.busyCycles();
    out.retired = m.seq.instsRetired();
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    return out;
}

KernelResult
compareKernel(const std::string &name, const std::string &src,
              unsigned reps)
{
    KernelResult r;
    r.name = name;
    // Interleave the engines within each rep and keep the best host
    // time per engine: slow drift in background load then hits every
    // engine alike instead of biasing whichever leg ran last.
    Measured last[kNumEngines];
    double best[kNumEngines] = {1e30, 1e30};
    for (unsigned i = 0; i < reps; ++i) {
        for (unsigned e = 0; e < kNumEngines; ++e) {
            Measured m = runKernel(src, kEngines[e]);
            last[e] = m;
            best[e] = std::min(best[e], m.seconds);
        }
    }
    for (unsigned e = 0; e < kNumEngines; ++e) {
        r.simCycles[e] = last[e].busyCycles;
        r.retired[e] = last[e].retired;
        r.mips[e] = last[e].retired / best[e] / 1e6;
    }
    r.identical = last[0].ticks == last[1].ticks &&
                  last[0].busyCycles == last[1].busyCycles &&
                  last[0].retired == last[1].retired;
    r.sbSpeedup = r.mips[1] / r.mips[0];
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);
    const bool quick = parseBenchFlags(argc, argv, {"--quick"}).quick;
    const unsigned scale = quick ? 1 : 4;
    const unsigned reps = quick ? 2 : 3;

    printHeader("Ablation: host execution engines "
                "(ref -> chained superblocks)");

    std::vector<KernelResult> results;
    results.push_back(compareKernel(
        "straight_line", straightLineSrc(600, 200 * scale), reps));
    results.push_back(
        compareKernel("tight_loop", tightLoopSrc(50'000 * scale), reps));
    results.push_back(
        compareKernel("mem_loop", memLoopSrc(30'000 * scale), reps));

    // Full-system check: one Figure-4 workload end to end under every
    // engine — the machine pair lives in the spec, whose [report]
    // asserts also pin the bit-identity contract.
    driver::Scenario sc;
    std::vector<driver::PointResult> grid;
    driver::RunnerOptions opts;
    // This bench takes no --engine (it exits 2 on one): the spec's
    // machine pair pins one engine per leg, and the global override
    // would collapse the A/B onto one engine.
    if (!driver::runScenarioByName("ablation_decode_cache.scn", argv[0],
                                   quick, opts, "ablation_decode_cache",
                                   &sc, &grid))
        return 1;
    bool fullIdentical = false;
    {
        // Frame rows are in grid order: a row index is a grid index.
        const harness::MetricFrame frame =
            driver::buildMetricFrame(sc, grid);
        const std::size_t iRef = frame.findRow("dc_off", "dense_mvm", 0);
        const std::size_t iSb = frame.findRow("dc_sb", "dense_mvm", 0);
        MISP_ASSERT(iRef != harness::MetricFrame::npos &&
                    iSb != harness::MetricFrame::npos);
        const driver::PointResult *rRef = &grid[iRef];
        const driver::PointResult *rSb = &grid[iSb];
        fullIdentical = rSb->run.ticks == rRef->run.ticks &&
                        rRef->run.valid && rSb->run.valid &&
                        rSb->run.instsRetired == rRef->run.instsRetired;
        std::printf("\nfull-system dense_mvm: ref=%llu sb=%llu ticks "
                    "(%s), host %.2f / %.2f MIPS\n",
                    (unsigned long long)rRef->run.ticks,
                    (unsigned long long)rSb->run.ticks,
                    fullIdentical ? "identical" : "DIVERGED",
                    rRef->run.hostMips, rSb->run.hostMips);
    }

    std::printf("\n%-14s %12s %9s %9s %9s  %s\n", "kernel",
                "sim_cycles", "mips_ref", "mips_sb", "sb/ref", "model");
    bool allIdentical = fullIdentical;
    double minSbSpeedup = 1e30;
    for (const KernelResult &r : results) {
        std::printf("%-14s %12llu %9.2f %9.2f %8.2fx  %s\n",
                    r.name.c_str(), (unsigned long long)r.simCycles[0],
                    r.mips[0], r.mips[1], r.sbSpeedup,
                    r.identical ? "identical" : "DIVERGED");
        allIdentical = allIdentical && r.identical;
        minSbSpeedup = std::min(minSbSpeedup, r.sbSpeedup);
    }

    // Machine-readable trajectory for CI.
    FILE *json = std::fopen("BENCH_decode_cache.json", "w");
    if (json) {
        std::fprintf(json, "{\n  \"kernels\": [\n");
        for (std::size_t i = 0; i < results.size(); ++i) {
            const KernelResult &r = results[i];
            std::fprintf(
                json,
                "    {\"name\": \"%s\", \"mips_ref\": %.2f, "
                "\"mips_superblock\": %.2f, \"speedup_superblock\": %.3f, "
                "\"sim_cycles\": %llu, \"retired\": %llu, "
                "\"identical\": %s}%s\n",
                r.name.c_str(), r.mips[0], r.mips[1], r.sbSpeedup,
                (unsigned long long)r.simCycles[0],
                (unsigned long long)r.retired[0],
                r.identical ? "true" : "false",
                i + 1 < results.size() ? "," : "");
        }
        std::fprintf(json,
                     "  ],\n  \"min_superblock_speedup\": %.3f,\n"
                     "  \"model_identical\": %s\n}\n",
                     minSbSpeedup, allIdentical ? "true" : "false");
        std::fclose(json);
        std::printf("\nwrote BENCH_decode_cache.json (min superblock "
                    "speedup %.2fx over ref)\n",
                    minSbSpeedup);
    }

    if (!allIdentical) {
        std::printf("FAIL: simulated results diverged across "
                    "execution engines\n");
        return 1;
    }
    return 0;
}
