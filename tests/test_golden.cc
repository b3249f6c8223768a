/**
 * @file
 * Golden artifacts: every scenario's `mispsim <scn> --quick --metrics`
 * output is committed under tests/golden/ and must be reproduced byte
 * for byte. Relative checks (engine vs engine, jobs vs serial, shard vs
 * serial) cannot see a change that moves every configuration the same
 * way; these files can. A deliberate change to simulated results
 * regenerates them with tools/regen_golden and says why.
 *
 * The run below is the one mispsim performs: parse + expand the spec
 * in quick mode, run the grid, build the MetricFrame, and render it
 * with writeMetricsJson.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/runner.hh"
#include "driver/scenario.hh"
#include "driver/spec.hh"
#include "sim/logging.hh"

using namespace misp;
using namespace misp::driver;

namespace {

namespace fs = std::filesystem;

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setQuietLogging(true); }
};

const ::testing::Environment *const kQuietEnv =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

const fs::path kRoot = MISP_SOURCE_ROOT;

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

Scenario
loadScenario(const fs::path &scn)
{
    SpecFile spec;
    Scenario sc;
    std::string err;
    EXPECT_TRUE(SpecFile::parseFile(scn.string(), &spec, &err) &&
                Scenario::fromSpec(spec, &sc, &err))
        << err;
    return sc;
}

/** The `--quick --metrics` artifact of @p sc, rendered in memory. */
std::string
quickMetrics(const Scenario &sc)
{
    std::vector<ScenarioPoint> grid;
    std::string err;
    EXPECT_TRUE(sc.expandPoints(/*quickMode=*/true, &grid, &err)) << err;
    RunnerOptions opts;
    opts.hostLines = false;
    const std::vector<PointResult> results =
        ScenarioRunner(opts).runAll(sc, grid);
    std::ostringstream os;
    writeMetricsJson(os, sc, /*quickMode=*/true,
                     buildMetricFrame(sc, results));
    return os.str();
}

fs::path
goldenPath(const std::string &name)
{
    return kRoot / "tests" / "golden" / (name + ".quick.metrics.json");
}

std::vector<fs::path>
scenarioFiles()
{
    std::vector<fs::path> out;
    for (const auto &e : fs::directory_iterator(kRoot / "scenarios")) {
        if (e.path().extension() == ".scn")
            out.push_back(e.path());
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

TEST(Golden, QuickMetricsByteIdentical)
{
    const std::vector<fs::path> scns = scenarioFiles();
    ASSERT_FALSE(scns.empty());
    for (const fs::path &scn : scns) {
        const fs::path path = goldenPath(scn.stem().string());
        ASSERT_TRUE(fs::exists(path))
            << path << " missing; run tools/regen_golden";
        const std::string golden = readFile(path);
        const std::string got = quickMetrics(loadScenario(scn));
        EXPECT_TRUE(got == golden)
            << scn.stem().string()
            << ": --quick --metrics differs from its golden ("
            << got.size() << " vs " << golden.size() << " bytes)";
    }
}

// The byte diff must see a one-knob change: the same smoke sweep with
// the workload's page-probe knob flipped no longer matches.
TEST(Golden, OneWorkloadKnobPerturbedFails)
{
    const fs::path scn = kRoot / "scenarios" / "smoke.scn";
    Scenario sc = loadScenario(scn);
    ASSERT_FALSE(sc.workload.params.prefault);
    std::string err;
    ASSERT_TRUE(sc.workload.apply("prefault", "true", &err)) << err;
    EXPECT_FALSE(quickMetrics(sc) == readFile(goldenPath("smoke")));
}
