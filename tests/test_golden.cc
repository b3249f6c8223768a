/**
 * @file
 * Golden artifacts: every scenario's `mispsim <scn> --quick --metrics`
 * output and the table `mispsim <scn> --quick` prints on stdout are
 * committed under tests/golden/ and must be reproduced byte for byte.
 * Relative checks (engine vs engine, jobs vs serial, shard vs serial)
 * cannot see a change that moves every configuration the same way;
 * these files can. The table golden is also the spec of what each
 * scenario renders. A deliberate change to simulated results or to a
 * rendered table regenerates them with tools/regen_golden and says
 * why.
 *
 * The run below is the one mispsim performs: parse + expand the spec
 * in quick mode, run the grid, build the MetricFrame, and render it
 * with writeMetricsJson, writeTable and writeFigure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/report.hh"
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

/** What one `mispsim <scn> --quick` run writes, rendered in memory:
 *  the table and the figure on stdout, and the --metrics file. */
struct QuickArtifacts {
    std::string metrics; ///< the --metrics file
    std::string table;   ///< stdout
};

QuickArtifacts
quickArtifacts(const Scenario &sc)
{
    std::vector<ScenarioPoint> grid;
    std::string err;
    EXPECT_TRUE(sc.expandPoints(/*quickMode=*/true, &grid, &err)) << err;
    RunnerOptions opts;
    opts.hostLines = false;
    const std::vector<PointResult> results =
        ScenarioRunner(opts).runAll(sc, grid);
    const harness::MetricFrame frame = buildMetricFrame(sc, results);
    QuickArtifacts out;
    std::ostringstream metrics;
    writeMetricsJson(metrics, sc, /*quickMode=*/true, frame);
    out.metrics = metrics.str();
    std::ostringstream table;
    writeTable(table, sc, frame, /*markdown=*/false);
    EXPECT_TRUE(writeFigure(table, sc, frame, /*markdown=*/false, &err))
        << err;
    out.table = table.str();
    return out;
}

fs::path
goldenPath(const std::string &name, const char *kind)
{
    return kRoot / "tests" / "golden" / (name + ".quick." + kind);
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

TEST(Golden, QuickArtifactsByteIdentical)
{
    const std::vector<fs::path> scns = scenarioFiles();
    ASSERT_FALSE(scns.empty());
    for (const fs::path &scn : scns) {
        const std::string name = scn.stem().string();
        const fs::path metricsPath = goldenPath(name, "metrics.json");
        const fs::path tablePath = goldenPath(name, "table.txt");
        ASSERT_TRUE(fs::exists(metricsPath) && fs::exists(tablePath))
            << name << ": golden missing; run tools/regen_golden";
        const QuickArtifacts got = quickArtifacts(loadScenario(scn));
        const std::string metrics = readFile(metricsPath);
        EXPECT_TRUE(got.metrics == metrics)
            << name << ": --quick --metrics differs from its golden ("
            << got.metrics.size() << " vs " << metrics.size()
            << " bytes)";
        EXPECT_EQ(got.table, readFile(tablePath))
            << name << ": the --quick table differs from its golden";
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
    EXPECT_FALSE(quickArtifacts(sc).metrics ==
                 readFile(goldenPath("smoke", "metrics.json")));
}
