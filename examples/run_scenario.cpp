/**
 * @file
 * Driving the scenario subsystem from C++ instead of a `.scn` file.
 *
 * The `mispsim` CLI is a thin shell around this exact sequence: parse
 * a spec, type it into a Scenario, expand the sweep grid, run it, and
 * render the results — the per-point table, then the figure the
 * spec's `[report] column` lines declare. Embedding the spec as a
 * string is handy for programmatic experiments and for tests.
 *
 *   $ ./build/run_scenario
 */

#include <iostream>

#include "driver/report.hh"
#include "driver/runner.hh"
#include "sim/logging.hh"

using namespace misp;
using namespace misp::driver;

int
main()
{
    setQuietLogging(true);

    // A two-axis grid: AMS count x workload, 1 OMS each time.
    const std::string spec = R"(
        [scenario]
        name = ams_scaling
        title = dense_mvm and gauss vs AMS count

        [machine misp]
        ams = 1                     ; overridden by the sweep
        backend = shred

        [workload]
        name = dense_mvm
        workers = 7

        [sweep]
        machine.ams = 1, 3, 7
        workload.name = dense_mvm, gauss

        [report]
        column = Mcycles at 7 AMS : misp[machine.ams=7].mcycles
        column = speedup 1 -> 7 AMS : misp[machine.ams=1].ticks / misp[machine.ams=7].ticks
    )";

    SpecFile file;
    Scenario sc;
    std::vector<ScenarioPoint> grid;
    std::string err;
    if (!SpecFile::parse(spec, "<embedded>", &file, &err) ||
        !Scenario::fromSpec(file, &sc, &err) ||
        !sc.expandPoints(/*quickMode=*/false, &grid, &err)) {
        std::cerr << "run_scenario: " << err << "\n";
        return 1;
    }

    ScenarioRunner::Options opts;
    opts.hostLines = false;
    std::vector<PointResult> results =
        ScenarioRunner(opts).runAll(sc, grid, &std::cerr);

    // Every renderer reads the sweep through one MetricFrame.
    const harness::MetricFrame frame = buildMetricFrame(sc, results);
    writeTable(std::cout, sc, frame, /*markdown=*/false);
    if (!writeFigure(std::cout, sc, frame, /*markdown=*/false, &err)) {
        std::cerr << "run_scenario: " << err << "\n";
        return 1;
    }
    return 0;
}
