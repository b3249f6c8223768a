/**
 * @file
 * Unified run layer tests: RunRecord status/derived metrics, runOne()
 * equivalence with the hand-rolled experiment loops the ported benches
 * (table1_events, fig5_signal_cost, ablation_serialization,
 * ablation_pageprobe) used before the scenario specs existed, `--jobs`
 * byte-identity with serial runs, [report] assert evaluation, the
 * events-mode emitter and the figure columns, and the `param.<key>`
 * per-workload knobs.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "driver/report.hh"
#include "driver/runner.hh"
#include "harness/run_record.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

using namespace misp;
using namespace misp::driver;

namespace {

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setQuietLogging(true); }
};

const ::testing::Environment *const kQuietEnv =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

Scenario
mustScenario(const std::string &text)
{
    SpecFile spec;
    Scenario sc;
    std::string err;
    EXPECT_TRUE(SpecFile::parse(text, "<test>", &spec, &err)) << err;
    EXPECT_TRUE(Scenario::fromSpec(spec, &sc, &err)) << err;
    return sc;
}

std::vector<PointResult>
runScenarioText(const std::string &text, unsigned jobs = 1)
{
    Scenario sc = mustScenario(text);
    std::vector<ScenarioPoint> pts;
    std::string err;
    EXPECT_TRUE(sc.expandPoints(false, &pts, &err)) << err;
    ScenarioRunner::Options opts;
    opts.hostLines = false;
    opts.jobs = jobs;
    return ScenarioRunner(opts).runAll(sc, pts);
}

/** The result on @p machine at @p coords, looked up through the
 *  MetricFrame (its rows are in result order); nullptr if absent. */
const PointResult *
resultAt(const std::vector<PointResult> &results,
         const std::string &machine,
         const std::vector<harness::MetricFrame::Coord> &coords)
{
    const std::size_t row =
        buildMetricFrame(Scenario{}, results).findRow(machine, coords);
    return row == harness::MetricFrame::npos ? nullptr : &results[row];
}

/** The pre-port runWorkload() loop every hand-rolled bench shared:
 *  build, load unpinned, run to completion, validate, snapshot. */
struct HandRolledRun {
    Tick ticks = 0;
    bool valid = false;
    harness::EventSnapshot events;
    double suspendedCycles = 0; // summed directly over the AMSs
};

HandRolledRun
handRolledRunWorkload(const arch::SystemConfig &sys, rt::Backend backend,
                      const std::string &name,
                      const wl::WorkloadParams &params)
{
    const wl::WorkloadInfo *info = wl::findWorkload(name);
    EXPECT_NE(info, nullptr) << name;
    wl::Workload w = info->build(params);
    harness::Experiment exp(sys, backend);
    harness::LoadedProcess proc = exp.load(w.app);
    HandRolledRun out;
    out.ticks = exp.runToCompletion(proc.process).ticks;
    out.valid = !w.validate || w.validate(proc.process->addressSpace());
    arch::MispProcessor &mp = exp.system().processor(0);
    out.events = harness::snapshotEvents(mp);
    for (unsigned i = 0; i < mp.numAms(); ++i)
        out.suspendedCycles += double(mp.amsAt(i).suspendedCycles());
    return out;
}

/** The evaluator reads results through the sweep's MetricFrame; the
 *  tests build it the way mispsim does. */
bool
evalAsserts(const Scenario &sc, const std::vector<PointResult> &results,
            std::vector<AssertFailure> *failures, std::string *err)
{
    return evaluateAsserts(sc, buildMetricFrame(sc, results), failures,
                           err);
}

/** A synthetic completed record for emitter/assert tests. */
driver::PointResult
fakePoint(const std::string &machine, const std::string &workload,
          Tick ticks, std::uint64_t insts,
          std::vector<std::pair<std::string, std::string>> coords = {})
{
    driver::PointResult r;
    r.machine = machine;
    r.workload = workload;
    r.coords = std::move(coords);
    r.run.status = harness::RunStatus::Completed;
    r.run.ticks = ticks;
    r.run.valid = true;
    r.run.instsRetired = insts;
    r.run.events.omsPageFaults = 10;
    r.run.events.amsPageFaults = 40;
    return r;
}

} // namespace

// ---------------------------------------------------------------------
// RunRecord basics
// ---------------------------------------------------------------------

TEST(RunRecord, StatusEnumReplacesAmbiguousTickZero)
{
    // A spinner never exits: the old API returned the ambiguous Tick 0,
    // the record says MaxTicksReached explicitly.
    harness::RunRequest req;
    req.label = "spin";
    req.config = arch::SystemConfig::uniprocessor(1);
    req.target = {"spinner", {}};
    req.maxTicks = 5'000'000;
    req.hostLine = false;
    harness::RunRecord rec = harness::runOne(req);
    EXPECT_EQ(rec.status, harness::RunStatus::MaxTicksReached);
    EXPECT_FALSE(rec.completed());
    EXPECT_FALSE(rec.ok());
    EXPECT_EQ(rec.ticks, 0u);
    EXPECT_GT(rec.instsRetired, 0u); // it did run, it just never exited
    EXPECT_STREQ(harness::runStatusName(rec.status), "max_ticks");

    harness::RunRequest fin = req;
    fin.target = {"dense_mvm", {}};
    fin.maxTicks = 2'000'000'000'000ull;
    harness::RunRecord done = harness::runOne(fin);
    EXPECT_EQ(done.status, harness::RunStatus::Completed);
    EXPECT_TRUE(done.ok());
    EXPECT_GT(done.ticks, 0u);
}

TEST(RunRecord, DerivedMetrics)
{
    harness::RunRecord base;
    base.status = harness::RunStatus::Completed;
    base.ticks = 200;
    harness::RunRecord r;
    r.status = harness::RunStatus::Completed;
    r.ticks = 100;
    r.instsRetired = 2'000'000;

    EXPECT_DOUBLE_EQ(r.speedupOver(base), 2.0);
    EXPECT_DOUBLE_EQ(base.speedupOver(r), 0.5);
    EXPECT_DOUBLE_EQ(r.megaCycles(), 1e-4);
    EXPECT_DOUBLE_EQ(r.perMegaInsts(10), 5.0);

    harness::RunRecord never;
    EXPECT_DOUBLE_EQ(r.speedupOver(never), 0.0);
    EXPECT_DOUBLE_EQ(never.speedupOver(r), 0.0);
    EXPECT_DOUBLE_EQ(never.perMegaInsts(10), 0.0);
}

// ---------------------------------------------------------------------
// Ported benches vs the old hand-rolled loops, tick for tick
// ---------------------------------------------------------------------

TEST(PortedBenches, Table1RunsMatchHandRolledLoop)
{
    // scenarios/table1.scn, shrunk to two applications: each grid
    // point must reproduce the old runWorkload(mispUni(7), Shred, ...)
    // numbers exactly — ticks and every Table-1 event class.
    wl::WorkloadParams params; // defaults: workers=7, scale=1
    std::vector<PointResult> results = runScenarioText(
        "[machine misp]\nprocessors = 7\nbackend = shred\n"
        "[workload]\nname = dense_mvm\nworkers = 7\n"
        "[sweep]\nworkload.name = dense_mvm, gauss\n");
    ASSERT_EQ(results.size(), 2u);

    for (const PointResult &r : results) {
        HandRolledRun old = handRolledRunWorkload(
            arch::SystemConfig::uniprocessor(7), rt::Backend::Shred,
            r.workload, params);
        EXPECT_EQ(r.run.ticks, old.ticks) << r.workload;
        EXPECT_TRUE(r.run.valid);
        EXPECT_EQ(r.run.events.omsSyscalls, old.events.omsSyscalls);
        EXPECT_EQ(r.run.events.omsPageFaults, old.events.omsPageFaults);
        EXPECT_EQ(r.run.events.timer, old.events.timer);
        EXPECT_EQ(r.run.events.interrupts, old.events.interrupts);
        EXPECT_EQ(r.run.events.amsSyscalls, old.events.amsSyscalls);
        EXPECT_EQ(r.run.events.amsPageFaults, old.events.amsPageFaults);
        EXPECT_EQ(r.run.events.serializations, old.events.serializations);
    }
}

TEST(PortedBenches, Fig5SignalSweepMatchesHandRolledLoop)
{
    // scenarios/fig5_signal.scn shape: one application at signal 0 and
    // 5000 cycles, against the old per-cost mispUni(7) loop.
    std::vector<PointResult> results = runScenarioText(
        "[machine misp]\nprocessors = 7\nbackend = shred\n"
        "[workload]\nname = dense_mvm\nworkers = 7\n"
        "[sweep]\nmachine.signal_cycles = 0, 5000\n");
    ASSERT_EQ(results.size(), 2u);

    wl::WorkloadParams params;
    for (Cycles cost : {Cycles(0), Cycles(5000)}) {
        arch::SystemConfig cfg = arch::SystemConfig::uniprocessor(7);
        cfg.misp.signalCycles = cost;
        HandRolledRun old = handRolledRunWorkload(
            cfg, rt::Backend::Shred, "dense_mvm", params);
        const PointResult *r = resultAt(
            results, "misp",
            {{"machine.signal_cycles", std::to_string(cost)}});
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->run.ticks, old.ticks) << "signal=" << cost;
    }
    // The sweep must actually change the machine: nonzero signal cost
    // is slower than the ideal.
    EXPECT_GT(results[1].run.ticks, results[0].run.ticks);
}

TEST(PortedBenches, SerializationPolicySweepMatchesHandRolledLoop)
{
    // scenarios/ablation_serialization.scn shape, one application; the
    // ablation's extra metric (total AMS suspension cycles) must also
    // match the old direct amsAt(i).suspendedCycles() sum.
    std::vector<PointResult> results = runScenarioText(
        "[machine misp]\nprocessors = 7\nbackend = shred\n"
        "[workload]\nname = gauss\nworkers = 7\n"
        "[sweep]\nmachine.serialization = suspend_all, "
        "speculative_monitor\n");
    ASSERT_EQ(results.size(), 2u);

    wl::WorkloadParams params;
    const std::pair<const char *, arch::SerializationPolicy> legs[] = {
        {"suspend_all", arch::SerializationPolicy::SuspendAll},
        {"speculative_monitor",
         arch::SerializationPolicy::SpeculativeMonitor},
    };
    for (const auto &[coord, policy] : legs) {
        arch::SystemConfig cfg = arch::SystemConfig::uniprocessor(7);
        cfg.misp.serialization = policy;
        HandRolledRun old = handRolledRunWorkload(
            cfg, rt::Backend::Shred, "gauss", params);
        const PointResult *r =
            resultAt(results, "misp", {{"machine.serialization", coord}});
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->run.ticks, old.ticks) << coord;
        EXPECT_DOUBLE_EQ(r->run.events.suspendedCycles,
                         old.suspendedCycles)
            << coord;
    }
    // The speculative policy removes all AMS suspension.
    EXPECT_GT(results[0].run.events.suspendedCycles, 0.0);
    EXPECT_DOUBLE_EQ(results[1].run.events.suspendedCycles, 0.0);
}

TEST(PortedBenches, PageprobeSweepMatchesHandRolledLoop)
{
    // scenarios/ablation_pageprobe.scn shape: prefault off -> on moves
    // compulsory faults from the AMSs to the OMS serial region.
    std::vector<PointResult> results = runScenarioText(
        "[machine misp]\nprocessors = 7\nbackend = shred\n"
        "[workload]\nname = dense_mvm\nworkers = 7\n"
        "[sweep]\nworkload.prefault = false, true\n");
    ASSERT_EQ(results.size(), 2u);

    for (bool prefault : {false, true}) {
        wl::WorkloadParams params;
        params.prefault = prefault;
        HandRolledRun old = handRolledRunWorkload(
            arch::SystemConfig::uniprocessor(7), rt::Backend::Shred,
            "dense_mvm", params);
        const PointResult *r = resultAt(
            results, "misp",
            {{"workload.prefault", prefault ? "true" : "false"}});
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->run.ticks, old.ticks) << "prefault=" << prefault;
        EXPECT_EQ(r->run.events.amsPageFaults, old.events.amsPageFaults);
        EXPECT_EQ(r->run.events.omsPageFaults, old.events.omsPageFaults);
    }
    const PointResult *off =
        resultAt(results, "misp", {{"workload.prefault", "false"}});
    const PointResult *on =
        resultAt(results, "misp", {{"workload.prefault", "true"}});
    ASSERT_TRUE(off && on);
    EXPECT_GT(off->run.events.amsPageFaults,
              on->run.events.amsPageFaults);
}

// ---------------------------------------------------------------------
// --jobs N determinism
// ---------------------------------------------------------------------

TEST(ParallelRunner, Jobs4OutputByteIdenticalToSerial)
{
    const std::string text =
        "[scenario]\nname = par\ntitle = Parallel determinism\n"
        "[machine misp]\nams = 3\n"
        "[workload]\nname = dense_mvm\n"
        "[sweep]\nworkload.workers = 1, 2, 3\n";
    std::vector<PointResult> serial = runScenarioText(text, 1);
    std::vector<PointResult> parallel = runScenarioText(text, 4);
    ASSERT_EQ(serial.size(), parallel.size());

    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].run.ticks, parallel[i].run.ticks);
        EXPECT_EQ(serial[i].run.instsRetired,
                  parallel[i].run.instsRetired);
        EXPECT_EQ(serial[i].coords, parallel[i].coords);
    }

    Scenario sc = mustScenario(text);
    auto render = [&](const std::vector<PointResult> &results) {
        const harness::MetricFrame frame = buildMetricFrame(sc, results);
        std::ostringstream json, table, points;
        writeJson(json, sc, false, frame);
        writeTable(table, sc, frame, false);
        writePoints(points, frame);
        return json.str() + "\x1e" + table.str() + "\x1e" + points.str();
    };
    EXPECT_EQ(render(serial), render(parallel));
}

// ---------------------------------------------------------------------
// [report] asserts
// ---------------------------------------------------------------------

TEST(ReportAsserts, PassFailAndDiagnostics)
{
    Scenario sc = mustScenario(
        "[machine a]\nams = 1\n[machine b]\nams = 3\n"
        "[workload]\nname = dense_mvm\n"
        "[report]\nbaseline_machine = a\n"
        "assert = b.speedup >= 1.5\n"
        "assert = a.events.oms_page_faults == 10\n"
        "assert = b.events_per_mi.ams_page_faults <= 20 + 1.5 * 2\n");
    EXPECT_EQ(sc.report.asserts.size(), 3u);

    std::vector<PointResult> results;
    results.push_back(fakePoint("a", "dense_mvm", 300, 1'000'000));
    results.push_back(fakePoint("b", "dense_mvm", 100, 2'000'000));

    std::vector<AssertFailure> failures;
    std::string err;
    ASSERT_TRUE(evalAsserts(sc, results, &failures, &err)) << err;
    EXPECT_TRUE(failures.empty());

    // A failing assert reports its spec line and both sides.
    Scenario bad = sc;
    bad.report.asserts = {{"b.speedup >= 100", 42}};
    failures.clear();
    ASSERT_TRUE(evalAsserts(bad, results, &failures, &err)) << err;
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].line, 42);
    EXPECT_NE(failures[0].detail.find("lhs=3"), std::string::npos);

    // Malformed expressions and unknown references are hard errors.
    bad.report.asserts = {{"b.speedup >=", 7}};
    failures.clear();
    EXPECT_FALSE(evalAsserts(bad, results, &failures, &err));
    EXPECT_NE(err.find(":7:"), std::string::npos);

    bad.report.asserts = {{"nosuch.ticks > 0", 8}};
    EXPECT_FALSE(evalAsserts(bad, results, &failures, &err));
    EXPECT_NE(err.find("names no [machine] section"), std::string::npos);

    bad.report.asserts = {{"b.nosuchmetric > 0", 9}};
    EXPECT_FALSE(evalAsserts(bad, results, &failures, &err));
    EXPECT_NE(err.find("unknown metric"), std::string::npos);

    // Division by zero fails closed (a guard dividing by a run that
    // never finished must not silently pass), never evaluates to 0.
    bad.report.asserts = {{"a.ticks / 0 <= 1", 10}};
    EXPECT_FALSE(evalAsserts(bad, results, &failures, &err));
    EXPECT_NE(err.find("division by zero"), std::string::npos);

    // speedup requires a baseline machine.
    Scenario nobase = mustScenario(
        "[machine a]\nams = 1\n[workload]\nname = dense_mvm\n"
        "[report]\nassert = a.speedup >= 1\n");
    std::vector<PointResult> one;
    one.push_back(fakePoint("a", "dense_mvm", 100, 1'000'000));
    EXPECT_FALSE(evalAsserts(nobase, one, &failures, &err));
    EXPECT_NE(err.find("baseline_machine"), std::string::npos);
}

TEST(ReportAsserts, ParenthesesGroupSubexpressions)
{
    Scenario sc = mustScenario(
        "[machine a]\nams = 1\n[machine b]\nams = 3\n"
        "[workload]\nname = dense_mvm\n[report]\nbaseline_machine = a\n");
    std::vector<PointResult> results;
    results.push_back(fakePoint("a", "dense_mvm", 300, 1'000'000));
    results.push_back(fakePoint("b", "dense_mvm", 100, 2'000'000));

    std::vector<AssertFailure> failures;
    std::string err;

    // Without parens: 300 - 100 / 100 = 299. With: (300-100)/100 = 2.
    sc.report.asserts = {{"a.ticks - b.ticks / b.ticks == 299", 1},
                         {"( a.ticks - b.ticks ) / b.ticks == 2", 2},
                         // Parens may hug their operands.
                         {"(a.ticks - b.ticks) / b.ticks == 2", 3},
                         // Nesting composes.
                         {"( ( a.ticks - b.ticks ) / ( b.ticks ) ) "
                          "* 10 == 20",
                          4}};
    failures.clear();
    ASSERT_TRUE(evalAsserts(sc, results, &failures, &err)) << err;
    EXPECT_TRUE(failures.empty()) << failures.size();

    // Unbalanced parens are hard errors, both ways.
    sc.report.asserts = {{"( a.ticks > 0", 5}};
    EXPECT_FALSE(evalAsserts(sc, results, &failures, &err));
    EXPECT_NE(err.find("expected ')'"), std::string::npos);
    sc.report.asserts = {{"a.ticks ) > 0", 6}};
    EXPECT_FALSE(evalAsserts(sc, results, &failures, &err));
}

TEST(ReportAsserts, EvaluatedPerCoordinateGroup)
{
    Scenario sc = mustScenario(
        "[machine a]\nams = 1\n[machine b]\nams = 3\n"
        "[workload]\nname = dense_mvm\n"
        "[sweep]\nworkload.workers = 1, 2\n"
        "[report]\nbaseline_machine = a\nassert = b.speedup >= 2\n");

    std::vector<PointResult> results;
    results.push_back(
        fakePoint("a", "dense_mvm", 400, 1'000'000,
                  {{"workload.workers", "1"}}));
    results.push_back(
        fakePoint("b", "dense_mvm", 100, 1'000'000,
                  {{"workload.workers", "1"}})); // 4.0x: holds
    results.push_back(
        fakePoint("a", "dense_mvm", 300, 1'000'000,
                  {{"workload.workers", "2"}}));
    results.push_back(
        fakePoint("b", "dense_mvm", 200, 1'000'000,
                  {{"workload.workers", "2"}})); // 1.5x: fails

    std::vector<AssertFailure> failures;
    std::string err;
    ASSERT_TRUE(evalAsserts(sc, results, &failures, &err)) << err;
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_NE(failures[0].detail.find("workload.workers=2"),
              std::string::npos);
}

TEST(ReportAsserts, DegradedGroupsAreSkippedAndCounted)
{
    // The workers=2 group lost its b point to a worker crash: the
    // per-group claim is skipped there (reported via skippedGroups),
    // aggregates exclude the group, and dividing by the crashed
    // point's zeroed metrics is suppressed instead of failing closed.
    Scenario sc = mustScenario(
        "[machine a]\nams = 1\n[machine b]\nams = 3\n"
        "[workload]\nname = dense_mvm\n"
        "[sweep]\nworkload.workers = 1, 2\n"
        "[report]\nbaseline_machine = a\n"
        "assert = a.ticks / b.ticks >= 2\n"
        "assert = count ( b.completed ) == count ( 1 )\n"
        "assert = sum ( b.ticks ) == 100\n");

    std::vector<PointResult> results;
    results.push_back(fakePoint("a", "dense_mvm", 400, 1'000'000,
                                {{"workload.workers", "1"}}));
    results.push_back(fakePoint("b", "dense_mvm", 100, 1'000'000,
                                {{"workload.workers", "1"}}));
    results.push_back(fakePoint("a", "dense_mvm", 300, 1'000'000,
                                {{"workload.workers", "2"}}));
    results.push_back(fakePoint("b", "dense_mvm", 200, 1'000'000,
                                {{"workload.workers", "2"}}));
    results[3].run.status = harness::RunStatus::WorkerTimeout;
    results[3].run.ticks = 0;
    results[3].run.valid = false;
    results[3].run.attempts = 2;

    std::vector<AssertFailure> failures;
    std::string err;
    std::size_t skipped = 0;
    ASSERT_TRUE(evaluateAsserts(sc, buildMetricFrame(sc, results),
                                &failures, &err, &skipped))
        << err;
    EXPECT_TRUE(failures.empty())
        << failures[0].text << ": " << failures[0].detail;
    EXPECT_EQ(skipped, 1u);
}

// ---------------------------------------------------------------------
// [report] mode = events
// ---------------------------------------------------------------------

TEST(EventsReport, NormalizesPerMegaInstructions)
{
    Scenario sc = mustScenario(
        "[scenario]\nname = ev\ntitle = Events test\n"
        "[machine m]\nams = 7\n[workload]\nname = dense_mvm\n"
        "[report]\nmode = events\n");
    EXPECT_EQ(sc.report.mode, ReportMode::Events);

    std::vector<PointResult> results;
    results.push_back(fakePoint("m", "dense_mvm", 1000, 2'000'000));
    const harness::MetricFrame frame = buildMetricFrame(sc, results);
    // 10 OMS faults / 2 MInsts = 5.000; 40 AMS faults -> 20.000.
    std::ostringstream os;
    writeTable(os, sc, frame, /*markdown=*/false);
    EXPECT_NE(os.str().find("per 10^6 retired instructions"),
              std::string::npos);
    EXPECT_NE(os.str().find("5.000"), std::string::npos);
    EXPECT_NE(os.str().find("20.000"), std::string::npos);

    std::ostringstream md;
    writeTable(md, sc, frame, /*markdown=*/true);
    EXPECT_NE(md.str().find("| machine |"), std::string::npos);
    EXPECT_NE(md.str().find("| --- |"), std::string::npos);

    // The default report mode stays Table.
    Scenario plain = mustScenario(
        "[machine m]\nams = 7\n[workload]\nname = dense_mvm\n");
    EXPECT_EQ(plain.report.mode, ReportMode::Table);
}

// ---------------------------------------------------------------------
// [report] column = <label> : <expr> (the figure)
// ---------------------------------------------------------------------

namespace {

/** Two machines over three workloads from two suites: b is 2x, 4x and
 *  5x faster than a on dense_mvm, gauss and swim. */
const char *const kFigureSpec =
    "[machine a]\nams = 1\n[machine b]\nams = 3\n"
    "[workload]\nname = dense_mvm\n"
    "[sweep]\nworkload.name = dense_mvm, gauss, swim\n";

std::vector<PointResult>
figurePoints()
{
    std::vector<PointResult> results;
    const std::pair<const char *, Tick> bTicks[] = {
        {"dense_mvm", 200}, {"gauss", 100}, {"swim", 80}};
    for (const auto &[name, ticks] : bTicks) {
        results.push_back(fakePoint("a", name, 400, 1'000'000,
                                    {{"workload.name", name}}));
        results.push_back(fakePoint("b", name, ticks, 1'000'000,
                                    {{"workload.name", name}}));
    }
    return results;
}

/** writeFigure's output for @p columns (spec `[report]` lines) over
 *  figurePoints(); "ERR " + the diagnostic when it fails. */
std::string
renderFigure(const std::string &columns, bool markdown = false)
{
    const Scenario sc =
        mustScenario(std::string(kFigureSpec) + "[report]\n" + columns);
    std::ostringstream os;
    std::string err;
    if (!writeFigure(os, sc, buildMetricFrame(sc, figurePoints()),
                     markdown, &err))
        return "ERR " + err;
    return os.str();
}

} // namespace

TEST(ReportColumns, RowPerProjectionAndSummaryLines)
{
    EXPECT_EQ(renderFigure("column = speedup : a.ticks / b.ticks\n"
                           "column = b Mcycles : b.mcycles\n"
                           "column = mean : avg ( a.ticks / b.ticks )\n"),
              "\n"
              "workload.name  speedup  b Mcycles\n"
              "---------------------------------\n"
              "dense_mvm      2        0.000    \n"
              "gauss          4        0.000    \n"
              "swim           5        0.000    \n"
              "\n"
              "mean: 3.667\n");
    EXPECT_EQ(renderFigure("column = mean : avg ( a.ticks / b.ticks )\n",
                           /*markdown=*/true),
              "\n- mean: 3.667\n");
    EXPECT_EQ(renderFigure("column = x : b.ticks\n", /*markdown=*/true),
              "\n| workload.name | x |\n| --- | --- |\n"
              "| dense_mvm | 200 |\n| gauss | 100 |\n| swim | 80 |\n");
    // No columns, no figure.
    EXPECT_EQ(renderFigure(""), "");
}

TEST(ReportColumns, AggregateSelectorPicksOneSuite)
{
    // dense_mvm and gauss are RMS kernels, swim is SPEComp.
    EXPECT_EQ(renderFigure(
                  "column = rms : avg[workload.name=suite:rms] ( a.ticks "
                  "/ b.ticks )\n"
                  "column = specomp : "
                  "avg[workload.name=suite:specomp](a.ticks / b.ticks)\n"
                  "column = one : sum[workload.name=gauss] ( b.ticks )\n"
                  "column = all : count[workload.name=all] ( 1 )\n"),
              "\nrms: 3\nspecomp: 5\none: 100\nall: 3\n");

    // The same selector works in an assert.
    Scenario sc = mustScenario(
        std::string(kFigureSpec) +
        "[report]\nassert = avg[workload.name=suite:rms] ( a.ticks / "
        "b.ticks ) == 3\n"
        "assert = min[workload.name=suite:specomp] ( a.ticks / b.ticks ) "
        "> 4\n");
    std::vector<AssertFailure> failures;
    std::string err;
    ASSERT_TRUE(evalAsserts(sc, figurePoints(), &failures, &err)) << err;
    EXPECT_TRUE(failures.empty()) << failures[0].detail;

    // Malformed or empty selections are diagnosed, with the spec line.
    const std::pair<const char *, const char *> bad[] = {
        {"avg[machine.ams=1] ( b.ticks )", "expected the selector"},
        {"avg[workload.name=] ( b.ticks )", "expected the selector"},
        {"avg[workload.name=suite:bogus] ( b.ticks )",
         "unknown workload suite 'bogus'"},
        {"avg[workload.name=art] ( b.ticks )",
         "no results to aggregate over"},
    };
    for (const auto &[expr, why] : bad) {
        const std::string out =
            renderFigure(std::string("column = c : ") + expr + "\n");
        EXPECT_EQ(out.rfind("ERR <test>:10: column 'c': ", 0), 0u) << out;
        EXPECT_NE(out.find(why), std::string::npos) << out;
    }
}

TEST(ReportColumns, ColumnsStayOutOfTheAssertPath)
{
    // A column that cannot evaluate fails the figure, not the asserts.
    const std::string columns = "column = broken : nosuch.ticks\n";
    EXPECT_NE(renderFigure(columns).find("names no [machine] section"),
              std::string::npos);
    Scenario sc = mustScenario(std::string(kFigureSpec) + "[report]\n" +
                               columns + "assert = b.ticks > 0\n");
    std::vector<AssertFailure> failures;
    std::string err;
    EXPECT_TRUE(evalAsserts(sc, figurePoints(), &failures, &err)) << err;
    EXPECT_TRUE(failures.empty());
}

TEST(ReportColumns, FailedPointsRenderAsDash)
{
    Scenario sc = mustScenario(std::string(kFigureSpec) +
                               "[report]\ncolumn = s : a.ticks / b.ticks\n"
                               "column = n : count ( 1 )\n");
    std::vector<PointResult> results = figurePoints();
    results[3].run.status = harness::RunStatus::WorkerCrashed; // gauss b
    results[3].run.ticks = 0;
    std::ostringstream os;
    std::string err;
    ASSERT_TRUE(writeFigure(os, sc, buildMetricFrame(sc, results),
                            /*markdown=*/false, &err))
        << err;
    EXPECT_EQ(os.str(), "\n"
                        "workload.name  s\n"
                        "----------------\n"
                        "dense_mvm      2\n"
                        "gauss          -\n"
                        "swim           5\n"
                        "\n"
                        "n: 2\n");
}

TEST(ReportColumns, SpecSyntax)
{
    Scenario sc = mustScenario(
        std::string(kFigureSpec) +
        "[report]\ncolumn = a : b : avg[workload.name=suite:rms] ( 1 )\n"
        "column = second : 2\n");
    ASSERT_EQ(sc.report.columns.size(), 2u);
    EXPECT_EQ(sc.report.columns[0].label, "a");
    EXPECT_EQ(sc.report.columns[0].expr,
              "b : avg[workload.name=suite:rms] ( 1 )");
    EXPECT_EQ(sc.report.columns[1].line, 11);

    for (const char *line : {"column = no label\n", "column = : 1\n",
                             "column = label :\n"}) {
        SpecFile spec;
        Scenario bad;
        std::string err;
        ASSERT_TRUE(SpecFile::parse(std::string(kFigureSpec) +
                                        "[report]\n" + line,
                                    "<test>", &spec, &err))
            << err;
        EXPECT_FALSE(Scenario::fromSpec(spec, &bad, &err)) << line;
        EXPECT_NE(err.find("<test>:10: column: expected"),
                  std::string::npos)
            << err;
    }
}

// ---------------------------------------------------------------------
// Per-workload knobs (param.<key>)
// ---------------------------------------------------------------------

TEST(WorkloadParamKnobs, RoutedThroughSetWorkloadParam)
{
    wl::WorkloadParams p;
    std::string err;
    ASSERT_TRUE(wl::setWorkloadParam(p, "param.rows", "36", &err)) << err;
    ASSERT_EQ(p.extra.size(), 1u);
    EXPECT_EQ(p.extra[0].first, "rows");
    EXPECT_EQ(p.extraU64("rows", 144), 36u);
    EXPECT_EQ(p.extraU64("missing", 7), 7u);

    // Re-setting replaces, not appends (sweep overrides rely on this).
    ASSERT_TRUE(wl::setWorkloadParam(p, "param.rows", "72", &err));
    ASSERT_EQ(p.extra.size(), 1u);
    EXPECT_EQ(p.extraU64("rows", 144), 72u);

    EXPECT_FALSE(wl::setWorkloadParam(p, "param.", "1", &err));
    EXPECT_NE(err.find("missing a knob name"), std::string::npos);

    // A knob that is present but unparseable fails closed instead of
    // silently running the default.
    ASSERT_TRUE(wl::setWorkloadParam(p, "param.rows", "1O0", &err));
    EXPECT_THROW(p.extraU64("rows", 144), SimError);
}

TEST(WorkloadParamKnobs, RaytracerSceneSizeKnob)
{
    // The RayTracer consumes param.rows as its scene row count: more
    // rows, more pixels, more ticks — through the scenario layer, and
    // sweepable as a workload.param.rows axis.
    std::vector<PointResult> results = runScenarioText(
        "[machine misp]\nams = 3\n"
        "[workload]\nname = Raytracer\nworkers = 3\n"
        "[sweep]\nworkload.param.rows = 24, 48\n");
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].run.ok());
    EXPECT_TRUE(results[1].run.ok());
    EXPECT_GT(results[1].run.ticks, results[0].run.ticks);

    // Equivalent to building with the knob set directly.
    wl::WorkloadParams p;
    p.workers = 3;
    std::string err;
    ASSERT_TRUE(wl::setWorkloadParam(p, "param.rows", "24", &err));
    HandRolledRun old = handRolledRunWorkload(
        arch::SystemConfig::uniprocessor(3), rt::Backend::Shred,
        "Raytracer", p);
    EXPECT_TRUE(old.valid);
    EXPECT_EQ(results[0].run.ticks, old.ticks);
}

// ---------------------------------------------------------------------
// Checked-in scenario specs
// ---------------------------------------------------------------------

namespace {

/** A checked-in spec, resolved under the source tree so the test
 *  passes from any working directory. */
std::string
checkedInScenario(const char *file)
{
    return findScenarioFile(
        std::string(MISP_SOURCE_ROOT) + "/scenarios/" + file, nullptr);
}

} // namespace

TEST(CheckedInScenarios, PortedBenchSpecsParseAndExpand)
{
    const struct {
        const char *file;
        std::size_t quickPoints;
    } cases[] = {
        {"table1.scn", 4},                // quick spread x 1 machine
        {"fig5_signal.scn", 16},          // 4 workloads x 4 costs
        {"ablation_serialization.scn", 4}, // 2 workloads x 2 policies
        {"ablation_pageprobe.scn", 2},    // 1 workload x off/on
    };
    for (const auto &c : cases) {
        std::string path = checkedInScenario(c.file);
        ASSERT_FALSE(path.empty()) << c.file << " not found";
        SpecFile spec;
        Scenario sc;
        std::vector<ScenarioPoint> pts;
        std::string err;
        ASSERT_TRUE(SpecFile::parseFile(path, &spec, &err)) << err;
        ASSERT_TRUE(Scenario::fromSpec(spec, &sc, &err)) << err;
        ASSERT_TRUE(sc.expandPoints(/*quickMode=*/true, &pts, &err))
            << err;
        EXPECT_EQ(pts.size(), c.quickPoints) << c.file;
    }

    // table1 guards its claims from the spec (per-suite aggregates);
    // fig4 carries the §5.3 speedup asserts plus their suite-level
    // aggregate forms.
    std::string path = checkedInScenario("table1.scn");
    SpecFile spec;
    Scenario sc;
    std::string err;
    ASSERT_TRUE(SpecFile::parseFile(path, &spec, &err)) << err;
    ASSERT_TRUE(Scenario::fromSpec(spec, &sc, &err)) << err;
    EXPECT_EQ(sc.report.mode, ReportMode::Events);
    EXPECT_EQ(sc.report.asserts.size(), 4u);

    path = checkedInScenario("fig4.scn");
    ASSERT_FALSE(path.empty());
    ASSERT_TRUE(SpecFile::parseFile(path, &spec, &err)) << err;
    ASSERT_TRUE(Scenario::fromSpec(spec, &sc, &err)) << err;
    EXPECT_EQ(sc.report.asserts.size(), 5u);
}
