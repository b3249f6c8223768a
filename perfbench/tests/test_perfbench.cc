/**
 * @file
 * Tests of the benchmark's own logic: the tail rule, span self time,
 * sim_digest mismatch detection, seed-to-spec generation of the
 * small-point grid, stats-dump counters, the probe guards and the
 * host-speed scale.
 *
 *   cmake --build <build> --target perfbench_tests && <build>/perfbench_tests
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "calib.hh"
#include "driver/scenario.hh"
#include "grid.hh"
#include "measure.hh"
#include "probes.hh"
#include "stats_json.hh"

using namespace perfbench;

namespace {

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i > 0; --i)
        v.push_back(static_cast<double>(i));
    return v;
}

} // namespace

TEST(Tail, PicksHighestPercentileWithTenBeyond)
{
    EXPECT_EQ(tailPercentileFor(288), 95); // p99 would leave 2
    EXPECT_EQ(tailPercentileFor(200), 95); // exactly ten beyond rank 190
    EXPECT_EQ(tailPercentileFor(199), 90);
    EXPECT_EQ(tailPercentileFor(1000), 99);
    EXPECT_EQ(tailPercentileFor(40000), 99); // capped at p99
    EXPECT_EQ(tailPercentileFor(15), 50);    // too few: the median
    EXPECT_EQ(tailPercentileFor(0), 50);

    const Tail t = percentileOf(ramp(288), 95);
    EXPECT_EQ(t.samples, 288u);
    EXPECT_EQ(t.beyond, 14u);
    EXPECT_EQ(t.value, 274);
    EXPECT_EQ(percentileOf(ramp(15), 50).value, 8);
    EXPECT_EQ(percentileOf({}, 99).samples, 0u);
}

TEST(Median, OddEvenEmpty)
{
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0);
}

TEST(SpeedScale, ScalesBySegmentKernelTime)
{
    SpeedScale speed;
    EXPECT_TRUE(speed.due(0)); // nothing measured yet
    speed.calibrated(1.0, 1.0 + 2 * kCalibRefSeconds); // half speed
    EXPECT_NEAR(speed.scale(3.0), 1.5, 1e-9);
    EXPECT_FALSE(speed.due(1.0 + 2 * kCalibRefSeconds));
    EXPECT_TRUE(speed.due(1.0 + 2 * kCalibRefSeconds + kCalibSegmentSeconds));
    speed.calibrated(2.0, 2.0 + kCalibRefSeconds / 2); // twice as fast
    EXPECT_NEAR(speed.scale(3.0), 6.0, 1e-9);
}

TEST(SpeedScale, KernelChecksumIsFixed)
{
    EXPECT_EQ(calibKernel(kCalibSteps), kCalibChecksum);
    EXPECT_EQ(calibKernel(kCalibSteps), kCalibChecksum); // data reset
    EXPECT_NE(calibKernel(kCalibSteps - 1), kCalibChecksum);
}

TEST(Spans, SelfTimeSubtractsUnionOfOverlappingChildren)
{
    std::vector<Span> s = {
        {"parent", 0, 10, -1, -1},
        {"a", 1, 3, 0, -1},
        {"b", 2, 5, 0, -1},    // overlaps a: union [1, 5)
        {"c", 3, 4, 0, -1},    // inside the union already
        {"d", 8, 12, 0, -1},   // clipped to the parent's end
        {"grand", 0, 10, 1, -1}, // a's child: not the parent's
    };
    const std::vector<double> self = selfTimes(s);
    EXPECT_DOUBLE_EQ(self[0], 10 - 4 - 2);
    EXPECT_DOUBLE_EQ(self[1], 0);
    EXPECT_DOUBLE_EQ(self[2], 3);
    EXPECT_DOUBLE_EQ(self[4], 4); // a leaf keeps its whole duration

    EXPECT_DOUBLE_EQ(selfTimes({{"x", 5, 7.5, -1, 3}})[0], 2.5);
}

TEST(Spans, ChromeTraceNamesEverySpan)
{
    std::ostringstream os;
    writeChromeSpans(os, {{"pass", 0, 1, -1, -1}, {"run\"One", 0.5, 1, 0, 2}});
    const std::string out = os.str();
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("\"run\\\"One\""), std::string::npos);
    EXPECT_NE(out.find("\"parent\": 0, \"point\": 2"), std::string::npos);
}

TEST(Digest, SinkCountsAndHashesWhatIsWritten)
{
    const std::string text(10000, 'x');
    CountingSink sink;
    std::ostream os(&sink);
    os << text << 'y';
    os.flush();
    EXPECT_EQ(sink.bytes(), 10001u);
    EXPECT_EQ(sink.digest(), fnv1a((text + "y").data(), 10001));
    EXPECT_NE(sink.digest(), fnv1a((text + "z").data(), 10001));
}

TEST(Digest, MismatchIsDetected)
{
    DigestCheck d;
    EXPECT_TRUE(d.observe(0xabc));
    EXPECT_TRUE(d.observe(0xabc));
    EXPECT_TRUE(d.consistent());
    EXPECT_FALSE(d.observe(0xabd));
    EXPECT_FALSE(d.consistent());
    EXPECT_EQ(d.mismatches(), 1u);
    EXPECT_EQ(d.reference(), 0xabcu);
}

TEST(Grid, SpecIsAFunctionOfTheSeed)
{
    EXPECT_EQ(gridSmallSpec(7), gridSmallSpec(7));
    EXPECT_NE(gridSmallSpec(7), gridSmallSpec(8));

    for (std::uint64_t seed : {0ull, 1ull, 7ull, 123456789ull}) {
        misp::driver::SpecFile spec;
        misp::driver::Scenario sc;
        std::vector<misp::driver::ScenarioPoint> pts;
        std::string err;
        ASSERT_TRUE(misp::driver::SpecFile::parse(gridSmallSpec(seed), "g",
                                                  &spec, &err))
            << err;
        ASSERT_TRUE(misp::driver::Scenario::fromSpec(spec, &sc, &err))
            << err;
        ASSERT_TRUE(sc.expandPoints(false, &pts, &err)) << err;
        EXPECT_EQ(pts.size(), kGridPoints);
        EXPECT_EQ(sc.report.asserts.size(), 4u);
        EXPECT_EQ(pts.front().workload.params.extraU64("rows", 0), 16u);
    }
}

TEST(StatsJson, SumsLeavesOnComponentBoundaries)
{
    std::map<std::string, double> t = {{"tlb.misses", 0},
                                       {"kernel.syscalls", 0},
                                       {"serializations", 0}};
    const std::string dump = R"({
      "kernel": {"syscalls": 6, "badFaults": 0},
      "misp0": {"serializations": 8, "notserializations": 100,
                "serializingEvents": {"[0]": 4},
                "oms": {"mmu": {"tlb": {"hits": 9, "misses": 2}}},
                "ams1": {"mmu": {"tlb": {"misses": 3}}}},
      "misp1": {"serializations": 4, "name": "x", "flag": true}
    })";
    ASSERT_TRUE(sumStatLeaves(dump, &t));
    EXPECT_EQ(t["tlb.misses"], 5);
    EXPECT_EQ(t["kernel.syscalls"], 6);
    EXPECT_EQ(t["serializations"], 12);
    EXPECT_FALSE(sumStatLeaves("{\"a\": ", &t));
    EXPECT_FALSE(sumStatLeaves("{\"a\": 1} trailing", &t));
}

TEST(Probes, FixedOutcomesHold)
{
    std::size_t n = 0;
    const ProbeSpec *specs = probeSpecs(&n);
    ASSERT_EQ(n, 5u);
    for (std::size_t i = 0; i < n; ++i) {
        double value = 0;
        std::string err;
        EXPECT_TRUE(measureProbe(specs[i], 1, &value, &err)) << err;
        EXPECT_GT(value, 0) << specs[i].metric;
    }
}

TEST(Probes, DifferentProgramIsRejected)
{
    std::size_t n = 0;
    ProbeSpec kernel = probeSpecs(&n)[1];
    ++kernel.expectCount;
    double value = 0;
    std::string err;
    EXPECT_FALSE(measureProbe(kernel, 1, &value, &err));
    EXPECT_NE(err.find("tight_loop"), std::string::npos);

    ProbeSpec queue = probeSpecs(&n)[3];
    queue.steps -= 1;
    EXPECT_FALSE(measureProbe(queue, 1, &value, &err));
    EXPECT_NE(err.find("sim.queue_ns.occ8"), std::string::npos);
}
