/**
 * @file
 * Trace-recorder ablation: what deterministic event tracing costs.
 *
 * Three legs, interleaved over several repetitions (minimum per leg,
 * so scheduler noise cannot manufacture an overhead):
 *
 *   off   recorder absent — every obs::trace() hook is one TLS load
 *         and a null-check
 *   none  recorder attached with an empty category mask — hooks reach
 *         the recorder and are filtered per event
 *   all   every category recorded (engine + snapshot included), the
 *         full cost of capture
 *
 * Measured on the CI smoke sweep (scenarios/smoke.scn) and on a direct
 * dense_mvm kernel run. The disabled-recorder contract — `none` within
 * 1% of `off` — is asserted, not just reported: tracing must be free
 * when it is not recording. Results land in BENCH_trace.json so CI
 * keeps a trajectory.
 */

#include <algorithm>
#include <cstdio>

#include "bench_common.hh"
#include "obs/trace.hh"

using namespace misp;
using namespace misp::bench;

namespace {

struct Leg {
    const char *name;
    bool enabled;
    std::uint32_t catMask;
};

constexpr Leg kLegs[] = {
    {"off", false, 0},
    {"none", true, 0},
    {"all", true, obs::kAllCats},
};

struct LegResult {
    std::vector<double> samples; ///< summed run phase, one per rep
    std::uint64_t events = 0;
    std::uint64_t dropped = 0;

    double
    best() const
    {
        return *std::min_element(samples.begin(), samples.end());
    }
    /** Same-configuration spread: (median − best) / best. This is the
     *  resolution limit of the measurement — an overhead smaller than
     *  this is indistinguishable from scheduler jitter. */
    double
    noise() const
    {
        std::vector<double> s = samples;
        std::sort(s.begin(), s.end());
        return s[s.size() / 2] / s.front() - 1.0;
    }
};

/** One sweep pass: summed simulated-run host seconds + trace volume. */
double
sweepOnce(const driver::Scenario &sc,
          const std::vector<driver::ScenarioPoint> &pts, const Leg &leg,
          LegResult *out)
{
    driver::Scenario scLeg = sc;
    scLeg.trace.catMask = leg.catMask;
    driver::RunnerOptions opts;
    opts.hostLines = false;
    opts.traceEnabled = leg.enabled;
    std::vector<driver::PointResult> results =
        driver::ScenarioRunner(opts).runAll(scLeg, pts);
    double secs = 0;
    out->events = 0;
    out->dropped = 0;
    for (const driver::PointResult &r : results) {
        secs += r.run.hostSeconds;
        out->events += r.run.trace.events.size();
        out->dropped += r.run.trace.dropped;
    }
    return secs;
}

/** One direct dense_mvm run through the unified run layer. */
double
kernelOnce(const Leg &leg, LegResult *out)
{
    const wl::WorkloadInfo *info = wl::findWorkload("dense_mvm");
    MISP_ASSERT(info != nullptr);
    harness::RunRequest req;
    req.label = "dense_mvm";
    req.config = mispUni();
    req.target = {"dense_mvm", defaultParams(false)};
    req.hostLine = false;
    req.trace.enabled = leg.enabled;
    req.trace.catMask = leg.catMask;
    harness::RunRecord rec = harness::runOne(req);
    out->events = rec.trace.events.size();
    out->dropped = rec.trace.dropped;
    return rec.hostSeconds;
}

void
jsonLeg(FILE *json, const char *name, const LegResult legs[3],
        bool last)
{
    const double off = legs[0].best();
    std::fprintf(json, "  \"%s\": {\n", name);
    std::fprintf(json, "    \"noise_floor\": %.4f,\n",
                 legs[0].noise());
    for (int l = 0; l < 3; ++l) {
        std::fprintf(
            json,
            "    \"%s\": {\"seconds\": %.6f, \"overhead\": %.4f, "
            "\"events\": %llu, \"dropped\": %llu}%s\n",
            kLegs[l].name, legs[l].best(),
            off > 0 ? legs[l].best() / off - 1.0 : 0.0,
            (unsigned long long)legs[l].events,
            (unsigned long long)legs[l].dropped, l + 1 < 3 ? "," : "");
    }
    std::fprintf(json, "  }%s\n", last ? "" : ",");
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);
    const bool quick = parseBenchFlags(argc, argv).quick;
    // A single quick sweep is ~70ms of host time — far too short to
    // resolve a sub-1% effect against scheduler jitter. Each sample
    // sums `inner` back-to-back passes, and the reported figure is the
    // minimum over `reps` interleaved samples.
    const int reps = quick ? 5 : 7;
    const int inner = quick ? 3 : 4;

    printHeader("Trace ablation: recorder off vs attached-but-filtered "
                "vs recording-everything");

    std::string err;
    driver::Scenario sc;
    std::vector<driver::ScenarioPoint> pts;
    {
        std::string path =
            driver::findScenarioFile("smoke.scn", argv[0]);
        driver::SpecFile spec;
        if (path.empty() ||
            !driver::SpecFile::parseFile(path, &spec, &err) ||
            !driver::Scenario::fromSpec(spec, &sc, &err) ||
            !sc.expandPoints(quick, &pts, &err)) {
            std::fprintf(stderr, "ablation_trace: %s\n",
                         err.empty() ? "smoke.scn not found"
                                     : err.c_str());
            return 1;
        }
    }

    // Interleave the legs within each repetition so slow host phases
    // (thermal ramps, page-cache warmup) hit every leg equally.
    LegResult sweep[3];
    LegResult kernel[3];
    for (int rep = 0; rep < reps; ++rep) {
        for (int l = 0; l < 3; ++l) {
            LegResult r;
            double s = 0, k = 0;
            for (int i = 0; i < inner; ++i)
                s += sweepOnce(sc, pts, kLegs[l], &r);
            sweep[l].samples.push_back(s);
            sweep[l].events = r.events;
            sweep[l].dropped = r.dropped;
            for (int i = 0; i < inner; ++i)
                k += kernelOnce(kLegs[l], &r);
            kernel[l].samples.push_back(k);
            kernel[l].events = r.events;
            kernel[l].dropped = r.dropped;
        }
    }

    std::printf("%-11s %-6s %12s %10s %10s %12s %10s\n", "target",
                "leg", "best_s", "overhead", "noise", "events",
                "dropped");
    bool ok = true;
    const char *names[2] = {"smoke_sweep", "dense_mvm"};
    LegResult *groups[2] = {sweep, kernel};
    for (int g = 0; g < 2; ++g) {
        const double off = groups[g][0].best();
        const double noise = groups[g][0].noise();
        for (int l = 0; l < 3; ++l) {
            const double over =
                off > 0 ? groups[g][l].best() / off - 1.0 : 0.0;
            std::printf(
                "%-11s %-6s %12.4f %9.2f%% %9.2f%% %12llu %10llu\n",
                names[g], kLegs[l].name, groups[g][l].best(),
                over * 100, l == 0 ? noise * 100 : 0.0,
                (unsigned long long)groups[g][l].events,
                (unsigned long long)groups[g][l].dropped);
            // The contract: a recorder that records nothing costs
            // nothing — within 1%, plus whatever spread the off leg
            // shows against itself (the measurement's own resolution
            // limit; sub-noise differences are not attributable).
            if (l == 1)
                ok = ok && over <= 0.01 + noise;
        }
    }
    // Sanity: the all leg must actually have captured events.
    ok = ok && sweep[2].events > 0 && kernel[2].events > 0;
    ok = ok && sweep[0].events == 0 && kernel[0].events == 0;

    FILE *json = std::fopen("BENCH_trace.json", "w");
    if (json) {
        std::fprintf(json, "{\n  \"scenario\": \"%s\",\n  \"reps\": %d,\n",
                     sc.name.c_str(), reps);
        jsonLeg(json, "smoke_sweep", sweep, false);
        jsonLeg(json, "dense_mvm", kernel, false);
        std::fprintf(json, "  \"disabled_overhead_ok\": %s\n}\n",
                     ok ? "true" : "false");
        std::fclose(json);
        std::printf("wrote BENCH_trace.json\n");
    }

    if (!ok) {
        std::printf("FAIL: attached-but-filtered recorder exceeded the "
                    "1%% overhead budget (or trace volume was wrong)\n");
        return 1;
    }
    return 0;
}
