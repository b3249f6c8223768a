/**
 * @file
 * `perfbench` — the simulator benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-file FILE]
 *
 * One client runs a workload's grid as a closed loop: points run back
 * to back, serially, in this process, and a pass is complete when the
 * frame is built, the [report] asserts are evaluated and both artifacts
 * are emitted (into a counting sink, not to disk). After set-up and one
 * warm-up pass, passes repeat until S seconds have been measured. Host
 * times are scaled to a reference host speed (calib.hh) measured by a
 * fixed kernel between points, outside the timed work.
 *
 * --trace 0 prints the end-to-end metrics of untraced passes.
 * --trace 1 alternates untraced and traced passes (spans around the
 * calls into each layer, --full-stats counters on), then runs the layer
 * probes, prints the per-layer metrics and writes the spans of the
 * set-ups, the last traced pass and the probes to FILE as Chrome
 * trace-event JSON.
 *
 * Every pass is checked: all points Completed and valid, every assert
 * holding, and one sim_digest (FNV-1a of the writeMetricsJson bytes)
 * across all passes, traced or not. The last stdout line is the JSON
 * result; the exit code is 0 only if every check held.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "driver/report.hh"
#include "driver/runner.hh"
#include "calib.hh"
#include "grid.hh"
#include "measure.hh"
#include "probes.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "stats_json.hh"

using namespace misp;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kStart = Clock::now();

/** Seconds since the process started measuring. */
double
now()
{
    return std::chrono::duration<double>(Clock::now() - kStart).count();
}

/** Workloads: a checked-in scenario, or the generated small-point grid
 *  (empty scenario file). BENCHMARK.json records why each is here. */
struct WorkloadDef {
    const char *name;
    const char *scenario;
};
const WorkloadDef kWorkloads[] = {
    {"paper_fig4", "fig4.scn"},
    {"multiprog_fig7", "fig7.scn"},
    {"grid_small_points", ""},
};

struct Args {
    const WorkloadDef *workload = nullptr;
    std::uint64_t seed = 0;
    unsigned seconds = 0;
    bool trace = false;
    std::string traceFile;
};

/** A loaded workload: the scenario and its expanded grid. */
struct Loaded {
    driver::Scenario sc;
    std::vector<driver::ScenarioPoint> points;
};

/** Append a span and return its index (no-op without a log). */
int
addSpan(std::vector<Span> *log, std::string name, double start,
        double end, int parent, long point = -1)
{
    if (!log)
        return -1;
    log->push_back(Span{std::move(name), start, end, parent, point});
    return static_cast<int>(log->size() - 1);
}

/** The host-speed reference of the process (calib.hh): the current
 *  segment's scale, every kernel run's time, and runs whose checksum
 *  was off. */
struct Calibrator {
    SpeedScale speed;
    std::vector<double> kernelSeconds;
    std::uint64_t badRuns = 0;

    /** Run the kernel from @p t on, starting a new segment, with a
     *  "perfbench.calibrate" span under @p parent. */
    void
    run(double t, std::vector<Span> *spans, int parent)
    {
        if (calibKernel(kCalibSteps) != kCalibChecksum)
            ++badRuns;
        const double end = now();
        speed.calibrated(t, end);
        kernelSeconds.push_back(end - t);
        addSpan(spans, "perfbench.calibrate", t, end, parent);
    }
};

/**
 * Host time of one measured interval without the reference kernel's
 * runs. checkpoint() closes the segment so far and runs the kernel when
 * a new segment is due; host() and ref() are the interval's host
 * seconds and the same scaled to reference seconds.
 */
class Meter
{
  public:
    Meter(Calibrator &cal, std::vector<Span> *spans, int parent)
        : cal_(cal), spans_(spans), parent_(parent), mark_(now())
    {
    }

    void
    checkpoint()
    {
        const double t = now();
        if (!cal_.speed.due(t))
            return;
        close(t);
        cal_.run(t, spans_, parent_);
        mark_ = now();
    }

    /** Close the interval at the current time. */
    void finish() { close(now()); }

    double host() const { return host_; }
    double ref() const { return ref_; }

  private:
    void
    close(double t)
    {
        host_ += t - mark_;
        ref_ += cal_.speed.scale(t - mark_);
        mark_ = t;
    }

    Calibrator &cal_;
    std::vector<Span> *spans_;
    int parent_;
    double mark_;
    double host_ = 0;
    double ref_ = 0;
};

/**
 * Set-up: locate, parse, validate and expand the workload's spec (for
 * the generated grid, generate it from the seed first), then write the
 * seed into every point's workload parameters.
 */
bool
load(const WorkloadDef &def, std::uint64_t seed, const char *argv0,
     Loaded *out, std::vector<Span> *spans, double start)
{
    std::string err;
    driver::SpecFile spec;
    const int root = addSpan(spans, "driver.load", start, 0, -1);
    double t = now();
    if (def.scenario[0]) {
        const std::string path = driver::findScenarioFile(def.scenario, argv0);
        addSpan(spans, "driver.findScenarioFile", t, now(), root);
        if (path.empty()) {
            std::fprintf(stderr, "perfbench: scenario '%s' not found\n",
                         def.scenario);
            return false;
        }
        t = now();
        if (!driver::SpecFile::parseFile(path, &spec, &err)) {
            std::fprintf(stderr, "perfbench: %s\n", err.c_str());
            return false;
        }
    } else {
        const std::string text = gridSmallSpec(seed);
        addSpan(spans, "perfbench.gridSmallSpec", t, now(), root);
        t = now();
        if (!driver::SpecFile::parse(text, "grid_small_points.scn", &spec,
                                     &err)) {
            std::fprintf(stderr, "perfbench: %s\n", err.c_str());
            return false;
        }
    }
    addSpan(spans, "driver.parseSpec", t, now(), root);
    t = now();
    if (!driver::Scenario::fromSpec(spec, &out->sc, &err)) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return false;
    }
    addSpan(spans, "driver.fromSpec", t, now(), root);
    t = now();
    out->points.clear();
    if (!out->sc.expandPoints(false, &out->points, &err)) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return false;
    }
    for (driver::ScenarioPoint &pt : out->points) {
        pt.workload.params.seed = seed;
        for (driver::WorkloadSpec &bg : pt.background)
            bg.params.seed = seed;
    }
    addSpan(spans, "driver.expandPoints", t, now(), root);
    if (spans)
        (*spans)[root].end = now();
    return true;
}

/** Layer counters read from the --full-stats dumps, keyed by the stat
 *  path suffix summed over every processor and sequencer. */
std::map<std::string, double>
emptyCounters()
{
    std::map<std::string, double> c;
    for (const char *k :
         {"decodeCacheHits", "decodeCacheMisses", "tlb.hits", "tlb.misses",
          "tlb.flushes", "mmu.pageWalks", "kernel.pageFaults",
          "physmem.framesAllocated", "kernel.syscalls", "kernel.timerIrqs",
          "kernel.ctxSwitches", "serializations", "fabric.deliveries",
          "proxyRequests", "shredlib.shredSwitches", "shredlib.syncBlocked"})
        c[k] = 0;
    return c;
}

/** The machine class of the per-point run-time split: the runtime
 *  backend, since section names differ between scenarios. */
const char *
backendOf(const driver::MachineSpec &m)
{
    return m.backend == rt::Backend::Shred ? "shred" : "os";
}

/** What one pass measured. */
struct Pass {
    double wall = 0; ///< host seconds, without reference-kernel runs
    double ref = 0;  ///< the same, in reference seconds
    std::vector<double> pointRef; ///< span around each runOne, ref s
    std::uint64_t insts = 0;
    std::uint64_t ticks = 0;
    std::size_t badPoints = 0;
    std::size_t assertFailures = 0;
    std::uint64_t digest = 0;

    // Traced passes only.
    double frameS = 0, assertsS = 0, emitS = 0;
    double otherS = 0;    ///< self time of the pass span
    double runOneSelfS = 0; ///< Σ runOne self time (outside its phases)
    std::uint64_t emitBytes = 0;
    obs::HostPhases phases; ///< summed over points
    std::map<std::string, double> runByBackend; ///< Σ phases.run
    std::map<std::string, double> runByMachine;
    std::map<std::string, double> counters;
    bool countersOk = true;
};

/** One full pass over the grid; spans and --full-stats when @p spans. */
Pass
runPass(const Loaded &L, Calibrator &cal, std::vector<Span> *spans)
{
    Pass p;
    const bool traced = spans != nullptr;
    driver::RunnerOptions opts;
    opts.hostLines = false;
    opts.jobs = 1;
    opts.fullStats = traced;

    std::vector<std::string> statsDumps;
    const double t0 = now();
    const int root = addSpan(spans, "pass", t0, 0, -1);
    Meter meter(cal, spans, root);
    std::vector<driver::PointResult> results(L.points.size());
    p.pointRef.reserve(L.points.size());
    for (std::size_t i = 0; i < L.points.size(); ++i) {
        meter.checkpoint();
        const driver::ScenarioPoint &pt = L.points[i];
        const harness::RunRequest req =
            driver::makeRunRequest(L.sc, pt, opts, i);
        const double a = now();
        harness::RunRecord rec = harness::runOne(req);
        const double b = now();
        p.pointRef.push_back(cal.speed.scale(b - a));

        driver::PointResult &r = results[i];
        r.machine = pt.machine.name;
        r.workload = pt.workload.name;
        r.competitors = pt.competitors;
        r.coords = pt.coords;
        r.run = std::move(rec);
        if (traced) {
            // The RunRecord's host phases, laid out in the order runOne
            // runs them, are the child spans of the runOne span.
            const int s = addSpan(spans, "harness.runOne", a, b, root,
                                  static_cast<long>(i));
            double c = a;
            const obs::HostPhases &ph = r.run.phases;
            for (const auto &[name, d] :
                 {std::pair{"harness.parse", ph.parse},
                  {"harness.warmup", ph.warmup},
                  {"harness.run", ph.run},
                  {"harness.serialize", ph.serialize}}) {
                if (d > 0)
                    addSpan(spans, name, c, c + d, s, static_cast<long>(i));
                c += d;
            }
            // Keep the dump out of the frame so frame build and emit
            // cost the same as untraced; it is read after the pass.
            statsDumps.push_back(std::move(r.run.statsJson));
            r.run.statsJson.clear();
        }
    }

    meter.checkpoint();
    double a = now();
    const harness::MetricFrame frame = driver::buildMetricFrame(L.sc, results);
    double b = now();
    addSpan(spans, "harness.buildMetricFrame", a, b, root);
    p.frameS = b - a;

    a = now();
    std::vector<driver::AssertFailure> failures;
    std::string err;
    const bool wellFormed =
        driver::evaluateAsserts(L.sc, frame, &failures, &err);
    b = now();
    addSpan(spans, "driver.evaluateAsserts", a, b, root);
    p.assertsS = b - a;

    a = now();
    CountingSink jsonSink, metricsSink;
    {
        std::ostream js(&jsonSink);
        driver::writeJson(js, L.sc, false, frame);
        js.flush();
        std::ostream ms(&metricsSink);
        driver::writeMetricsJson(ms, L.sc, false, frame);
        ms.flush();
    }
    p.digest = metricsSink.digest();
    p.emitBytes = jsonSink.bytes() + metricsSink.bytes();
    b = now();
    addSpan(spans, "driver.emit", a, b, root);
    p.emitS = b - a;
    meter.finish();
    p.wall = meter.host();
    p.ref = meter.ref();
    if (traced) {
        (*spans)[root].end = b;
        const std::vector<double> self = selfTimes(*spans);
        p.otherS = self[static_cast<std::size_t>(root)];
        for (std::size_t s = 0; s < spans->size(); ++s)
            if ((*spans)[s].name == "harness.runOne")
                p.runOneSelfS += self[s];
    }

    if (!wellFormed) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        ++p.assertFailures;
    }
    for (const driver::AssertFailure &f : failures) {
        std::fprintf(stderr, "perfbench: %s:%d: assert FAILED: %s (%s)\n",
                     L.sc.specPath.c_str(), f.line, f.text.c_str(),
                     f.detail.c_str());
        ++p.assertFailures;
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
        const harness::RunRecord &r = results[i].run;
        p.insts += r.instsRetired;
        p.ticks += r.ticks;
        if (!r.ok()) {
            ++p.badPoints;
            std::fprintf(stderr,
                         "perfbench: point %zu machine=%s workload=%s %s "
                         "status=%s valid=%d\n",
                         i, results[i].machine.c_str(),
                         results[i].workload.c_str(),
                         L.points[i].coordString().c_str(),
                         harness::runStatusName(r.status), r.valid ? 1 : 0);
        }
        if (!traced)
            continue;
        p.phases.parse += r.phases.parse;
        p.phases.warmup += r.phases.warmup;
        p.phases.run += r.phases.run;
        p.phases.serialize += r.phases.serialize;
        p.runByBackend[backendOf(L.points[i].machine)] += r.phases.run;
        p.runByMachine[results[i].machine] += r.phases.run;
    }
    if (traced) {
        p.counters = emptyCounters();
        for (const std::string &dump : statsDumps)
            p.countersOk = sumStatLeaves(dump, &p.counters) && p.countersOk;
    }
    return p;
}

bool
parseArgs(int argc, char **argv, Args *a)
{
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        std::uint64_t n = 0;
        if (key == "--workload") {
            for (const WorkloadDef &w : kWorkloads)
                if (v == w.name)
                    a->workload = &w;
            if (!a->workload)
                return false;
        } else if (key == "--seed" && driver::parseU64(v, &n)) {
            a->seed = n;
            haveSeed = true;
        } else if (key == "--seconds" && driver::parseU64(v, &n) && n > 0 &&
                   n <= 3600) {
            a->seconds = static_cast<unsigned>(n);
            haveSeconds = true;
        } else if (key == "--trace" && (v == "0" || v == "1")) {
            a->trace = v == "1";
            haveTrace = true;
        } else if (key == "--trace-file") {
            a->traceFile = v;
        } else {
            return false;
        }
    }
    return a->workload && haveSeed && haveSeconds && haveTrace;
}

/** The result line and the human report. */
class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit,
        const std::string &note = "")
    {
        metrics_.push_back({name, value, unit});
        std::fprintf(stderr, "  %-36s %14.6g %-8s %s\n", name.c_str(),
                     value, unit.c_str(), note.c_str());
    }

    void
    print(bool correct, std::uint64_t attempted, std::uint64_t failed) const
    {
        std::ostream &os = std::cout;
        os << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            os << (i ? ", " : "") << stats::jsonQuote(metrics_[i].name)
               << ": {\"value\": ";
            stats::writeJsonNumber(os, metrics_[i].value);
            os << ", \"unit\": " << stats::jsonQuote(metrics_[i].unit)
               << "}";
        }
        os << "}}" << std::endl;
    }

  private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
};

/** Peak resident set of this process image in MB: VmHWM, because
 *  ru_maxrss carries over the parent's peak across execve. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    double kb = 0;
    while (status >> key)
        if (key == "VmHWM:" && status >> kb)
            return kb / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Median over @p passes of @p f(pass). */
template <typename F>
double
medianOf(const std::vector<Pass> &passes, F f)
{
    std::vector<double> v;
    for (const Pass &p : passes)
        v.push_back(f(p));
    return median(v);
}

/**
 * The end-to-end metrics, from the untraced passes. The sweep is the
 * median pass; each grid point's time is its median across passes, and
 * the point metrics are the median and the tail over those, so a burst
 * of host load in one pass does not set the tail. Host times are in
 * reference seconds (calib.hh).
 */
void
reportEndToEnd(Report &rep, const std::vector<Pass> &plain,
               const std::vector<double> &setups, double peakRss,
               double okRatio)
{
    std::vector<double> refs;
    std::vector<std::vector<double>> byPoint(plain.front().pointRef.size());
    for (const Pass &p : plain) {
        refs.push_back(p.ref);
        for (std::size_t i = 0; i < p.pointRef.size(); ++i)
            byPoint[i].push_back(p.pointRef[i] * 1e3);
    }
    std::vector<double> pointMedians;
    for (const std::vector<double> &v : byPoint)
        pointMedians.push_back(median(v));
    const Tail tail =
        percentileOf(pointMedians, tailPercentileFor(pointMedians.size()));
    const double sweep = median(refs);
    char note[96];
    std::snprintf(note, sizeof(note), "p%g of %zu point medians, %zu beyond",
                  tail.percentile, tail.samples, tail.beyond);
    rep.add("sweep_s", sweep, "s", "median pass");
    rep.add("host_mips", static_cast<double>(plain.front().insts) / sweep / 1e6,
            "Minst/s");
    rep.add("point_ms_p50", median(pointMedians), "ms",
            "median point, median across passes");
    rep.add("point_ms_tail", tail.value, "ms", note);
    rep.add("setup_s", median(setups), "s");
    rep.add("peak_rss_mb", peakRss, "MB", "after one pass");
    rep.add("ok_ratio", okRatio, "ratio");
}

/** What the layer probes measured. */
struct Probes {
    double buildS = 0; ///< Σ WorkloadInfo::build over the grid points
    std::map<std::string, double> values; ///< by ProbeSpec::metric
};

/** The layer probes, outside the passes: the workload builder for every
 *  grid point, then the cpu kernels and queue round trips. A probe
 *  whose simulated outcome is off counts into @p failed. */
Probes
runProbes(const Loaded &L, std::vector<Span> *spans, std::uint64_t *failed)
{
    Probes pr;
    const int root = addSpan(spans, "probe.workloads", now(), 0, -1);
    for (std::size_t i = 0; i < L.points.size(); ++i) {
        const driver::WorkloadSpec &w = L.points[i].workload;
        const wl::WorkloadInfo *info = wl::findWorkload(w.name);
        const double a = now();
        const wl::Workload built = info->build(w.params);
        const double b = now();
        addSpan(spans, "workloads.build", a, b, root, static_cast<long>(i));
        pr.buildS += b - a;
    }
    (*spans)[root].end = now();

    std::size_t n = 0;
    const ProbeSpec *specs = probeSpecs(&n);
    for (std::size_t i = 0; i < n; ++i) {
        std::string err;
        const double a = now();
        if (!measureProbe(specs[i], 5, &pr.values[specs[i].metric], &err)) {
            std::fprintf(stderr, "perfbench: %s\n", err.c_str());
            ++*failed;
        }
        addSpan(spans, std::string("probe.") + specs[i].metric, a, now(), -1);
    }
    return pr;
}

/** The per-layer metrics: span times from the traced passes, counts
 *  from their --full-stats dumps, and the probes. */
void
reportLayers(Report &rep, const Loaded &L, const std::vector<Pass> &plain,
             const std::vector<Pass> &traced,
             const std::vector<Span> &spanLog, const Probes &pr,
             const Calibrator &cal)
{
    const std::map<std::string, double> &c = traced.front().counters;
    auto at = [&](const char *k) { return c.at(k); };
    const double points = static_cast<double>(L.points.size());
    const double insts = static_cast<double>(plain.front().insts);
    const double perMi = 1e6 / insts;
    auto ms = [](double s) { return s * 1e3; };
    auto msPerPoint = [&](double (*f)(const Pass &)) {
        return ms(medianOf(traced, f)) / points;
    };

    std::vector<double> loads;
    for (const Span &s : spanLog)
        if (s.name == "driver.load")
            loads.push_back(ms(s.end - s.start));
    rep.add("driver.load_ms", median(loads), "ms");
    rep.add("driver.asserts_ms",
            ms(medianOf(traced, [](const Pass &p) { return p.assertsS; })),
            "ms");
    rep.add("driver.emit_ms",
            ms(medianOf(traced, [](const Pass &p) { return p.emitS; })), "ms");
    rep.add("driver.emit_bytes",
            static_cast<double>(traced.front().emitBytes), "bytes");
    rep.add("driver.other_ms_per_point",
            msPerPoint([](const Pass &p) { return p.otherS; }), "ms");
    rep.add("harness.frame_build_ms",
            ms(medianOf(traced, [](const Pass &p) { return p.frameS; })), "ms");
    rep.add("harness.parse_ms_per_point",
            msPerPoint([](const Pass &p) { return p.phases.parse; }), "ms");
    rep.add("harness.serialize_ms_per_point",
            msPerPoint([](const Pass &p) { return p.phases.serialize; }),
            "ms");
    rep.add("harness.runone_self_ms_per_point",
            msPerPoint([](const Pass &p) { return p.runOneSelfS; }), "ms");
    rep.add("harness.run_share",
            medianOf(traced,
                     [](const Pass &p) { return p.phases.run / p.wall; }),
            "ratio");
    for (const char *backend : {"os", "shred"}) {
        std::size_t n = 0;
        for (const driver::ScenarioPoint &pt : L.points)
            n += backendOf(pt.machine) == std::string(backend);
        const double runS = medianOf(traced, [&](const Pass &p) {
            auto it = p.runByBackend.find(backend);
            return it == p.runByBackend.end() ? 0.0 : it->second;
        });
        rep.add(std::string("harness.run_ms_per_point.") + backend,
                n ? ms(runS) / static_cast<double>(n) : 0, "ms",
                std::string("machines with backend ") + backend);
    }
    for (const auto &[machine, s] : traced.front().runByMachine) {
        std::size_t n = 0;
        for (const driver::ScenarioPoint &pt : L.points)
            n += pt.machine.name == machine;
        std::fprintf(stderr, "    (machine %s: %.6g ms run per point)\n",
                     machine.c_str(), ms(s) / static_cast<double>(n));
    }
    rep.add("workloads.build_ms_per_point", ms(pr.buildS) / points, "ms");
    rep.add("cpu.ns_per_inst",
            medianOf(traced, [](const Pass &p) { return p.phases.run; }) *
                1e9 / insts,
            "ns");
    const double dc = at("decodeCacheHits") + at("decodeCacheMisses");
    rep.add("cpu.decode_hit_ratio", dc > 0 ? at("decodeCacheHits") / dc : 0,
            "ratio");
    std::size_t nSpecs = 0;
    const ProbeSpec *specs = probeSpecs(&nSpecs);
    for (std::size_t i = 0; i < nSpecs; ++i)
        rep.add(specs[i].metric, pr.values.at(specs[i].metric),
                specs[i].unit);
    rep.add("sim.ticks", static_cast<double>(plain.front().ticks), "ticks");
    const double tlb = at("tlb.hits") + at("tlb.misses");
    rep.add("mem.tlb_accesses_per_inst", tlb / insts, "1/inst");
    rep.add("mem.tlb_miss_ratio", tlb > 0 ? at("tlb.misses") / tlb : 0,
            "ratio");
    const std::pair<const char *, const char *> perMiCounts[] = {
        {"mem.tlb_flushes_per_mi", "tlb.flushes"},
        {"mem.page_walks_per_mi", "mmu.pageWalks"},
        {"mem.page_faults_per_mi", "kernel.pageFaults"},
        {"os.syscalls_per_mi", "kernel.syscalls"},
        {"os.timer_irqs_per_mi", "kernel.timerIrqs"},
        {"os.ctx_switches_per_mi", "kernel.ctxSwitches"},
        {"misp.serializations_per_mi", "serializations"},
        {"misp.fabric_deliveries_per_mi", "fabric.deliveries"},
        {"misp.proxy_requests_per_mi", "proxyRequests"},
        {"shredlib.shred_switches_per_mi", "shredlib.shredSwitches"},
        {"shredlib.sync_blocked_per_mi", "shredlib.syncBlocked"},
    };
    for (const auto &[metric, stat] : perMiCounts)
        rep.add(metric, at(stat) * perMi, "1/Minst");
    rep.add("mem.frames_per_point", at("physmem.framesAllocated") / points,
            "frames");
    rep.add("obs.trace_overhead_ratio",
            medianOf(traced, [](const Pass &p) { return p.ref; }) /
                medianOf(plain, [](const Pass &p) { return p.ref; }),
            "ratio");
    rep.add("host.sweep_wall_s",
            medianOf(plain, [](const Pass &p) { return p.wall; }), "s",
            "median untraced pass, unscaled");
    rep.add("host.calib_ms", ms(median(cal.kernelSeconds)), "ms",
            "median reference-kernel run");
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload paper_fig4|multiprog_fig7|"
                     "grid_small_points --seed N --seconds S --trace 0|1 "
                     "[--trace-file FILE]\n");
        return 2;
    }
    setQuietLogging(true);
    std::vector<Span> spanLog;
    std::vector<Span> *spans = args.trace ? &spanLog : nullptr;

    // Set-up, several times, in reference seconds, with a kernel run
    // before every few; the first one includes the workload registry's
    // first use.
    constexpr int kSetups = 101;
    constexpr int kSetupsPerSegment = 10;
    Calibrator cal;
    Loaded L;
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
        if (i % kSetupsPerSegment == 0)
            cal.run(now(), spans, -1);
        const double a = now();
        if (!load(*args.workload, args.seed, argv[0], &L, spans, a))
            return 1;
        setups.push_back(cal.speed.scale(now() - a));
    }

    std::uint64_t attempted = 0, failed = 0;
    std::size_t badPoints = 0;
    DigestCheck digests;
    auto check = [&](const Pass &p) {
        attempted += L.points.size();
        badPoints += p.badPoints;
        failed += p.badPoints + p.assertFailures;
        if (!digests.observe(p.digest)) {
            std::fprintf(stderr,
                         "perfbench: sim_digest %016llx differs from "
                         "%016llx\n",
                         static_cast<unsigned long long>(p.digest),
                         static_cast<unsigned long long>(
                             digests.reference()));
            ++failed;
        }
    };

    check(runPass(L, cal, nullptr)); // warm-up, not timed
    // Peak memory of one sweep: later passes reuse the heap, so the
    // figure does not depend on how many passes fit in the run.
    const double peakRss = peakRssMb();

    std::vector<Pass> plain, traced;
    const std::size_t setupSpans = spanLog.size();
    const double t0 = now();
    do {
        plain.push_back(runPass(L, cal, nullptr));
        check(plain.back());
        if (args.trace) {
            // The span file keeps the set-ups, the last traced pass and
            // the probes; the metrics come from every traced pass.
            spanLog.erase(spanLog.begin() + setupSpans, spanLog.end());
            traced.push_back(runPass(L, cal, spans));
            check(traced.back());
            const Pass &tp = traced.back();
            if (!tp.countersOk || tp.counters != traced.front().counters) {
                std::fprintf(stderr, "perfbench: layer counters are "
                                     "unreadable or differ between passes\n");
                ++failed;
            }
        }
    } while (now() - t0 < args.seconds);

    std::fprintf(stderr,
                 "perfbench: %s seed=%llu points=%zu passes=%zu%s "
                 "insts/pass=%llu sim_digest=%016llx\n",
                 args.workload->name,
                 static_cast<unsigned long long>(args.seed), L.points.size(),
                 plain.size(),
                 args.trace
                     ? (" traced=" + std::to_string(traced.size())).c_str()
                     : "",
                 static_cast<unsigned long long>(plain.front().insts),
                 static_cast<unsigned long long>(digests.reference()));

    std::fprintf(stderr, "perfbench: passes (host s/ref s):");
    for (const Pass &p : plain)
        std::fprintf(stderr, " %.4f/%.4f", p.wall, p.ref);
    for (const Pass &p : traced)
        std::fprintf(stderr, " traced:%.4f/%.4f", p.wall, p.ref);
    std::fprintf(stderr, "\nperfbench: %zu reference-kernel runs, median "
                         "%.4f ms\n",
                 cal.kernelSeconds.size(), median(cal.kernelSeconds) * 1e3);
    if (cal.badRuns) {
        std::fprintf(stderr,
                     "perfbench: %llu reference-kernel runs gave a checksum "
                     "other than %016llx\n",
                     static_cast<unsigned long long>(cal.badRuns),
                     static_cast<unsigned long long>(kCalibChecksum));
        failed += cal.badRuns;
    }

    Report rep;
    if (!args.trace) {
        reportEndToEnd(rep, plain, setups, peakRss,
                       static_cast<double>(attempted - badPoints) /
                           static_cast<double>(attempted));
    } else {
        const Probes pr = runProbes(L, spans, &failed);
        if (!args.traceFile.empty()) {
            std::ofstream os(args.traceFile);
            writeChromeSpans(os, spanLog);
            if (!os) {
                std::fprintf(stderr, "perfbench: cannot write '%s'\n",
                             args.traceFile.c_str());
                ++failed;
            }
        }
        reportLayers(rep, L, plain, traced, spanLog, pr, cal);
    }

    const bool correct = failed == 0;
    rep.print(correct, attempted, failed);
    return correct ? 0 : 1;
}
