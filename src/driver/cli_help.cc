#include "cli_help.hh"

#include <cstdio>
#include <cstring>
#include <type_traits>
#include <utility>

#include "driver/spec.hh"

namespace misp::driver {

const std::vector<CliFlag> &
mispsimFlags()
{
    static const std::vector<CliFlag> flags = {
        {"-o", "FILE", "write results as JSON to FILE",
         &CliOptions::jsonPath},
        {"--metrics", "FILE",
         "write the full metric frame (every sweep\n"
         "point x every metric, incl. derived\n"
         "speedup and per-10^6-instruction event\n"
         "rates) as deterministic JSON to FILE",
         &CliOptions::metricsPath},
        {"--quick", nullptr, "apply the scenario's [quick] overrides",
         &CliOptions::quick},
        {"--jobs", "N",
         "run grid points on N worker threads; all\n"
         "outputs (JSON, tables, --points, --trace)\n"
         "stay byte-identical to a serial run",
         &CliOptions::jobs},
        {"--isolate", nullptr,
         "crash-isolated workers: fork one child\n"
         "process per grid point (up to N at once);\n"
         "a crashing point is recorded as\n"
         "worker_crashed instead of killing the\n"
         "sweep; outputs stay byte-identical",
         &CliOptions::isolate},
        {"--deadline", "MS",
         "(with --isolate) per-attempt wall-clock\n"
         "deadline; a worker exceeding it is\n"
         "SIGKILLed and its point recorded as\n"
         "worker_timeout (0 = none; default: the\n"
         "scenario's [run] point_deadline_ms)",
         &CliOptions::deadlineMs},
        {"--retries", "N",
         "(with --isolate) relaunch a point up to N\n"
         "extra times after a transient failure\n"
         "(crash, timeout, snapshot error); the\n"
         "record keeps the attempt count",
         &CliOptions::retries},
        {"--backoff", "MS",
         "(with --isolate) base relaunch delay;\n"
         "attempt k waits MS * 2^(k-1) ms",
         &CliOptions::backoffMs},
        {"--inject", "SPEC",
         "(with --isolate) deterministic fault\n"
         "injection, e.g. \"seed=7;crash@0;hang@2\"\n"
         "(kinds: crash, hang, corrupt_pipe,\n"
         "corrupt_snapshot, fork_fail; targets:\n"
         "point indices `1,3` / `0..2` or `p0.1`\n"
         "probability; `x1` bounds a fault to the\n"
         "first attempt); merged over the\n"
         "scenario's [faults] section",
         &CliOptions::inject},
        {"--on-failed", "P",
         "what failed points do to reporting:\n"
         "fail (default, exit 1), skip (degrade\n"
         "gracefully: asserts skip affected\n"
         "groups, exit 4), require_all (asserts\n"
         "touching failed points fail)",
         &CliOptions::onFailed},
        {"--save-snapshot", "DIR",
         "warm every grid point up for the\n"
         "scenario's [snapshot] warmup_ticks, write\n"
         "DIR/point_<k>.misnap, and keep running to\n"
         "completion (results unchanged)",
         &CliOptions::saveSnapshotDir},
        {"--from-snapshot", "DIR",
         "restore each grid point from\n"
         "DIR/point_<k>.misnap instead of booting\n"
         "cold; results are byte-identical to a\n"
         "cold run of the same spec (exception:\n"
         "--full-stats decode-cache hit/miss\n"
         "counters, which restart cold — the\n"
         "decode cache is derived state)",
         &CliOptions::fromSnapshotDir},
        {"--engine", "=E",
         "force the host execution engine on every\n"
         "machine: ref (per-instruction\n"
         "fetch+decode) or superblock (chained\n"
         "basic-block dispatch over predecoded\n"
         "pages; the default). Both engines\n"
         "produce bit-identical results",
         &CliOptions::engine},
        {"--trace", "FILE",
         "record each point's deterministic event\n"
         "trace and write one Chrome trace-event\n"
         "JSON (chrome://tracing, Perfetto) to\n"
         "FILE. Categories and the event bound\n"
         "come from the scenario's [trace]\n"
         "section; the trace is simulated-plane\n"
         "data — byte-identical across --jobs,\n"
         "--isolate, every --engine, and snapshot\n"
         "save/restore topologies",
         &CliOptions::tracePath},
        {"--trace-skip", "N",
         "(with --trace) skip events before the\n"
         "Nth processed queue event; set N to a\n"
         "restored trace's reported `base` to\n"
         "reproduce that trace from a cold run",
         &CliOptions::traceSkip},
        {"--run-log", "FILE",
         "append one JSON line per scheduling\n"
         "event (dispatched / retried / timed_out\n"
         "/ completed, with attempt, worker pid,\n"
         "wall ms, backoff) to FILE — host-plane\n"
         "telemetry, never byte-compared",
         &CliOptions::runLogPath},
        {"--shard", "K/N",
         "run only this process's 1/N of the sweep:\n"
         "coordinate combinations are dealt\n"
         "round-robin (combination j to shard\n"
         "j mod N), so groups stay whole and the\n"
         "--metrics dump (with its shard header)\n"
         "merges byte-identically; points keep\n"
         "their global grid indices, so snapshots\n"
         "and --inject compose unchanged; [report]\n"
         "asserts are deferred to --merge-frames",
         &CliOptions::shard},
        {"--merge-frames", "OUT",
         "merge mode: treat the remaining\n"
         "arguments as per-shard --metrics dumps,\n"
         "validate them against the scenario\n"
         "(config hash, shard arity, gaps,\n"
         "overlaps — fail-closed, naming the\n"
         "offending file), write the reassembled\n"
         "frame to OUT byte-identical to a serial\n"
         "run's --metrics, and evaluate the\n"
         "deferred [report] asserts on it; flags\n"
         "that only act on a run are rejected",
         &CliOptions::mergeOut},
        {"--progress", nullptr,
         "force per-point progress lines on stderr\n"
         "even in --points mode (default: on for\n"
         "table/JSON output)",
         &CliOptions::progress},
        {"--profile", "FILE",
         "write a host-profiling summary to FILE:\n"
         "per-phase (parse/warmup/run/serialize)\n"
         "totals and histograms plus per-engine\n"
         "host-MIPS — host-plane data, varies run\n"
         "to run",
         &CliOptions::profilePath},
        {"--md", nullptr, "print the results table as markdown",
         &CliOptions::markdown},
        {"--points", nullptr,
         "print canonical point lines only (the\n"
         "engine and --jobs equivalence diff\n"
         "format)",
         &CliOptions::pointsOnly},
        {"--dry-run", nullptr, "expand and print the grid without running",
         &CliOptions::dryRun},
        {"--full-stats", nullptr,
         "include a full stats dump per point in the\n"
         "JSON output",
         &CliOptions::fullStats},
        {"--verbose", nullptr, "keep the simulator's event log on stderr",
         &CliOptions::verbose},
        {"--list-workloads", nullptr, "print the workload registry and exit",
         &CliOptions::listWorkloads},
        {"--help", nullptr, "this message",
         &CliOptions::help, "-h"},
    };
    return flags;
}

const std::vector<CliExitCode> &
mispsimExitCodes()
{
    static const std::vector<CliExitCode> codes = {
        {0, "every point ran, every assert held"},
        {1, "a point failed, an assert failed, or a spec error"},
        {2, "usage error"},
        {4,
         "completed with failed points (--on-failed skip /\n"
         "[report] on_failed_points = skip) and everything else\n"
         "passed"},
    };
    return codes;
}

std::vector<CliFlag>
mispsimFlagSubset(std::initializer_list<std::string_view> names)
{
    std::vector<CliFlag> out;
    for (const CliFlag &f : mispsimFlags()) {
        for (std::string_view n : names)
            if (n == f.name)
                out.push_back(f);
    }
    return out;
}

namespace {

// One parser per value kind: nullptr on success, else what the value
// should have been.
const char *
parseValue(const std::string &text, std::string *out)
{
    *out = text;
    return nullptr;
}

const char *
parseValue(const std::string &text, std::optional<unsigned> *out)
{
    unsigned v = 0;
    if (!parseUnsigned(text, &v))
        return "a non-negative integer";
    *out = v;
    return nullptr;
}

const char *
parseValue(const std::string &text, std::uint64_t *out)
{
    return parseU64(text, out) ? nullptr : "a non-negative integer";
}

const char *
parseValue(const std::string &text, std::optional<cpu::Engine> *out)
{
    cpu::Engine e;
    if (!cpu::parseEngineName(text, &e))
        return "ref or superblock";
    *out = e;
    return nullptr;
}

const char *
parseValue(const std::string &text, std::optional<FailedPointPolicy> *out)
{
    FailedPointPolicy p;
    if (!parseFailedPointPolicy(text, &p))
        return "fail, skip, or require_all";
    *out = p;
    return nullptr;
}

/** Append @p help, indenting its continuation lines by @p indent. */
void
appendHelp(std::string *out, const char *help, std::size_t indent)
{
    for (const char *p = help; *p;) {
        const char *nl = std::strchr(p, '\n');
        std::size_t n =
            nl ? static_cast<std::size_t>(nl - p) : std::strlen(p);
        out->append(p, n);
        *out += "\n";
        p += n + (nl ? 1 : 0);
        if (*p)
            out->append(indent, ' ');
    }
}

std::string
renderFlags(const std::vector<CliFlag> &flags)
{
    std::string out = "options:\n";
    for (const CliFlag &f : flags) {
        std::string spec = "  ";
        if (f.alias)
            spec = spec + f.alias + ", ";
        spec += f.name;
        if (f.value)
            spec = spec + (f.value[0] == '=' ? "" : " ") + f.value;
        if (spec.size() < 21)
            spec.resize(21, ' ');
        else
            spec += " ";
        out += spec;
        appendHelp(&out, f.help, 21);
    }
    return out;
}

} // namespace

bool
parseCliArgs(const std::vector<CliFlag> &flags, int argc,
             const char *const *argv, CliOptions *out, std::string *err)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.empty() || arg[0] != '-') {
            out->args.push_back(arg);
            continue;
        }
        const CliFlag *flag = nullptr;
        std::string text;
        for (const CliFlag &f : flags) {
            const std::string name = f.name;
            if (f.value && f.value[0] == '=') {
                if (arg.compare(0, name.size() + 1, name + "=") == 0) {
                    flag = &f;
                    text = arg.substr(name.size() + 1);
                }
            } else if (arg == name || (f.alias && arg == f.alias)) {
                if (f.value && i + 1 >= argc) {
                    *err = name + " needs a value (" + f.value + ")";
                    return false;
                }
                flag = &f;
                if (f.value)
                    text = argv[++i];
            }
            if (flag)
                break;
        }
        if (!flag) {
            *err = "unknown option '" + arg + "'";
            return false;
        }
        const char *expected = std::visit(
            [&](auto field) -> const char * {
                if constexpr (std::is_same_v<decltype(field),
                                             bool CliOptions::*>) {
                    out->*field = true;
                    return nullptr;
                } else {
                    return parseValue(text, &(out->*field));
                }
            },
            flag->field);
        if (expected) {
            *err = std::string(flag->name) + " wants " + expected +
                   ", got '" + text + "'";
            return false;
        }
        if (out->help || out->listWorkloads)
            break;
    }
    return true;
}

bool
parseMispsimArgs(int argc, const char *const *argv, CliOptions *out,
                 std::string *err)
{
    err->clear();
    if (!parseCliArgs(mispsimFlags(), argc, argv, out, err))
        return false;
    if (out->help || out->listWorkloads)
        return true;
    auto fail = [err](const char *msg) {
        *err = msg;
        return false;
    };
    const bool merge = !out->mergeOut.empty();
    if (out->args.empty())
        return false;
    if (out->args.size() > 1 && !merge)
        return fail("more than one scenario file");
    if (merge && out->args.size() < 2)
        return fail("--merge-frames needs at least one shard dump");
    if (merge && !out->shard.empty())
        return fail("--shard and --merge-frames are mutually exclusive");
    // Merge mode reassembles finished shards and runs nothing, so a
    // flag that only acts on a run would be silently ignored.
    if (merge) {
        const std::pair<bool, const char *> runOnly[] = {
            {!out->metricsPath.empty(), "--metrics"},
            {!out->tracePath.empty(), "--trace"},
            {out->traceSkip != 0, "--trace-skip"},
            {!out->profilePath.empty(), "--profile"},
            {!out->runLogPath.empty(), "--run-log"},
            {out->progress, "--progress"},
            {out->fullStats, "--full-stats"},
            {out->jobs.has_value(), "--jobs"},
            {out->isolate, "--isolate"},
            {out->engine.has_value(), "--engine"},
            {out->dryRun, "--dry-run"},
            {!out->saveSnapshotDir.empty(), "--save-snapshot"},
            {!out->fromSnapshotDir.empty(), "--from-snapshot"},
            {out->deadlineMs.has_value(), "--deadline"},
            {out->retries.has_value(), "--retries"},
            {out->backoffMs.has_value(), "--backoff"},
            {!out->inject.empty(), "--inject"},
        };
        for (const auto &[given, name] : runOnly) {
            if (given) {
                *err = std::string(name) +
                       " acts on a run; --merge-frames runs nothing";
                return false;
            }
        }
    }
    if (!out->shard.empty() &&
        !parseShardSpec(out->shard, &out->shardSpec, err))
        return false;
    if (out->jobs == 0u)
        return fail("--jobs needs a positive integer");
    // The supervision flags act on forked workers; without --isolate
    // there is no worker to supervise.
    if (!out->isolate && (!out->inject.empty() || out->deadlineMs ||
                          out->retries || out->backoffMs))
        return fail("--inject/--deadline/--retries/--backoff require "
                    "--isolate");
    if (!out->inject.empty() &&
        !FaultPlan::parse(out->inject, &out->faults, err)) {
        *err = "--inject: " + *err;
        return false;
    }
    if (!out->saveSnapshotDir.empty() && !out->fromSnapshotDir.empty())
        return fail("--save-snapshot and --from-snapshot are mutually "
                    "exclusive");
    if (out->tracePath.empty() && out->traceSkip != 0)
        return fail("--trace-skip requires --trace");
    return true;
}

bool
parseToolArgs(const std::vector<CliFlag> &flags, int argc,
              const char *const *argv, CliOptions *out)
{
    std::string err;
    if (parseCliArgs(flags, argc, argv, out, &err) && out->args.empty())
        return true;
    if (err.empty())
        err = "unexpected argument '" + out->args.front() + "'";
    std::fprintf(stderr, "%s: %s\nusage: %s [options]\n%s", argv[0],
                 err.c_str(), argv[0], renderFlags(flags).c_str());
    return false;
}

std::string
mispsimUsage(const char *argv0)
{
    std::string out = "usage: ";
    out += argv0;
    out += " <scenario.scn> [options]\n"
           "       ";
    out += argv0;
    out += " <scenario.scn> --merge-frames OUT IN1.json [IN2.json...]\n"
           "\n"
           "Runs a declarative scenario: machines x workloads x sweep "
           "axes.\n"
           "Spec format: see docs/ARCHITECTURE.md (Scenario driver) and "
           "the\n"
           "checked-in examples under scenarios/.\n"
           "\n";
    out += renderFlags(mispsimFlags());
    out += "\nexit codes:\n";
    for (const CliExitCode &c : mispsimExitCodes()) {
        char head[16];
        std::snprintf(head, sizeof(head), "  %d  ", c.code);
        out += head;
        appendHelp(&out, c.help, std::strlen(head));
    }
    return out;
}

} // namespace misp::driver
