/**
 * @file
 * The command-line surface of every binary as data. One table of flag
 * rows — name, value placeholder, help text, and the CliOptions field
 * the parsed value lands in — both parses argv and renders --help, so
 * a flag cannot be accepted without being documented or documented
 * without being accepted. `mispsim` uses the whole table; the bench
 * binaries and the examples take a subset of its rows, so every binary
 * rejects a flag it does not understand with a usage error (exit 2).
 * The exit-code table lives here too, in exactly one place.
 */

#ifndef MISP_DRIVER_CLI_HELP_HH
#define MISP_DRIVER_CLI_HELP_HH

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "cpu/engine.hh"
#include "driver/faults.hh"
#include "driver/scenario.hh"
#include "driver/shard.hh"

namespace misp::driver {

/** Everything a command line can set. Each flag row names one field;
 *  `shardSpec` and `faults` are derived by parseMispsimArgs(). */
struct CliOptions {
    /** Positional arguments, in order: the scenario, then (with
     *  --merge-frames) the shard dumps to merge. */
    std::vector<std::string> args;

    std::string jsonPath;
    std::string metricsPath;
    bool quick = false;
    std::optional<unsigned> jobs;
    bool isolate = false;
    std::optional<unsigned> deadlineMs;
    std::optional<unsigned> retries;
    std::optional<unsigned> backoffMs;
    std::string inject;
    std::optional<FailedPointPolicy> onFailed;
    std::string saveSnapshotDir;
    std::string fromSnapshotDir;
    std::optional<cpu::Engine> engine;
    std::string tracePath;
    std::uint64_t traceSkip = 0;
    std::string runLogPath;
    std::string shard;
    std::string mergeOut;
    bool progress = false;
    std::string profilePath;
    bool markdown = false;
    bool pointsOnly = false;
    bool dryRun = false;
    bool fullStats = false;
    bool verbose = false;
    bool listWorkloads = false;
    bool help = false;

    /** --shard parsed (count 1 when not sharded). */
    ShardSpec shardSpec;
    /** --inject parsed. */
    FaultPlan faults;
};

/** Where a flag's value lands; the field's type is the value kind.
 *  A bool field is a switch and takes no value. An optional field
 *  records whether the flag was given at all. */
using CliField =
    std::variant<bool CliOptions::*, std::string CliOptions::*,
                 std::optional<unsigned> CliOptions::*,
                 std::uint64_t CliOptions::*,
                 std::optional<cpu::Engine> CliOptions::*,
                 std::optional<FailedPointPolicy> CliOptions::*>;

/** One flag row. The value is the next argument, or follows '=' when
 *  the placeholder starts with '=' ("--engine=E"). The help text is
 *  '\n'-separated (the renderer indents continuation lines). */
struct CliFlag {
    const char *name;  ///< "--jobs", "-o"
    const char *value; ///< "N", "=E"; nullptr for a switch
    const char *help;
    CliField field;
    const char *alias = nullptr; ///< "-h" for "--help"
};

/** One documented exit code. */
struct CliExitCode {
    int code;
    const char *help;
};

/** Every flag `mispsim` accepts, in help order. */
const std::vector<CliFlag> &mispsimFlags();

/** The rows of mispsimFlags() named @p names (in table order), for a
 *  binary that accepts only those flags. */
std::vector<CliFlag> mispsimFlagSubset(
    std::initializer_list<std::string_view> names);

/** Every exit code `mispsim` can return, in ascending order. */
const std::vector<CliExitCode> &mispsimExitCodes();

/**
 * Parse argv[1..argc) against @p flags into @p out. Arguments that do
 * not start with '-' are appended to out->args; parsing stops after
 * --help or --list-workloads. False with @p err set on an unknown
 * flag, a missing value, or a malformed value — a usage error.
 */
bool parseCliArgs(const std::vector<CliFlag> &flags, int argc,
                  const char *const *argv, CliOptions *out,
                  std::string *err);

/** parseCliArgs over mispsimFlags() plus the checks that span flags:
 *  one scenario (and shard dumps only with --merge-frames), a positive
 *  --jobs, the supervision flags only with --isolate, --trace-skip
 *  only with --trace, --shard/--merge-frames and the two snapshot
 *  flags mutually exclusive; fills shardSpec and faults. False with
 *  @p err set is a usage error (exit 2); an empty @p err means no
 *  scenario was given. */
bool parseMispsimArgs(int argc, const char *const *argv, CliOptions *out,
                      std::string *err);

/** For a binary that takes no positional arguments: parse argv against
 *  @p flags, and on a usage error print it and the rendered flags to
 *  stderr and return false (the caller exits 2). */
bool parseToolArgs(const std::vector<CliFlag> &flags, int argc,
                   const char *const *argv, CliOptions *out);

/** Render the full `mispsim --help` text from the tables. */
std::string mispsimUsage(const char *argv0);

} // namespace misp::driver

#endif // MISP_DRIVER_CLI_HELP_HH
