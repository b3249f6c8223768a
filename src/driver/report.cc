#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

namespace misp::driver {

namespace {

using harness::MetricFrame;

// ---------------------------------------------------------------------
// Reference resolution (queries over the MetricFrame)
// ---------------------------------------------------------------------

/** One resolved reference, echoed into AssertFailure::detail. */
struct RefEcho {
    std::string text;
    double value = 0;
};

/** Memoized aggregate evaluations, shared across the per-group
 *  evaluations of one assert: an aggregate's value is
 *  group-independent by construction (its body iterates every group
 *  itself), so re-walking its tokens once per outer group would make
 *  a per-group assert with an aggregate O(groups^2). Keyed by the
 *  token position of the aggregate body. */
struct AggResult {
    double value = 0;
    std::size_t endPos = 0; ///< token position of the closing ')'
    std::vector<RefEcho> refs;
    /** Every group was degraded: the fold had nothing to fold over
     *  and the enclosing evaluation is itself degraded. */
    bool allDegraded = false;
};
using AggCache = std::map<std::size_t, AggResult>;

/** Everything one expression evaluation resolves against: the frame,
 *  the current coordinate group, and the evaluation's diagnostics. */
struct EvalCtx {
    const Scenario &sc;
    const MetricFrame &frame;
    std::size_t group = 0;
    /** True inside an aggregate body: echoes carry the group label and
     *  references do not mark the enclosing assert group-dependent. */
    bool inAggregate = false;

    /** Sweep-axis keys whose group coordinate the evaluation actually
     *  consulted — all of them for a bare reference, the un-pinned
     *  ones for a cross-axis reference, none inside aggregates. Two
     *  groups agreeing on every consulted axis evaluate identically,
     *  which is what lets evaluateAsserts() skip duplicates. */
    std::set<std::string> *consulted = nullptr;
    std::vector<RefEcho> *refs = nullptr;
    AggCache *aggCache = nullptr;

    /** Set when a resolved reference landed on an infrastructure-failed
     *  row (or an aggregate lost every group to degradation) — the
     *  signal the [report] on_failed_points policy acts on. */
    bool *sawFailed = nullptr;
};

void
markFailed(const EvalCtx &ctx)
{
    if (ctx.sawFailed)
        *ctx.sawFailed = true;
}

/** Full-string numeric parse (the assert grammar's NUMBER rule). */
bool
parseNumber(const std::string &s, double *out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (!end || *end != '\0' || end == s.c_str())
        return false;
    *out = v;
    return true;
}

/** Value of @p metric at @p row, with the metric-name diagnostics the
 *  grammar promises. */
bool
metricValue(const EvalCtx &ctx, std::size_t row,
            const std::string &metric, const std::string &ref,
            double *out, std::string *why)
{
    if (metric == "speedup") {
        if (ctx.sc.report.baselineMachine.empty()) {
            *why = "'" + ref +
                   "': speedup needs a [report] baseline_machine";
            return false;
        }
        std::size_t g = ctx.frame.row(row).group;
        if (ctx.frame.rowInGroup(g, ctx.sc.report.baselineMachine) ==
            MetricFrame::npos) {
            *why = "no baseline result for machine '" +
                   ctx.sc.report.baselineMachine + "' at " +
                   ctx.frame.groupLabel(g);
            return false;
        }
    }
    if (ctx.frame.value(row, metric, out))
        return true;
    if (metric.rfind("events.", 0) == 0 ||
        metric.rfind("events_per_mi.", 0) == 0) {
        *why = "'" + ref + "': unknown event counter";
        return false;
    }
    *why = "'" + ref + "': unknown metric '" + metric + "'";
    return false;
}

/** Parse the `[axis=value,...]` selector body of a cross-axis
 *  reference, validating each axis against the current group's
 *  coordinates. */
bool
parseSelector(const EvalCtx &ctx, const std::string &body,
              const std::string &ref,
              std::vector<MetricFrame::Coord> *out, std::string *why)
{
    std::size_t pos = 0;
    while (pos <= body.size()) {
        std::size_t comma = body.find(',', pos);
        std::string item = body.substr(
            pos, comma == std::string::npos ? comma : comma - pos);
        std::size_t eq = item.find('=');
        if (item.empty() || eq == std::string::npos || eq == 0 ||
            eq + 1 >= item.size()) {
            *why = "'" + ref + "': selector '" + item +
                   "' is not axis=value";
            return false;
        }
        MetricFrame::Coord coord{item.substr(0, eq),
                                 item.substr(eq + 1)};
        bool known = false;
        for (const MetricFrame::Coord &c :
             ctx.frame.groupCoords(ctx.group))
            known = known || c.first == coord.first;
        if (!known) {
            *why = "'" + ref + "': selector axis '" + coord.first +
                   "' names no sweep coordinate at " +
                   ctx.frame.groupLabel(ctx.group);
            return false;
        }

        // Numeric normalization: `signal_cycles=5e3` must address the
        // axis value spelled `5000`. An exact spelling match wins;
        // otherwise adopt the spelling of the axis value the selector
        // matches numerically. A value matching nothing either way is
        // a malformed selector — diagnose with the axis's values.
        // The indexed frame precomputes each axis's distinct values in
        // first-seen row order; a linear frame falls back to the scan.
        std::vector<std::string> axisValues;
        if (const std::vector<std::string> *vals =
                ctx.frame.axisValues(coord.first)) {
            axisValues = *vals;
        } else {
            for (std::size_t r = 0; r < ctx.frame.numRows(); ++r) {
                for (const MetricFrame::Coord &c :
                     ctx.frame.row(r).coords) {
                    if (c.first != coord.first)
                        continue;
                    bool dup = false;
                    for (const std::string &v : axisValues)
                        dup = dup || v == c.second;
                    if (!dup)
                        axisValues.push_back(c.second);
                }
            }
        }
        bool exact = false;
        for (const std::string &v : axisValues)
            exact = exact || v == coord.second;
        if (!exact) {
            double want = 0;
            std::string match;
            if (parseNumber(coord.second, &want)) {
                for (const std::string &v : axisValues) {
                    double have = 0;
                    if (parseNumber(v, &have) && have == want) {
                        match = v;
                        break;
                    }
                }
            }
            if (match.empty()) {
                std::string values;
                for (const std::string &v : axisValues)
                    values += (values.empty() ? "" : ", ") + v;
                *why = "'" + ref + "': selector value '" + coord.second +
                       "' matches no value of axis '" + coord.first +
                       "' (values: " + values + ")";
                return false;
            }
            coord.second = match;
        }
        out->push_back(std::move(coord));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return true;
}

/** Resolve `<machine>.<metric>` or the cross-axis
 *  `<machine>[axis=value].<metric>` against the current group. */
bool
resolveRef(const EvalCtx &ctx, const std::string &ref, double *out,
           std::string *why)
{
    std::string metric;
    std::size_t row = MetricFrame::npos;

    std::size_t bracket = ref.find('[');
    if (bracket != std::string::npos) {
        // Cross-axis form: the '[' delimits the machine name exactly.
        const std::string machine = ref.substr(0, bracket);
        bool knownMachine = false;
        for (const MachineSpec &m : ctx.sc.machines)
            knownMachine = knownMachine || m.name == machine;
        if (!knownMachine) {
            *why = "'" + ref + "': '" + machine +
                   "' names no [machine] section";
            return false;
        }
        std::size_t close = ref.find(']', bracket);
        if (close == std::string::npos) {
            *why = "'" + ref + "': missing ']' after the selector";
            return false;
        }
        if (close + 1 >= ref.size() || ref[close + 1] != '.' ||
            close + 2 >= ref.size()) {
            *why = "'" + ref + "': expected '.<metric>' after ']'";
            return false;
        }
        std::vector<MetricFrame::Coord> overrides;
        if (!parseSelector(ctx,
                           ref.substr(bracket + 1, close - bracket - 1),
                           ref, &overrides, why))
            return false;
        if (ctx.consulted && !ctx.inAggregate) {
            // The lookup depends on the group only through the axes
            // the selector leaves unpinned.
            for (const MetricFrame::Coord &c :
                 ctx.frame.groupCoords(ctx.group)) {
                bool pinned = false;
                for (const MetricFrame::Coord &o : overrides)
                    pinned = pinned || o.first == c.first;
                if (!pinned)
                    ctx.consulted->insert(c.first);
            }
        }
        metric = ref.substr(close + 2);
        row = ctx.frame.rowWithOverrides(ctx.group, machine, overrides);
        if (row == MetricFrame::npos) {
            std::string coords;
            for (const MetricFrame::Coord &c : overrides)
                coords += (coords.empty() ? "" : ",") + c.first + "=" +
                          c.second;
            *why = "no result for machine '" + machine + "' at [" +
                   coords + "] from " + ctx.frame.groupLabel(ctx.group);
            return false;
        }
    } else {
        // Plain form: the machine name is the longest [machine] name
        // that prefixes the reference followed by '.' (names may
        // contain '.', so longest match wins).
        const MachineSpec *machine = nullptr;
        for (const MachineSpec &m : ctx.sc.machines) {
            if (ref.size() > m.name.size() + 1 &&
                ref.compare(0, m.name.size(), m.name) == 0 &&
                ref[m.name.size()] == '.' &&
                (!machine || m.name.size() > machine->name.size()))
                machine = &m;
        }
        if (!machine) {
            *why = "'" + ref + "' names no [machine] section";
            return false;
        }
        metric = ref.substr(machine->name.size() + 1);
        row = ctx.frame.rowInGroup(ctx.group, machine->name);
        if (row == MetricFrame::npos) {
            *why = "no result for machine '" + machine->name + "' at " +
                   ctx.frame.groupLabel(ctx.group);
            return false;
        }
        if (ctx.consulted && !ctx.inAggregate) {
            for (const MetricFrame::Coord &c :
                 ctx.frame.groupCoords(ctx.group))
                ctx.consulted->insert(c.first);
        }
    }

    if (!metricValue(ctx, row, metric, ref, out, why))
        return false;
    // A reference landing on an infrastructure-failed row taints the
    // evaluation; the policy layer decides what that means. The value
    // still resolves (the frame's columns exist) so parsing continues
    // and every malformed-expression diagnostic still fires.
    if (harness::runStatusIsInfraFailure(ctx.frame.row(row).status))
        markFailed(ctx);
    if (ctx.refs) {
        std::string text = ref;
        if (ctx.inAggregate)
            text += "[" + ctx.frame.groupLabel(ctx.group) + "]";
        ctx.refs->push_back({std::move(text), *out});
    }
    return true;
}

// ---------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------

struct Tokenizer {
    std::vector<std::string> tokens;
    std::size_t pos = 0;

    explicit Tokenizer(const std::string &text)
    {
        std::istringstream is(text);
        std::string tok;
        while (is >> tok) {
            // Parentheses are their own tokens regardless of spacing
            // ("avg(a + b)" and "avg ( a + b )" parse alike); machine
            // and metric names never contain them, so this cannot
            // split a REF. Square brackets stay inside their token —
            // the selector is parsed by resolveRef.
            std::string cur;
            for (char ch : tok) {
                if (ch == '(' || ch == ')') {
                    if (!cur.empty()) {
                        tokens.push_back(cur);
                        cur.clear();
                    }
                    tokens.emplace_back(1, ch);
                } else {
                    cur += ch;
                }
            }
            if (!cur.empty())
                tokens.push_back(cur);
        }
    }

    const std::string *peek() const
    {
        return pos < tokens.size() ? &tokens[pos] : nullptr;
    }
    const std::string *take()
    {
        return pos < tokens.size() ? &tokens[pos++] : nullptr;
    }
};

bool
isComparison(const std::string &tok)
{
    return tok == "<" || tok == "<=" || tok == ">" || tok == ">=" ||
           tok == "==" || tok == "!=";
}

/** Split `AGG` or `AGG[...]` into the fold's name and its selector
 *  text (brackets included; "" when there is none). False when @p tok
 *  names no aggregate. */
bool
splitAggregate(const std::string &tok, std::string *func,
               std::string *selector)
{
    const std::size_t bracket = tok.find('[');
    *func = tok.substr(0, bracket);
    *selector = bracket == std::string::npos ? "" : tok.substr(bracket);
    return *func == "avg" || *func == "geomean" || *func == "min" ||
           *func == "max" || *func == "sum" || *func == "count";
}

/** The workloads an aggregate selector `[workload.name=<sel>]` picks,
 *  expanded exactly as `[sweep] workload.name = <sel>` would be. */
bool
selectedWorkloads(const std::string &name, const std::string &selector,
                  std::set<std::string> *out, std::string *why)
{
    const std::string key = "[workload.name=";
    if (selector.rfind(key, 0) != 0 || selector.back() != ']' ||
        selector.size() == key.size() + 1) {
        *why = name + ": expected the selector [workload.name=<all|"
                      "suite:NAME|workload>]";
        return false;
    }
    std::string msg;
    for (const wl::WorkloadInfo *info : wl::selectWorkloads(
             selector.substr(key.size(), selector.size() - key.size() - 1),
             &msg))
        out->insert(info->name);
    if (out->empty()) {
        *why = name + ": " + msg;
        return false;
    }
    return true;
}

/** The workload group @p g runs: its `workload.name` coordinate, or
 *  the [workload] target when the sweep does not vary it. */
const std::string &
groupWorkload(const EvalCtx &ctx, std::size_t g)
{
    for (const MetricFrame::Coord &c : ctx.frame.groupCoords(g)) {
        if (c.first == "workload.name")
            return c.second;
    }
    return ctx.sc.workload.name;
}

bool parseSide(Tokenizer &tz, const EvalCtx &ctx, double *out,
               std::string *why);

/** `AGG SELECTOR? '(' side ')'`: evaluate the body once per
 *  coordinate group (re-walking the same tokens with each group's
 *  context) and fold. A selector keeps only the groups whose workload
 *  it picks. */
bool
parseAggregate(Tokenizer &tz, const EvalCtx &ctx, const std::string &func,
               const std::string &selector, double *out, std::string *why)
{
    tz.take(); // the '(' the caller peeked
    const std::size_t start = tz.pos;

    // One aggregate value per token position per assert: replay the
    // memoized result (and its echoes) instead of re-walking the body
    // once per outer coordinate group.
    if (ctx.aggCache) {
        auto hit = ctx.aggCache->find(start);
        if (hit != ctx.aggCache->end()) {
            tz.pos = hit->second.endPos + 1; // past the ')'
            if (ctx.refs)
                ctx.refs->insert(ctx.refs->end(),
                                 hit->second.refs.begin(),
                                 hit->second.refs.end());
            if (hit->second.allDegraded)
                markFailed(ctx);
            *out = hit->second.value;
            return true;
        }
    }

    const std::string name = func + selector;
    std::set<std::string> picked;
    if (!selector.empty() &&
        !selectedWorkloads(name, selector, &picked, why))
        return false;

    std::size_t end = start;
    std::vector<RefEcho> bodyRefs;
    std::vector<double> values;
    std::size_t degraded = 0;
    for (std::size_t g = 0; g < ctx.frame.numGroups(); ++g) {
        if (!picked.empty() && !picked.count(groupWorkload(ctx, g)))
            continue;
        tz.pos = start;
        const std::size_t refMark = bodyRefs.size();
        bool bodyFailed = false;
        EvalCtx inner = ctx;
        inner.group = g;
        inner.inAggregate = true;
        inner.refs = &bodyRefs;
        inner.sawFailed = &bodyFailed;
        double v = 0;
        if (!parseSide(tz, inner, &v, why))
            return false;
        end = tz.pos;
        // Degraded groups stay out of the fold — any group containing
        // an infrastructure-failed point, whether or not this body's
        // references touch the failed row, so ref-less bodies (the
        // `count ( 1 )` idiom) and ref-ful ones fold over the same
        // surviving groups.
        if (bodyFailed || ctx.frame.groupHasFailure(g)) {
            bodyRefs.resize(refMark);
            ++degraded;
            continue;
        }
        values.push_back(v);
    }
    if (degraded > 0)
        bodyRefs.push_back({name + "(...) degraded groups skipped",
                            double(degraded)});
    bool allDegraded = false;
    if (values.empty()) {
        if (degraded == 0) {
            *why = name + "(...): no results to aggregate over";
            return false;
        }
        // Every group was degraded: nothing to fold, so the aggregate
        // itself is degraded and the enclosing evaluation follows the
        // on_failed_points policy.
        allDegraded = true;
        markFailed(ctx);
    }
    tz.pos = end;
    const std::string *close = tz.take();
    if (!close || *close != ")") {
        *why = "expected ')' closing " + name + "(...), got " +
               (close ? "'" + *close + "'"
                      : std::string("end of expression"));
        return false;
    }
    if (ctx.refs)
        ctx.refs->insert(ctx.refs->end(), bodyRefs.begin(),
                         bodyRefs.end());

    if (allDegraded) {
        *out = 0.0;
    } else if (func == "avg") {
        double sum = 0;
        for (double v : values)
            sum += v;
        *out = sum / double(values.size());
    } else if (func == "geomean") {
        double logSum = 0;
        for (double v : values) {
            if (v <= 0.0) {
                *why = name + "(...): non-positive value " +
                       std::to_string(v) + " in the sweep";
                return false;
            }
            logSum += std::log(v);
        }
        *out = std::exp(logSum / double(values.size()));
    } else if (func == "min") {
        *out = *std::min_element(values.begin(), values.end());
    } else if (func == "max") {
        *out = *std::max_element(values.begin(), values.end());
    } else if (func == "sum") {
        double sum = 0;
        for (double v : values)
            sum += v;
        *out = sum;
    } else { // count: groups whose body evaluates nonzero
        std::size_t n = 0;
        for (double v : values)
            n += v != 0.0 ? 1 : 0;
        *out = double(n);
    }
    if (ctx.aggCache)
        (*ctx.aggCache)[start] = {*out, end, std::move(bodyRefs),
                                  allDegraded};
    return true;
}

bool
parseValue(Tokenizer &tz, const EvalCtx &ctx, double *out,
           std::string *why)
{
    const std::string *tok = tz.take();
    if (!tok) {
        *why = "expected a number, <machine>.<metric>, an aggregate, "
               "or '(', got end of expression";
        return false;
    }
    if (*tok == "(") {
        if (!parseSide(tz, ctx, out, why))
            return false;
        const std::string *close = tz.take();
        if (!close || *close != ")") {
            *why = "expected ')', got " +
                   (close ? "'" + *close + "'"
                          : std::string("end of expression"));
            return false;
        }
        return true;
    }
    std::string func, selector;
    if (tz.peek() && *tz.peek() == "(" &&
        splitAggregate(*tok, &func, &selector))
        return parseAggregate(tz, ctx, func, selector, out, why);
    char *end = nullptr;
    double num = std::strtod(tok->c_str(), &end);
    if (end && *end == '\0' && end != tok->c_str()) {
        *out = num;
        return true;
    }
    return resolveRef(ctx, *tok, out, why);
}

bool
parseProduct(Tokenizer &tz, const EvalCtx &ctx, double *out,
             std::string *why)
{
    if (!parseValue(tz, ctx, out, why))
        return false;
    while (const std::string *tok = tz.peek()) {
        if (*tok != "*" && *tok != "/")
            break;
        tz.take();
        double rhs = 0;
        if (!parseValue(tz, ctx, &rhs, why))
            return false;
        if (*tok == "/" && rhs == 0.0) {
            // Fail closed: a guard must not silently pass because the
            // run it divides by never finished (ticks == 0) — unless
            // the evaluation already touched a failed point, in which
            // case zeros are expected and the on_failed_points policy
            // (not a spurious division error) decides the outcome.
            if (ctx.sawFailed && *ctx.sawFailed) {
                *out = 0.0;
                continue;
            }
            *why = "division by zero";
            return false;
        }
        *out = *tok == "*" ? *out * rhs : *out / rhs;
    }
    return true;
}

bool
parseSide(Tokenizer &tz, const EvalCtx &ctx, double *out,
          std::string *why)
{
    if (!parseProduct(tz, ctx, out, why))
        return false;
    while (const std::string *tok = tz.peek()) {
        if (*tok != "+" && *tok != "-")
            break;
        tz.take();
        double rhs = 0;
        if (!parseProduct(tz, ctx, &rhs, why))
            return false;
        *out = *tok == "+" ? *out + rhs : *out - rhs;
    }
    return true;
}

bool
compare(double lhs, const std::string &op, double rhs)
{
    if (op == "<")
        return lhs < rhs;
    if (op == "<=")
        return lhs <= rhs;
    if (op == ">")
        return lhs > rhs;
    if (op == ">=")
        return lhs >= rhs;
    if (op == "==")
        return lhs == rhs;
    return lhs != rhs; // "!="
}

/** Evaluate @p text against the group of @p ctx: an assert
 *  (`side CMP side`; sets @p holds, @p lhs and @p rhs) or, when
 *  @p holds is null, a column (`side`; sets @p lhs). Returns false +
 *  @p why on a malformed expression. */
bool
evaluateOne(const std::string &text, const EvalCtx &ctx, bool *holds,
            double *lhs, double *rhs, std::string *why)
{
    Tokenizer tz(text);
    if (!parseSide(tz, ctx, lhs, why))
        return false;
    std::string cmp;
    if (holds) {
        const std::string *op = tz.take();
        if (!op || !isComparison(*op)) {
            *why = "expected a comparison (<, <=, >, >=, ==, !=), got " +
                   (op ? "'" + *op + "'"
                       : std::string("end of expression"));
            return false;
        }
        cmp = *op;
        if (!parseSide(tz, ctx, rhs, why))
            return false;
    }
    if (const std::string *extra = tz.peek()) {
        *why = "unexpected trailing token '" + *extra + "'";
        return false;
    }
    if (holds)
        *holds = compare(*lhs, cmp, *rhs);
    return true;
}

std::string
failureDetail(double lhs, double rhs, const std::string &where,
              const std::vector<RefEcho> &refs)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "lhs=%g rhs=%g at ", lhs, rhs);
    std::string out = buf + where;
    for (const RefEcho &r : refs) {
        std::snprintf(buf, sizeof(buf), "=%g", r.value);
        out += "; " + r.text + buf;
    }
    return out;
}

/** The part of group @p coords an evaluation depended on: the
 *  "key=value" join over the consulted axes, in coordinate order. */
std::string
projectionLabel(const std::vector<MetricFrame::Coord> &coords,
                const std::set<std::string> &consulted)
{
    std::string out;
    for (const MetricFrame::Coord &c : coords) {
        if (!consulted.count(c.first))
            continue;
        if (!out.empty())
            out += " ";
        out += c.first + "=" + c.second;
    }
    return out;
}

// ---------------------------------------------------------------------
// Table rendering
// ---------------------------------------------------------------------

/** The one table renderer: @p header, then @p rows rows whose cells
 *  @p cells formats on demand. Plain text pads every column to its
 *  widest cell, found by a first pass over the rows (no row is kept);
 *  markdown needs no widths. */
void
emitTable(std::ostream &os, const std::vector<std::string> &header,
          std::size_t rows,
          const std::function<std::vector<std::string>(std::size_t)> &cells,
          bool markdown)
{
    std::vector<std::size_t> widths(header.size());
    for (std::size_t c = 0; c < header.size(); ++c)
        widths[c] = header[c].size();
    if (!markdown) {
        for (std::size_t i = 0; i < rows; ++i) {
            const std::vector<std::string> row = cells(i);
            for (std::size_t c = 0; c < row.size(); ++c)
                widths[c] = std::max(widths[c], row[c].size());
        }
    }

    auto emitRow = [&](const std::vector<std::string> &row) {
        if (markdown) {
            os << "|";
            for (std::size_t c = 0; c < row.size(); ++c)
                os << " " << row[c] << " |";
        } else {
            for (std::size_t c = 0; c < row.size(); ++c) {
                os << (c ? "  " : "");
                os << row[c]
                   << std::string(widths[c] - row[c].size(), ' ');
            }
        }
        os << "\n";
    };

    emitRow(header);
    if (markdown) {
        os << "|";
        for (std::size_t c = 0; c < header.size(); ++c)
            os << " --- |";
        os << "\n";
    } else {
        std::size_t total = 0;
        for (std::size_t c = 0; c < widths.size(); ++c)
            total += widths[c] + (c ? 2 : 0);
        os << std::string(total, '-') << "\n";
    }
    for (std::size_t i = 0; i < rows; ++i)
        emitRow(cells(i));
}

/** The figure's one number format: integers print as integers,
 *  anything else with three decimals. */
std::string
formatNumber(double v)
{
    char buf[64];
    if (v == std::floor(v) && std::fabs(v) < 1e15)
        std::snprintf(buf, sizeof(buf), "%.0f", v == 0.0 ? 0.0 : v);
    else
        std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

} // namespace

bool
evaluateAsserts(const Scenario &sc, const MetricFrame &frame,
                std::vector<AssertFailure> *failures, std::string *err,
                std::size_t *skippedGroups)
{
    if (skippedGroups)
        *skippedGroups = 0;
    if (sc.report.asserts.empty())
        return true;
    const FailedPointPolicy policy = sc.report.onFailedPoints;
    for (const ReportAssert &a : sc.report.asserts) {
        // An evaluation depends on the group only through the axes its
        // references consult (none for aggregate-only "suite claims";
        // the unpinned axes for cross-axis references). Groups that
        // agree on every consulted axis evaluate identically, so each
        // distinct projection is evaluated — and can fail — once.
        // Degraded evaluations never claim their projection: a later
        // clean group with the same projection must still evaluate.
        AggCache aggCache;
        std::set<std::string> consulted;
        std::set<std::string> seen;
        bool consultedKnown = false;
        for (std::size_t g = 0; g < frame.numGroups(); ++g) {
            if (consultedKnown &&
                seen.count(
                    projectionLabel(frame.groupCoords(g), consulted)))
                continue;
            bool holds = false;
            bool sawFailed = false;
            double lhs = 0, rhs = 0;
            std::vector<RefEcho> refs;
            std::string why;
            const EvalCtx ctx{sc,        frame, g,         false,
                              &consulted, &refs, &aggCache, &sawFailed};
            if (!evaluateOne(a.text, ctx, &holds, &lhs, &rhs, &why)) {
                if (err)
                    *err = specError(sc.specPath, a.line,
                                     "assert '" + a.text + "': " + why);
                return false;
            }
            consultedKnown = true;
            std::string where =
                projectionLabel(frame.groupCoords(g), consulted);

            // A group-dependent evaluation is degraded when its group
            // contains a failed point (even one its references missed:
            // the group is the evaluation unit) or its references
            // reached a failed point elsewhere. Suite claims (nothing
            // consulted) are degraded only through their aggregates.
            const bool degraded =
                sawFailed ||
                (!consulted.empty() && frame.groupHasFailure(g));
            if (degraded) {
                if (skippedGroups)
                    ++*skippedGroups;
                if (policy == FailedPointPolicy::RequireAll) {
                    failures->push_back(
                        {a.text, a.line,
                         "references failed point(s) at " +
                             (where.empty() ? "the whole sweep"
                                            : where) +
                             " (on_failed_points=require_all)"});
                }
            } else {
                seen.insert(where);
                if (!holds) {
                    failures->push_back(
                        {a.text, a.line,
                         failureDetail(lhs, rhs,
                                       where.empty()
                                           ? "the whole sweep"
                                           : where,
                                       refs)});
                }
            }
            // Nothing consulted the group: one evaluation covers the
            // sweep.
            if (consulted.empty())
                break;
        }
    }
    return true;
}

void
writeTable(std::ostream &os, const Scenario &sc, const MetricFrame &frame,
           bool markdown)
{
    if (frame.numRows() == 0) {
        os << "(no points)\n";
        return;
    }

    // Column set: machine, workload, the swept coords, then the
    // mode's metrics: Mcycles and the [report]-requested speedups, or
    // the Table-1 classes per 10^6 retired instructions.
    const bool events = sc.report.mode == ReportMode::Events;
    std::vector<std::string> coordKeys;
    for (const MetricFrame::Coord &c : frame.row(0).coords) {
        if (c.first != "workload.name") // already the workload column
            coordKeys.push_back(c.first);
    }
    const bool vsMachine = !events && !sc.report.baselineMachine.empty();
    const bool vsAxis = !events && !sc.report.baselineAxis.empty();
    bool anyInvalid = false;
    bool anyFailed = false;
    for (std::size_t i = 0; i < frame.numRows(); ++i) {
        anyInvalid = anyInvalid || (!events && frame.at(i, "valid") == 0.0);
        anyFailed = anyFailed || frame.at(i, "failed") != 0.0;
    }
    static const char *const kPerMiColumns[] = {
        "events_per_mi.oms_syscalls", "events_per_mi.oms_page_faults",
        "events_per_mi.timer",        "events_per_mi.interrupts",
        "events_per_mi.ams_syscalls", "events_per_mi.ams_page_faults",
        "events_per_mi.serializations"};

    std::vector<std::string> header = {"machine", "workload"};
    header.insert(header.end(), coordKeys.begin(), coordKeys.end());
    if (events) {
        for (const char *k : {"insts(M)", "oms_sys", "oms_pf", "timer",
                              "intr", "ams_sys", "ams_pf", "serial"})
            header.push_back(k);
    } else {
        header.push_back("Mcycles");
    }
    if (vsMachine)
        header.push_back("speedup_vs_" + sc.report.baselineMachine);
    if (vsAxis)
        header.push_back("vs_" + sc.report.baselineAxis + "0");
    if (anyInvalid)
        header.push_back("valid");
    if (anyFailed)
        header.push_back("status");

    auto formatRow = [&](std::size_t i) {
        const MetricFrame::Row &r = frame.row(i);
        std::vector<std::string> row = {r.machine, r.workload};
        for (const std::string &k : coordKeys) {
            std::string v;
            for (const MetricFrame::Coord &c : r.coords) {
                if (c.first == k)
                    v = c.second;
            }
            row.push_back(v);
        }
        char buf[64];
        if (events) {
            std::snprintf(buf, sizeof(buf), "%.2f",
                          frame.at(i, "insts") / 1e6);
            row.push_back(buf);
            for (const char *col : kPerMiColumns) {
                std::snprintf(buf, sizeof(buf), "%.3f", frame.at(i, col));
                row.push_back(buf);
            }
        } else {
            std::snprintf(buf, sizeof(buf), "%.3f",
                          frame.at(i, "mcycles"));
            row.push_back(buf);
        }
        // The speedup cells ("-" without a baseline or a finished run).
        // The frame's derived column is already relative to the
        // baseline machine of this row's group.
        const bool ran = frame.at(i, "ticks") != 0.0;
        auto ratio = [&](bool hasBase, double v) {
            if (!hasBase || !ran)
                return std::string("-");
            std::snprintf(buf, sizeof(buf), "%.3f", v);
            return std::string(buf);
        };
        if (vsMachine)
            row.push_back(ratio(frame.rowInGroup(r.group,
                                                 sc.report.baselineMachine) !=
                                    MetricFrame::npos,
                                frame.at(i, "speedup")));
        if (vsAxis) {
            const std::size_t base =
                frame.axisBaselineRow(i, sc.report.baselineAxis);
            row.push_back(ratio(base != MetricFrame::npos,
                                base != MetricFrame::npos
                                    ? frame.speedupOf(i, base)
                                    : 0.0));
        }
        if (anyInvalid)
            row.push_back(frame.at(i, "valid") != 0.0 ? "yes" : "NO");
        if (anyFailed)
            row.push_back(harness::runStatusName(r.status));
        return row;
    };

    if (!sc.title.empty())
        os << (markdown ? "### " : "") << sc.title << "\n\n";
    if (events)
        os << "Serializing events per 10^6 retired instructions\n"
           << (markdown ? "\n" : "");
    emitTable(os, header, frame.numRows(), formatRow, markdown);
}

bool
writeFigure(std::ostream &os, const Scenario &sc, const MetricFrame &frame,
            bool markdown, std::string *err)
{
    if (sc.report.columns.empty() || frame.numGroups() == 0)
        return true;

    // Like an assert, a column depends on a group only through the
    // axes its references consult, so it is evaluated once per
    // distinct projection onto them. A degraded evaluation renders "-"
    // and does not claim its projection: a later clean group with the
    // same projection still fills the cell.
    struct Column {
        const ReportColumn *spec = nullptr;
        std::set<std::string> consulted;
        AggCache aggCache;
        std::map<std::string, std::string> cells; ///< projection -> cell
    };
    std::vector<Column> cols(sc.report.columns.size());
    for (std::size_t c = 0; c < cols.size(); ++c)
        cols[c].spec = &sc.report.columns[c];

    auto fill = [&](Column &c, std::size_t g) {
        const std::vector<MetricFrame::Coord> &coords = frame.groupCoords(g);
        auto hit = c.cells.find(projectionLabel(coords, c.consulted));
        if (hit != c.cells.end() && hit->second != "-")
            return true;
        bool sawFailed = false;
        double v = 0;
        std::string why;
        const EvalCtx ctx{sc,           frame,   g,           false,
                          &c.consulted, nullptr, &c.aggCache, &sawFailed};
        if (!evaluateOne(c.spec->expr, ctx, nullptr, &v, nullptr, &why)) {
            *err = specError(sc.specPath, c.spec->line,
                             "column '" + c.spec->label + "': " + why);
            return false;
        }
        const bool degraded =
            sawFailed || (!c.consulted.empty() && frame.groupHasFailure(g));
        c.cells[projectionLabel(coords, c.consulted)] =
            degraded ? "-" : formatNumber(v);
        return true;
    };

    // The first evaluation tells which axes each column consults; a
    // column that consults none is a sweep-wide summary line. The
    // table's rows are the distinct projections onto the other
    // columns' axes, in group order.
    std::set<std::string> rowAxes;
    for (Column &c : cols) {
        if (!fill(c, 0))
            return false;
        rowAxes.insert(c.consulted.begin(), c.consulted.end());
    }
    std::vector<std::size_t> rowGroups;
    std::set<std::string> seen;
    for (std::size_t g = 0; g < frame.numGroups() && !rowAxes.empty();
         ++g) {
        for (Column &c : cols) {
            if (!c.consulted.empty() && !fill(c, g))
                return false;
        }
        if (seen.insert(projectionLabel(frame.groupCoords(g), rowAxes))
                .second)
            rowGroups.push_back(g);
    }

    if (!rowGroups.empty()) {
        std::vector<std::string> header;
        for (const MetricFrame::Coord &c : frame.groupCoords(0)) {
            if (rowAxes.count(c.first))
                header.push_back(c.first);
        }
        for (const Column &c : cols) {
            if (!c.consulted.empty())
                header.push_back(c.spec->label);
        }
        os << "\n";
        emitTable(
            os, header, rowGroups.size(),
            [&](std::size_t r) {
                const std::vector<MetricFrame::Coord> &coords =
                    frame.groupCoords(rowGroups[r]);
                std::vector<std::string> row;
                for (const MetricFrame::Coord &c : coords) {
                    if (rowAxes.count(c.first))
                        row.push_back(c.second);
                }
                for (const Column &c : cols) {
                    if (!c.consulted.empty())
                        row.push_back(c.cells.at(
                            projectionLabel(coords, c.consulted)));
                }
                return row;
            },
            markdown);
    }
    bool firstSummary = true;
    for (const Column &c : cols) {
        if (!c.consulted.empty())
            continue;
        os << (firstSummary ? "\n" : "") << (markdown ? "- " : "")
           << c.spec->label << ": " << c.cells.at("") << "\n";
        firstSummary = false;
    }
    return true;
}

} // namespace misp::driver
