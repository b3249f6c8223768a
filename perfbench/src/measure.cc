#include "measure.hh"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <utility>

#include "sim/stats.hh"

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

/** 1-based nearest rank of percentile @p p among @p n samples. The
 *  epsilon keeps exact products such as 0.95 * 200 from rounding up. */
std::size_t
nearestRank(double p, std::size_t n)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

double
tailPercentileFor(std::size_t choiceN, std::size_t minBeyond)
{
    for (double p : {99.0, 95.0, 90.0, 75.0})
        if (choiceN > 0 && choiceN - nearestRank(p, choiceN) >= minBeyond)
            return p;
    return 50;
}

Tail
percentileOf(std::vector<double> samples, double p)
{
    Tail t;
    t.percentile = p;
    t.samples = samples.size();
    if (samples.empty())
        return t;
    std::sort(samples.begin(), samples.end());
    const std::size_t rank = nearestRank(p, samples.size());
    t.value = samples[rank - 1];
    t.beyond = samples.size() - rank;
    return t;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &c : spans) {
        if (c.parent < 0)
            continue;
        const Span &p = spans[static_cast<std::size_t>(c.parent)];
        const double a = std::max(c.start, p.start);
        const double b = std::min(c.end, p.end);
        if (b > a)
            kids[static_cast<std::size_t>(c.parent)].emplace_back(a, b);
    }
    std::vector<double> self(spans.size());
    for (std::size_t s = 0; s < spans.size(); ++s) {
        std::sort(kids[s].begin(), kids[s].end());
        double covered = 0;
        double reach = spans[s].start;
        for (const auto &[a, b] : kids[s]) {
            if (b <= reach)
                continue;
            covered += b - std::max(a, reach);
            reach = b;
        }
        self[s] = (spans[s].end - spans[s].start) - covered;
    }
    return self;
}

void
writeChromeSpans(std::ostream &os, const std::vector<Span> &spans)
{
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << "  {\"name\": " << misp::stats::jsonQuote(s.name)
           << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": ";
        misp::stats::writeJsonNumber(os, s.start * 1e6);
        os << ", \"dur\": ";
        misp::stats::writeJsonNumber(os, (s.end - s.start) * 1e6);
        os << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
           << ", \"point\": " << s.point << "}}"
           << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    os << "], \"displayTimeUnit\": \"ms\"}\n";
}

std::uint64_t
fnv1a(const char *data, std::size_t n, std::uint64_t h)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 0x100000001b3ull;
    }
    return h;
}

CountingSink::int_type
CountingSink::overflow(int_type ch)
{
    flushBuf();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
        *pptr() = traits_type::to_char_type(ch);
        pbump(1);
    }
    return traits_type::not_eof(ch);
}

void
CountingSink::flushBuf()
{
    const std::size_t n = static_cast<std::size_t>(pptr() - pbase());
    bytes_ += n;
    hash_ = fnv1a(pbase(), n, hash_);
    setp(buf_, buf_ + sizeof(buf_));
}

bool
DigestCheck::observe(std::uint64_t digest)
{
    if (!seen_) {
        seen_ = true;
        ref_ = digest;
        return true;
    }
    if (digest == ref_)
        return true;
    ++mismatches_;
    return false;
}

} // namespace perfbench
