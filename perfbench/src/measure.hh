/**
 * @file
 * The benchmark's measurement logic, kept apart from the simulator so
 * it can be tested on its own: order statistics with the tail rule,
 * host-time spans with self time, and the byte-counting, hashing sink
 * the emitters write into.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <streambuf>
#include <string>
#include <vector>

namespace perfbench {

/** Median of @p v (mean of the middle two for even sizes); 0 if empty. */
double median(std::vector<double> v);

/** A tail percentile and the evidence behind it. */
struct Tail {
    double percentile = 0; ///< e.g. 95 for p95
    double value = 0;      ///< the nearest-rank sample at that percentile
    std::size_t beyond = 0;  ///< samples ranked above it
    std::size_t samples = 0; ///< all samples
};

/**
 * The highest of p99, p95, p90, p75 and p50 that leaves at least
 * @p minBeyond of @p choiceN samples ranked above it (nearest rank);
 * p50 when none does. Choosing from a fixed count keeps the percentile
 * the same in every run of a workload.
 */
double tailPercentileFor(std::size_t choiceN, std::size_t minBeyond = 10);

/** Percentile @p p of @p samples by nearest rank. */
Tail percentileOf(std::vector<double> samples, double p);

/** One host-time interval around a call into a layer. Times are
 *  seconds since the run started. */
struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1; ///< index of the enclosing span, -1 for a root
    long point = -1; ///< grid point the span belongs to, -1 for none
};

/** Self time of every span: its duration minus the part of
 *  [start, end) covered by the union of its direct children's
 *  intervals (children may overlap). */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Write @p spans as Chrome trace-event JSON ("X" events, µs). */
void writeChromeSpans(std::ostream &os, const std::vector<Span> &spans);

/** 64-bit FNV-1a, continued from @p h. */
std::uint64_t fnv1a(const char *data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/** A stream buffer that discards what is written but counts the bytes
 *  and hashes them (FNV-1a), so emitters can run without host I/O. */
class CountingSink : public std::streambuf
{
  public:
    CountingSink() { setp(buf_, buf_ + sizeof(buf_)); }

    std::uint64_t bytes() { flushBuf(); return bytes_; }
    std::uint64_t digest() { flushBuf(); return hash_; }

  protected:
    int_type overflow(int_type ch) override;
    int sync() override { flushBuf(); return 0; }

  private:
    void flushBuf();

    char buf_[4096];
    std::uint64_t bytes_ = 0;
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Cross-pass determinism check: every observed digest must equal the
 *  first one. */
class DigestCheck
{
  public:
    /** Record one pass's digest; false if it differs from the first. */
    bool observe(std::uint64_t digest);

    bool consistent() const { return mismatches_ == 0; }
    std::size_t mismatches() const { return mismatches_; }
    std::uint64_t reference() const { return ref_; }

  private:
    bool seen_ = false;
    std::uint64_t ref_ = 0;
    std::size_t mismatches_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
