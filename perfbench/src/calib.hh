/**
 * @file
 * Host-speed normalisation of the benchmark's host times.
 *
 * On a shared host the speed of one core drifts by up to 1.5x within
 * seconds (co-tenants on the same caches and cores), and CPU time
 * drifts with it, so raw pass times spread more from run to run than
 * the changes the benchmark must detect. A fixed reference kernel, a
 * small bytecode interpreter written here and sharing no code with the
 * simulator, is timed at the start of each measurement segment; every
 * host time measured in the segment is then scaled by
 * kCalibRefSeconds / (kernel time), i.e. to what it would be on a host
 * that runs the kernel in kCalibRefSeconds. A change to the simulator
 * moves the scaled times and leaves the kernel alone.
 */

#ifndef PERFBENCH_CALIB_HH
#define PERFBENCH_CALIB_HH

#include <cstdint>

namespace perfbench {

/** Interpreted operations in one reference-kernel run. */
constexpr std::uint64_t kCalibSteps = 1000000;

/** Checksum of a kCalibSteps run; anything else is a different kernel. */
constexpr std::uint64_t kCalibChecksum = 0xee2ba0b3ce0de23full;

/** The reference speed: one kernel run, in seconds, on the reference
 *  host (about an unloaded core of a 4-vCPU Xeon VM). */
constexpr double kCalibRefSeconds = 2e-3;

/** Shortest segment between two kernel runs, in seconds. */
constexpr double kCalibSegmentSeconds = 0.02;

/** Run the reference kernel for @p steps interpreted operations and
 *  return its checksum, which depends only on @p steps. */
std::uint64_t calibKernel(std::uint64_t steps);

/**
 * The scale of the current segment. The caller asks due() before each
 * measured piece of work, runs the kernel when it says so and reports
 * the run with calibrated(); scale() then maps host seconds measured
 * until the next run to reference seconds.
 */
class SpeedScale
{
  public:
    /** True at time @p t if no kernel run is recorded yet or the
     *  current segment is at least kCalibSegmentSeconds old. */
    bool due(double t) const;

    /** Record a kernel run over [@p start, @p end) (seconds). */
    void calibrated(double start, double end);

    /** @p seconds of host time in the current segment, scaled to the
     *  reference speed. */
    double scale(double seconds) const { return seconds * factor_; }

  private:
    bool have_ = false;
    double segmentStart_ = 0;
    double factor_ = 1;
};

} // namespace perfbench

#endif // PERFBENCH_CALIB_HH
