/**
 * @file
 * Layer probes of the traced run: interpreter-bound kernels on a
 * harness::BareMachine (the `cpu` engine's ceiling for host MIPS) and
 * an EventQueue schedule + step round trip at fixed occupancy (the
 * `sim` cost every sequencer slice pays). Each probe checks its
 * simulated outcome against fixed expected values, so it cannot
 * silently measure a different program.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

/** One probe and the simulated outcome it must reproduce. */
struct ProbeSpec {
    const char *metric; ///< per-layer metric it reports
    const char *unit;
    /** cpu kernel ("straight_line", "tight_loop", "mem_loop"), or
     *  nullptr for the event-queue probe. */
    const char *kernel;
    unsigned occupancy;  ///< queue: live events
    std::uint64_t steps; ///< queue: EventQueue::step calls
    std::uint64_t expectCount; ///< retired instructions / processed events
    std::uint64_t expectTick;  ///< final simulated tick
};

/** The fixed probe set: three cpu kernels, the queue at 8 and 64 live
 *  events. */
const ProbeSpec *probeSpecs(std::size_t *n);

/**
 * Run @p spec @p reps times and return, in @p value, the median host
 * rate in the spec's unit: Minst/s for a cpu kernel on a
 * harness::BareMachine under the default engine, ns per schedule +
 * step round trip for the queue. Returns false, with @p err set, when
 * any run's simulated outcome differs from the spec's expected values.
 */
bool measureProbe(const ProbeSpec &spec, unsigned reps, double *value,
                  std::string *err);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
