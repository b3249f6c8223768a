#include "probes.hh"

#include <chrono>
#include <memory>
#include <vector>

#include "harness/bare_machine.hh"
#include "measure.hh"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** 2000 ALU ops in sequence (several code pages), run 1000 times by
 *  one backward branch. */
std::string
straightLineSrc()
{
    std::string src = "main:\n    movi r1, 0\nouter:\n";
    static const char *const kOps[4] = {
        "    addi r2, r2, 3\n", "    xori r3, r2, 0x5a\n",
        "    muli r4, r3, 7\n", "    subi r5, r4, 1\n"};
    for (unsigned i = 0; i < 2000; ++i)
        src += kOps[i % 4];
    return src + "    addi r1, r1, 1\n    cmpi r1, 1000\n"
                 "    jcc.lt outer\n    halt\n";
}

const char *const kTightLoopSrc = R"(
    main:
        movi r1, 0
    loop:
        addi r1, r1, 1
        muli r2, r1, 3
        xori r3, r2, 0x55
        cmpi r1, 400000
        jcc.lt loop
        halt
)";

/** Loads and stores through the data-side TLB. */
const char *const kMemLoopSrc = R"(
    main:
        movi r1, 0
        movi r4, 0x100000
    loop:
        ld8 r2, [r4+0]
        addi r2, r2, 1
        st8 [r4+0], r2
        addi r1, r1, 1
        cmpi r1, 333333
        jcc.lt loop
        halt
)";

class SliceEvent : public misp::Event
{
  public:
    explicit SliceEvent(misp::EventQueue &eq)
        : Event("probe.slice", kPrioCpu), eq_(eq)
    {}
    void process() override { eq_.schedule(this, eq_.curTick() + 2500); }

  private:
    misp::EventQueue &eq_;
};

/** Simulated outcome and host time of one probe run. */
struct Outcome {
    std::uint64_t count = 0;
    std::uint64_t tick = 0;
    double seconds = 0;
};

Outcome
runCpuKernel(const std::string &name)
{
    const std::string src = name == "straight_line" ? straightLineSrc()
                            : name == "tight_loop"  ? kTightLoopSrc
                                                    : kMemLoopSrc;
    misp::harness::BareMachine m(src);
    auto t0 = Clock::now();
    m.run();
    Outcome out;
    out.seconds = secondsSince(t0);
    out.count = m.seq.instsRetired();
    out.tick = m.eq.curTick();
    return out;
}

/** @p occupancy events start at ticks 0..occupancy-1; each reschedules
 *  itself one 2500-tick slice later whenever it runs. */
Outcome
runQueueProbe(unsigned occupancy, std::uint64_t steps)
{
    misp::EventQueue eq;
    std::vector<std::unique_ptr<SliceEvent>> events;
    for (unsigned i = 0; i < occupancy; ++i) {
        events.push_back(std::make_unique<SliceEvent>(eq));
        eq.schedule(events.back().get(), i);
    }
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < steps; ++i)
        eq.step();
    Outcome out;
    out.seconds = secondsSince(t0);
    out.count = eq.numProcessed();
    out.tick = eq.curTick();
    // Unschedule before the events die: the queue must not outlive
    // pointers into them.
    for (auto &ev : events)
        eq.deschedule(ev.get());
    return out;
}

// Expected outcomes. Kernels: retired instructions (straight_line
// 1 + 1000 * 2003 + 1, tight_loop 1 + 400000 * 5 + 1, mem_loop
// 2 + 333333 * 6 + 1) and the final tick under the cycle model. Queue:
// after steps = occupancy * R, the last event processed is event
// occupancy-1 of round R-1, at tick (R-1) * 2500 + occupancy - 1.
const ProbeSpec kSpecs[] = {
    {"cpu.probe_mips.straight_line", "Minst/s", "straight_line", 0, 0,
     2003002, 7010555},
    {"cpu.probe_mips.tight_loop", "Minst/s", "tight_loop", 0, 0, 2000002,
     7200079},
    {"cpu.probe_mips.mem_loop", "Minst/s", "mem_loop", 0, 0, 2000001,
     7666713},
    {"sim.queue_ns.occ8", "ns", nullptr, 8, 400000, 400000,
     49999ull * 2500 + 7},
    {"sim.queue_ns.occ64", "ns", nullptr, 64, 400000, 400000,
     6249ull * 2500 + 63},
};

} // namespace

const ProbeSpec *
probeSpecs(std::size_t *n)
{
    *n = sizeof(kSpecs) / sizeof(kSpecs[0]);
    return kSpecs;
}

bool
measureProbe(const ProbeSpec &spec, unsigned reps, double *value,
             std::string *err)
{
    std::vector<double> perUnit;
    for (unsigned r = 0; r < reps; ++r) {
        const Outcome o = spec.kernel
                              ? runCpuKernel(spec.kernel)
                              : runQueueProbe(spec.occupancy, spec.steps);
        if (o.count != spec.expectCount || o.tick != spec.expectTick) {
            *err = std::string(spec.metric) + " probe: count " +
                   std::to_string(o.count) + " tick " +
                   std::to_string(o.tick) + ", expected count " +
                   std::to_string(spec.expectCount) + " tick " +
                   std::to_string(spec.expectTick);
            return false;
        }
        perUnit.push_back(o.seconds / static_cast<double>(o.count));
    }
    const double s = median(perUnit);
    *value = spec.kernel ? 1e-6 / s : s * 1e9;
    return true;
}

} // namespace perfbench
