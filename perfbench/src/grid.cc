#include "grid.hh"

#include "sim/random.hh"

namespace perfbench {

std::string
gridSmallSpec(std::uint64_t seed)
{
    misp::Rng rng(seed);
    const std::uint64_t sigLo = 1000 + rng.next() % 1000;
    const std::uint64_t xferLo = 100 + rng.next() % 100;
    const std::string sig = std::to_string(sigLo) + ".." +
                            std::to_string(sigLo + kGridSignalValues - 1);
    const std::string xfer = std::to_string(xferLo) + ".." +
                             std::to_string(xferLo + kGridXferValues - 1);
    const std::string sigHi = std::to_string(sigLo + kGridSignalValues - 1);

    return "[scenario]\n"
           "name = grid_small_points\n"
           "title = Small-point grid: signal x context-xfer x workers, "
           "MISP vs 1P\n"
           "\n"
           "[machine 1p]\n"
           "processors = 0\n"
           "backend = os\n"
           "\n"
           "[machine misp]\n"
           "processors = 3\n"
           "backend = shred\n"
           "\n"
           "[workload]\n"
           "name = dense_mvm\n"
           "scale = 1\n"
           "param.rows = 16\n"
           "param.dim = 16\n"
           "\n"
           "[sweep]\n"
           "machine.signal_cycles = " + sig + "\n"
           "machine.context_xfer_cycles = " + xfer + "\n"
           "workload.workers = 1.." + std::to_string(kGridWorkerValues) +
           "\n"
           "\n"
           "[report]\n"
           "baseline_machine = 1p\n"
           "assert = min ( 1p.valid ) == 1\n"
           "assert = min ( misp.valid ) == 1\n"
           "assert = misp[machine.signal_cycles=" + std::to_string(sigLo) +
           "].ticks <= misp[machine.signal_cycles=" + sigHi + "].ticks\n"
           "assert = avg ( misp.speedup ) >= 0.9\n";
}

} // namespace perfbench
