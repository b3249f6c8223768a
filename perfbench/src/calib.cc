#include "calib.hh"

#include <array>
#include <cstddef>
#include <vector>

namespace perfbench {

namespace {

constexpr std::size_t kProgramOps = 1u << 14; ///< 64 KiB of operations
constexpr std::size_t kDataWords = 1u << 9;   ///< 4 KiB of data

/** The kernel's program and initial data, from a fixed xorshift. */
struct Image {
    std::vector<std::uint32_t> program;
    std::vector<std::uint64_t> data;

    Image() : program(kProgramOps), data(kDataWords)
    {
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        auto next = [&x] {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            return x;
        };
        for (std::uint32_t &op : program)
            op = static_cast<std::uint32_t>(next());
        for (std::uint64_t &w : data)
            w = next();
    }
};

} // namespace

std::uint64_t
calibKernel(std::uint64_t steps)
{
    // Fetch, decode by a switch, register and memory operands, taken
    // and untaken branches: the shape of the simulator's inner loop.
    // Variants with a 1 MiB or 16 MiB table, a short predictable
    // program or pure arithmetic tracked the simulator no better or
    // worse under co-tenant load.
    // The data area is allocated once, so it sits at the same place
    // relative to the stack in every run; a fresh allocation per run
    // moved it, and the kernel's time with it.
    static const Image img;
    static std::vector<std::uint64_t> data;
    data = img.data;
    std::array<std::uint64_t, 16> r{};
    for (std::size_t i = 0; i < r.size(); ++i)
        r[i] = i * 0x100000001b3ull + 1;
    std::size_t pc = 0;
    for (std::uint64_t n = 0; n < steps; ++n) {
        const std::uint32_t op = img.program[pc];
        std::uint64_t &d = r[(op >> 4) & 15];
        const std::uint64_t s = r[(op >> 8) & 15];
        switch (op & 7) {
        case 0: d += s; break;
        case 1: d ^= s * 0xff51afd7ed558ccdull; break;
        case 2: d = data[(s ^ op) & (kDataWords - 1)]; break;
        case 3: data[(d ^ op) & (kDataWords - 1)] = s; break;
        case 4: d = (d >> 7) | (s << 57); break;
        case 5: d -= s + (op >> 12); break;
        case 6:
            if ((d ^ s) & 1)
                pc = (pc + (op >> 16)) & (kProgramOps - 1);
            break;
        default: d = s + 1; break;
        }
        pc = (pc + 1) & (kProgramOps - 1);
    }
    std::uint64_t sum = 0;
    for (std::uint64_t v : r)
        sum = sum * 31 + v;
    return sum;
}

bool
SpeedScale::due(double t) const
{
    return !have_ || t - segmentStart_ >= kCalibSegmentSeconds;
}

void
SpeedScale::calibrated(double start, double end)
{
    have_ = true;
    segmentStart_ = end;
    factor_ = end > start ? kCalibRefSeconds / (end - start) : 1;
}

} // namespace perfbench
