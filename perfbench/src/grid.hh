/**
 * @file
 * The generated `grid_small_points` scenario: grid_large.scn's shape
 * (1p vs misp x signal_cycles x context_xfer_cycles x workers, with its
 * validity and cross-axis asserts) over a 16 x 16 dense_mvm, so each
 * point is tiny and a pass is dominated by per-point driver, harness
 * and workload-build costs rather than by the execution engine.
 */

#ifndef PERFBENCH_GRID_HH
#define PERFBENCH_GRID_HH

#include <cstdint>
#include <string>

namespace perfbench {

/** Sweep values per axis; points = machines (2) x the product. */
constexpr unsigned kGridSignalValues = 20;
constexpr unsigned kGridXferValues = 25;
constexpr unsigned kGridWorkerValues = 4;
constexpr unsigned kGridPoints =
    2 * kGridSignalValues * kGridXferValues * kGridWorkerValues;

/** `.scn` text of the grid for @p seed. The seed picks where the
 *  signal and context-transfer cost ranges start; their lengths, and
 *  so the point count, do not depend on it. */
std::string gridSmallSpec(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_GRID_HH
