/**
 * @file
 * Reads layer counters out of a point's `--full-stats` dump
 * (stats::StatGroup::dumpJson, RunRecord::statsJson).
 */

#ifndef PERFBENCH_STATS_JSON_HH
#define PERFBENCH_STATS_JSON_HH

#include <map>
#include <string>

namespace perfbench {

/**
 * Add every numeric leaf of the stats dump @p json whose dotted path
 * ends with a key of @p totals (matched on a path-component boundary,
 * so "tlb.misses" matches "misp0.ams1.mmu.tlb.misses" in every
 * processor and sequencer) into that key's total. Returns false on
 * malformed JSON.
 */
bool sumStatLeaves(const std::string &json,
                   std::map<std::string, double> *totals);

} // namespace perfbench

#endif // PERFBENCH_STATS_JSON_HH
