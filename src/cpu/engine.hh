/**
 * @file
 * Execution-engine selection for the sequencer inner loop.
 *
 * Two host-side engines produce bit-identical simulated behavior
 * (cycles, ticks, TLB statistics, retired instructions, events):
 *
 *  - Reference: per-instruction fetch + byte-level decode. The ground
 *    truth the superblock engine is differentially tested against.
 *  - Superblock (the default): executes from the per-address-space
 *    predecoded pages (DecodeCache), chains decoded slots into
 *    basic-block superblocks (terminating at branches, page edges,
 *    RTCALLs, and serialization points), folds per-instruction stat
 *    updates into block-local accumulators, and links hot block exits
 *    directly to successor blocks (threaded dispatch).
 *
 * Only host speed differs; the engine is therefore not architectural
 * state (snapshots neither record it nor key compatibility on it).
 */

#ifndef MISP_CPU_ENGINE_HH
#define MISP_CPU_ENGINE_HH

#include <cstdint>
#include <string>

namespace misp::cpu {

enum class Engine : std::uint8_t {
    Reference,  ///< per-instruction fetch + decode (`--engine=ref`)
    Superblock, ///< chained superblock dispatch (`--engine=superblock`)
};

inline const char *
engineName(Engine e)
{
    return e == Engine::Reference ? "ref" : "superblock";
}

/** Parse an `--engine=` / `MISP_ENGINE` / `engine =` value: exactly
 *  one of the names engineName() prints. */
inline bool
parseEngineName(const std::string &s, Engine *out)
{
    for (Engine e : {Engine::Reference, Engine::Superblock}) {
        if (s == engineName(e)) {
            *out = e;
            return true;
        }
    }
    return false;
}

} // namespace misp::cpu

#endif // MISP_CPU_ENGINE_HH
