/**
 * @file
 * Per-address-space predecoded instruction cache.
 *
 * The sequencer's reference fetch path pays a byte-level isa::decode for
 * every retired guest instruction. Real full-system simulators (gem5,
 * SimpleScalar) avoid that with predecoded instruction pages: each guest
 * code page is decoded once into an array of executable entries, and the
 * interpreter inner loop runs straight over decoded slots until it
 * leaves the page, faults, or exhausts its slice.
 *
 * One DecodeCache is owned by each mem::AddressSpace: every sequencer
 * of a MISP processor shares the thread's virtual address space (§2.3),
 * so they also share its predecoded pages, and a CR3 switch can never
 * observe another space's blocks by construction.
 *
 * Coherence. A DecodedPage is a pure derivative of guest memory, so any
 * writer of a code page must invalidate it:
 *
 *  - guest stores (Mmu::write -> noteWrite; a bitmap makes the common
 *    store-to-data-page case one load+mask),
 *  - host-side pokes (AddressSpace::poke and pokeWord),
 *  - mapping changes (AddressSpace::handleFault installing a PTE),
 *  - MISP serialization purges and CR3 writes (the sequencer drops its
 *    cached block; see Sequencer::invalidateDecodedBlock).
 *
 * Invalidation bumps the page's version counter in place — the page
 * allocation itself is stable, so a sequencer can hold a raw pointer and
 * re-validate it with one compare.
 */

#ifndef MISP_CPU_DECODE_CACHE_HH
#define MISP_CPU_DECODE_CACHE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "isa/isa.hh"
#include "mem/paging.hh"
#include "mem/physical_memory.hh"
#include "sim/types.hh"

namespace misp::cpu {

/** Host-dispatch class of a decoded instruction (the opcode table's
 *  class column), precomputed at page-decode time for the superblock
 *  engine. */
using isa::OpClass;

/** One predecoded instruction slot. */
struct DecodedSlot {
    isa::Instruction inst;
    Cycles lat = 0;     ///< precomputed isa::baseLatency(inst.op)
    bool valid = false; ///< decode succeeded (else: InvalidOpcode fault)
    OpClass cls = OpClass::Invalid; ///< precomputed isa::opClass(inst.op)
    /** Precomputed isa::handlerOf(inst); Generic when decode failed. */
    isa::Handler handler = isa::Handler::Generic;
};

struct PageSuperblocks;

/** One guest code page, decoded to directly executable form. */
struct DecodedPage {
    static constexpr std::size_t kSlots =
        mem::kPageSize / isa::kInstBytes;

    std::uint64_t vpn = 0;
    PAddr paBase = 0;     ///< frame the bytes were decoded from
    std::uint64_t version = 0; ///< bumped by every invalidation/redecode
    bool decoded = false;      ///< false between invalidation and redecode
    std::array<DecodedSlot, kSlots> slots{};
    /** Superblock metadata, built lazily on the first chained block exit
     *  and dropped whenever the page is redecoded (the slots it indexes
     *  changed). */
    std::unique_ptr<PageSuperblocks> sbs;
};

/** A chain link: one superblock exit resolved to its successor block.
 *  Pure host-side dispatch acceleration — following a link never skips
 *  the modeled per-instruction fetch, only the page-map and block-map
 *  lookups. A link is dead the moment its target page is redecoded
 *  (version), its address space is switched away (asGen — links can
 *  only ever name pages of the *same* per-address-space DecodeCache,
 *  so a successor in another space is unreachable by construction),
 *  or the page was remapped to a different frame (paBase). */
struct SbLink {
    DecodedPage *page = nullptr; ///< nullptr = unresolved
    std::uint64_t version = 0;   ///< page->version at resolve time
    std::uint64_t asGen = 0;     ///< Mmu::addressSpaceGen() at resolve
    PAddr paBase = 0;            ///< frame the target decoded from
};

/** A basic-block superblock: a run of decoded slots
 *  [start, term) of Inline/Mem class, ended by a terminator at `term`
 *  (Branch, Slow, or Invalid class — or the page edge when
 *  term == DecodedPage::kSlots). The engine runs the slots straight
 *  off the page and keeps per block only the links of its chainable
 *  exits, so a block is built the first time one is taken. */
struct Superblock {
    std::uint16_t start = 0;
    std::uint16_t term = 0; ///< terminator slot; kSlots = page edge
    SbLink taken; ///< successor of the taken static branch / page edge
    SbLink fall;  ///< successor of the fall-through edge (Jcc untaken)
};

/** Per-page superblock store: blocks keyed by their start slot. Blocks
 *  may overlap (a jump into the middle of an existing block starts its
 *  own), so there is at most one block per distinct start — bounded by
 *  kSlots. */
struct PageSuperblocks {
    static constexpr std::uint16_t kNone = 0xFFFF;

    std::vector<Superblock> blocks;
    std::array<std::uint16_t, DecodedPage::kSlots> startAt;

    PageSuperblocks() { startAt.fill(kNone); }
};

/** Out-of-line slow path of superblockAt: allocate the page's
 *  superblock store if needed, scan out the block, record it. */
std::uint32_t buildSuperblockAt(DecodedPage &page, std::uint16_t slot);

/** Index of the superblock starting at @p slot, building it on first
 *  use. May grow page.sbs->blocks (invalidating raw Superblock
 *  pointers — hold indices across calls). */
inline std::uint32_t
superblockAt(DecodedPage &page, std::uint16_t slot)
{
    if (page.sbs) {
        std::uint16_t cached = page.sbs->startAt[slot];
        if (cached != PageSuperblocks::kNone)
            return cached;
    }
    return buildSuperblockAt(page, slot);
}

/** The per-address-space store of predecoded pages. */
class DecodeCache
{
  public:
    explicit DecodeCache(mem::PhysicalMemory &pmem);

    DecodeCache(const DecodeCache &) = delete;
    DecodeCache &operator=(const DecodeCache &) = delete;

    /** Resident decoded page for @p vpn, or nullptr when absent or
     *  invalidated since its last decode. */
    DecodedPage *find(std::uint64_t vpn);

    /** (Re)decode the page at @p vpn from physical frame @p paBase.
     *  Reuses the existing allocation when one exists (its version is
     *  bumped so stale references die). */
    DecodedPage *decodePage(std::uint64_t vpn, PAddr paBase);

    /** Store hook: called for every guest store. O(1) bitmap test; only
     *  stores that land on a currently-decoded page pay the
     *  invalidation. */
    void
    noteWrite(VAddr va)
    {
        const std::uint64_t vpn = mem::pageNumber(va);
        const std::uint64_t word = vpn >> 6;
        if (word < decodedBits_.size() &&
            (decodedBits_[word] >> (vpn & 63)) & 1)
            invalidateVpn(vpn);
    }

    /** Drop one page's decoded contents (unmap, remap, SMC store). */
    void invalidateVpn(std::uint64_t vpn);

    std::uint64_t pagesDecoded() const { return pagesDecoded_; }
    std::uint64_t invalidations() const { return invalidations_; }
    std::size_t residentPages() const { return resident_; }

  private:
    void setBit(std::uint64_t vpn);
    void clearBit(std::uint64_t vpn);

    mem::PhysicalMemory &pmem_;
    std::unordered_map<std::uint64_t, std::unique_ptr<DecodedPage>>
        pages_;
    /** One bit per VPN of the 32-bit guest space: page currently holds
     *  decoded contents. Keeps the per-store coherence probe O(1).
     *  Allocated lazily on the first decode, so address spaces run
     *  only by the reference engine pay nothing. */
    std::vector<std::uint64_t> decodedBits_;

    std::uint64_t pagesDecoded_ = 0;
    std::uint64_t invalidations_ = 0;
    std::size_t resident_ = 0;
};

} // namespace misp::cpu

#endif // MISP_CPU_DECODE_CACHE_HH
