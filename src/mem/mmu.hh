/**
 * @file
 * Per-sequencer memory management unit.
 *
 * Every sequencer owns one Mmu: a CR3-style root register, a private TLB,
 * and a hardware page walker. Translation enforces the Ring-3 user bit —
 * this is how an AMS (which only ever runs Ring 3) can never touch kernel
 * mappings — and raises page faults that, on an AMS, become proxy
 * execution triggers.
 *
 * Instruction fetch has two host-side paths with identical modeled
 * behavior:
 *
 *  - fetchTranslate(va, ring, /\*fastPath=*\/false): the reference path —
 *    a full TLB probe per fetch (walking on a miss).
 *  - fetchTranslate(va, ring, /\*fastPath=*\/true): the superblock
 *    engine's path. A one-entry last-translation cache short-circuits
 *    sequential fetches to the same page: while the TLB's content stamp
 *    is unchanged, the hit is *replayed* (reference-bit touch + hit
 *    count + access cycles) without re-scanning the set, so simulated
 *    cycle counts and TLB statistics stay bit-identical to the
 *    reference path.
 */

#ifndef MISP_MEM_MMU_HH
#define MISP_MEM_MMU_HH

#include <cstdint>
#include <cstring>
#include <string>

#include "mem/address_space.hh"
#include "mem/page_table.hh"
#include "mem/paging.hh"
#include "mem/physical_memory.hh"
#include "mem/tlb.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace misp::mem {

/** Execution privilege level (IA-32 ring). MISA models only the two the
 *  paper uses: Ring 0 (kernel) and Ring 3 (user). */
enum class Ring : std::uint8_t { Kernel = 0, User = 3 };

/** Outcome of a translated, executed memory access. */
struct AccessResult {
    Fault fault = Fault::none();
    Cycles cycles = 0; ///< extra cycles beyond the base op latency
    Word value = 0;    ///< loaded value (reads)
};

/** Outcome of an instruction-fetch translation. */
struct FetchResult {
    Fault fault = Fault::none();
    Cycles cycles = 0;
    PAddr pa = 0; ///< physical address of the fetched bundle
};

/** Per-sequencer MMU. */
class Mmu : public snap::Saveable
{
  public:
    Mmu(std::string name, PhysicalMemory &pmem, stats::StatGroup *parent);

    /** Point at an address space; models a CR3 write, so the TLB purges
     *  (unless @p preserveTlb, used when re-synchronizing to the *same*
     *  root after an OMS Ring-0 episode that did not change CR3). */
    void setAddressSpace(AddressSpace *as, bool preserveTlb = false);

    AddressSpace *addressSpace() const { return as_; }
    PageTableRoot root() const { return as_ ? as_->root() : kNullRoot; }

    /** Advances whenever the MMU is pointed at a different address
     *  space (by never-reused space identity, not pointer); cached
     *  decoded-block references are only valid while this is
     *  unchanged. */
    std::uint64_t addressSpaceGen() const { return asGen_; }

    /** Translate-and-load. Alignment must be natural for @p size. */
    AccessResult read(VAddr va, unsigned size, Ring ring);

    /** Translate-and-store. Notifies the address space's decode cache so
     *  stores to predecoded code pages invalidate them (SMC). */
    AccessResult write(VAddr va, Word value, unsigned size, Ring ring);

    /** Instruction fetch (execute access). */
    AccessResult fetch(VAddr va, unsigned size, Ring ring);

    /** Fetch one 16-byte instruction bundle into @p buf. Instructions
     *  must be 16-byte aligned, so a bundle never crosses a page. */
    AccessResult fetchInst(VAddr va, std::uint8_t buf[16], Ring ring);

    /** Translate an instruction fetch without reading the bytes (the
     *  superblock engine executes from decoded pages instead).
     *  @p fastPath enables the one-entry last-translation cache; both
     *  settings produce identical modeled cycles and TLB statistics. */
    FetchResult fetchTranslate(VAddr va, Ring ring, bool fastPath);

    /** True while a fetch of @p va can be *replayed* from the one-entry
     *  last-translation cache: the TLB's content stamp is unchanged
     *  since the cache was filled and @p va stays on the same page in
     *  the same ring. The superblock engine batches such replays —
     *  counting kAccessCycles per instruction locally — and commits the
     *  deferred reference-bit touches and hit counts in one
     *  commitFetchReplays() call, which is bit-identical to touching
     *  per fetch because nothing can have inspected the reference bits
     *  in between (any TLB insert advances stamp() and fails this
     *  check first). */
    bool
    fetchReplayable(VAddr va, Ring ring) const
    {
        return lastFetch_.tlbStamp == tlb_.stamp() &&
               lastFetch_.vpn == pageNumber(va) &&
               lastFetch_.ring == ring;
    }

    /** Commit @p n batched fetch replays (see fetchReplayable()). */
    void
    commitFetchReplays(std::uint64_t n)
    {
        tlb_.touchHitN(lastFetch_.way, n);
    }

    /** Physical base of the page the last fetch translated (valid only
     *  while fetchReplayable() holds for that page). */
    PAddr lastFetchPageBase() const { return lastFetch_.paBase; }

    /** Data-side twin of fetchReplayable(): true while an aligned,
     *  permission-compatible data access to @p va can be replayed from
     *  the one-entry last-data-translation cache (primed by every
     *  translated read/write). Same stamp discipline: any TLB insert,
     *  invalidation, or flush advances stamp() and fails this check, so
     *  batched replay commits stay bit-identical to per-access TLB
     *  probes. The `writable` gate sends writes that might fault down
     *  the full translate path. */
    bool
    dataReplayable(VAddr va, bool isWrite, Ring ring) const
    {
        return lastData_.tlbStamp == tlb_.stamp() &&
               lastData_.vpn == pageNumber(va) &&
               lastData_.ring == ring &&
               (!isWrite || lastData_.writable);
    }

    /** Replayed @p Size-byte load (caller checked dataReplayable +
     *  alignment). Goes straight at the frame's stable byte pointer
     *  with a fixed-width copy; the bytes read are accounted at the
     *  next commitDataReplays(). */
    template <unsigned Size>
    Word
    dataReplayRead(VAddr va)
    {
        static_assert(Size == 1 || Size == 2 || Size == 4 || Size == 8);
        Word v = 0;
        std::memcpy(&v, lastData_.bytes + pageOffset(va), Size);
        replayBytesRead_ += Size;
        return v;
    }

    /** Replayed @p Size-byte store (caller checked dataReplayable +
     *  alignment); keeps the SMC decode-cache probe on the replay
     *  path. */
    template <unsigned Size>
    void
    dataReplayWrite(VAddr va, Word value)
    {
        static_assert(Size == 1 || Size == 2 || Size == 4 || Size == 8);
        std::memcpy(lastData_.bytes + pageOffset(va), &value, Size);
        replayBytesWritten_ += Size;
        as_->decodeCache().noteWrite(va);
    }

    /** Commit @p n batched data replays (see dataReplayable()). */
    void
    commitDataReplays(std::uint64_t n)
    {
        tlb_.touchHitN(lastData_.way, n);
        pmem_.accountReplayBytes(replayBytesRead_, replayBytesWritten_);
        replayBytesRead_ = 0;
        replayBytesWritten_ = 0;
    }

    /** Atomic read-modify-write support: translate once with write
     *  intent, return the physical address for the caller to operate on.
     *  @p refOut (optional) receives a handle to the TLB entry that
     *  served the translation (hit or freshly walked), replayable with
     *  Tlb::touchHit while the TLB stamp is unchanged. */
    AccessResult translate(VAddr va, unsigned size, Access access,
                           Ring ring, PAddr *paOut,
                           Tlb::EntryRef *refOut = nullptr);

    Tlb &tlb() { return tlb_; }

    /** Invalidate one page's TLB entry (shootdown). */
    void invalidatePage(VAddr va) { tlb_.invalidatePage(va); }

    std::uint64_t pageWalks() const
    {
        return static_cast<std::uint64_t>(walks_.value());
    }

    /** Snapshot: the address-space generation and the TLB. The
     *  one-entry last-fetch cache is derived (revalidated against the
     *  TLB stamp) and resets cold on restore with identical modeled
     *  cycles and counters. */
    void snapSave(snap::Serializer &s) const override;
    void snapRestore(snap::Deserializer &d) override;

    /** Restore-path companion to snapRestore: point at the rebuilt
     *  address space WITHOUT the architectural CR3-purge of
     *  setAddressSpace() — the TLB content being restored belongs to
     *  exactly this space. */
    void snapAttach(AddressSpace *as);

  private:
    AddressSpace *as_ = nullptr; ///< snap: attach — see snapAttach()
    PhysicalMemory &pmem_;
    std::uint64_t asGen_ = 1;
    /** id of as_ (0 = none); see setAddressSpace.
     *  snap: attach — re-established by snapAttach(). */
    std::uint64_t lastAsId_ = 0;

    /** One-entry last-translation cache for sequential fetches. */
    struct LastFetch {
        std::uint64_t vpn = 0;
        std::uint64_t tlbStamp = 0; ///< 0 = invalid
        PAddr paBase = 0;
        Ring ring = Ring::User;
        Tlb::EntryRef way;
    } lastFetch_; ///< snap: derived — replay window, rebuilt on demand

    /** One-entry last-translation cache for data accesses (superblock
     *  engine only; primed by translate() on reads and writes). */
    struct LastData {
        std::uint64_t vpn = 0;
        std::uint64_t tlbStamp = 0; ///< 0 = invalid
        std::uint8_t *bytes = nullptr; ///< the frame's backing store
        Ring ring = Ring::User;
        bool writable = false;
        Tlb::EntryRef way;
    } lastData_; ///< snap: derived — replay window, rebuilt on demand

    /** Bytes moved by replayed accesses since the last
     *  commitDataReplays() (folded into the PhysicalMemory counters
     *  there). */
    std::uint64_t replayBytesRead_ = 0;    ///< snap: quiesced
    std::uint64_t replayBytesWritten_ = 0; ///< snap: quiesced

    stats::StatGroup statGroup_;
    Tlb tlb_;
    stats::Scalar walks_;
    stats::Scalar pageFaults_;

  public:
    /** Modeled cache/DRAM latency for a user access that hits the
     *  (unmodeled) cache hierarchy; folded into every access. */
    static constexpr Cycles kAccessCycles = 2;
};

} // namespace misp::mem

#endif // MISP_MEM_MMU_HH
